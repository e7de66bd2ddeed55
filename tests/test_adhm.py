import dataclasses
import io
import itertools
import re
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from adhm_blowup_kit import adhm, cli, linalg, monad
from adhm_blowup_kit.adhm import (
    AdhmConfig,
    GroupElement,
    _compact_block,
    act,
    assemble_a,
    constraint_residual,
    derive_bA,
    dim_group,
    gauge_fix,
    sample_config,
    stabilizer_dim,
    tangent_dims,
    verify_equivalence,
)
from adhm_blowup_kit.errors import (
    DimensionMismatchError,
    FramingViolationError,
    InfeasibleParametersError,
    NonGenericStratumError,
    SamplingFailureError,
)
from adhm_blowup_kit.lattice import monad_dims
from adhm_blowup_kit.linalg import Matrix, block_matrix
from adhm_blowup_kit.monad import (
    SurfacePoint,
    _restrict,
    _spotcheck_points,
    build_monad,
    check_monad_condition,
    framing_verdicts,
    singular_scan,
    validate_config,
)
from adhm_blowup_kit.sections import BlowupPoints
from util import (
    composite_is_zero,
    rand_config,
    rand_group_element,
    rand_invertible,
    rand_matrix,
    reference_qA,
)


def _commutator(x, y):
    return x * y - y * x


def test_assemble_a_n0_is_corner():
    rng = Random(0)
    cfg = rand_config(rng, 1, [], 2)
    assert assemble_a(cfg) == cfg.a00


def test_assemble_a_arrowhead_zeros():
    rng = Random(1)
    cfg = rand_config(rng, 1, [0, 0], 1)
    a = assemble_a(cfg)
    kd, ld = cfg.dims.dim_k, cfg.dims.dim_l
    assert a.shape == (sum(ld), sum(kd))
    # blocks (1,2) and (2,1) vanish
    r1, c1 = ld[0], kd[0]
    assert a.submatrix(r1, r1 + ld[1], c1 + kd[1], c1 + kd[1] + kd[2]).is_zero()
    assert a.submatrix(r1 + ld[1], r1 + ld[1] + ld[2], c1, c1 + kd[1]).is_zero()


def test_derive_bA_n0_formula():
    rng = Random(2)
    cfg = rand_config(rng, 2, [], 2)
    b = derive_bA(cfg)
    inv = cfg.a00.inverse()
    assert b[0] == cfg.aA00[0] * inv
    assert b[1] == cfg.aA00[1] * inv


def test_derive_bA_solves_linear_system():
    rng = Random(3)
    for trial in range(20):
        r = rng.choice((1, 2))
        shape = rng.choice(([1], [0], [1, 0], []))
        k = rng.randint(0 if shape else 1, 2)
        try:
            monad_dims(r, shape, k)
        except InfeasibleParametersError:
            continue
        cfg = rand_config(rng, r, shape, k, normalized=False)
        b = derive_bA(cfg)
        a = assemble_a(cfg)
        kd, ld = cfg.dims.dim_k, cfg.dims.dim_l
        n = cfg.n
        for a_idx in (0, 1):
            lhs = b[a_idx] * a
            from adhm_blowup_kit.linalg import block_matrix
            p_blocks = [Matrix.zeros(kd[0], kd[0])] + [
                Matrix.identity(kd[i + 1]).scale(cfg.point_coord(i + 1, a_idx))
                for i in range(n)
            ]
            a0dot = block_matrix([[cfg.a00] + list(cfg.a0i)], [ld[0]], list(kd))
            pmat = block_matrix(
                [[p_blocks[i] if i == j else Matrix.zeros(kd[i], kd[j])
                  for j in range(n + 1)] for i in range(n + 1)],
                list(kd), list(kd))
            rhs = block_matrix(
                [[cfg.aA00[a_idx]] + [Matrix.zeros(ld[0], kd[i + 1])
                                      for i in range(n)]], [ld[0]], list(kd))
            resid = lhs + a0dot * pmat - rhs
            assert resid.is_zero(), trial


def test_derive_bA_singular_raises():
    cfg = AdhmConfig(1, [], 1, BlowupPoints(()),
                     a00=Matrix.zeros(1, 1), a0i=(), ai0=(), aii=(),
                     aA00=(Matrix([[1]]), Matrix([[2]])),
                     c=Matrix([[1]]), d=Matrix([[0]]))
    # a failed inverse is not kept on the configuration: every reader raises
    for read in (derive_bA, derive_bA, constraint_residual):
        with pytest.raises(FramingViolationError):
            read(cfg)


@pytest.mark.parametrize("change, message", [
    (lambda cfg: {"c": Matrix.zeros(cfg.r + 1, cfg.dims.dim_k[0])}, "c is (3, 2), expected (2, 2)"),
    (lambda cfg: {"points": BlowupPoints(())}, "0 blow-up points for 1 exceptional classes"),
    (lambda cfg: {"aii": ()}, "off-arrow block lists must have length n"),
], ids=["block shape", "points", "off-arrow lengths"])
def test_malformed_config_raises(change, message):
    # config_io rejects malformed files first, so only code builds these
    cfg = sample_config(2, [1], 1, seed=5)
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.init}
    with pytest.raises(DimensionMismatchError, match=re.escape(message)):
        AdhmConfig(**{**fields, **change(cfg)})
    with pytest.raises(DimensionMismatchError, match=re.escape(message)):
        cfg.replace(**change(cfg))
    copy = cfg.replace()
    assert copy == cfg and hash(copy) == hash(cfg) and copy.dims == cfg.dims


def _alpha_qA(cfg):
    """``q^A`` read off alpha's ``z2`` matrix, whose ``L`` rows are ``q^1`` and then ``-q^0``."""
    m = build_monad(cfg)
    tl, tk = cfg.dims.total_l, cfg.dims.total_k
    q1, q0 = (Matrix.from_ints([list(row) for row in m.alpha.mats[2][s:s + tl]], m.alpha.den, tk)
              for s in (0, tl))
    return -q0, q1


def test_alpha_qA_corner_n0():
    rng = Random(4)
    cfg = rand_config(rng, 1, [], 2)
    q = _alpha_qA(cfg)
    assert q[0] == -cfg.aA00[0]
    assert q[1] == -cfg.aA00[1]


def test_alpha_qA_zero_point_shape():
    # with the single centre at the origin every p-scaled block dies
    rng = Random(5)
    cfg = rand_config(rng, 1, [0], 1).replace(points=BlowupPoints([(0, 0)]))
    q = _alpha_qA(cfg)
    kd, ld = cfg.dims.dim_k, cfg.dims.dim_l
    for a_idx in (0, 1):
        assert q[a_idx].submatrix(0, ld[0], 0, kd[0]) == -cfg.aA00[a_idx]
        rest = q[a_idx].submatrix(ld[0], sum(ld), 0, sum(kd))
        assert rest.is_zero()
        assert q[a_idx].submatrix(0, ld[0], kd[0], sum(kd)).is_zero()


def test_constraint_residual_commuting_and_perturbed():
    rng = Random(6)
    k = 3
    a0 = Matrix.from_function(k, k, lambda i, j: (i + 1) if i == j else 0)
    a1 = Matrix.from_function(k, k, lambda i, j: (i - 5) if i == j else 0)
    cfg = AdhmConfig(2, [], k, BlowupPoints(()),
                     a00=Matrix.identity(k), a0i=(), ai0=(), aii=(),
                     aA00=(a0, a1), c=rand_matrix(rng, 2, k),
                     d=Matrix.zeros(k, 2))
    res = constraint_residual(cfg)
    assert res.is_zero()
    # classical commutator form at a00 = Id
    assert res == _commutator(a1, a0) + cfg.d * cfg.c
    perturbed = cfg.replace(d=rand_matrix(rng, k, 2))
    assert not constraint_residual(perturbed).is_zero()


def test_constraint_residual_empty_spaces():
    cfg = AdhmConfig(2, [], 0, BlowupPoints(()),
                     a00=Matrix([], ncols=0), a0i=(), ai0=(), aii=(),
                     aA00=(Matrix([], ncols=0), Matrix([], ncols=0)),
                     c=Matrix([[], []], ncols=0), d=Matrix([], ncols=2))
    assert constraint_residual(cfg).is_zero()


def test_gauge_fix_idempotent_and_roundtrip():
    base = sample_config(2, [1], 1, seed=21)
    assert gauge_fix(base) == base
    rng = Random(7)
    m = rand_invertible(rng, base.dims.dim_l[1])
    pre = base.replace(ai0=(m,), aii=(m * base.aii[0],))
    assert gauge_fix(pre) == base


def test_gauge_fix_preserves_fiber_data():
    from adhm_blowup_kit.monad import SurfacePoint, build_monad, fiber_data
    base = sample_config(2, [1], 1, seed=21)
    rng = Random(77)
    m_blk = rand_invertible(rng, base.dims.dim_l[1])
    pre = base.replace(ai0=(m_blk,), aii=(m_blk * base.aii[0],))
    fixed = gauge_fix(pre)
    assert fixed.is_normalized()
    m_pre, m_fix = build_monad(pre), build_monad(fixed)
    pts = [SurfacePoint.generic(1, 5, 0), SurfacePoint.exceptional(1, 1, 3),
           SurfacePoint.exceptional(1, 0, 1)]
    while len(pts) < 10:
        x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        x1 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        if (x0, x1) not in base.points.points:
            pts.append(SurfacePoint.generic(x0, x1, 1))
    for pt in pts:
        f1, f2 = fiber_data(m_pre, pt), fiber_data(m_fix, pt)
        assert (f1.rank_alpha, f1.fiber_dim) == (f2.rank_alpha, f2.fiber_dim)


def test_gauge_fix_singular_block_raises():
    base = sample_config(2, [1], 1, seed=21)
    pre = base.replace(ai0=(Matrix.zeros(*base.ai0[0].shape),))
    with pytest.raises(NonGenericStratumError):
        gauge_fix(pre)


def test_act_identity_and_scaling():
    cfg = sample_config(2, [], 2, seed=1)
    ident = GroupElement.identity(cfg.dims)
    assert act(ident, cfg) == cfg
    mu = Fraction(3, 2)
    scale = GroupElement(
        g00=Matrix.identity(cfg.dims.dim_l[0]).scale(mu),
        g0i=(), h00=Matrix.identity(cfg.dims.dim_k[0]), hii=())
    moved = act(scale, cfg)
    assert moved.d == cfg.d.scale(mu)
    assert moved.c == cfg.c * scale.h00


def test_act_group_law():
    cfg = sample_config(2, [1], 1, seed=5)
    rng = Random(8)
    for trial in range(20):
        e1 = rand_group_element(rng, cfg.dims)
        e2 = rand_group_element(rng, cfg.dims)
        assert act(e2, act(e1, cfg)) == act(e2.compose(e1), cfg), trial


def test_act_preserves_validity_and_det():
    rng = Random(9)
    cfgs = [sample_config(2, [1], 1, seed=5),
            sample_config(1, [], 2, seed=3),
            sample_config(1, [-1], 0, seed=3)]
    for trial in range(50):
        cfg = cfgs[trial % len(cfgs)]
        el = rand_group_element(rng, cfg.dims)
        moved = act(el, cfg)
        assert assemble_a(moved).det() != 0
        assert constraint_residual(moved).is_zero()
    # and a group move on an invalid configuration keeps it invalid
    bad = cfgs[1].replace(d=rand_matrix(rng, cfgs[1].dims.dim_l[0], cfgs[1].r))
    if not constraint_residual(bad).is_zero():
        el = rand_group_element(rng, bad.dims)
        assert not constraint_residual(act(el, bad)).is_zero()


def test_act_inverse_and_verify_equivalence():
    cfg = sample_config(2, [1], 1, seed=5)
    rng = Random(10)
    el = rand_group_element(rng, cfg.dims)
    moved = act(el, cfg)
    assert verify_equivalence(cfg, moved, el)
    assert act(el.inverse(), moved) == cfg
    other = rand_group_element(rng, cfg.dims)
    assert not verify_equivalence(cfg, moved, other)
    assert verify_equivalence(cfg, cfg, GroupElement.identity(cfg.dims))


def test_stabilizer_trivial_on_samples():
    for cfg in (sample_config(1, [], 1, seed=2),
                sample_config(2, [], 2, seed=2),
                sample_config(1, [-1], 0, seed=2),
                sample_config(2, [1], 1, seed=2)):
        assert stabilizer_dim(cfg) == 0


def test_stabilizer_empty_spaces():
    for r in (1, 2, 3):
        cfg = sample_config(r, [], 0, seed=0)
        assert stabilizer_dim(cfg) == 0
        assert dim_group(cfg.dims) == 0


def test_stabilizer_positive_on_degenerate():
    nilpotent = Matrix([[0, 1], [0, 0]])
    cfg = AdhmConfig(1, [], 2, BlowupPoints(()),
                     a00=Matrix.identity(2), a0i=(), ai0=(), aii=(),
                     aA00=(nilpotent, nilpotent),
                     c=Matrix.zeros(1, 2), d=Matrix.zeros(2, 1))
    assert constraint_residual(cfg).is_zero()
    assert stabilizer_dim(cfg) > 0


def test_stabilizer_needs_invertible_a():
    # the isotropy system is solved for g through a^{-1}
    cfg = sample_config(2, [1], 1, seed=5)
    singular = cfg.replace(a00=Matrix.zeros(*cfg.a00.shape),
                           a0i=tuple(Matrix.zeros(*m.shape) for m in cfg.a0i))
    with pytest.raises(FramingViolationError):
        stabilizer_dim(singular)


def test_sample_deterministic():
    a = sample_config(2, [1], 1, seed=42)
    b = sample_config(2, [1], 1, seed=42)
    assert a == b
    c = sample_config(2, [1], 1, seed=43)
    assert a != c


def test_sample_line_bundle_dims():
    # the line-bundle shape r = 1, k = 0, a = -e_1: the compact block is
    # 1 x 0, so the only data are the centre, a0i and d, both 1 x 1
    for seed in range(5):
        cfg = sample_config(1, [-1], 0, seed=seed)
        assert cfg.dims.dim_k == (0, 1)
        assert cfg.dims.dim_l == (1, 0)
        assert cfg.dims.rank_w == 3
        assert constraint_residual(cfg).is_zero()
        assert cfg.a0i[0][0, 0] != 0 and cfg.d[0, 0] != 0
        assert stabilizer_dim(cfg) == 0


def test_sample_commuting_r_equals_k():
    # n = 0: with B = a00^{-1} aA00[0], the condition is the commutator
    # equation [X', B] + d' c = 0 in X' = a00^{-1} aA00[1], d' = a00^{-1} d
    cfg = sample_config(3, [], 3, seed=11)
    inv = cfg.a00.inverse()
    b, x = inv * cfg.aA00[0], inv * cfg.aA00[1]
    assert (_commutator(x, b) + inv * cfg.d * cfg.c).is_zero()
    assert constraint_residual(cfg).is_zero()
    assert assemble_a(cfg).det() != 0
    assert stabilizer_dim(cfg) == 0


def test_sample_infeasible_raises():
    with pytest.raises(InfeasibleParametersError):
        sample_config(1, [], -1, seed=0)


def test_sample_failure_is_reported(monkeypatch):
    # every draw of (1, (-1), 2) at seed 0 has an invertible a and a system of
    # full rank, so with no stabilizer certified zero, every rejection has
    # that reason
    monkeypatch.setattr(adhm, "_stabilizer_uncertified", lambda cfg: 1)
    with pytest.raises(SamplingFailureError) as info:
        sample_config(1, [-1], 2, seed=0)
    assert info.value.rejections == {
        "singular a": 0, "system not of full rank": 0, "positive stabilizer": 60}
    assert str(info.value).endswith("positive stabilizer: 60")


#: The moduli-sweep grid: r <= 3, n <= 2, a_i in {-1, 0, 1}, k <= 2.
GRID = [(r, a, k) for r in (1, 2, 3) for n in (0, 1, 2)
        for a in itertools.product((-1, 0, 1), repeat=n) for k in (0, 1, 2)]


def test_sampler_certifies_without_exact_elimination(monkeypatch):
    # a draw is accepted or rejected on the modular certificate of its
    # isotropy system alone, and an accepted draw keeps its zero stabilizer
    def rank(self):
        raise AssertionError("exact elimination in the sampler")

    monkeypatch.setattr(Matrix, "rank", rank)
    cfg = sample_config(2, [1], 1, seed=5)
    assert cfg.__dict__["_stabilizer_nullity"] == 0
    # every draw of (1, (2), 0) that solves has a positive stabilizer
    with pytest.raises(SamplingFailureError) as info:
        sample_config(1, [2], 0, seed=0)
    assert info.value.rejections["positive stabilizer"] == 52


def test_isotropy_columns_are_h0_and_the_kernels_of_aii():
    # h0, then one free block Z_i per kernel of aii, dim ker(aii) x dim K_i
    total = 0
    for r, a, k in GRID:
        cfg = sample_config(r, a, k, seed=0)
        kd = cfg.dims.dim_k
        want = kd[0] ** 2 + sum((m.ncols - m.rank()) * m.ncols for m in cfg.aii)
        assert adhm._isotropy_system(cfg).ncols == want, (r, a, k)
        total += want
    assert total == 552


@pytest.mark.parametrize("a", [(3,), (-3,)], ids=["a=3", "a=-3"])
def test_stabilizer_of_the_first_solved_draw_beyond_the_rank(a):
    # with |a_1| > r the first solved draw from Random(0) has a stabilizer of
    # |a_1| (|a_1| - r) = 3, which the sampler's certificate cannot rule out
    rng = Random(0)
    while True:
        try:
            cfg = adhm._solve_draw(adhm._draw(2, a, 1, rng), rng)
        except FramingViolationError:
            continue
        if cfg is not None:
            break
    assert adhm._stabilizer_uncertified(cfg)
    assert stabilizer_dim(cfg) == 3


def test_sample_every_grid_set_validates():
    assert len(GRID) == 117
    for r, a, k in GRID:
        cfg = sample_config(r, a, k, seed=0)
        assert stabilizer_dim(cfg) == 0
        assert validate_config(cfg, seed=0).valid, (r, a, k)
        monad = build_monad(cfg)
        # validate_config reads the framing from a invertible, which forces
        # the fibre criterion on the framing line
        assert framing_verdicts(cfg, monad) == (True, True), (r, a, k)
        # on a monad the K_0 corners of the chart operators commute on S_0,
        # so the scan's completeness rests on their eigenvalues alone
        w0, w1, c = monad.chart
        k0 = c.ncols
        p0, p1 = (w.submatrix(0, k0, 0, k0) for w in (w0, w1))
        assert _commutator(*_restrict(c, [p0, p1])).is_zero(), (r, a, k)


def test_qA_and_bA_match_the_block_reference():
    # alpha's z2 rows read q^A off the kept L_0 strips and p_i^A a on L_i,
    # and b^A is minus the kept L_0 rows of q^A a^{-1}.  T_A = a^{-1} q^A is p_i^A times the
    # identity on each K_i, so the scans keep only its K_0 columns
    for r, a, k in GRID:
        cfg = sample_config(r, a, k, seed=0)
        q = reference_qA(cfg)
        assert _alpha_qA(cfg) == q, (r, a, k)
        ainv, l0 = assemble_a(cfg).inverse(), cfg.dims.dim_l[0]
        assert derive_bA(cfg) == tuple(
            -(m * ainv).submatrix(0, l0, 0, ainv.ncols) for m in q), (r, a, k)
        kd, total = cfg.dims.dim_k, cfg.dims.total_k
        owner = [None] * kd[0] + [i for i in range(1, cfg.n + 1) for _ in range(kd[i])]
        chart = build_monad(cfg).chart
        for A in (0, 1):
            t = ainv * q[A]
            for j, i in enumerate(owner):
                if i is not None:
                    unit = Matrix.column([int(row == j) for row in range(total)])
                    assert t.submatrix(0, total, j, j + 1) == unit.scale(
                        cfg.point_coord(i, A)), (r, a, k, A, j)
            assert t.submatrix(0, total, 0, kd[0]) == chart[A], (r, a, k, A)


def _check_composite_is_the_residual(cfg):
    """The pencils' ``beta . alpha`` is zero but for the compact residual, and validate says so.

    The residual is read through ``monad``, as :func:`validate_config` reads
    it: it must be the ``z2^2`` coefficient on ``(L_0, K_0)``, every other
    entry of every coefficient must vanish, and the report's monad condition
    must be whether the whole composite does.
    """
    dims = cfg.dims
    l0, k0, tl, tk = dims.dim_l[0], dims.dim_k[0], dims.total_l, dims.total_k
    zeros = Matrix.zeros
    corner = block_matrix([[monad.constraint_residual(cfg), zeros(l0, tk - k0)],
                           [zeros(tl - l0, k0), zeros(tl - l0, tk - k0)]],
                          [l0, tl - l0], [k0, tk - k0])
    comp = check_monad_condition(build_monad(cfg))
    assert comp == {mono: corner if mono == (0, 0, 2) else zeros(tl, tk) for mono in comp}
    assert validate_config(cfg).monad_condition is composite_is_zero(comp)
    return comp


def test_composite_is_the_residual_on_every_grid_set():
    # validate_config reads the monad condition from the compact residual
    # alone; the composite of the pencils is the reference it must match,
    # on every sample and on a copy with a perturbed d
    rng, broken_sets = Random(0), 0
    for r, a, k in GRID:
        cfg = sample_config(r, a, k, seed=0)
        assert composite_is_zero(_check_composite_is_the_residual(cfg)), (r, a, k)
        broken = cfg.replace(d=cfg.d + rand_matrix(rng, *cfg.d.shape))
        broken_sets += not composite_is_zero(_check_composite_is_the_residual(broken))
    assert broken_sets >= 60


@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
def test_composite_check_catches_a_planted_residual(monkeypatch, valid):
    cfg = sample_config(2, [1], 1, seed=5)
    if not valid:
        cfg = cfg.replace(d=cfg.d + rand_matrix(Random(6), *cfg.d.shape))
    assert composite_is_zero(_check_composite_is_the_residual(cfg)) is valid
    real = monad.constraint_residual

    def planted(c):
        res = real(c)
        return res + Matrix.from_function(*res.shape, lambda i, j: int(i == j == 0))

    monkeypatch.setattr(monad, "constraint_residual", planted)
    with pytest.raises(AssertionError):
        _check_composite_is_the_residual(cfg)


def test_spot_checks_keep_both_points_of_every_line_and_a_chart_point():
    # twelve points up to n = 5, as ever; beyond, every line keeps its two
    for n in range(8):
        m = build_monad(rand_config(Random(n), 1, (0,) * n, 1))
        pts = _spotcheck_points(m, Random(1))
        assert pts[0] == SurfacePoint.generic(1, 0, 0)
        for i in range(1, n + 1):
            on_line = [pt for pt in pts if pt.exceptional_index == i]
            assert len(on_line) == 2 and SurfacePoint.exceptional(i, 0, 1) in on_line
        chart = pts[1 + 2 * n:]
        assert chart and all(not pt.is_exceptional and pt.coords[2] == 1 for pt in chart)
        assert len(pts) == max(12, 2 * n + 2), n
    rep = validate_config(sample_config(2, (1,) * 6, 3, seed=0), seed=0)
    spots = [s.point for s in rep.fiber_spotchecks]
    assert rep.valid and len(spots) == 14
    assert SurfacePoint.exceptional(6, 0, 1) in spots and not spots[-1].is_exceptional


@pytest.mark.parametrize("r, a, k", [
    (4, (1, 1), 3), (2, (1, 0, -1), 3), (1, (1, 1), 1), (3, (1,), 3), (2, (1, 1), 4),
])
def test_sample_larger_shapes_validate(r, a, k):
    cfg = sample_config(r, a, k, seed=0)
    assert validate_config(cfg, seed=0).valid
    assert tangent_dims(cfg).empirical_moduli_dim == 2 * r * k + (r - 1) * sum(x * x for x in a)


def test_rank_one_scan_is_never_complete_and_empty():
    # a rank-1 sheaf with k >= 1 is L (x) I_Z with length(Z) = k > 0, so a
    # complete scan that finds no point would certify a non-monad
    for r, a, k in GRID:
        if r == 1 and k >= 1:
            for seed in (0, 1):
                scan = singular_scan(build_monad(sample_config(r, a, k, seed=seed)))
                assert scan.points or not scan.complete, (a, k, seed)


@pytest.mark.parametrize("r, a, k", [(1, (), 2), (2, (), 2), (2, (1,), 1), (1, (0, -1), 2),
                                     (3, (1, 0), 1), (1, (-1,), 0), (2, (-1,), 0)])
def test_sylvester_system_is_the_jacobian_columns(r, a, k):
    # the sampler's system in (aA00[1], c) is the Jacobian of the compact
    # residual in those entries, at the draw and at the solved sample
    rng = Random(r + k)
    while True:
        cfg = adhm._draw(r, a, k, rng)
        try:
            system, den = adhm._sylvester_system(cfg)
        except FramingViolationError:  # a singular a: draw again
            continue
        sample = adhm._solve_draw(cfg, rng)
        if sample is not None:
            break
    kd, ld = cfg.dims.dim_k, cfg.dims.dim_l
    l0, k0 = ld[0], kd[0]
    width = l0 * k0 + r * k0
    lhs = Matrix.from_ints([row[:width] for row in system], den, width)
    start = 2 * l0 * k0 + sum(l0 * w + h * w for h, w in zip(ld[1:], kd[1:]))
    for point in (cfg, sample):
        jac = adhm._jacobian(point)
        assert lhs == jac.submatrix(0, jac.nrows, start, start + width)
    # so the sample's Jacobian has the full row rank of the system
    assert sample._jacobian_rank == jac.rank() == l0 * k0
    # X = 0 and c = 0 at the draw, so its compact block is compact(0)
    compact = adhm._compact_block(cfg)
    assert Matrix.from_ints([row[width:] for row in system], den, 1) == \
        Matrix.from_ints([[-x] for row in compact.num for x in row], compact.den, 1)


def test_sampled_jacobian_rank_is_its_rank():
    for r, a, k in GRID:
        for seed in (0, 1):
            cfg = sample_config(r, a, k, seed=seed)
            assert cfg._jacobian_rank == adhm._jacobian(cfg).rank(), (r, a, k, seed)


def test_tangent_examples():
    assert tangent_dims(sample_config(1, [], 1, seed=2)).empirical_moduli_dim == 2
    rep = tangent_dims(sample_config(2, [], 1, seed=2))
    assert rep.empirical_moduli_dim == 4
    assert rep.stabilizer_dim == 0
    assert tangent_dims(sample_config(1, [1], 0, seed=2)).empirical_moduli_dim == 0


def test_tangent_constant_across_samples():
    values = {
        tangent_dims(sample_config(1, [], 2, seed=s)).empirical_moduli_dim
        for s in range(5)
    }
    assert values == {4}


@pytest.mark.parametrize("a_vec", [(), (1,), (0, -1)], ids=["n0", "n1", "n2"])
def test_compact_block_matches_full_products(a_vec):
    rng = Random(30 + len(a_vec))
    nonzero = 0
    for r, k in ((1, 1), (2, 2), (3, 1), (2, 3)):
        cfg = rand_config(rng, r, a_vec, k)
        l0, k0 = cfg.dims.dim_l[0], cfg.dims.dim_k[0]
        ainv = assemble_a(cfg).inverse()
        q = reference_qA(cfg)
        full = q[1] * ainv * q[0] - q[0] * ainv * q[1]
        block = _compact_block(cfg)
        assert block == full.submatrix(0, l0, 0, k0)
        # a [T_1, T_0] vanishes outside the corner even off the monad condition
        assert full.submatrix(l0, full.nrows, 0, full.ncols).is_zero()
        assert full.submatrix(0, l0, k0, full.ncols).is_zero()
        nonzero += not block.is_zero()
    assert nonzero >= 2


def _count_builds(monkeypatch, name: str, module=adhm) -> list:
    """The arguments that ``<module>.<name>`` is called on from now on."""
    built = []
    real = getattr(module, name)

    def counted(cfg):
        built.append(cfg)
        return real(cfg)

    monkeypatch.setattr(module, name, counted)
    return built


GOLDEN_CONFIGS = Path(__file__).parent / "golden" / "configs"


@pytest.mark.parametrize("argv", [
    ["tangent", "-r", "2", "-a", "1", "-k", "1", "--seed", "5", "--json"],
    ["report", str(GOLDEN_CONFIGS / "r1_a-1_k0.json"), "--json"],
], ids=["tangent", "report"])
def test_stabilizer_system_built_once_per_config(monkeypatch, argv):
    # the sampler's acceptance check and tangent_dims, or validate_config and
    # tangent_dims, ask for the stabilizer of the same configuration object
    built = _count_builds(monkeypatch, "_isotropy_system")
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert '"stabilizer_dim": 0' in out.getvalue()
    assert built and sum(cfg is built[-1] for cfg in built) == 1


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_CONFIGS.glob("*.json")))
def test_report_builds_the_monad_once_and_never_composes_it(monkeypatch, name):
    # validate_config reads the monad condition from the compact residual
    builds = _count_builds(monkeypatch, "build_monad", monad)
    composites = _count_builds(monkeypatch, "check_monad_condition", monad)
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["report", str(GOLDEN_CONFIGS / name), "--json"]) == 0
    assert '"monad_identity_zero": true' in out.getvalue()
    assert len(builds) == 1 and composites == []


def test_replaced_config_recomputes_stabilizer(monkeypatch):
    cfg = sample_config(2, [1], 1, seed=5)
    assert stabilizer_dim(cfg) == 0
    built = _count_builds(monkeypatch, "_isotropy_system")
    assert stabilizer_dim(cfg) == 0 and built == []
    framing_free = cfg.replace(c=Matrix.zeros(*cfg.c.shape), d=Matrix.zeros(*cfg.d.shape))
    assert stabilizer_dim(framing_free) == 1
    assert built == [framing_free]
    # the memo is no field: equal data compare equal with or without it
    assert cfg.replace() == cfg
    assert act(GroupElement.identity(cfg.dims), cfg) == cfg


@pytest.mark.parametrize("argv, built", [
    (["tangent", "-r", "2", "-a", "1", "-k", "1", "--seed", "5", "--json"], 0),
    (["tangent", str(GOLDEN_CONFIGS / "r2_a1_k1.json"), "--json"], 1),
    (["report", str(GOLDEN_CONFIGS / "r2_a1_k1.json"), "--json"], 1),
], ids=["sample", "file", "report"])
def test_jacobian_built_only_for_data_from_files(monkeypatch, argv, built):
    # a sample carries its Jacobian rank from the sampler's solve
    jacobians = _count_builds(monkeypatch, "_jacobian")
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert '"dim_ker_jacobian": 13' in out.getvalue()
    assert len(jacobians) == built


def test_replaced_sample_recomputes_jacobian_rank(monkeypatch):
    cfg = sample_config(2, [1], 1, seed=5)
    built = _count_builds(monkeypatch, "_jacobian")
    rep = tangent_dims(cfg)
    assert built == []
    same = cfg.replace()
    assert tangent_dims(same) == rep and built == [same]
    framing_free = cfg.replace(c=Matrix.zeros(*cfg.c.shape), d=Matrix.zeros(*cfg.d.shape))
    assert framing_free._jacobian_rank == adhm._jacobian(framing_free).rank()
    assert built[1:] == [framing_free, framing_free]


@pytest.mark.parametrize("argv, built", [
    (["tangent", "-r", "2", "-a", "1", "-k", "1", "--seed", "5", "--json"], 2),
    (["tangent", str(GOLDEN_CONFIGS / "r2_a1_k1.json"), "--json"], 1),
    (["report", str(GOLDEN_CONFIGS / "r2_a1_k1.json"), "--json"], 1),
], ids=["sample", "file", "report"])
def test_q_strips_built_once_per_config(monkeypatch, argv, built):
    # the sampler's system on the draw, then the isotropy system, the
    # residual and the Jacobian on the sample, all from the kept strips
    strips = _count_builds(monkeypatch, "_q_strips")
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert '"dim_ker_jacobian": 13' in out.getvalue()
    assert len(strips) == len({id(cfg) for cfg in strips}) == built


def test_replaced_config_rebuilds_q_strips(monkeypatch):
    cfg = sample_config(2, [1], 1, seed=5)
    assert cfg._strips == adhm._q_strips(cfg)
    built = _count_builds(monkeypatch, "_q_strips")
    assert constraint_residual(cfg).is_zero() and built == []
    moved = cfg.replace(aA00=(cfg.aA00[0], cfg.aA00[1].scale(2)))
    assert moved._strips[0][1] != cfg._strips[0][1] and built == [moved]
    # so are the products with a^{-1}, which the sampler's checks formed
    products = {"_qa_rows", "_aq_cols"}
    assert products <= cfg.__dict__.keys() and not products & moved.__dict__.keys()
    ainv = moved._a_inverse
    assert moved._qa_rows == tuple(m * ainv for m in moved._strips[0])
    assert moved._qa_rows[1] != cfg._qa_rows[1]
    k0 = cfg.dims.dim_k[0]
    assert moved._aq_cols.submatrix(0, ainv.nrows, k0, 2 * k0) == ainv * moved._strips[1][1]


@pytest.mark.parametrize("argv, bound", [
    (["tangent", "-r", "2", "-a", "1", "-k", "1", "--seed", "5", "--json"], 4),
    (["report", str(GOLDEN_CONFIGS / "r2_a1_k1.json"), "--json"], 3),
], ids=["tangent", "report"])
def test_products_with_a_inverse_formed_once(monkeypatch, argv, bound):
    # tangent: the sampler's system on the draw forms the L_0 rows of
    # q^A a^{-1}; on the sample the isotropy system forms the K_0 columns of
    # a^{-1} q^A and the residual the q^1 rows again, as the sample keeps the
    # draw's q^0 rows.  report: the rows and the
    # columns; b^A, the scan's chart corners and the Jacobian read the kept
    # products
    kept, products = [], []
    inversion = AdhmConfig.__dict__["_a_inverse"]
    real_inverse, real_mul = inversion.func, Matrix.__mul__

    def inverse(cfg):
        kept.append(real_inverse(cfg))
        return kept[-1]

    def mul(self, other):
        if any(m is self or m is other for m in kept):
            products.append((self.shape, other.shape))
        return real_mul(self, other)

    monkeypatch.setattr(inversion, "func", inverse)
    monkeypatch.setattr(Matrix, "__mul__", mul)
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert '"dim_ker_jacobian": 13' in out.getvalue()
    assert len(products) <= bound


def test_report_inverts_a_once(monkeypatch):
    # validate_config's residual, build_monad's b^A and tangent's Jacobian
    # read one a^{-1}, kept on the configuration object
    shapes = []
    real = Matrix.inverse

    def counted(self):
        shapes.append(self.shape)
        return real(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    argv = ["report", str(GOLDEN_CONFIGS / "r2_a1_k1.json"), "--json"]
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert '"tangent"' in out.getvalue()
    assert shapes == [(3, 3)]


@pytest.mark.parametrize("argv, derived", [
    (["sample", "-r", "2", "-a", "1", "-k", "1", "--seed", "5"], 0),
    (["report", str(GOLDEN_CONFIGS / "r2_a1_k1.json"), "--json"], 1),
], ids=["sample", "report"])
def test_bA_derived_once_per_config(monkeypatch, argv, derived):
    # build_monad reads b^A, kept on the configuration object; the residual
    # needs none, so the sampler, which builds no monad, derives none
    built = []
    derivation = AdhmConfig.__dict__["_bA"]
    real = derivation.func

    def counted(cfg):
        built.append(cfg)
        return real(cfg)

    monkeypatch.setattr(derivation, "func", counted)
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert len(built) == derived


def test_sample_inverts_each_attempt_once(monkeypatch):
    # replace(aA00=..., c=...) hands each draw's a^{-1} on, so the stabilizer
    # check and the final residual guard read it instead of inverting a again
    inverted, attempts = [], []
    real_inverse, real_points = Matrix.inverse, adhm._rand_points

    def inverse(self):
        inverted.append(self.shape)
        return real_inverse(self)

    def points(rng, n):  # drawn once per attempt
        attempts.append(n)
        return real_points(rng, n)

    monkeypatch.setattr(Matrix, "inverse", inverse)
    monkeypatch.setattr(adhm, "_rand_points", points)
    monkeypatch.setattr(adhm, "_stabilizer_uncertified", lambda cfg: len(attempts) < 3)
    cfg = sample_config(2, [1], 1, seed=5)
    assert len(attempts) == 3 and len(inverted) == len(attempts)
    # a change to a block of a drops the kept inverse
    assert "_a_inverse" not in cfg.replace(a00=cfg.a00.scale(2)).__dict__
