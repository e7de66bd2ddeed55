import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.rings import ring

from adhm_blowup_kit import config_io
from adhm_blowup_kit import monad as monad_mod
from adhm_blowup_kit.adhm import (
    AdhmConfig,
    assemble_a,
    constraint_residual,
    derive_bA,
    sample_config,
)
from adhm_blowup_kit.cli import main
from adhm_blowup_kit.errors import (
    AmbiguousPointError,
    InfeasibleParametersError,
    MonadDegeneracyError,
    NotInPError,
)
from adhm_blowup_kit.lattice import ChernCharacter, DivisorClass, monad_dims
from adhm_blowup_kit.linalg import Matrix
from adhm_blowup_kit.monad import (
    ScanResult,
    SurfacePoint,
    build_monad,
    check_monad_condition,
    cohomology_ch_check,
    fiber_data,
    framing_check,
    framing_verdicts,
    singular_scan,
    validate_config,
    _scan_chart,
    _scan_divisor,
)
from adhm_blowup_kit.sections import (
    BlowupPoints,
    lower_pair,
    w_section,
    z_section,
)
from util import (
    X0,
    X1,
    _all_minors,
    _compressed_dets,
    chart_entries,
    coefficient_block,
    common_zeros_2d,
    composite_is_zero,
    line_entries,
    pencil_sections,
    rand_config,
    rand_matrix,
    reference_scan_chart,
    reference_scan_divisor,
    section_coefficients,
    section_composite,
    section_maps,
)


FIXTURES = Path(__file__).parent / "fixtures"


def pinned_sample(name: str) -> AdhmConfig:
    """A configuration an earlier sampler drew, kept for the drop points it has."""
    cfg, _seed = config_io.config_from_json(json.loads((FIXTURES / name).read_text()))
    return cfg


def hilbert_k2_config() -> AdhmConfig:
    # length-2 ideal-sheaf data: rank drops exactly at (0:0:1) and (1:1:1)
    return AdhmConfig(
        1, [], 2, BlowupPoints(()),
        a00=Matrix.identity(2), a0i=(), ai0=(), aii=(),
        aA00=(Matrix([[0, 0], [0, -1]]), Matrix([[0, 0], [0, -1]])),
        c=Matrix.zeros(1, 2), d=Matrix([[1], [1]]),
    )


def test_build_monad_classical_plane_shape():
    rng = Random(0)
    cfg = rand_config(rng, 1, [], 1)
    alpha, beta = pencil_sections(build_monad(cfg))
    assert len(alpha) == 3 and len(alpha[0]) == 1
    assert len(beta) == 1 and len(beta[0]) == 3
    ctx = cfg.points
    zl = lower_pair((z_section(ctx, 0), z_section(ctx, 1)))
    z2 = z_section(ctx, 2)
    aA_low = lower_pair(cfg.aA00)
    for a_idx in (0, 1):
        expected = zl[a_idx].scale(cfg.a00[0, 0]) + z2.scale(aA_low[a_idx][0, 0])
        assert alpha[a_idx][0] == expected
    assert alpha[2][0] == z2.scale(cfg.c[0, 0])
    b = derive_bA(cfg)
    for a_idx in (0, 1):
        expected = z_section(ctx, a_idx) + z2.scale(b[a_idx][0, 0])
        assert beta[0][a_idx] == expected
    assert beta[0][2] == z2.scale(cfg.d[0, 0])


def test_build_monad_line_bundle_shape():
    cfg = sample_config(1, [-1], 0, seed=7)
    alpha, beta = pencil_sections(build_monad(cfg))
    ctx = cfg.points
    wl = lower_pair((w_section(ctx, 1, 0), w_section(ctx, 1, 1)))
    # alpha: single K_1 column hitting the two L_0 slots
    assert alpha[0][0] == wl[0].scale(cfg.a0i[0][0, 0])
    assert alpha[1][0] == wl[1].scale(cfg.a0i[0][0, 0])
    assert alpha[2][0].is_zero()
    # beta row: z^A + b^A z2, then d z2
    b = derive_bA(cfg)
    z2 = z_section(ctx, 2)
    for a_idx in (0, 1):
        assert beta[0][a_idx] == z_section(ctx, a_idx) + z2.scale(b[a_idx][0, 0])
    assert beta[0][2] == z2.scale(cfg.d[0, 0])


def test_entry_bidegrees_match_slots():
    cfg = sample_config(2, [1], 1, seed=5)
    alpha, beta = pencil_sections(build_monad(cfg))
    kd, ld = cfg.dims.dim_k, cfg.dims.dim_l
    col_bids = []
    for j in range(cfg.n + 1):
        q = [0] * cfg.n
        if j >= 1:
            q[j - 1] = -1
        col_bids.extend([DivisorClass(1, q)] * kd[j])
    for row in alpha:
        for entry, bid in zip(row, col_bids):
            assert entry.bidegree == bid
    row_bids = []
    for i in range(cfg.n + 1):
        q = [0] * cfg.n
        if i >= 1:
            q[i - 1] = -1
        row_bids.extend([DivisorClass(1, q)] * ld[i])
    for row, bid in zip(beta, row_bids):
        for entry in row:
            assert entry.bidegree == bid


def test_monad_condition_zero_iff_valid():
    valid = sample_config(2, [1], 1, seed=5)
    assert composite_is_zero(check_monad_condition(build_monad(valid)))
    rng = Random(1)
    broken = valid.replace(d=valid.d + rand_matrix(rng, *valid.d.shape))
    comp = check_monad_condition(build_monad(broken))
    assert not composite_is_zero(comp)


def test_lower_rows_vanish_for_any_configuration():
    # rows i >= 1 die on w^A w_A = 0 regardless of validity
    rng = Random(2)
    for _ in range(5):
        cfg = rand_config(rng, rng.choice((1, 2)), rng.choice(([1], [0], [1, 0])),
                          1, normalized=False)
        comp = check_monad_condition(build_monad(cfg))
        l0 = cfg.dims.dim_l[0]
        for coeff in comp.values():
            assert coeff.submatrix(l0, coeff.nrows, 0, coeff.ncols).is_zero()


def test_evaluated_matrices_match_entrywise_evaluation():
    cfg = sample_config(2, [1, 0], 1, seed=0)
    m = build_monad(cfg)
    plane = SurfacePoint.generic(Fraction(3, 7), Fraction(-5, 2), 2)
    line = SurfacePoint.exceptional(2, 1, Fraction(5, 3))
    for maps, at in zip(section_maps(cfg), (m.alpha_at, m.beta_at)):
        assert at(plane) == Matrix([[e.eval_generic(plane.coords) for e in row]
                                    for row in maps])
        assert at(line) == Matrix([[e.eval_exceptional(2, line.coords) for e in row]
                                   for row in maps])
    # the point is refused as eval_generic / eval_exceptional refuse it
    p0, p1 = cfg.points.points[0]
    for at in (m.alpha_at, m.beta_at):
        with pytest.raises(AmbiguousPointError):
            at(SurfacePoint.generic(2 * p0, 2 * p1, 2))
        with pytest.raises(ValueError):
            at(SurfacePoint.exceptional(3, 1, 0))


def test_perturbation_localised_to_quadratic_coefficient():
    valid = sample_config(2, [1], 1, seed=5)
    rng = Random(3)
    broken = valid.replace(d=valid.d + rand_matrix(rng, *valid.d.shape))
    comp = section_composite(*section_maps(broken), broken.dims, broken.points)
    dims = broken.dims
    # the only nonzero coefficients sit in block (0,0) at monomial z2^2
    res = constraint_residual(broken)
    assert coefficient_block(comp, dims, 0, 0, (0, 0, 2)) == res
    nonzero = sum(len(e.poly) for row in comp for e in row)
    in_block = sum(1 for row in res.rows for x in row if x != 0)
    assert nonzero == in_block > 0
    # the pencils' composite holds the same coefficients, monomial by monomial
    assert check_monad_condition(build_monad(broken)) == section_coefficients(comp, dims)


def test_fiber_line_bundle_constant_rank_one():
    cfg = sample_config(1, [-1], 0, seed=7)
    m = build_monad(cfg)
    rng = Random(4)
    pts = [SurfacePoint.generic(1, 0, 0), SurfacePoint.generic(0, 1, 0),
           SurfacePoint.exceptional(1, 0, 1), SurfacePoint.exceptional(1, 1, 0)]
    while len(pts) < 25:
        x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        x1 = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        if (x0, x1) in cfg.points.points:
            continue
        pts.append(SurfacePoint.generic(x0, x1, 1))
        pts.append(SurfacePoint.exceptional(1, 1, x0))
    for pt in pts[:25]:
        assert fiber_data(m, pt).fiber_dim == 1


def test_fiber_hilbert_jumps_at_eigenvalue_points():
    cfg = hilbert_k2_config()
    m = build_monad(cfg)
    for z in ((0, 0), (1, 1)):
        fd = fiber_data(m, SurfacePoint.generic(z[0], z[1], 1))
        assert fd.fiber_dim == 2
    for z in ((2, 0), (5, 7), (1, 0), (0, 1)):
        fd = fiber_data(m, SurfacePoint.generic(z[0], z[1], 1))
        assert fd.fiber_dim == 1
    assert fiber_data(m, SurfacePoint.generic(1, 5, 0)).fiber_dim == 1


def test_fiber_trivial_rank_two():
    cfg = sample_config(2, [], 0, seed=0)
    m = build_monad(cfg)
    for pt in (SurfacePoint.generic(1, 2, 1), SurfacePoint.generic(1, 0, 0)):
        assert fiber_data(m, pt).fiber_dim == 2


def test_fiber_frame_invariance():
    cfg = sample_config(2, [1], 1, seed=5)
    m = build_monad(cfg)
    rng = Random(5)
    for _ in range(5):
        x0 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        x1 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if (x0, x1) in cfg.points.points:
            continue
        s = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        f1 = fiber_data(m, SurfacePoint.generic(x0, x1, 1))
        f2 = fiber_data(m, SurfacePoint.generic(s * x0, s * x1, s))
        assert (f1.rank_alpha, f1.fiber_dim) == (f2.rank_alpha, f2.fiber_dim)
        w = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(1, 5)))
        g1 = fiber_data(m, SurfacePoint.exceptional(1, w[0], w[1]))
        g2 = fiber_data(m, SurfacePoint.exceptional(1, s * w[0], s * w[1]))
        assert (g1.rank_alpha, g1.fiber_dim) == (g2.rank_alpha, g2.fiber_dim)


def test_beta_degenerate_flagged():
    # c = 0, d = 0 at k = 1: beta vanishes at the eigenvalue point
    cfg = AdhmConfig(1, [], 1, BlowupPoints(()),
                     a00=Matrix.identity(1), a0i=(), ai0=(), aii=(),
                     aA00=(Matrix([[-2]]), Matrix([[-3]])),
                     c=Matrix.zeros(1, 1), d=Matrix.zeros(1, 1))
    m = build_monad(cfg)
    with pytest.raises(MonadDegeneracyError):
        fiber_data(m, SurfacePoint.generic(2, 3, 1))


def test_beta_restriction_to_divisor_has_constant_corank():
    cfg = sample_config(2, [1], 1, seed=5)
    m = build_monad(cfg)
    ld = cfg.dims.dim_l
    rng = Random(6)
    for _ in range(5):
        w = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(1, 5)))
        b = m.beta_at(SurfacePoint.exceptional(1, w[0], w[1]))
        row_block = b.submatrix(ld[0], ld[0] + ld[1], 0, b.ncols)
        assert row_block.rank() == ld[1]


def test_scan_hilbert_exact_points():
    m = build_monad(hilbert_k2_config())
    scan = singular_scan(m)
    assert scan.complete
    assert [p.coords for p in scan.points] == [
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(1)),
    ]


def test_scan_line_bundle_empty():
    m = build_monad(sample_config(1, [-1], 0, seed=7))
    scan = singular_scan(m)
    assert scan.points == () and scan.complete


def test_scan_eigenvalue_oracle_random_diagonals():
    # independent oracle: for diagonal data with c = 0 the drop locus is the
    # negated eigenvalue pairs
    rng = Random(7)
    for _ in range(3):
        k = 2
        eig0 = sorted({rng.randint(-3, 3) for _ in range(k)})
        while len(eig0) < k:
            eig0.append(eig0[-1] + 1)
        eig1 = [rng.randint(-3, 3) for _ in range(k)]
        a0 = Matrix.from_function(k, k, lambda i, j: eig0[i] if i == j else 0)
        a1 = Matrix.from_function(k, k, lambda i, j: eig1[i] if i == j else 0)
        cfg = AdhmConfig(1, [], k, BlowupPoints(()),
                         a00=Matrix.identity(k), a0i=(), ai0=(), aii=(),
                         aA00=(a0, a1), c=Matrix.zeros(1, k),
                         d=Matrix([[1]] * k))
        expected = sorted({(Fraction(-e0), Fraction(-e1), Fraction(1))
                           for e0, e1 in zip(eig0, eig1)})
        m = build_monad(cfg)
        scan = singular_scan(m)
        assert [p.coords for p in scan.points] == expected
        # total fibre jump equals the length k when the pairs are distinct
        if len(set(zip(eig0, eig1))) == k:
            jumps = sum(fiber_data(m, p).fiber_dim - 1 for p in scan.points)
            assert jumps == k


def isolated_drop_config() -> AdhmConfig:
    # with a11 = 0 and c = 0 the two alpha columns become dependent at the
    # single point of E_1 where (w0 : w1) = (u1 : -u0), for
    # u_A = a00 p_A + lowered(aA00)_A; here u = (-2, 5/2), so (5/2 : 2)
    p = (Fraction(2), Fraction(-1))
    return AdhmConfig(1, [0], 1, BlowupPoints([p]),
                      a00=Matrix([[1]]), a0i=(Matrix([[1]]),),
                      ai0=(Matrix([[1]]),), aii=(Matrix([[0]]),),
                      aA00=(Matrix([[Fraction(1, 2)]]), Matrix([[3]])),
                      c=Matrix([[0]]), d=Matrix([[1]]))


def diagonal_config(pairs) -> AdhmConfig:
    # n = 0, r = 1: a00 = Id, aA00 = diag(pairs), c = 0; alpha drops rank
    # exactly at the points (-lambda_i : -mu_i : 1)
    k = len(pairs)
    return AdhmConfig(
        1, [], k, BlowupPoints(()),
        a00=Matrix.identity(k), a0i=(), ai0=(), aii=(),
        aA00=tuple(Matrix.from_function(k, k, lambda i, j, a=a: pairs[i][a]
                                        if i == j else 0) for a in (0, 1)),
        c=Matrix.zeros(1, k), d=Matrix([[1]] * k),
    )


def test_scan_isolated_drop_on_exceptional_line():
    cfg = isolated_drop_config()
    assert assemble_a(cfg).det() != 0
    m = build_monad(cfg)
    scan = singular_scan(m)
    assert scan.complete
    assert len(scan.points) == 1
    pt = scan.points[0]
    assert pt.exceptional_index == 1
    assert pt.coords == (Fraction(1), Fraction(4, 5))
    assert fiber_data(m, pt).fiber_dim == 2


def test_scan_not_in_p_for_curve_drop():
    # K_0 column proportional to lambda_1 vanishes along E_1 while a stays
    # invertible
    p = (Fraction(2), Fraction(3))
    a00 = Matrix([[1]])
    cfg = AdhmConfig(1, [0], 1, BlowupPoints([p]),
                     a00=a00, a0i=(Matrix([[1]]),), ai0=(Matrix([[1]]),),
                     aii=(Matrix([[2]]),),
                     aA00=(a00.scale(-p[0]), a00.scale(-p[1])),
                     c=Matrix.zeros(1, 1), d=Matrix.zeros(1, 1))
    assert assemble_a(cfg).det() != 0
    m = build_monad(cfg)
    for scan in (singular_scan, lambda m: _scan_divisor(m, 1),
                 lambda m: reference_scan_divisor(m, 1, Random(1), use_all_minors=True)):
        with pytest.raises(NotInPError):
            scan(m)


def test_scan_compressed_agrees_with_exact():
    # in the chart, the reference elimination against the joint eigenvalues
    for cfg in (hilbert_k2_config(), sample_config(2, [1], 1, seed=5)):
        m = build_monad(cfg)
        exact_pts, _ = reference_scan_chart(m, Random(1), use_all_minors=True)
        comp_pts, _ = reference_scan_chart(m, Random(2), use_all_minors=False)
        eigen_pts, _ = _scan_chart(m)
        assert sorted(p.coords for p in exact_pts) == \
            sorted(p.coords for p in comp_pts) == sorted(p.coords for p in eigen_pts)
    # on the exceptional lines, the reference elimination against the
    # eigenvalue route; the pinned n = 2 configuration drops rank at one
    # point of E_1
    for cfg in (isolated_drop_config(), pinned_sample("r1_a1_0_k1_seed0.json")):
        m = build_monad(cfg)
        for i in range(1, cfg.n + 1):
            exact = reference_scan_divisor(m, i, Random(1), use_all_minors=True)
            comp = reference_scan_divisor(m, i, Random(2), use_all_minors=False)
            assert exact == comp == _scan_divisor(m, i)
            assert exact[1] is True
        assert singular_scan(m).points


pairs_strategy = st.lists(
    st.tuples(*[st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))] * 2),
    min_size=1, max_size=5, unique=True,
)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(pairs=pairs_strategy)
def test_scan_routes_match_diagonal_oracle(pairs):
    m = build_monad(diagonal_config(pairs))
    expected = sorted((-lam, -mu, Fraction(1)) for lam, mu in pairs)
    routes = [reference_scan_chart(m, Random(0), use_all_minors)
              for use_all_minors in (False, True)]
    for points, complete in routes + [_scan_chart(m)]:
        assert sorted(p.coords for p in points) == expected
        assert complete


def test_common_zeros_when_no_pair_member_involves_x1():
    # the resultant in x1 of two polynomials free of x1 is 1, which is not in
    # the ideal; the eliminant must still vanish at x0 = 1/2
    zeros = common_zeros_2d([2 * X0 - 1, (2 * X0 - 1) ** 2, 3 * X1 - 2])
    assert zeros == ([(Fraction(1, 2), Fraction(2, 3))], False, True)


def test_exact_chart_scan_finds_drop_with_x1_free_minors():
    m = build_monad(pinned_sample("r1_a1_k1_seed933631.json"))
    expected = [(Fraction(1, 2), Fraction(2, 3), Fraction(1))]
    routes = [reference_scan_chart(m, Random(1), use_all_minors)
              for use_all_minors in (False, True)]
    for points, complete in routes + [_scan_chart(m)]:
        assert [p.coords for p in points] == expected
        assert complete


def test_framing_checks():
    valid = sample_config(2, [1], 1, seed=5)
    m = build_monad(valid)
    assert framing_check(m, valid)
    assert framing_verdicts(valid) == (True, True)
    # singular corner at n=0: both criteria fail
    bad = AdhmConfig(1, [], 1, BlowupPoints(()),
                     a00=Matrix.zeros(1, 1), a0i=(), ai0=(), aii=(),
                     aA00=(Matrix([[1]]), Matrix([[2]])),
                     c=Matrix([[1]]), d=Matrix([[1]]))
    assert framing_verdicts(bad) == (False, False)
    lb = sample_config(1, [-1], 0, seed=7)
    assert framing_check(build_monad(lb), lb)
    # no K or L summands: alpha and beta have no columns and no rows
    for trivial in (sample_config(1, [], 0, seed=0), sample_config(2, [], 0, seed=0)):
        assert framing_check(build_monad(trivial), trivial)


def test_cohomology_ch_check_values():
    ch = cohomology_ch_check(monad_dims(1, [-1], 0))
    assert ch == ChernCharacter(1, DivisorClass(0, [-1]), Fraction(-1, 2))
    for r in (1, 2, 3):
        for k in (0, 1, 2):
            ch = cohomology_ch_check(monad_dims(r, [], k))
            assert ch == ChernCharacter(r, DivisorClass(0, []), Fraction(-k))


def test_cohomology_ch_check_grid():
    from itertools import product
    count = 0
    for r in (1, 2, 3):
        for n in range(4):
            for a_vec in product(range(-2, 3), repeat=n):
                for k in range(5):
                    try:
                        dims = monad_dims(r, a_vec, k)
                    except InfeasibleParametersError:
                        continue
                    expected = ChernCharacter.of_sheaf(r, a_vec, k)
                    assert cohomology_ch_check(dims) == expected
                    count += 1
    assert count > 1000


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.lists(st.integers(-6, 6), max_size=6), st.integers(0, 12))
def test_cohomology_ch_check_wide(r, a_vec, k):
    # validate_config does not run the check, since monad_dims fixes the end
    # terms from the character; this oracle holds it to that on a wide range
    try:
        dims = monad_dims(r, a_vec, k)
    except InfeasibleParametersError:
        assume(False)
    assert cohomology_ch_check(dims) == ChernCharacter.of_sheaf(r, a_vec, k)


def test_report_never_runs_the_chern_check(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(monad_mod, "cohomology_ch_check", lambda dims: calls.append(dims))
    path = Path(__file__).parent / "golden" / "configs" / "r2_a1_k1.json"
    assert main(["report", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ch_check"] is True
    assert calls == []


def test_validate_irrational_singularities_flagged_incomplete():
    # drop points at +-sqrt(2) in both coordinates, or in one while the other
    # is rational: genuine finite drop locus, but with no rational points to
    # report; the scan must say so instead of guessing
    pair, zero = Matrix([[0, 1], [2, 0]]), Matrix.zeros(2, 2)
    for aA00 in ((pair, pair), (zero, pair), (pair, zero)):
        cfg = AdhmConfig(1, [], 2, BlowupPoints(()),
                         a00=Matrix.identity(2), a0i=(), ai0=(), aii=(),
                         aA00=aA00, c=Matrix.zeros(1, 2), d=Matrix([[1], [1]]))
        rep = validate_config(cfg, seed=0)
        assert rep.valid
        assert rep.scan == ScanResult((), False)


def test_validate_non_normalized_input():
    base = sample_config(2, [1], 1, seed=21)
    rng = Random(12)
    m_blk = None
    from util import rand_invertible
    m_blk = rand_invertible(rng, base.dims.dim_l[1])
    pre = base.replace(ai0=(m_blk,), aii=(m_blk * base.aii[0],))
    rep = validate_config(pre, seed=0)
    assert rep.valid
    assert rep.normalizable is True
    assert rep.stabilizer_dim == 0  # computed on the gauge-fixed companion


def test_validate_config_valid_and_invalid():
    good = hilbert_k2_config()
    rep = validate_config(good, seed=0)
    assert rep.valid
    assert len(rep.scan.points) == 2
    bad = good.replace(c=Matrix([[1, 1]]))
    assert not constraint_residual(bad).is_zero()
    rep2 = validate_config(bad, seed=0)
    assert not rep2.valid
    assert rep2.monad_condition is False


# -- the integer scan against a rational reference ----------------------------------

_QQ_CHART, _QX1, _QX0 = ring("x1,x0", QQ)
_QQ_LINE = ring("w0,w1", QQ)[0]


def _rational_entries(cfg, i=None):
    """alpha at z2 = 1 (or restricted to E_i) over QQ, and the lcm of its denominators.

    Read off the matrix of sections, independently of the pencil.
    """
    alpha, _ = section_maps(cfg)
    if i is None:
        entries = [[_QQ_CHART.from_dict({(e1, e0): c for (e0, e1, _), c in e.poly.items()})
                    for e in row] for row in alpha]
    else:
        entries = [[_QQ_LINE.from_dict({(u, v): c for (u, v, _), c in e.restriction(i).items()})
                    for e in row] for row in alpha]
    lcm = math.lcm(*(int(c.denominator) for row in entries for e in row
                     for c in e.itercoeffs()))
    return entries, lcm


def _as_rational(p, target):
    return target.from_dict({mono: QQ(int(c)) for mono, c in p.items()})


def _rational_common_zeros(polys):
    """``common_zeros_2d`` eliminating over QQ, as the scan did before it used ZZ.

    """
    polys = [p for p in polys if p]
    g = polys[0]
    for p in polys[1:]:
        g = g.gcd(p)
    if not g.is_ground:
        return [], True, True
    if len(polys) == 1:
        return [], False, True

    def rational_roots(poly):
        if poly.degree() <= 0:
            return [], True
        var = poly.ring.gens[0]
        facs = [f for f, _ in poly.factor_list()[1]]
        roots = [-f.coeff(1) / f.coeff(var) for f in facs if f.degree() == 1]
        roots = [Fraction(int(q.numerator), int(q.denominator)) for q in roots]
        return roots, all(f.degree() <= 1 for f in facs)

    def eliminate(f1, f2):
        if f1.degree(_QX1) == 0 and f2.degree(_QX1) == 0:
            return f1.gcd(f2).drop(_QX1)
        return f1.resultant(f2)

    pairs = itertools.combinations(polys[: max(3, min(len(polys), 6))], 2)
    resultants = [res for res in itertools.starmap(eliminate, pairs) if res]
    if not resultants:
        rng = Random(1729)
        extra = [sum(rng.randint(1, 7) * p for p in polys) for _ in range(2)]
        pairs = itertools.product(extra, polys[:4])
        resultants = [res for res in itertools.starmap(eliminate, pairs) if res]
        if not resultants:
            return [], False, False
    eliminant = resultants[0]
    for res in resultants[1:12]:
        eliminant = eliminant.gcd(res)
    if eliminant.is_ground:
        return [], False, True
    roots0, complete = rational_roots(eliminant)
    candidates = []
    for r0 in roots0:
        subs = [s for s in (p.evaluate(_QX0, QQ(r0.numerator, r0.denominator))
                            for p in polys) if s]
        fibre = subs[0]
        for s in subs[1:]:
            fibre = fibre.gcd(s)
        roots1, rational1 = rational_roots(fibre)
        complete = complete and rational1
        candidates += [(r0, r1) for r1 in roots1]
    return candidates, False, complete


def _integer_scan_configs():
    yield pinned_sample("r1_k2_seed0.json")     # n = 0, commuting diagonal pair
    yield sample_config(1, [0], 1, seed=2)       # n = 1
    yield sample_config(2, [1], 1, seed=5)       # n = 1, sum(dim K) = 3
    yield pinned_sample("r1_a1_0_k1_seed0.json")  # n = 2, drops on E_1
    yield isolated_drop_config()
    rng = Random(23)
    for k in (2, 3):
        pairs = set()
        while len(pairs) < k:
            pairs.add((Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                       Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
        yield diagonal_config(sorted(pairs))  # plane-diagonal, n = 0


def test_integer_scan_polys_are_common_multiples_of_rational_ones():
    # one common denominator L scales every k x k minor and every compression
    # det(U . L alpha) by exactly L^k
    for cfg in _integer_scan_configs():
        m = build_monad(cfg)
        k = m.dims.total_k
        for i in [None] + list(range(1, cfg.n + 1)):
            ints = chart_entries(m) if i is None else line_entries(m, i)
            ref, lcm = _rational_entries(cfg, i)
            target = ref[0][0].ring
            assert [[_as_rational(e, target) for e in row] for row in ints] == \
                [[e.mul_ground(QQ(lcm)) for e in row] for row in ref]
            scale = QQ(lcm ** k)
            for seed in (0, 1):
                got = _compressed_dets(ints, k, Random(seed))
                want = _compressed_dets(ref, k, Random(seed))
                assert [_as_rational(p, target) for p in got] == \
                    [p.mul_ground(scale) for p in want]
            got, want = _all_minors(ints, k), _all_minors(ref, k)
            assert [_as_rational(p, target) for p in got] == \
                [p.mul_ground(scale) for p in want]


def test_integer_common_zeros_match_rational_reference():
    for cfg in _integer_scan_configs():
        m = build_monad(cfg)
        k = m.dims.total_k
        ints, (ref, _) = chart_entries(m), _rational_entries(cfg)
        routes = [(_all_minors(ints, k), _all_minors(ref, k))]
        routes.append((list(_compressed_dets(ints, k, Random(3))),
                       list(_compressed_dets(ref, k, Random(3)))))
        for got, want in routes:
            cands, curve, complete = common_zeros_2d(got)
            ref_cands, ref_curve, ref_complete = _rational_common_zeros(want)
            assert sorted(cands) == sorted(ref_cands)
            assert (curve, complete) == (ref_curve, ref_complete)
            assert all(type(c) is Fraction for pair in cands for c in pair)


def test_common_zeros_non_monic_roots_are_exact_fractions():
    cands, curve, complete = common_zeros_2d([3 * X0 - 2, 5 * X1 + 4])
    assert cands == [(Fraction(2, 3), Fraction(-4, 5))]
    assert all(type(c) is Fraction for c in cands[0])
    assert (curve, complete) == (False, True)


def test_scan_points_have_fraction_coordinates():
    golden = Path(__file__).parent / "golden" / "configs"
    for path in sorted(golden.glob("*.json")):
        cfg, seed = config_io.config_from_json(json.loads(path.read_text()))
        rep = validate_config(cfg, seed=seed or 0)
        assert all(type(c) is Fraction for p in rep.scan.points for c in p.coords)
    # the drop on E_1 comes from the line scan's linear factor
    scan = singular_scan(build_monad(pinned_sample("r1_a1_0_k1_seed0.json")))
    assert any(p.exceptional_index == 1 for p in scan.points)
    assert all(type(c) is Fraction for p in scan.points for c in p.coords)
