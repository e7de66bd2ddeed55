"""The monad's integer pencils against the section references, on random data.

The data are random configurations with ``sum(dim K) <= 5`` and ``n <= 2``,
invertible ``a`` and no further constraint, so they are mostly not monads.
Some are pushed towards chart drop points: ``c = 0`` (the whole space is
unobservable), upper triangular ``aA00`` or ``aA00[0] = aA00[1]`` (many,
often irrational).  The rest are sampled monads.  Off the monad condition the
chart operators need not commute, so an irrational eigenvalue there may mark
no drop point; the chart scan then says incomplete where the reference, which
finds the drop points themselves, may certify.
Such data almost never drop rank on an exceptional line, so the line route is
also checked on configurations with a planted drop on ``E_1`` (a rational
point, an irrational pair, the whole line), on planted pencils ``X D(w) Y``
whose drop points are known, and the framing-line verdict on monads with a
planted drop.
"""

import dataclasses
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adhm_blowup_kit.adhm import assemble_a, constraint_residual, sample_config
from adhm_blowup_kit.errors import (
    AmbiguousPointError,
    InfeasibleParametersError,
    InternalConsistencyError,
    NotInPError,
)
from adhm_blowup_kit.lattice import monad_dims
from adhm_blowup_kit.linalg import Matrix, rational_eigenvalues
from adhm_blowup_kit.monad import (
    SurfacePoint,
    _line_drops,
    _restrict,
    _scan_chart,
    _scan_divisor,
    build_monad,
    check_monad_condition,
    framing_check,
    framing_verdicts,
)
from util import (
    W0,
    W1,
    _all_minors,
    composite_is_zero,
    line_zeros,
    rand_config,
    reference_chart_operators,
    reference_framing_fiber,
    reference_scan_chart,
    reference_scan_divisor,
    section_coefficients,
    section_composite,
    section_maps,
)


def _shapes():
    for r in (1, 2, 3):
        for n in range(3):
            for a_vec in product((-1, 0, 1), repeat=n):
                for k in range(3):
                    try:
                        dims = monad_dims(r, a_vec, k)
                    except InfeasibleParametersError:
                        continue
                    if 1 <= dims.total_k <= 5:
                        yield r, a_vec, k


SHAPES = list(_shapes())
MODES = ("random", "c = 0", "triangular", "equal pair", "sampled")
#: Shapes that ``sample_config`` samples at seeds 0, 1 and 2.
SAMPLED = [(1, (), 2), (1, (-1,), 1), (1, (0,), 1), (2, (1,), 1), (2, (1, 0), 1),
           (3, (0, 0), 1), (1, (1, 1), 0), (2, (-1,), 2)]


def _upper(m: Matrix) -> Matrix:
    return Matrix([[x if j >= i else 0 for j, x in enumerate(row)]
                   for i, row in enumerate(m.rows)], ncols=m.ncols)


@st.composite
def configs(draw):
    mode = draw(st.sampled_from(MODES))
    if mode == "sampled":
        return sample_config(*draw(st.sampled_from(SAMPLED)), seed=draw(st.integers(0, 2)))
    r, a_vec, k = draw(st.sampled_from(SHAPES))
    rng = Random(draw(st.integers(0, 2 ** 32 - 1)))
    cfg = rand_config(rng, r, a_vec, k, normalized=draw(st.booleans()))
    if mode != "random":
        cfg = cfg.replace(c=Matrix.zeros(*cfg.c.shape))
    if mode == "triangular":
        cfg = cfg.replace(aA00=(_upper(cfg.aA00[0]), _upper(cfg.aA00[1])))
    elif mode == "equal pair":
        cfg = cfg.replace(aA00=(cfg.aA00[0], cfg.aA00[0]))
    return cfg


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cfg=configs(), z=st.tuples(fractions, fractions, fractions),
       w=st.tuples(fractions, fractions))
def test_pencil_values_match_sections(cfg, z, w):
    m = build_monad(cfg)
    alpha, beta = section_maps(cfg)
    plane = [SurfacePoint.generic(*z), SurfacePoint.generic(z[0], z[1], 0)] \
        if any(z[:2]) else [SurfacePoint.generic(0, 0, 1)]
    lines = [SurfacePoint.exceptional(i, *w) for i in range(1, cfg.n + 1) if any(w)]
    for pt in plane + lines:
        for maps, at, pencil in ((alpha, m.alpha_at, m.alpha), (beta, m.beta_at, m.beta)):
            try:
                if pt.is_exceptional:
                    want = [[e.eval_exceptional(pt.exceptional_index, pt.coords) for e in row]
                            for row in maps]
                else:
                    want = [[e.eval_generic(pt.coords) for e in row] for row in maps]
            except AmbiguousPointError:
                with pytest.raises(AmbiguousPointError):
                    at(pt)  # a blow-up centre, refused by both
                continue
            got = at(pt)
            assert got == Matrix(want, ncols=got.ncols)
            assert pencil.rank_at(pt, m.ctx) == got.rank()


@settings(derandomize=True, max_examples=25, deadline=None)
@given(cfg=configs())
def test_pencil_monad_condition_matches_section_composite(cfg):
    m = build_monad(cfg)
    comp = section_composite(*section_maps(cfg), cfg.dims, cfg.points)
    by_monomial = check_monad_condition(m)
    assert by_monomial == section_coefficients(comp, cfg.dims)
    assert composite_is_zero(by_monomial) == all(e.is_zero() for row in comp for e in row)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cfg=configs())
def test_chart_eigen_route_matches_elimination(cfg):
    m = build_monad(cfg)
    points, complete = _scan_chart(m)
    ref_points, ref_complete = reference_scan_chart(m, Random(0), m.dims.total_k <= 2)
    assert sorted(p.coords for p in points) == sorted(p.coords for p in ref_points)
    # on a monad the T_A commute on S, so an irrational eigenvalue is an
    # irrational drop point; off it one may be none, and the scan only errs
    # towards incomplete
    if constraint_residual(cfg).is_zero():
        assert complete == ref_complete
    else:
        assert ref_complete or not complete


def _full_chart_scan(m, cfg):
    """The chart scan on the full ``T_A``: joint eigenvalues on S, off the centres, verified."""
    ops, c = reference_chart_operators(m, cfg)
    (roots0, rest0), (roots1, rest1) = map(rational_eigenvalues, _restrict(c, ops))
    candidates = [SurfacePoint.generic(x0, x1, 1) for x0 in roots0 for x1 in roots1
                  if (x0, x1) not in m.ctx.points]
    return ([pt for pt in candidates if m.alpha.rank_at(pt, m.ctx) < m.dims.total_k],
            rest0 == rest1 == [1])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cfg=configs())
def test_chart_scan_on_K0_matches_the_full_operators(cfg):
    # T_A is p_i^A times the identity on each K_i, so S is the preimage of
    # S_0 and the characteristic polynomials differ by the centres' linear
    # factors: the points and the verdict agree, on and off the monad
    m = build_monad(cfg)
    points, complete = _scan_chart(m)
    full_points, full_complete = _full_chart_scan(m, cfg)
    assert sorted(p.coords for p in points) == sorted(p.coords for p in full_points)
    assert complete == full_complete


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cfg=configs(), t=fractions)
def test_alpha_has_full_rank_on_the_framing_line(cfg, t):
    # at z2 = 0 the L rows of alpha are x0 a and -x1 a, so an invertible a
    # gives full column rank at every point of the framing line
    assert assemble_a(cfg).det() != 0
    m = build_monad(cfg)
    for pt in (SurfacePoint.generic(1, 0, 0), SurfacePoint.generic(0, 1, 0),
               SurfacePoint.generic(1, t, 0)):
        assert m.alpha.rank_at(pt, m.ctx) == m.dims.total_k


def _line_scan_or_none(scan, m, i):
    try:
        return scan(m, i)
    except NotInPError:
        return None


def _sorted_scan(found):
    return found and (sorted(found[0], key=SurfacePoint.sort_key), found[1])


@settings(derandomize=True, max_examples=20, deadline=None)
@given(cfg=configs().filter(lambda cfg: cfg.n >= 1))
def test_line_eigen_route_matches_elimination(cfg):
    m = build_monad(cfg)
    for i in range(1, cfg.n + 1):
        got = _line_scan_or_none(_scan_divisor, m, i)
        want = _line_scan_or_none(
            lambda m, i: reference_scan_divisor(m, i, Random(0), use_all_minors=True), m, i)
        assert got == want


def _plant_on_E1(cfg, rng, z, decoy=False):
    """``cfg`` with alpha on ``E_1`` dropping where ``w0 Z_1 - w1 Z_0`` does, or None.

    With ``s x s`` matrices ``z = (Z_0, Z_1)``, ``a11`` gets an
    ``s``-dimensional kernel ``U`` and ``K_0`` a rank-``s`` block ``V``
    (``-a22 V_2`` at n = 2, where ``a20 = Id``).  A rank-``s`` update sets
    ``aA00[A] V = -p_1^A a00 V - (p_1^A - p_2^A) a02 V_2 - a01 U Z_A``, and
    another ``c V = 0``.  On ``E_1`` the ``L`` rows of ``alpha (V x, V_2 x,
    U y)`` then read ``a01 U (w_A y - Z_A x)``, and ``L_1``, ``L_2`` and the
    framing rows vanish: alpha drops at ``w`` iff ``w0 Z_1 x = w1 Z_0 x``
    for some ``x != 0``.  None when ``U`` or ``V`` falls short of rank
    ``s`` or ``a`` turns singular.

    A ``decoy`` adds a kernel vector of ``a22`` to the ``V_2`` of ``A = 1``.
    Then ``P_A V = p_1^A V`` and ``c V = 0`` still hold, but the ``K_2``
    rows of ``T_A`` are ``(p_1^A - p_2^A) V_2`` and ``(p_1^A - p_2^A) (V_2 +
    N)``, which rule ``V`` out where ``p_1 - p_2`` has no zero coordinate.
    """
    s, kd = len(z[0]), cfg.dims.dim_k
    u = _rand_int_matrix(rng, kd[1], s)
    v2 = _rand_int_matrix(rng, kd[2], s) if cfg.n == 2 else None
    v = _rand_int_matrix(rng, kd[0], s) if v2 is None else -(cfg.aii[1] * v2)
    ut, vt = u.transpose(), v.transpose()
    if (ut * u).det() == 0 or (vt * v).det() == 0:
        return None
    off_v = (vt * v).inverse() * vt
    p = cfg.points.points
    v2s = [v2, v2 + rng.choice(cfg.aii[1].nullspace()) if decoy else v2]
    aA = []
    for A in (0, 1):
        want = -(cfg.a00 * v).scale(p[0][A]) - cfg.a0i[0] * u * Matrix(z[A], ncols=s)
        if v2 is not None:
            want = want - (cfg.a0i[1] * v2s[A]).scale(p[0][A] - p[1][A])
        aA.append(cfg.aA00[A] + (want - cfg.aA00[A] * v) * off_v)
    a11 = cfg.aii[0] - cfg.aii[0] * u * (ut * u).inverse() * ut
    planted = cfg.replace(aii=(a11, *cfg.aii[1:]), aA00=tuple(aA), c=cfg.c - cfg.c * v * off_v)
    return planted if assemble_a(planted).det() != 0 else None


#: ``(Z_0, Z_1)`` of :func:`_plant_on_E1` for each kind of planted drop:
#: one point ``(t0 : t1)``; the two points ``w1 = +-sqrt(c) w0`` of
#: ``det(w0 Z_1 - w1 Z_0) = w1^2 - c w0^2``, never rational; the whole
#: line, which a decoy hides, so that a scan that skips the ``K_2`` rows
#: reports it.
LINE_PLANTS = {
    "rational": lambda t: ([[t[0]]], [[t[1]]]),
    "irrational": lambda c: ([[1, 0], [0, 1]], [[0, c], [1, 0]]),
    "whole line": lambda _: ([[0]], [[0]]),
    "decoy": lambda _: ([[0]], [[0]]),
}
#: Shapes with room for each plant, at n = 1 and n = 2: ``dim K_1 >= s``;
#: for the pair ``dim K_0 >= 2`` and ``dim L_0 >= 2``, since ``a01 U`` has
#: rank ``s`` when ``a`` is invertible; for a decoy (n = 2 only) ``dim K_2 >
#: dim L_2 = dim K_0``, so that ``a22`` has a kernel.
PLANT_SHAPES = {
    1: [(1, (-1,), 1), (1, (0,), 1), (2, (1,), 1), (1, (0,), 2), (1, (-1,), 2)],
    2: [(1, (-1, 0), 1), (1, (0, 0), 1), (2, (1, 0), 1), (1, (0, 0), 2), (1, (-1, 1), 1),
        (1, (0, -1), 1), (1, (1, -1), 1)],
}


def _has_room(shape, kind):
    kd, ld = monad_dims(*shape).dim_k, monad_dims(*shape).dim_l
    s = 2 if kind == "irrational" else 1
    return (kd[0] >= s <= kd[1] and (kind != "irrational" or ld[0] >= 2)
            and (kind != "decoy" or len(kd) == 3 and kd[2] > kd[0]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(LINE_PLANTS)), n=st.sampled_from((1, 2)),
       t=st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any),
       c=st.sampled_from((2, 3, 5, -1, -3)), seed=st.integers(0, 2 ** 32 - 1))
@example(kind="rational", n=1, t=(2, -3), c=2, seed=0)
@example(kind="rational", n=2, t=(0, 1), c=2, seed=1)
@example(kind="irrational", n=1, t=(1, 1), c=2, seed=2)
@example(kind="irrational", n=2, t=(1, 1), c=-3, seed=3)
@example(kind="whole line", n=1, t=(1, 1), c=2, seed=4)
@example(kind="whole line", n=2, t=(1, 1), c=2, seed=5)
@example(kind="decoy", n=2, t=(1, 1), c=2, seed=6)
def test_line_route_finds_planted_drops_on_E1(kind, n, t, c, seed):
    rng = Random(seed)
    n = 2 if kind == "decoy" else n
    z = LINE_PLANTS[kind](c if kind == "irrational" else t)
    shapes = [sh for sh in PLANT_SHAPES[n] if _has_room(sh, kind)]
    cfg = None
    while cfg is None:
        cfg = _plant_on_E1(rand_config(rng, *rng.choice(shapes)), rng, z, kind == "decoy")
    m = build_monad(cfg)
    use_all_minors = m.dims.total_k <= 4
    for i in range(1, n + 1):
        got = _line_scan_or_none(_scan_divisor, m, i)
        want = _line_scan_or_none(
            lambda m, i: reference_scan_divisor(m, i, Random(0), use_all_minors), m, i)
        assert _sorted_scan(got) == _sorted_scan(want)
    got = _line_scan_or_none(_scan_divisor, m, 1)
    if kind == "whole line":
        assert got is None
    elif kind == "irrational":
        assert got == ([], False)
    elif kind == "decoy":
        p1, p2 = cfg.points.points
        assert got == ([], True) or p1[0] == p2[0] or p1[1] == p2[1]
    else:
        w = (1, Fraction(t[1], t[0])) if t[0] else (0, 1)
        assert SurfacePoint.exceptional(1, *w) in got[0] and got[1]


#: Blocks of a planted pencil ``D(w)``: (the rows of ``D_0``, those of ``D_1``).
#: ``w0 - lam w1`` drops at ``(lam : 1)``, ``w1`` at ``(1 : 0)``, ``w0`` at
#: ``(0 : 1)``, the 2 x 2 block of determinant ``w0^2 - c w1^2`` at two
#: irrational points, the zero block everywhere and ``(w0, w1)^T`` nowhere.
BLOCKS = {
    "linear": lambda lam: ([[lam.denominator]], [[-lam.numerator]]),
    "w1": lambda _: ([[0]], [[1]]),
    "w0": lambda _: ([[1]], [[0]]),
    "irrational": lambda c: ([[1, 0], [0, 1]], [[0, c], [1, 0]]),
    "zero": lambda _: ([[0]], [[0]]),
    "nowhere": lambda _: ([[1], [0]], [[0], [1]]),
}


def _block_diagonal(blocks):
    nrows, ncols = sum(len(b) for b in blocks), sum(len(b[0]) for b in blocks)
    out, r, c = [[0] * ncols for _ in range(nrows)], 0, 0
    for b in blocks:
        for i, row in enumerate(b):
            out[r + i][c:c + len(row)] = row
        r, c = r + len(b), c + len(b[0])
    return Matrix(out, ncols=ncols)


def _rand_int_matrix(rng, m, n, invertible=False):
    while True:
        x = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)], ncols=n)
        if not invertible or x.det() != 0:
            return x


def _planted_drops(blocks):
    """Whole-line drop (None), or the planted points and whether all are rational."""
    if any(kind == "zero" for kind, _ in blocks):
        return None
    found = set()
    for kind, lam in blocks:
        if kind == "w1":
            found.add((Fraction(1), Fraction(0)))
        elif kind == "w0" or kind == "linear" and lam == 0:
            found.add((Fraction(0), Fraction(1)))
        elif kind == "linear":
            found.add((Fraction(1), 1 / lam))
    return sorted(found), all(kind != "irrational" for kind, _ in blocks)


def _sorted(found):
    return found and (sorted(found[0]), found[1])


block_strategy = st.one_of(
    st.tuples(st.just("linear"), fractions),
    st.tuples(st.just("irrational"), st.sampled_from((2, 3, 5, -1, -3))),
    st.tuples(st.sampled_from(("w1", "w0", "zero", "nowhere")), st.none()),
)
blocks_strategy = st.lists(block_strategy, min_size=1, max_size=4).filter(
    lambda bs: sum(2 if k == "irrational" else 1 for k, _ in bs) <= 5)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(blocks=blocks_strategy, extra=st.sampled_from(("none", "random", "shared")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_line_route_matches_minor_gcd_on_planted_pencils(blocks, extra, seed):
    # the drops of X D(w) Y, X and Y invertible, are those of D(w); extra
    # rows Z D(w) Y keep them, random extra rows usually remove them
    rng = Random(seed)
    parts = [BLOCKS[kind](p) for kind, p in blocks]
    d_w = [_block_diagonal([part[j] for part in parts]) for j in (0, 1)]
    s, d = d_w[0].shape
    x, y = _rand_int_matrix(rng, s, s, True), _rand_int_matrix(rng, d, d, True)
    pencil = [x * dj * y for dj in d_w]
    if extra == "shared":
        z = _rand_int_matrix(rng, 2, s)
        pencil = [Matrix(a.rows + (z * dj * y).rows, ncols=d) for a, dj in zip(pencil, d_w)]
    elif extra == "random":
        pencil = [Matrix(a.rows + _rand_int_matrix(rng, 1, d).rows, ncols=d) for a in pencil]
    entries = [[int(a) * W0 + int(b) * W1 for a, b in zip(r0, r1)]
               for r0, r1 in zip(pencil[0].rows, pencil[1].rows)]
    want = _sorted(line_zeros(_all_minors(entries, d)))
    assert _sorted(_line_drops(*pencil)) == want
    if extra != "random":
        assert want == _planted_drops(blocks)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cfg=configs(), seed=st.integers(0, 2 ** 32 - 1))
def test_framing_line_verdict_matches_sampled_fibres(cfg, seed):
    # a is invertible, so alpha's L rows x0 a and -x1 a frame every point
    m = build_monad(cfg)
    assert framing_verdicts(cfg, m=m) == (True, True)
    assert reference_framing_fiber(m, Random(seed))


def _planted(m, which, a_idx, edit):
    """``m`` with ``edit(rows)`` applied to matrix ``a_idx`` of its ``which`` pencil."""
    pencil = getattr(m, which)
    mats = [[list(row) for row in mat] for mat in pencil.mats]
    edit(mats[a_idx])
    mats = tuple(tuple(tuple(row) for row in mat) for mat in mats)
    return dataclasses.replace(m, **{which: dataclasses.replace(pencil, mats=mats)})


def _set_column(j, values):
    def edit(rows):
        for row, v in zip(rows, values):
            row[j] = v
    return edit


def _set_row(i, values):
    def edit(rows):
        rows[i] = values
    return edit


def _framing_plants(m):
    """Monads whose fibre criterion fails somewhere on the framing line, by name."""
    rank_w = m.dims.rank_w
    v = [row[0] for row in m.alpha.mats[0]]
    # column 0 of alpha is 7 v x0 - 11 v x1: zero at (1 : 7/11 : 0), never sampled
    rational = _planted(_planted(m, "alpha", 0, _set_column(0, [7 * x for x in v])),
                        "alpha", 1, _set_column(0, [-11 * x for x in v]))
    # columns 0 and 1 of alpha are [[x0, 2 x1], [x1, x0]] on rows 0 and 1
    # and zero elsewhere: they meet at the two points x0 = +-sqrt(2) x1
    pair = m
    for a_idx, block in ((0, ((1, 0), (0, 1))), (1, ((0, 2), (1, 0)))):
        for j in (0, 1):
            col = [block[0][j], block[1][j]] + [0] * (rank_w - 2)
            pair = _planted(pair, "alpha", a_idx, _set_column(j, col))
    # row 0 of beta is 7 u x0 - 11 u x1: beta is not onto at (1 : 7/11 : 0)
    u = m.beta.mats[0][0]
    not_onto = _planted(_planted(m, "beta", 0, _set_row(0, [7 * x for x in u])),
                        "beta", 1, _set_row(0, [-11 * x for x in u]))
    framing_col = 2 * m.dims.total_l  # W is (L, L, C^r)
    beta = _planted(m, "beta", 0, _set_column(framing_col, [1] * m.dims.total_l))
    return {"rational": rational, "irrational": pair, "beta not onto": not_onto,
            "beta framing column": beta}


@pytest.mark.parametrize("name", ("rational", "irrational", "beta not onto",
                                  "beta framing column"))
@pytest.mark.parametrize("shape", ((2, (1,), 1), (1, (), 2), (3, (1, 0), 2)))
def test_framing_line_catches_planted_failures(shape, name):
    cfg = sample_config(*shape, seed=0)
    m = build_monad(cfg)
    assert framing_verdicts(cfg, m=m) == (True, True)
    planted = _framing_plants(m)[name]
    assert framing_verdicts(cfg, m=planted) == (True, False)
    # ten sampled points miss the drops, which lie off them
    assert reference_framing_fiber(planted, Random(0)) == (name != "beta framing column")
    with pytest.raises(InternalConsistencyError):
        framing_check(planted, cfg)
