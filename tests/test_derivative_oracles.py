"""Independent oracles for the two hand-derived linearisations.

Both the constraint Jacobian and the stabilizer system are differentiated by
hand inside ``adhm``.  Here the same derivatives are recomputed by symbolic
differentiation with sympy (building the perturbed data in Q[t], inverting,
and taking d/dt at t = 0) and compared entry by entry.  The Jacobian that
``tangent_dims`` assembles directly must equal, entry by entry, the columns
of ``compact_derivative`` over every unit direction.  The isotropy system is
assembled in ``h0`` and one free block per kernel of ``aii``, with ``g``
and the rest of each ``hi`` eliminated, so it must have the nullity of the
full system of ``action_derivative`` columns.
"""

from fractions import Fraction
from itertools import accumulate
from random import Random

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adhm_blowup_kit.adhm import (
    _isotropy_system,
    _jacobian,
    _linearise,
    _unknown_blocks,
    assemble_a,
    sample_config,
)
from adhm_blowup_kit.linalg import Matrix
from util import (
    action_derivative,
    assembled,
    compact_derivative,
    echelon,
    rand_config,
    rand_matrix,
)

T = sp.Symbol("t")


def _sym(mat: Matrix) -> sp.Matrix:
    return sp.Matrix(mat.nrows, mat.ncols,
                     lambda i, j: sp.Rational(mat[i, j].numerator,
                                              mat[i, j].denominator))


def _deriv_at_zero(expr_mat: sp.Matrix) -> Matrix:
    d = sp.diff(expr_mat, T).subs(T, 0)
    rows = [[Fraction(sp.nsimplify(d[i, j]).p, sp.nsimplify(d[i, j]).q)
             for j in range(d.cols)] for i in range(d.rows)]
    return Matrix(rows, ncols=d.cols)


def _sym_compact(cfg, blocks):
    """Compact constraint of an n=1 configuration from perturbed sympy blocks."""
    a00, a01, a11, aA0, aA1, c, d = blocks
    k0 = a00.cols
    p0 = sp.Rational(cfg.point_coord(1, 0).numerator,
                     cfg.point_coord(1, 0).denominator)
    p1 = sp.Rational(cfg.point_coord(1, 1).numerator,
                     cfg.point_coord(1, 1).denominator)
    ident = sp.eye(k0)
    a = sp.Matrix.vstack(sp.Matrix.hstack(a00, a01),
                         sp.Matrix.hstack(ident, a11))
    def q(aA, p):
        return sp.Matrix.vstack(
            sp.Matrix.hstack(-aA, p * a01),
            sp.Matrix.hstack(p * ident, p * a11))
    q0, q1 = q(aA0, p0), q(aA1, p1)
    ainv = a.inv()
    s = q1 * ainv * q0 - q0 * ainv * q1
    l0 = a00.rows
    return sp.simplify(s[:l0, :k0] + d * c)


def test_compact_derivative_matches_symbolic():
    cfg = sample_config(2, [1], 1, seed=5)
    base = {
        "a00": _sym(cfg.a00), "a0i": _sym(cfg.a0i[0]), "aii": _sym(cfg.aii[0]),
        "aA0": _sym(cfg.aA00[0]), "aA1": _sym(cfg.aA00[1]),
        "c": _sym(cfg.c), "d": _sym(cfg.d),
    }
    rng = Random(31)
    kinds = [("a00", -1, cfg.a00.shape), ("a0i", 0, cfg.a0i[0].shape),
             ("aii", 0, cfg.aii[0].shape), ("aA0", -1, cfg.aA00[0].shape),
             ("aA1", -1, cfg.aA00[1].shape), ("c", -1, cfg.c.shape),
             ("d", -1, cfg.d.shape)]
    for kind, idx, shape in kinds:
        unit = rand_matrix(rng, *shape)  # general direction, not just a unit
        perturbed = dict(base)
        key = {"a0i": "a0i", "aii": "aii"}.get(kind, kind)
        perturbed[key] = base[key] + T * _sym(unit)
        sym_val = _sym_compact(cfg, (perturbed["a00"], perturbed["a0i"],
                                     perturbed["aii"], perturbed["aA0"],
                                     perturbed["aA1"], perturbed["c"],
                                     perturbed["d"]))
        expected = _deriv_at_zero(sym_val)
        got = compact_derivative(cfg, kind, idx, unit)
        assert got == expected, kind


def test_action_derivative_matches_symbolic():
    # the fully symbolic route: act over Q(t) via sympy, then d/dt at 0
    cfg = sample_config(2, [1], 1, seed=5)
    kd, ld = cfg.dims.dim_k, cfg.dims.dim_l
    rng = Random(41)
    g0 = rand_matrix(rng, ld[0], ld[0])
    gam = [rand_matrix(rng, ld[0], ld[1])]
    h0 = rand_matrix(rng, kd[0], kd[0])
    hi = [rand_matrix(rng, kd[1], kd[1])]
    got = action_derivative(cfg, g0, gam, h0, hi)

    g00_t = sp.eye(ld[0]) + T * _sym(g0)
    g0i_t = T * _sym(gam[0])
    h00_t = sp.eye(kd[0]) + T * _sym(h0)
    hii_t = sp.eye(kd[1]) + T * _sym(hi[0])
    h00_inv = h00_t.inv()
    p = [sp.Rational(cfg.point_coord(1, a).numerator,
                     cfg.point_coord(1, a).denominator) for a in (0, 1)]
    a00, a01, a11 = _sym(cfg.a00), _sym(cfg.a0i[0]), _sym(cfg.aii[0])
    aA = [_sym(cfg.aA00[0]), _sym(cfg.aA00[1])]
    c, d = _sym(cfg.c), _sym(cfg.d)
    sym_blocks = [
        (g00_t * a00 + g0i_t) * h00_t,
        (g00_t * aA[0] - p[0] * g0i_t) * h00_t,
        (g00_t * aA[1] - p[1] * g0i_t) * h00_t,
        (g00_t * a01 + g0i_t * a11) * hii_t,
        h00_inv * a11 * hii_t,
        c * h00_t,
        g00_t * d,
    ]
    for sym_blk, exact in zip(sym_blocks, got):
        assert _deriv_at_zero(sym_blk) == exact


def _units(m, w):
    for p in range(m):
        for q in range(w):
            yield Matrix.from_function(m, w, lambda i, j: 1 if (i, j) == (p, q) else 0)


def _from_columns(columns, nrows):
    return Matrix([[col[i] for col in columns] for i in range(nrows)],
                  ncols=len(columns))


def _flat(blocks):
    return [x for blk in blocks for row in blk.rows for x in row]


def _reference_jacobian(cfg):
    kd, ld, n = cfg.dims.dim_k, cfg.dims.dim_l, cfg.n
    free = [("a00", -1, ld[0], kd[0])]
    free += [("a0i", i, ld[0], kd[i + 1]) for i in range(n)]
    free += [("aii", i, ld[i + 1], kd[i + 1]) for i in range(n)]
    free += [("aA0", -1, ld[0], kd[0]), ("aA1", -1, ld[0], kd[0]),
             ("c", -1, cfg.r, kd[0]), ("d", -1, ld[0], cfg.r)]
    columns = [_flat([compact_derivative(cfg, kind, idx, unit)])
               for kind, idx, m, w in free for unit in _units(m, w)]
    return _from_columns(columns, ld[0] * kd[0])


def _reference_stabilizer(cfg):
    kd, ld, n = cfg.dims.dim_k, cfg.dims.dim_l, cfg.n
    zero = {"g0": Matrix.zeros(ld[0], ld[0]), "h0": Matrix.zeros(kd[0], kd[0]),
            "gam": [Matrix.zeros(ld[0], ld[i + 1]) for i in range(n)],
            "hi": [Matrix.zeros(kd[i + 1], kd[i + 1]) for i in range(n)]}
    columns = []

    def add(**change):
        args = {**zero, **change}
        columns.append(_flat(action_derivative(cfg, args["g0"], args["gam"],
                                               args["h0"], args["hi"])))

    for unit in _units(ld[0], ld[0]):
        add(g0=unit)
    for i in range(n):
        for unit in _units(ld[0], ld[i + 1]):
            add(gam=zero["gam"][:i] + [unit] + zero["gam"][i + 1:])
    for unit in _units(kd[0], kd[0]):
        add(h0=unit)
    for i in range(n):
        for unit in _units(kd[i + 1], kd[i + 1]):
            add(hi=zero["hi"][:i] + [unit] + zero["hi"][i + 1:])
    return _from_columns(columns, len(columns[0]) if columns else 0)


# sampled data (c = 0 or d = 0 for some) and random normalised data, where
# both the c and the d directions have nonzero columns; in the last two, the
# isotropy system's nullity rests on the left kernels of two tall aii
ASSEMBLY_CASES = [
    ("sample", (2, (), 2, 0)), ("sample", (1, (), 3, 1)),
    ("sample", (2, (1,), 1, 5)), ("sample", (1, (-1,), 0, 0)),
    ("sample", (2, (1, 0), 1, 0)), ("sample", (3, (0, 0), 2, 0)),
    ("random", (2, (), 2, 1)), ("random", (2, (1,), 1, 2)),
    ("random", (1, (0,), 2, 3)), ("random", (3, (-1, 0), 2, 4)),
    ("random", (2, (1, -1), 1, 5)), ("random", (1, (2, 1), 0, 0)),
    ("random", (1, (1, 1), 1, 5)),
]


def _assembly_config(source, params):
    r, a, k, seed = params
    if source == "sample":
        return sample_config(r, a, k, seed=seed)
    return rand_config(Random(seed), r, a, k)


@pytest.mark.parametrize("source,params", ASSEMBLY_CASES,
                         ids=[f"{s}-{p}" for s, p in ASSEMBLY_CASES])
def test_assembled_systems_match_references(source, params):
    cfg = _assembly_config(source, params)
    jac = _jacobian(cfg)
    assert jac == _reference_jacobian(cfg)
    if source == "random":
        # the last r k0 + l0 r columns are the c and d directions
        framing = cfg.r * (cfg.c.ncols + cfg.d.nrows)
        assert not jac.submatrix(0, jac.nrows, jac.ncols - framing, jac.ncols).is_zero()
    stab = assembled(_isotropy_system(cfg))
    assert stab.nullity() == _reference_stabilizer(cfg).nullity()
    assert stab.rank() == len(echelon(stab)[1])
    assert jac.rank() == len(echelon(jac)[1])


#: How ``aii[0]`` gets each pair (kernel, left kernel): ``a_1`` makes it
#: square, wide or tall, and a zeroed row or column drops its rank. In
#: "no point" there is no ``a_1``, so ``n`` is 0 or 1 and ``aii`` is drawn
#: as it comes.
KERNEL_CASES = [
    ("both", 0, "row"), ("both", 0, "column"), ("both", -1, "row"), ("both", -2, "row"),
    ("both", 1, "column"), ("both", 2, "column"), ("kernel", -1, None), ("kernel", -2, None),
    ("left kernel", 1, None), ("left kernel", 2, None), ("neither", 0, None),
    ("no point", None, None),
]


def _kernels(m: Matrix) -> str:
    rank = m.rank()
    return {(False, False): "neither", (True, False): "kernel",
            (False, True): "left kernel", (True, True): "both"}[(m.ncols > rank, m.nrows > rank)]


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(KERNEL_CASES), r=st.integers(1, 3),
       rest=st.lists(st.integers(-2, 2), max_size=1), k=st.integers(0, 2),
       zero=st.sampled_from(["", "c", "d", "cd"]), seed=st.integers(0, 2 ** 16))
@example(case=("both", 0, "row"), r=2, rest=[], k=2, zero="cd", seed=0)
@example(case=("kernel", -1, None), r=1, rest=[1], k=1, zero="cd", seed=0)
@example(case=("left kernel", 2, None), r=2, rest=[], k=0, zero="c", seed=0)
@example(case=("neither", 0, None), r=3, rest=[-1], k=2, zero="cd", seed=0)
@example(case=("no point", None, None), r=2, rest=[], k=2, zero="cd", seed=0)
def test_isotropy_nullity_matches_full_system(case, r, rest, k, zero, seed):
    # the isotropy system solves each K_i block through an inner inverse,
    # kernel and left kernel of aii, so every combination of the two meets
    # the full system, as does n = 0, where the system is h0 alone; without
    # c or d the group often fixes the data, so both zero and positive
    # isotropy occur, and each example below has a positive one
    kernels, a1, deficient = case
    if a1 is None:
        cfg = rand_config(Random(seed), r, rest, k)
        assume(assemble_a(cfg).det() != 0)
    else:
        cfg = rand_config(Random(seed), r, [a1, *rest], k)
        aii = cfg.aii[0].rows
        for i, row in enumerate(aii):
            for j in range(len(row)):
                if (deficient, 0) in (("row", i), ("column", j)):
                    row[j] = 0
        cfg = cfg.replace(aii=(Matrix(aii, ncols=cfg.aii[0].ncols), *cfg.aii[1:]))
        assume(_kernels(cfg.aii[0]) == kernels and assemble_a(cfg).det() != 0)
    if "c" in zero:
        cfg = cfg.replace(c=Matrix.zeros(*cfg.c.shape))
    if "d" in zero:
        cfg = cfg.replace(d=Matrix.zeros(*cfg.d.shape))
    assert assembled(_isotropy_system(cfg)).nullity() == _reference_stabilizer(cfg).nullity()


def _linearise_reference(outputs, unknowns):
    """``sum X E Y`` by ``Matrix.__mul__``, one column per unit ``E`` of each unknown."""
    columns = []
    for m, w, terms in unknowns:
        for unit in _units(m, w):
            blocks = [Matrix.zeros(h, ow) for h, ow in outputs]
            for o, x, y in terms:
                x = Matrix.identity(m) if x is None else x
                y = Matrix.identity(w) if y is None else y
                blocks[o] = blocks[o] + x * unit * y
            columns.append(_flat(blocks))
    return _from_columns(columns, sum(h * ow for h, ow in outputs))


def _linear_map(data):
    """Output shapes, unknowns of :func:`_linearise` and the ``Random`` that drew their factors."""
    rng = Random(data.draw(st.integers(0, 2 ** 16)))

    def rand(m, n):  # denominators 1, 2 and 3, so the terms' lcm is exercised
        return Matrix.from_function(m, n, lambda i, j: Fraction(rng.randint(-3, 3),
                                                                 rng.choice((1, 2, 3))))

    dim = st.integers(0, 3)
    outputs = data.draw(st.lists(st.tuples(dim, dim), min_size=1, max_size=3))
    unknowns = []
    for _ in range(data.draw(st.integers(0, 3))):
        m, w = data.draw(dim), data.draw(dim)
        terms = []
        for _ in range(data.draw(st.integers(0, 3))):
            o = data.draw(st.integers(0, len(outputs) - 1))
            h, ow = outputs[o]
            factors = data.draw(st.sampled_from(["XY"] + ["Y"] * (h == m) + ["X"] * (ow == w)))
            terms.append((o, rand(h, m) if "X" in factors else None,
                          rand(w, ow) if "Y" in factors else None))
        unknowns.append((m, w, terms))
    return outputs, unknowns, rng


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_linearise_matches_block_products(data):
    # identity factors, several output blocks, and blocks of size 0
    outputs, unknowns, _rng = _linear_map(data)
    got = assembled(_linearise(outputs, unknowns))
    assert got.shape == (sum(h * ow for h, ow in outputs), sum(m * w for m, w, _ in unknowns))
    assert got == _linearise_reference(outputs, unknowns)
    # the blocks listed in any order give the same rows over the same
    # denominator, block by block in that order
    den, ncols, rows = _linearise(outputs, unknowns)
    rows = list(rows)
    order = data.draw(st.permutations(range(len(outputs))))
    place = {o: at for at, o in enumerate(order)}
    moved = [(m, w, [(place[o], x, y) for o, x, y in terms]) for m, w, terms in unknowns]
    starts = list(accumulate((h * ow for h, ow in outputs), initial=0))
    want = [row for o in order for row in rows[starts[o]:starts[o + 1]]]
    got_den, got_ncols, got_rows = _linearise([outputs[o] for o in order], moved)
    assert (got_den, got_ncols, list(got_rows)) == (den, ncols, want)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unknown_blocks_follow_linearise_columns(data):
    # _solve_draw reads its solution through _unknown_blocks, so the blocks
    # it reads must be those on which the matrix acts as sum X E Y
    outputs, unknowns, rng = _linear_map(data)
    x = [rng.randint(-3, 3) for m, w, _ in unknowns for _ in range(m * w)]
    want = [Matrix.zeros(h, ow) for h, ow in outputs]
    for (m, w, terms), rows in zip(unknowns, _unknown_blocks(x, unknowns)):
        block = Matrix.from_ints(rows, 1, w)
        for o, x_, y in terms:
            x_ = Matrix.identity(m) if x_ is None else x_
            y = Matrix.identity(w) if y is None else y
            want[o] = want[o] + x_ * block * y
    assert assembled(_linearise(outputs, unknowns)) * Matrix.column(x) == Matrix.column(_flat(want))
