"""Shared helpers for the test suite: seeded random data and independent references.

Besides random data of every flavour, this holds the references that the
package's direct routes are checked against: the block-product derivatives,
the monad as matrices of sections, the full chart operators ``T_A``, and the
singular scan by elimination.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Sequence

from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

import adhm_blowup_kit
from adhm_blowup_kit.adhm import (
    AdhmConfig,
    GroupElement,
    assemble_a,
    derive_bA,
)
from adhm_blowup_kit.errors import NotInPError
from adhm_blowup_kit.lattice import DivisorClass, monad_dims
from adhm_blowup_kit.linalg import Matrix, block_matrix
from adhm_blowup_kit.monad import SurfacePoint, _offsets
from adhm_blowup_kit.sections import (
    BlowupPoints,
    SectionPoly,
    _fraction,
    lambda_section,
    lower_pair,
    w_section,
    z_section,
    zero_section,
)


def run_fresh(*argv: str) -> subprocess.CompletedProcess:
    """``python *argv`` in a new interpreter that imports the package under test."""
    src = str(Path(adhm_blowup_kit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=120)


def perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded from the checkout without importing the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rand_frac(rng: Random, lo: int = -4, hi: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2)))


def rand_matrix(rng: Random, m: int, n: int) -> Matrix:
    return Matrix.from_function(m, n, lambda i, j: rand_frac(rng))


def rand_invertible(rng: Random, n: int) -> Matrix:
    while True:
        m = rand_matrix(rng, n, n)
        if n == 0 or m.det() != 0:
            return m


def echelon(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by ``Fraction`` division; returns (rows, pivot columns).

    A reference for the integer kernels of ``linalg``, independent of them.
    """
    rows = [list(row) for row in m.rows]
    pivots: list[int] = []
    r = 0
    for c in range(m.ncols):
        pivot_row = None
        for i in range(r, m.nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return rows, pivots


_QQ_T = ring("t", QQ)[0]


def reference_rational_eigenvalues(g: Matrix) -> tuple[list[Fraction], bool]:
    """The distinct rational eigenvalues of ``g``, and whether every eigenvalue is rational.

    Read off the irreducible factors over QQ of its characteristic polynomial:
    a linear factor is a rational eigenvalue, any other factor is not.  sympy's
    ``DomainMatrix.charpoly`` and ``factor_list``: a reference for
    ``linalg.rational_eigenvalues``, independent of it.
    """
    dm = DomainMatrix([[QQ(x, g.den) for x in row] for row in g.num], g.shape, QQ)
    roots, complete = [], True
    for f, _ in _QQ_T.from_list(dm.charpoly()).factor_list()[1]:
        if f.degree() == 1:
            roots.append(_fraction(-f.coeff(1) / f.LC))
        else:
            complete = False
    return roots, complete


def rand_points(rng: Random, n: int) -> BlowupPoints:
    pts: list[tuple[Fraction, Fraction]] = []
    while len(pts) < n:
        cand = (rand_frac(rng, -3, 3), rand_frac(rng, -3, 3))
        if cand not in pts:
            pts.append(cand)
    return BlowupPoints(pts)


def rand_divisor(rng: Random, n: int, bound: int = 6) -> DivisorClass:
    return DivisorClass(
        rng.randint(-bound, bound), [rng.randint(-bound, bound) for _ in range(n)]
    )


def rand_config(rng: Random, r: int, a_vec, k: int, normalized: bool = True) -> AdhmConfig:
    """Random configuration with invertible assembled matrix (not nec. valid)."""
    dims = monad_dims(r, a_vec, k)
    n = dims.n
    kd, ld = dims.dim_k, dims.dim_l
    while True:
        if normalized:
            ai0 = tuple(Matrix.identity(kd[0]) for _ in range(n))
        else:
            ai0 = tuple(rand_invertible(rng, kd[0]) for _ in range(n))
        cfg = AdhmConfig(
            r, a_vec, k, rand_points(rng, n),
            a00=rand_matrix(rng, ld[0], kd[0]),
            a0i=tuple(rand_matrix(rng, ld[0], kd[i + 1]) for i in range(n)),
            ai0=ai0,
            aii=tuple(rand_matrix(rng, ld[i + 1], kd[i + 1]) for i in range(n)),
            aA00=(rand_matrix(rng, ld[0], kd[0]), rand_matrix(rng, ld[0], kd[0])),
            c=rand_matrix(rng, r, kd[0]),
            d=rand_matrix(rng, ld[0], r),
        )
        if assemble_a(cfg).det() != 0:
            return cfg


def rand_group_element(rng: Random, dims) -> GroupElement:
    kd, ld = dims.dim_k, dims.dim_l
    return GroupElement(
        g00=rand_invertible(rng, ld[0]),
        g0i=tuple(rand_matrix(rng, ld[0], ld[i + 1]) for i in range(dims.n)),
        h00=rand_invertible(rng, kd[0]),
        hii=tuple(rand_invertible(rng, kd[i + 1]) for i in range(dims.n)),
    )


def reference_qA(cfg: AdhmConfig) -> tuple[Matrix, Matrix]:
    """The pair ``q^A``, block by block: corner ``-a^A_00`` and ``p_i^A``-scaled arrow blocks.

    A reference for the ``z2`` matrix of alpha, whose rows ``build_monad``
    reads off the configuration's kept ``L_0`` strips and ``p_i^A a`` on
    each ``L_i``.
    """
    n = cfg.n
    kd, ld = cfg.dims.dim_k, cfg.dims.dim_l
    out = []
    for a in (0, 1):
        blocks: list[list[Matrix]] = []
        row0 = [-cfg.aA00[a]] + [
            cfg.a0i[j].scale(cfg.point_coord(j + 1, a)) for j in range(n)
        ]
        blocks.append(row0)
        for i in range(n):
            p = cfg.point_coord(i + 1, a)
            row = [cfg.ai0[i].scale(p)]
            for j in range(n):
                row.append(
                    cfg.aii[i].scale(p) if i == j
                    else Matrix.zeros(ld[i + 1], kd[j + 1])
                )
            blocks.append(row)
        out.append(block_matrix(blocks, list(ld), list(kd)))
    return (out[0], out[1])


def affine_image(cfg: AdhmConfig, m: Matrix, t: Sequence) -> AdhmConfig:
    """``cfg`` moved by the affine map ``x -> M x + t`` of the plane, ``M`` invertible.

    The centres go to ``M p_i + t``, ``aA00[A]`` to ``sum_B M_AB aA00[B] -
    t_A a00`` and ``c`` to ``det(M) c``; every other block stays.  Then
    ``q^A`` goes to ``sum_B M_AB q^B + t_A a``, the compact residual scales
    by ``det M``, and the sheaf moves with the plane: a drop point ``x`` of
    the chart goes to ``M x + t`` and one ``w`` on ``E_i`` to ``M w``.
    """
    (m0, m1), t = m.rows, [Fraction(x) for x in t]
    points = [(m0[0] * p0 + m0[1] * p1 + t[0], m1[0] * p0 + m1[1] * p1 + t[1])
              for p0, p1 in cfg.points.points]
    aA00 = tuple(cfg.aA00[0].scale(row[0]) + cfg.aA00[1].scale(row[1]) - cfg.a00.scale(tA)
                 for row, tA in zip((m0, m1), t))
    return cfg.replace(points=BlowupPoints(points), aA00=aA00, c=cfg.c.scale(m.det()))


def relabel(cfg: AdhmConfig, perm: Sequence[int]) -> AdhmConfig:
    """``cfg`` with its blow-up centres renumbered: centre ``i`` becomes centre ``perm[i]``, 0-based.

    Each centre takes its ``a_i``, ``a0i``, ``ai0`` and ``aii`` along, so
    ``a`` and ``q^A`` change by one permutation of the ``K_i`` and of the
    ``L_i`` for ``i >= 1``, and their ``(L_0, K_0)`` blocks stay.  The
    sheaf is the same: the compact residual, the chart and every verdict
    stay, and a drop point on ``E_(i+1)`` moves to ``E_(perm[i]+1)``.
    """
    order = sorted(range(cfg.n), key=perm.__getitem__)  # the old index of each new one

    def moved(blocks):
        return tuple(blocks[i] for i in order)

    return cfg.replace(points=BlowupPoints(moved(cfg.points.points)), a_vec=moved(cfg.a_vec),
                       a0i=moved(cfg.a0i), ai0=moved(cfg.ai0), aii=moved(cfg.aii))


def composite_is_zero(comp) -> bool:
    """Whether every coefficient of ``monad.check_monad_condition`` vanishes."""
    return all(mat.is_zero() for mat in comp.values())


# -- the derivative references ---------------------------------------------------
#
# The first-order changes that ``adhm._jacobian`` and ``adhm._isotropy_system``
# assemble column by column, computed here by block products instead.


def action_derivative(cfg: AdhmConfig, g0: Matrix, gam: Sequence[Matrix],
                      h0: Matrix, hi: Sequence[Matrix]) -> list[Matrix]:
    """Derivative of the group action at the identity along a Lie direction.

    Returns the first-order changes of (a00, aA00[0], aA00[1], a0i..., aii...,
    c, d) under ``(g00, g0i, h00, hii) = (1 + t g0, t gam, 1 + t h0, 1 + t hi)``.
    """
    n = cfg.n
    out = []
    d_a00 = g0 * cfg.a00 + cfg.a00 * h0
    for i in range(n):
        d_a00 = d_a00 + gam[i]
    out.append(d_a00)
    for a in (0, 1):
        acc = g0 * cfg.aA00[a] + cfg.aA00[a] * h0
        for i in range(n):
            acc = acc - gam[i].scale(cfg.point_coord(i + 1, a))
        out.append(acc)
    for i in range(n):
        out.append(g0 * cfg.a0i[i] + gam[i] * cfg.aii[i] + cfg.a0i[i] * hi[i])
    for i in range(n):
        # g_ii = h00^{-1} is slaved, so delta(g_ii) = -h0
        out.append(-(h0 * cfg.aii[i]) + cfg.aii[i] * hi[i])
    out.append(cfg.c * h0)
    out.append(g0 * cfg.d)
    return out


def _delta_arrow(cfg: AdhmConfig, kind: str, idx: int, unit: Matrix) -> Matrix:
    n = cfg.n
    kd, ld = cfg.dims.dim_k, cfg.dims.dim_l
    blocks = [[Matrix.zeros(ld[i], kd[j]) for j in range(n + 1)] for i in range(n + 1)]
    if kind == "a00":
        blocks[0][0] = unit
    elif kind == "a0i":
        blocks[0][idx + 1] = unit
    elif kind == "aii":
        blocks[idx + 1][idx + 1] = unit
    return block_matrix(blocks, list(ld), list(kd))


def _delta_q(cfg: AdhmConfig, kind: str, idx: int, unit: Matrix, a: int) -> Matrix:
    n = cfg.n
    kd, ld = cfg.dims.dim_k, cfg.dims.dim_l
    blocks = [[Matrix.zeros(ld[i], kd[j]) for j in range(n + 1)] for i in range(n + 1)]
    if kind == f"aA{a}":
        blocks[0][0] = -unit
    elif kind == "a0i":
        blocks[0][idx + 1] = unit.scale(cfg.point_coord(idx + 1, a))
    elif kind == "aii":
        blocks[idx + 1][idx + 1] = unit.scale(cfg.point_coord(idx + 1, a))
    return block_matrix(blocks, list(ld), list(kd))


def compact_derivative(cfg: AdhmConfig, kind: str, idx: int, unit: Matrix) -> Matrix:
    """Directional derivative of the compact constraint along one free entry.

    The reference for the Jacobian that ``adhm._jacobian`` assembles directly.
    """
    ainv = cfg._a_inverse
    q = reference_qA(cfg)
    aq, qa = (ainv * q[0], ainv * q[1]), (q[0] * ainv, q[1] * ainv)
    l0, k0 = cfg.dims.dim_l[0], cfg.dims.dim_k[0]
    da = _delta_arrow(cfg, kind, idx, unit)
    dq = (_delta_q(cfg, kind, idx, unit, 0), _delta_q(cfg, kind, idx, unit, 1))
    ds = (
        dq[1] * aq[0]
        - qa[1] * da * aq[0]
        + qa[1] * dq[0]
        - dq[0] * aq[1]
        + qa[0] * da * aq[1]
        - qa[0] * dq[1]
    )
    delta = ds.submatrix(0, l0, 0, k0)
    if kind == "c":
        delta = delta + cfg.d * unit
    elif kind == "d":
        delta = delta + unit * cfg.c
    return delta


# -- the monad as matrices of sections -------------------------------------------
#
# ``monad.build_monad`` stores each map as an integer pencil.  Here the same maps
# are assembled entry by entry from the sections z^A, w_i^A and lambda_i, and
# composed by ring arithmetic, as an independent reference.


def _col_bidegree(n: int, j: int) -> DivisorClass:
    q = [0] * n
    if j >= 1:
        q[j - 1] = -1
    return DivisorClass(1, q)


def b_block(cfg: AdhmConfig, b: Matrix, j: int) -> Matrix:
    """Block ``b^A_0j`` of a derived row ``b^A``."""
    start = sum(cfg.dims.dim_l[:j])
    return b.submatrix(0, b.nrows, start, start + cfg.dims.dim_l[j])


def section_maps(cfg: AdhmConfig):
    """``(alpha, beta)`` of ``build_monad(cfg)`` as tuples of rows of ``SectionPoly``."""
    ctx = cfg.points
    dims = cfg.dims
    n, r = cfg.n, cfg.r
    kd, ld = dims.dim_k, dims.dim_l
    bA = derive_bA(cfg)
    zlow = lower_pair((z_section(ctx, 0), z_section(ctx, 1)))
    z2 = z_section(ctx, 2)
    wlow = {i: lower_pair((w_section(ctx, i, 0), w_section(ctx, i, 1)))
            for i in range(1, n + 1)}
    lam = {i: lambda_section(ctx, i) for i in range(1, n + 1)}
    aA_low = lower_pair(cfg.aA00)

    def zero_entry(j: int):
        return zero_section(ctx, _col_bidegree(n, j))

    # W is (L, L, C^r): copy 0 of every L_i, then copy 1, then the framing summand
    w_slots = [(i, a_idx, m) for a_idx in (0, 1) for i in range(n + 1) for m in range(ld[i])]
    w_slots += [("C", m) for m in range(r)]

    alpha_rows = []
    for i, a_idx, m in w_slots[: 2 * dims.total_l]:
        row = []
        for j in range(n + 1):
            for mu in range(kd[j]):
                entry = zero_entry(j)
                if i == 0 and j == 0:
                    entry = (zlow[a_idx].scale(cfg.a00[m, mu])
                             + z2.scale(aA_low[a_idx][m, mu]))
                elif i == 0 and j >= 1:
                    entry = wlow[j][a_idx].scale(cfg.a0i[j - 1][m, mu])
                elif i >= 1 and j == 0:
                    entry = (lam[i] * wlow[i][a_idx]).scale(cfg.ai0[i - 1][m, mu])
                elif i >= 1 and j == i:
                    entry = wlow[i][a_idx].scale(cfg.aii[i - 1][m, mu])
                row.append(entry)
        alpha_rows.append(tuple(row))
    for m in range(r):
        alpha_rows.append(tuple(z2.scale(cfg.c[m, mu]) if j == 0 else zero_entry(j)
                                for j in range(n + 1) for mu in range(kd[j])))

    beta_rows = []
    w_raised = {i: (w_section(ctx, i, 0), w_section(ctx, i, 1)) for i in range(1, n + 1)}
    zs = (z_section(ctx, 0), z_section(ctx, 1))
    for i in range(n + 1):
        row_bd = _col_bidegree(n, i)
        for m in range(ld[i]):
            row = []
            for slot in w_slots:
                if slot[0] == "C":
                    row.append(z2.scale(cfg.d[m, slot[1]]) if i == 0
                               else zero_section(ctx, row_bd))
                    continue
                si, sa, sm = slot
                if i == 0:
                    entry = z2.scale(b_block(cfg, bA[sa], si)[m, sm])
                    if si == 0 and sm == m:
                        entry = entry + zs[sa]
                    row.append(entry)
                elif si == i and sm == m:
                    row.append(w_raised[i][sa])
                else:
                    row.append(zero_section(ctx, row_bd))
            beta_rows.append(tuple(row))
    return tuple(alpha_rows), tuple(beta_rows)


def pencil_sections(m):
    """``(alpha, beta)`` of a ``MonadRep`` as rows of ``SectionPoly``, read off its pencils.

    Each entry's bidegree is ``(1, -E_i)`` for its twist ``i``; the
    ``SectionPoly`` constructor checks that it vanishes at that centre.
    """
    n = m.dims.n

    def sections(pencil):
        den = Fraction(1, pencil.den)
        return tuple(
            tuple(SectionPoly(_col_bidegree(n, rt or ct),
                              {(1, 0, 0): a * den, (0, 1, 0): b * den, (0, 0, 1): c * den},
                              m.ctx)
                  for a, b, c, ct in zip(m0, m1, m2, pencil.col_twist))
            for m0, m1, m2, rt in zip(*pencil.mats, pencil.row_twist))

    return sections(m.alpha), sections(m.beta)


def section_composite(alpha, beta, dims, ctx):
    """The composite ``beta . alpha`` as a matrix of sections (zero iff valid)."""
    n = dims.n
    l_off = _offsets(dims.dim_l)
    k_off = _offsets(dims.dim_k)

    def out_bidegree(row: int, col: int) -> DivisorClass:
        bi = next(i for i in range(n + 1) if l_off[i] <= row < l_off[i + 1])
        bj = next(j for j in range(n + 1) if k_off[j] <= col < k_off[j + 1])
        q = [0] * n
        if bi >= 1:
            q[bi - 1] -= 1
        if bj >= 1:
            q[bj - 1] -= 1
        return DivisorClass(2, q)

    out = []
    for i in range(dims.total_l):
        row = []
        for j in range(dims.total_k):
            acc = zero_section(ctx, out_bidegree(i, j))
            for s in range(dims.rank_w):
                acc = acc + beta[i][s] * alpha[s][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def coefficient_block(comp, dims, bi: int, bj: int, monomial: tuple[int, int, int]) -> Matrix:
    """Coefficient of one monomial across a block of a composite of sections."""
    l_off = _offsets(dims.dim_l)
    k_off = _offsets(dims.dim_k)
    rows = []
    for i in range(l_off[bi], l_off[bi + 1]):
        row = []
        for j in range(k_off[bj], k_off[bj + 1]):
            row.append(_fraction(comp[i][j].poly.get(monomial, QQ.zero)))
        rows.append(row)
    return Matrix(rows, ncols=k_off[bj + 1] - k_off[bj])


def section_coefficients(comp, dims) -> dict[tuple[int, int, int], Matrix]:
    """A quadratic composite of sections as one coefficient matrix per monomial."""
    return {mono: Matrix([[_fraction(e.poly.get(mono, QQ.zero)) for e in row] for row in comp],
                         ncols=dims.total_k)
            for mono in ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))}


# -- the singular scan by elimination ----------------------------------------------
#
# ``monad._scan_chart`` and ``monad._scan_divisor`` find the drop points as
# eigenvalues.  The routes they replaced eliminate over the maximal minors (or
# three random compressions) of alpha, scaled to integer entries: at z2 = 1 in
# ZZ[x1, x0], where x1 comes first so that ``resultant`` eliminates it into
# ZZ[x0] and a fibre over a root of the eliminant lies in ZZ[x1]; on E_i in
# ZZ[w0, w1], where the gcd of the forms is the eliminant.


def _domain_matrix(rows: list[list], domain) -> DomainMatrix:
    return DomainMatrix(rows, (len(rows), len(rows[0])), domain)


def _compressed_dets(entries: list[list], full_rank: int, rng: Random):
    """``det(U_j . alpha)`` for three random integer ``U_j``, by fraction-free Bareiss.

    They lie in the maximal-minor ideal (Cauchy-Binet).  Two compressions
    generically share spurious common zeros off the drop locus, often
    irrational ones; a third compression generically misses them.
    """
    domain = entries[0][0].ring.to_domain()
    mat = _domain_matrix(entries, domain)
    dets = []
    for _ in range(3):
        u = _domain_matrix([[domain(rng.randint(-9, 9)) for _ in entries]
                            for _ in range(full_rank)], domain)
        dets.append((u * mat).det())
    return tuple(dets)


def _all_minors(entries: list[list], full_rank: int):
    """Distinct nonzero maximal minors, in the order of their row sets."""
    mat = _domain_matrix(entries, entries[0][0].ring.to_domain())
    cols = list(range(mat.shape[1]))
    minors = []
    for rows in itertools.combinations(range(mat.shape[0]), full_rank):
        d = mat.extract(list(rows), cols).det()
        if d and d not in minors:
            minors.append(d)
    return minors


def _gcd_all(polys: list):
    g = polys[0]
    for p in polys[1:]:
        g = g.gcd(p)
    return g


CHART, X1, X0 = ring("x1,x0", ZZ)
_FIBRE = CHART.drop(X0)


def chart_entries(m) -> list[list]:
    """``L alpha`` at z2 = 1 in ZZ[x1, x0], ``L`` the pencil's common denominator."""
    return [[CHART.from_dict({mono: v for mono, v in (((0, 1), a), ((1, 0), b), ((0, 0), c)) if v})
             for a, b, c in zip(m0, m1, m2)] for m0, m1, m2 in zip(*m.alpha.mats)]


def _rational_roots(poly) -> tuple[list[Fraction], bool]:
    """Rational roots of a nonzero univariate ring element, plus 'all roots rational'."""
    if poly.degree() <= 0:
        return [], True
    var = poly.ring.gens[0]
    roots: list[Fraction] = []
    all_rational = True
    _, factors = poly.factor_list()
    for fac, _mult in factors:
        if fac.degree() == 1:
            roots.append(Fraction(-int(fac.coeff(1)), int(fac.coeff(var))))
        elif fac.degree() > 1:
            all_rational = False
    return roots, all_rational


def _eliminate_x1(f1, f2):
    """An element of the ideal (f1, f2) in ``ZZ[x0]``, zero iff they share a factor.

    ``resultant`` with respect to x1 is 1 when neither input involves x1, and 1
    is not in the ideal; for such a pair the gcd in ``ZZ[x0]`` is.
    """
    if f1.degree(X1) == 0 and f2.degree(X1) == 0:
        return f1.gcd(f2).drop(X1)
    return f1.resultant(f2)


def _at_x0(p, x0: Fraction):
    """``b^d p(x1, a/b)`` in ``ZZ[x1]`` for ``x0 = a/b`` and ``d = deg_x0 p``."""
    a, b = x0.numerator, x0.denominator
    deg = p.degree(X0)
    scale = [a ** e * b ** (deg - e) for e in range(deg + 1)]
    out: dict[tuple[int], int] = {}
    for (e1, e0), c in p.items():
        out[(e1,)] = out.get((e1,), 0) + c * scale[e0]
    return _FIBRE.from_dict(out)


def common_zeros_2d(polys: list) -> tuple[list[tuple[Fraction, Fraction]], bool, bool]:
    """Candidate common zeros of elements of ``ZZ[x1, x0]``, as pairs (x0, x1).

    Returns (candidates, curve_detected, complete).  Candidates may contain
    spurious points (callers verify); no genuine common zero with rational
    coordinates is missed unless ``complete`` is False.
    """
    polys = [p for p in polys if p]
    if not polys:
        return [], True, True
    if not _gcd_all(polys).is_ground:
        return [], True, True
    if len(polys) == 1:
        return [], False, True
    resultants = []
    for f1, f2 in itertools.combinations(polys[: max(3, min(len(polys), 6))], 2):
        res = _eliminate_x1(f1, f2)
        if res:
            resultants.append(res)
        if len(resultants) >= 12:
            break
    if not resultants:
        # every pair shares a factor; add combinations from the ideal and retry
        rng = Random(1729)
        extra = [sum(rng.randint(1, 7) * p for p in polys) for _ in range(2)]
        for f1 in extra:
            for f2 in polys[:4]:
                res = _eliminate_x1(f1, f2)
                if res:
                    resultants.append(res)
        if not resultants:
            return [], False, False
    eliminant = _gcd_all(resultants)
    if eliminant.is_ground:
        return [], False, True
    roots0, complete = _rational_roots(eliminant)
    candidates: list[tuple[Fraction, Fraction]] = []
    for r0 in roots0:
        fibre = None
        for p in polys:
            sub = _at_x0(p, r0)
            if sub:
                fibre = sub if fibre is None else fibre.gcd(sub)
        if fibre is None:
            complete = False
            continue
        if fibre.is_ground:
            continue
        roots1, rational1 = _rational_roots(fibre)
        complete = complete and rational1
        candidates += [(r0, r1) for r1 in roots1]
    return candidates, False, complete


def reference_chart_operators(m, cfg: AdhmConfig) -> tuple[list[Matrix], Matrix]:
    """The full ``T_A = a^{-1} q^A`` and the framing rows ``C = [c 0]`` of ``m = build_monad(cfg)``.

    Read off alpha's pencil (see ``monad.build_monad``): ``q^0`` is ``-M_2``
    on copy 1 of ``L``, ``q^1`` is ``M_2`` on copy 0, and ``C`` is ``M_2`` on
    the framing rows.  At ``(x0, x1, 1)`` the ``L`` rows of ``alpha v``
    vanish iff ``T_A v = x_A v``, and then the framing rows are ``C v``.  A
    reference for the ``K_0`` columns that ``m.chart`` keeps.
    """
    total_l = m.dims.total_l
    summand = [0] * total_l + [1] * total_l + ["C"] * m.dims.rank  # W is (L, L, C^r)
    m2 = m.alpha.mats[2]

    def rows(kind, sign=1):
        return Matrix.from_ints([[sign * x for x in row] for row, s in zip(m2, summand) if s == kind],
                                m.alpha.den, m.dims.total_k)

    ainv = cfg._a_inverse
    return [ainv * rows(1, -1), ainv * rows(0)], rows("C")


def reference_scan_chart(m, rng: Random, use_all_minors: bool):
    """Rank-drop points in the chart z2 = 1 (minus blow-up centres) by elimination."""
    full_rank = m.dims.total_k
    entries = chart_entries(m)
    complete = True
    if use_all_minors:
        polys = _all_minors(entries, full_rank)
        if not polys:
            raise NotInPError("alpha drops rank on the whole surface")
        candidates, curve, complete = common_zeros_2d(polys)
        if curve:
            raise NotInPError("alpha drops rank along a curve in the affine chart")
    else:
        candidates = None
        for _attempt in range(4):
            dets = _compressed_dets(entries, full_rank, rng)
            if not any(dets):
                continue
            cand, curve, comp_flag = common_zeros_2d(list(dets))
            if curve:
                continue
            candidates, complete = cand, comp_flag
            break
        if candidates is None:
            raise NotInPError("alpha drops rank along a curve in the affine chart")
    centres = set(m.ctx.points)
    drops = []
    for x0, x1 in candidates:
        if (x0, x1) in centres:
            continue
        pt = SurfacePoint.generic(x0, x1, 1)
        if m.alpha_at(pt).rank() < full_rank:
            drops.append(pt)
    return drops, complete


_QLINE, _QW0, _QW1 = ring("w0,w1", QQ)
LINE, W0, W1 = ring("w0,w1", ZZ)


def line_entries(m, i: int) -> list[list]:
    """``L alpha`` restricted to ``E_i``, in ZZ[w0, w1].

    ``L`` is one common denominator: the lcm of the denominators of every
    coefficient of the restricted matrix.  With one ``L`` for the whole
    matrix, every maximal minor and every compression ``det(U . L alpha)``
    is ``L^k`` times that of ``alpha``, a fixed nonzero constant, so common
    zeros, gcd degrees and factors are those of the rational matrix.
    """
    scale = QQ(1, m.alpha.den)
    p0, p1 = (QQ(x.numerator, x.denominator) * scale for x in m.ctx.points[i - 1])
    rows = m.alpha.combine((i, (_QLINE(p0), _QLINE(p1), _QLINE(scale)),
                            (_QW0 * scale, _QW1 * scale)))
    lcm = math.lcm(1, *(int(c.denominator) for row in rows for e in row for c in e.itercoeffs()))
    return [[LINE.from_dict({mono: int(c.numerator) * (lcm // int(c.denominator))
                             for mono, c in e.items()})
             for e in row] for row in rows]


def line_zeros(forms: list) -> tuple[list[tuple[Fraction, Fraction]], bool] | None:
    """Common zeros ``(w0 : w1)`` of forms in ZZ[w0, w1], from their gcd.

    None if every form is zero; otherwise the rational zeros, as ``(1, w1/w0)``
    or ``(0, 1)`` in the order of the factors, and whether all zeros are
    rational.
    """
    forms = [f for f in forms if f]
    if not forms:
        return None
    g = _gcd_all(forms)
    points: list[tuple[Fraction, Fraction]] = []
    complete = True
    for fac, _mult in ([] if g.is_ground else g.factor_list()[1]):
        degree = max(sum(mono) for mono in fac.monoms())
        if degree == 1:
            # fac = a0 w0 + a1 w1 vanishes at (w0 : w1) = (-a1 : a0)
            w0, w1 = -int(fac.coeff(W1)), int(fac.coeff(W0))
            points.append((Fraction(1), Fraction(w1, w0)) if w0 else (Fraction(0), Fraction(1)))
        elif degree > 1:
            complete = False
    return points, complete


def reference_scan_divisor(m, i: int, rng: Random, use_all_minors: bool):
    """Rank-drop points on the exceptional line E_i by elimination, and completeness.

    Eliminates over every maximal minor, or over three compressions (drawn
    again, up to four times, while all three vanish).  Raises
    :class:`NotInPError` when alpha drops rank along the whole line.
    """
    full_rank = m.dims.total_k
    entries = line_entries(m, i)
    if use_all_minors:
        found = line_zeros(_all_minors(entries, full_rank))
    else:
        for _attempt in range(4):
            found = line_zeros(list(_compressed_dets(entries, full_rank, rng)))
            if found is not None:
                break
    if found is None:
        probe = SurfacePoint.exceptional(i, 1, Fraction(rng.randint(50, 99), 7))
        if m.alpha.rank_at(probe, m.ctx) < full_rank:
            raise NotInPError(f"alpha drops rank along the exceptional line E_{i}")
        return [], False
    candidates = (SurfacePoint.exceptional(i, *w) for w in found[0])
    return [pt for pt in candidates if m.alpha.rank_at(pt, m.ctx) < full_rank], found[1]


def reference_framing_fiber(m, rng: Random) -> bool:
    """The fibre criterion for the framing, sampled on the framing line ``z2 = 0``.

    At ``(1:0:0)``, ``(0:1:0)`` and eight random ``(1:t:0)``: beta must be
    onto and kill the framing summand ``C^r``, and ``[alpha | C^r]`` must have
    full column rank.  A drop anywhere else on the line goes unseen.
    """
    dims = m.dims
    pts = [SurfacePoint.generic(1, 0, 0), SurfacePoint.generic(0, 1, 0)]
    pts += [SurfacePoint.generic(1, Fraction(rng.randint(-24, 24), rng.randint(1, 5)), 0)
            for _ in range(8)]
    first = 2 * dims.total_l  # W is (L, L, C^r)
    framing = [s >= first for s in range(dims.rank_w)]
    unit = Matrix([[int(s == first + j) for j in range(dims.rank)] for s in range(dims.rank_w)],
                  ncols=dims.rank)
    for x in pts:
        alpha, beta = m.alpha_at(x), m.beta_at(x)
        if beta.rank() < dims.total_l or any(
                v for row in beta.rows for v, f in zip(row, framing) if f):
            return False
        joined = block_matrix([[alpha, unit]], [dims.rank_w], [dims.total_k, dims.rank])
        if joined.rank() < dims.total_k + dims.rank:
            return False
    return True
