"""Monads built from ADHM configurations, and their pointwise analysis.

``build_monad`` turns a configuration into the two maps

    alpha : (+) K_j (-1, E_j)  ->  W,        beta : W  ->  (+) L_i (1, -E_i)

as explicit matrices of sections, with the middle term trivial of rank
``2 sum(dim L) + r`` in the ordered basis (L_0 pair, ..., L_n pair, C^r).
``check_monad_condition`` composes them symbolically; the composite vanishes
identically in rows i >= 1 for any configuration (the ``w^A w_A = 0``
mechanism kills them), so validity is carried entirely by the L_0 row.

Pointwise, ``fiber_data`` computes exact ranks of the evaluated maps;
``singular_scan`` locates the finite set where alpha drops rank (exact
elimination over integer polynomial rings in each chart, with a certified
completeness flag and a rank-drop-along-a-curve detector); ``framing_check`` compares the
determinant criterion for the framing with the fibre criterion along the
framing line.  ``validate_config`` bundles everything into one report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from .adhm import (
    AdhmConfig,
    assemble_a,
    b_block,
    constraint_residual,
    derive_bA,
    gauge_fix,
)
from .adhm import stabilizer_dim as _stabilizer_dim
from .errors import (
    FramingViolationError,
    InternalConsistencyError,
    MonadDegeneracyError,
    NonGenericStratumError,
    NotInPError,
)
from .lattice import ChernCharacter, DivisorClass, MonadDims
from .linalg import Matrix
from .sections import (
    BlowupPoints,
    SectionPoly,
    _frac,
    _fraction,
    _value,
    lambda_section,
    lower_pair,
    w_section,
    z_section,
    zero_section,
)

Rational = Fraction | int


@dataclass(frozen=True)
class SurfacePoint:
    """A point of the blown-up surface.

    Either a point of the plane minus the blow-up centres, given by a chosen
    homogeneous representative ``(z0 : z1 : z2)`` (the framing line is
    ``z2 = 0``), or a point ``(w0 : w1)`` on the exceptional line over the
    i-th centre.
    """

    exceptional_index: int | None
    coords: tuple[Fraction, ...]

    @classmethod
    def generic(cls, z0: Rational, z1: Rational, z2: Rational) -> SurfacePoint:
        coords = (_frac(z0), _frac(z1), _frac(z2))
        if all(c == 0 for c in coords):
            raise ValueError("(0,0,0) is not a projective point")
        return cls(None, coords)

    @classmethod
    def exceptional(cls, i: int, w0: Rational, w1: Rational) -> SurfacePoint:
        coords = (_frac(w0), _frac(w1))
        if all(c == 0 for c in coords):
            raise ValueError("(0,0) is not a point of an exceptional line")
        if i < 1:
            raise ValueError("exceptional index is 1-based")
        return cls(i, coords)

    @property
    def is_exceptional(self) -> bool:
        return self.exceptional_index is not None

    def sort_key(self):
        if self.is_exceptional:
            return (1, self.exceptional_index) + self.coords
        return (0, 0) + self.coords


@dataclass(frozen=True)
class FiberData:
    """Exact ranks of the evaluated monad maps at one point."""

    point: SurfacePoint
    rank_alpha: int
    dim_ker_beta: int
    fiber_dim: int


@dataclass(frozen=True)
class MonadRep:
    """The two monad maps as matrices of sections, plus block metadata.

    ``alpha`` has ``rank W`` rows and ``sum(dim K)`` columns; ``beta`` has
    ``sum(dim L)`` rows and ``rank W`` columns.  ``w_slots`` labels each row
    of ``alpha`` (equivalently column of ``beta``) by its summand: (i, A)
    for the A-th copy of ``L_i``, or ("C", m) for the framing summand.
    """

    alpha: tuple[tuple[SectionPoly, ...], ...]
    beta: tuple[tuple[SectionPoly, ...], ...]
    dims: MonadDims
    ctx: BlowupPoints
    w_slots: tuple[tuple, ...]

    def alpha_at(self, x: SurfacePoint) -> Matrix:
        return _evaluate(self.alpha, x, self.ctx)

    def beta_at(self, x: SurfacePoint) -> Matrix:
        return _evaluate(self.beta, x, self.ctx)


def _evaluate(entries, x: SurfacePoint, ctx: BlowupPoints) -> Matrix:
    """Values at ``x``, as ``eval_generic``/``eval_exceptional`` give them.

    ``x`` is checked and converted to ``QQ`` once for the whole matrix.
    """
    if x.is_exceptional:
        i = x.exceptional_index
        w = ctx.line_point(i, x.coords)
        return Matrix([[_fraction(_value(e.restriction(i), w)) for e in row]
                       for row in entries])
    xq = ctx.chart_point(x.coords)
    return Matrix([[_fraction(_value(e.poly, xq)) for e in row] for row in entries])


def _offsets(sizes) -> list[int]:
    """Start of each block and the total, for consecutive blocks of these sizes."""
    return list(itertools.accumulate(sizes, initial=0))


def build_monad(cfg: AdhmConfig) -> MonadRep:
    """Assemble the monad maps from a configuration (``b^A`` is derived).

    Works for pre-gauge data too: the optional ``cAi`` rows land in the
    framing row of ``alpha`` and the derived ``b^A`` absorbs them, so a
    configuration and its gauge-fixed form have the same fibre data.
    """
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

    def col_bidegree(j: int) -> DivisorClass:
        q = [0] * n
        if j >= 1:
            q[j - 1] = -1
        return DivisorClass(1, q)

    def zero_entry(j: int) -> SectionPoly:
        return zero_section(ctx, col_bidegree(j))

    # W slot labels, in basis order.
    w_slots: list[tuple] = []
    for i in range(n + 1):
        for a_idx in (0, 1):
            for m in range(ld[i]):
                w_slots.append((i, a_idx, m))
    for m in range(r):
        w_slots.append(("C", m))

    def scaled(section: SectionPoly, coeff: Fraction) -> SectionPoly:
        return section.scale(coeff)

    alpha_rows: list[list[SectionPoly]] = []
    for i in range(n + 1):
        for a_idx in (0, 1):
            for m in range(ld[i]):
                row: list[SectionPoly] = []
                for j in range(n + 1):
                    for mu in range(kd[j]):
                        entry = zero_entry(j)
                        if i == 0 and j == 0:
                            entry = (
                                scaled(zlow[a_idx], cfg.a00[m, mu])
                                + scaled(z2, aA_low[a_idx][m, mu])
                            )
                        elif i == 0 and j >= 1:
                            entry = scaled(wlow[j][a_idx], cfg.a0i[j - 1][m, mu])
                        elif i >= 1 and j == 0:
                            entry = scaled(
                                lam[i] * wlow[i][a_idx], cfg.ai0[i - 1][m, mu]
                            )
                        elif i >= 1 and j == i:
                            entry = scaled(wlow[i][a_idx], cfg.aii[i - 1][m, mu])
                        row.append(entry)
                alpha_rows.append(row)
    for m in range(r):
        row = []
        for j in range(n + 1):
            for mu in range(kd[j]):
                entry = zero_entry(j)
                if j == 0:
                    entry = scaled(z2, cfg.c[m, mu])
                    if cfg.cAi is not None:
                        for a_idx in (0, 1):
                            entry = entry + scaled(
                                zlow[a_idx], cfg.cAi[0][a_idx][m, mu]
                            )
                elif cfg.cAi is not None:
                    for a_idx in (0, 1):
                        entry = entry + scaled(
                            wlow[j][a_idx], cfg.cAi[j][a_idx][m, mu]
                        )
                row.append(entry)
        alpha_rows.append(row)

    beta_rows: list[list[SectionPoly]] = []
    w_raised = {i: (w_section(ctx, i, 0), w_section(ctx, i, 1))
                for i in range(1, n + 1)}
    zs = (z_section(ctx, 0), z_section(ctx, 1))
    for i in range(n + 1):
        row_bd = col_bidegree(i)
        for m in range(ld[i]):
            row = []
            for slot in w_slots:
                if slot[0] == "C":
                    if i == 0:
                        row.append(scaled(z2, cfg.d[m, slot[1]]))
                    else:
                        row.append(zero_section(ctx, row_bd))
                    continue
                si, sa, sm = slot
                if i == 0:
                    b = b_block(cfg, bA[sa], si)
                    if si == 0:
                        entry = scaled(z2, b[m, sm])
                        if sm == m:
                            entry = entry + zs[sa]
                    else:
                        entry = scaled(z2, b[m, sm])
                    row.append(entry)
                elif si == i:
                    if sm == m:
                        row.append(w_raised[i][sa])
                    else:
                        row.append(zero_section(ctx, row_bd))
                else:
                    row.append(zero_section(ctx, row_bd))
            beta_rows.append(row)

    return MonadRep(
        alpha=tuple(tuple(r_) for r_ in alpha_rows),
        beta=tuple(tuple(r_) for r_ in beta_rows),
        dims=dims,
        ctx=ctx,
        w_slots=tuple(w_slots),
    )


def check_monad_condition(m: MonadRep) -> tuple[tuple[SectionPoly, ...], ...]:
    """The composite ``beta . alpha`` as a matrix of sections (zero iff valid)."""
    dims = m.dims
    n = dims.n
    ctx = m.ctx
    total_k, total_l = dims.total_k, dims.total_l
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
    for i in range(total_l):
        row = []
        for j in range(total_k):
            acc = zero_section(ctx, out_bidegree(i, j))
            for s in range(dims.rank_w):
                term = m.beta[i][s] * m.alpha[s][j]
                acc = acc + term
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def composite_is_zero(comp) -> bool:
    return all(entry.is_zero() for row in comp for entry in row)


def coefficient_block(comp, dims: MonadDims, bi: int, bj: int,
                      monomial: tuple[int, int, int]) -> Matrix:
    """Coefficient of one monomial across a block of the composite."""
    l_off = _offsets(dims.dim_l)
    k_off = _offsets(dims.dim_k)
    rows = []
    for i in range(l_off[bi], l_off[bi + 1]):
        row = []
        for j in range(k_off[bj], k_off[bj + 1]):
            row.append(_fraction(comp[i][j].poly.get(monomial, QQ.zero)))
        rows.append(row)
    return Matrix(rows, ncols=k_off[bj + 1] - k_off[bj])


def fiber_data(m: MonadRep, x: SurfacePoint) -> FiberData:
    """Exact fibre ranks at one point; flags a non-surjective ``beta``."""
    a_mat = m.alpha_at(x)
    b_mat = m.beta_at(x)
    rank_beta = b_mat.rank()
    if rank_beta < m.dims.total_l:
        raise MonadDegeneracyError(
            f"beta drops to rank {rank_beta} < {m.dims.total_l} at {x}"
        )
    rank_alpha = a_mat.rank()
    dim_ker_beta = m.dims.rank_w - rank_beta
    return FiberData(
        point=x,
        rank_alpha=rank_alpha,
        dim_ker_beta=dim_ker_beta,
        fiber_dim=dim_ker_beta - rank_alpha,
    )


# -- singular locus -----------------------------------------------------------------


#: ``singular_scan`` eliminates over the full maximal-minor ideal when
#: ``sum(dim K)`` is at most this, and over three compressions above it: the
#: minor count grows combinatorially, and the compressions are faster from
#: ``sum(dim K) = 3`` on.
_EXACT_MAX_DIM = 2
#: Random chart points, and random points of the framing line, that the scan
#: probes for a rank drop along a curve before eliminating.
_CHART_PROBES = 25
_FRAMING_PROBES = 5


@dataclass(frozen=True)
class ScanResult:
    points: tuple[SurfacePoint, ...]
    complete: bool


#: The scan eliminates over the integers.  Chart entries live in ZZ[x1, x0];
#: x1 comes first so that ``resultant`` eliminates it, into ZZ[x0], and a
#: fibre over a root of the eliminant lies in ZZ[x1].  Restrictions to an
#: exceptional line are forms in ZZ[w0, w1].
_CHART, _X1, _X0 = ring("x1,x0", ZZ)
_FIBRE = _CHART.drop(_X0)
_LINE, _W0, _W1 = ring("w0,w1", ZZ)


def _scan_entries(m: MonadRep, i: int | None = None) -> list[list]:
    """``L alpha`` at z2 = 1 in ZZ[x1, x0], or restricted to ``E_i`` in ZZ[w0, w1].

    ``L`` is one common denominator: the lcm of the denominators of every
    coefficient of the matrix scanned.  With one ``L`` for the whole matrix,
    every maximal minor and every compression ``det(U . L alpha)`` is ``L^k``
    times that of ``alpha``, a fixed nonzero constant, so common zeros, gcd
    degrees and factors are those of the rational matrix.
    """
    if i is None:
        rows = [[e.poly for e in row] for row in m.alpha]
        target, monom = _CHART, lambda mono: (mono[1], mono[0])
    else:
        rows = [[e.restriction(i) for e in row] for row in m.alpha]
        target, monom = _LINE, lambda mono: mono[:2]
    lcm = math.lcm(1, *(int(c.denominator)
                        for row in rows for e in row for c in e.itercoeffs()))
    return [[target.from_dict({monom(mono): int(c.numerator) * (lcm // int(c.denominator))
                               for mono, c in e.items()})
             for e in row] for row in rows]


def _domain_matrix(rows: list[list], domain) -> DomainMatrix:
    return DomainMatrix(rows, (len(rows), len(rows[0])), domain)


def _compressed_dets(entries: list[list], full_rank: int, rng: Random):
    """``det(U_j . alpha)`` for three random integer ``U_j``, by fraction-free Bareiss.

    Two compressions generically share spurious common zeros off the drop
    locus, often irrational ones; a third compression generically misses them.
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
    if f1.degree(_X1) == 0 and f2.degree(_X1) == 0:
        return f1.gcd(f2).drop(_X1)
    return f1.resultant(f2)


def _at_x0(p, x0: Fraction):
    """``b^d p(x1, a/b)`` in ``ZZ[x1]`` for ``x0 = a/b`` and ``d = deg_x0 p``.

    A nonzero multiple of ``p(x1, x0)``, computed without leaving the integers.
    """
    a, b = x0.numerator, x0.denominator
    deg = p.degree(_X0)
    scale = [a ** e * b ** (deg - e) for e in range(deg + 1)]
    out: dict[tuple[int], int] = {}
    for (e1, e0), c in p.items():
        out[(e1,)] = out.get((e1,), 0) + c * scale[e0]
    return _FIBRE.from_dict(out)


def _common_zeros_2d(polys: list) -> tuple[list[tuple[Fraction, Fraction]], bool, bool]:
    """Candidate common zeros of elements of ``ZZ[x1, x0]``, as pairs (x0, x1).

    Returns (candidates, curve_detected, complete).  Candidates may contain
    spurious points (callers verify); no genuine common zero with rational
    coordinates is missed unless ``complete`` is False.
    """
    polys = [p for p in polys if p]
    if not polys:
        return [], True, True  # everything vanishes: a curve (handled by caller)
    if not _gcd_all(polys).is_ground:
        return [], True, True
    if len(polys) == 1:
        return [], False, True  # a single nonzero constant: no common zeros
    complete = True
    resultants = []
    pair_budget = 12
    for f1, f2 in itertools.combinations(polys[: max(3, min(len(polys), 6))], 2):
        res = _eliminate_x1(f1, f2)
        if res:
            resultants.append(res)
        if len(resultants) >= pair_budget:
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
        return [], False, True  # nonzero constant eliminant: no common zeros
    roots0, rational0 = _rational_roots(eliminant)
    complete = complete and rational0
    candidates: list[tuple[Fraction, Fraction]] = []
    for r0 in roots0:
        fibre = None
        for p in polys:
            sub = _at_x0(p, r0)
            if not sub:
                continue
            fibre = sub if fibre is None else fibre.gcd(sub)
        if fibre is None:
            complete = False  # whole line x0 = r0 shared; should not happen
            continue
        if fibre.is_ground:
            continue  # no common zero above this root
        roots1, rational1 = _rational_roots(fibre)
        complete = complete and rational1
        for r1 in roots1:
            candidates.append((r0, r1))
    return candidates, False, complete


def _scan_chart(m: MonadRep, rng: Random, use_all_minors: bool):
    """Rank-drop points in the chart z2 = 1 (minus blow-up centres)."""
    full_rank = m.dims.total_k
    entries = _scan_entries(m)
    drops: list[SurfacePoint] = []
    complete = True
    if use_all_minors:
        polys = _all_minors(entries, full_rank)
        if not polys:
            raise NotInPError("alpha drops rank on the whole surface")
        candidates, curve, comp_flag = _common_zeros_2d(polys)
        if curve:
            raise NotInPError("alpha drops rank along a curve in the affine chart")
        complete = comp_flag
    else:
        candidates = None
        for _attempt in range(4):
            dets = _compressed_dets(entries, full_rank, rng)
            if not any(dets):
                continue
            cand, curve, comp_flag = _common_zeros_2d(list(dets))
            if curve:
                continue
            candidates = cand
            complete = comp_flag
            break
        if candidates is None:
            # persistent identical vanishing or shared factor: genuine curve drop
            probe = SurfacePoint.generic(
                Fraction(rng.randint(50, 99), 7), Fraction(rng.randint(50, 99), 11), 1
            )
            if m.alpha_at(probe).rank() < full_rank:
                raise NotInPError("alpha drops rank at a generic point")
            raise NotInPError("alpha drops rank along a curve in the affine chart")
    centres = set(m.ctx.points)
    for x0, x1 in candidates or []:
        if (x0, x1) in centres:
            continue  # that plane point is replaced by its exceptional line
        pt = SurfacePoint.generic(x0, x1, 1)
        if m.alpha_at(pt).rank() < full_rank:
            drops.append(pt)
    return drops, complete


def _scan_divisor(m: MonadRep, i: int, rng: Random, use_all_minors: bool):
    """Rank-drop points on the exceptional line E_i."""
    full_rank = m.dims.total_k
    entries = _scan_entries(m, i)
    if use_all_minors:
        polys = _all_minors(entries, full_rank)
    else:
        polys = []
        for _attempt in range(4):
            polys = [p for p in _compressed_dets(entries, full_rank, rng) if p]
            if polys:
                break
    if not polys:
        probe = SurfacePoint.exceptional(i, 1, Fraction(rng.randint(50, 99), 7))
        if m.alpha_at(probe).rank() < full_rank:
            raise NotInPError(f"alpha drops rank along the exceptional line E_{i}")
        return [], False
    g = _gcd_all(polys)
    drops: list[SurfacePoint] = []
    complete = True
    if not g.is_ground:
        _, factors = g.factor_list()
        for fac, _mult in factors:
            degree = max(sum(mono) for mono in fac.monoms())
            if degree == 1:
                # fac = a0 w0 + a1 w1 vanishes at (w0 : w1) = (-a1 : a0)
                w0, w1 = -int(fac.coeff(_W1)), int(fac.coeff(_W0))
                if w0:
                    cand = SurfacePoint.exceptional(i, 1, Fraction(w1, w0))
                else:
                    cand = SurfacePoint.exceptional(i, 0, 1)
                if m.alpha_at(cand).rank() < full_rank:
                    drops.append(cand)
            elif degree > 1:
                complete = False
    return drops, complete


def singular_scan(m: MonadRep, seed: int = 0) -> ScanResult:
    """All points where ``alpha`` drops below full column rank.

    Covers the affine chart, every exceptional line and the framing line.
    Elimination runs on the full maximal-minor ideal when ``sum(dim K)`` is at
    most 2, and otherwise on three seeded compressions ``det(U_j . alpha)``,
    which lie in that ideal (Cauchy-Binet), so their common zeros contain
    every drop point.  Elimination runs on integer polynomials: the chart
    matrix and each restriction to an ``E_i`` are first multiplied by one
    common denominator, which scales every minor and compression by a nonzero
    constant.  Every reported point is re-verified by an exact rank
    computation, and a drop along a curve raises :class:`NotInPError`.  The
    seed fixes the random probes and compressions, so the result is a
    function of ``m`` and ``seed``.

    ``complete`` is True only when the scan is certified: every factor of
    every eliminant is linear over QQ, so the drop locus has no point beyond
    the rational candidates checked.  False means further drop points could
    not be ruled out, usually irrational ones; the reported points are still
    genuine.
    """
    rng = Random(seed)
    full_rank = m.dims.total_k
    if full_rank == 0:
        return ScanResult(points=(), complete=True)

    # Framing line: the restriction of alpha factors through the assembled
    # matrix a, so a drop at any point of z2 = 0 is a drop along all of it.
    for pt in _framing_line_points(rng, _FRAMING_PROBES):
        if m.alpha_at(pt).rank() < full_rank:
            raise NotInPError("alpha drops rank along the framing line")

    # Random-point probe: a drop at a random point means a generic drop.
    for _ in range(_CHART_PROBES):
        pt = _rand_chart_point(rng, m.ctx)
        if m.alpha_at(pt).rank() < full_rank:
            raise NotInPError(f"alpha drops rank at the random point {pt}")

    use_exact = full_rank <= _EXACT_MAX_DIM
    drops, complete = _scan_chart(m, rng, use_all_minors=use_exact)
    for i in range(1, m.dims.n + 1):
        d_i, c_i = _scan_divisor(m, i, rng, use_all_minors=use_exact)
        drops.extend(d_i)
        complete = complete and c_i
    unique = sorted(set(drops), key=SurfacePoint.sort_key)
    return ScanResult(points=tuple(unique), complete=complete)


def _rand_frac(rng: Random) -> Fraction:
    return Fraction(rng.randint(-24, 24), rng.randint(1, 5))


def _rand_chart_point(rng: Random, ctx: BlowupPoints) -> SurfacePoint:
    while True:
        x0, x1 = _rand_frac(rng), _rand_frac(rng)
        if (x0, x1) not in ctx.points:
            return SurfacePoint.generic(x0, x1, 1)


def _framing_line_points(rng: Random, count: int) -> list[SurfacePoint]:
    """The two coordinate points of the framing line, then ``count`` random ones."""
    pts = [SurfacePoint.generic(1, 0, 0), SurfacePoint.generic(0, 1, 0)]
    pts += [SurfacePoint.generic(1, _rand_frac(rng), 0) for _ in range(count)]
    return pts


# -- framing ------------------------------------------------------------------------


def _framing_fiber_ok(m: MonadRep, cfg: AdhmConfig, x: SurfacePoint) -> bool:
    a_mat = m.alpha_at(x)
    b_mat = m.beta_at(x)
    total_k, total_l = m.dims.total_k, m.dims.total_l
    if b_mat.rank() < total_l:
        return False
    rank_alpha = a_mat.rank()
    if rank_alpha < total_k or m.dims.rank_w - total_l - rank_alpha != cfg.r:
        return False
    # the framing summand must land in ker(beta) ...
    if not b_mat.submatrix(0, total_l, m.dims.rank_w - cfg.r,
                           m.dims.rank_w).is_zero():
        return False
    # ... and inject into the fibre: C^r meets im(alpha) in 0
    c_cols = Matrix.zeros(m.dims.rank_w, cfg.r)
    rows = c_cols.copy_rows()
    for mth in range(cfg.r):
        rows[m.dims.rank_w - cfg.r + mth][mth] = Fraction(1)
    joined = a_mat.hstack(Matrix(rows, ncols=cfg.r))
    return joined.rank() == total_k + cfg.r


def framing_verdicts(cfg: AdhmConfig, seed: int = 0, m: MonadRep | None = None,
                     det_ok: bool | None = None) -> tuple[bool, bool]:
    """(determinant criterion, fibre criterion along the framing line).

    ``m`` and ``det_ok``, when given, must be ``build_monad(cfg)`` and
    ``assemble_a(cfg).det() != 0``; they are computed otherwise.
    """
    if det_ok is None:
        det_ok = assemble_a(cfg).det() != 0
    if m is None:
        try:
            m = build_monad(cfg)
        except FramingViolationError:
            return det_ok, False
    pts = _framing_line_points(Random(seed), 8)  # ten points in all
    return det_ok, all(_framing_fiber_ok(m, cfg, x) for x in pts)


def framing_check(m: MonadRep, cfg: AdhmConfig, seed: int = 0) -> bool:
    """True iff the framing exists; the two criteria must agree."""
    det_ok, fiber_ok = framing_verdicts(cfg, seed, m)
    if det_ok != fiber_ok:
        raise InternalConsistencyError(
            f"framing criteria disagree: det {det_ok}, fibre {fiber_ok}"
        )
    return det_ok


# -- Chern character bookkeeping ------------------------------------------------------


def cohomology_ch_check(dims: MonadDims) -> ChernCharacter:
    """Chern character of the monad cohomology from the end-term dimensions.

    Computes ``ch(W) - sum ch(O(-1, E_i)) dim K_i - sum ch(O(1, -E_i)) dim L_i``
    and insists it equals the character ``(r, sum a_i E_i, -(k + |a|^2/2))``.
    """
    n = dims.n
    rank = dims.rank_w
    c1 = DivisorClass(0, [0] * n)
    pt = Fraction(0)
    for i in range(n + 1):
        q = [0] * n
        if i >= 1:
            q[i - 1] = 1
        d_k = DivisorClass(-1, q)
        ch_k = ChernCharacter.of_line_bundle(d_k)
        rank -= dims.dim_k[i]
        c1 = c1 - ch_k.c1.scale(dims.dim_k[i])
        pt -= ch_k.pt * dims.dim_k[i]
        d_l = DivisorClass(1, [-x for x in q])
        ch_l = ChernCharacter.of_line_bundle(d_l)
        rank -= dims.dim_l[i]
        c1 = c1 - ch_l.c1.scale(dims.dim_l[i])
        pt -= ch_l.pt * dims.dim_l[i]
    computed = ChernCharacter(rank, c1, pt)
    expected = ChernCharacter.of_sheaf(dims.rank, dims.a_vec, dims.k)
    if computed != expected:
        raise InternalConsistencyError(
            f"character bookkeeping broke: {computed} != {expected}"
        )
    return computed


# -- full validation -------------------------------------------------------------------


@dataclass(frozen=True)
class SpotCheck:
    point: SurfacePoint
    rank_alpha: int | None
    dim_ker_beta: int | None
    fiber_dim: int | None
    beta_surjective: bool
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    det_a_nonzero: bool
    raw_residual_zero: bool | None
    compact_residual_zero: bool | None
    monad_identity_zero: bool | None
    framing: bool | None
    framing_det: bool
    framing_fiber: bool | None
    finite_rank_drop: bool | None
    singular_points: tuple[SurfacePoint, ...]
    scan_complete: bool | None
    fiber_spotchecks: tuple[SpotCheck, ...]
    ch_check: bool
    stabilizer_dim: int | None
    normalizable: bool
    valid: bool
    failures: tuple[str, ...] = field(default=())


def _spotcheck_points(m: MonadRep, rng: Random) -> list[SurfacePoint]:
    """Twelve points: (1:0:0), two on each exceptional line, then chart points."""
    pts = [SurfacePoint.generic(1, 0, 0)]
    for i in range(1, m.dims.n + 1):
        pts.append(SurfacePoint.exceptional(i, 1, _rand_frac(rng)))
        pts.append(SurfacePoint.exceptional(i, 0, 1))
    while len(pts) < 12:
        pts.append(_rand_chart_point(rng, m.ctx))
    return pts[:12]


def validate_config(cfg: AdhmConfig, seed: int = 0) -> ValidationReport:
    """Run every finite check on a configuration and aggregate the verdicts."""
    failures: list[str] = []
    try:
        ch_check = cohomology_ch_check(cfg.dims) is not None
    except InternalConsistencyError:
        ch_check = False
        failures.append("chern character bookkeeping")

    det_ok = assemble_a(cfg).det() != 0
    if not det_ok:
        failures.append("assembled matrix a is singular")
        # second normalisation step only needs the ai0 blocks; the first
        # (eliminating cAi) needs the inverse of a, which does not exist here
        normalizable = cfg.cAi is None and all(
            m.nrows == 0 or m.det() != 0 for m in cfg.ai0
        )
        return ValidationReport(
            det_a_nonzero=False,
            raw_residual_zero=None,
            compact_residual_zero=None,
            monad_identity_zero=None,
            framing=False,
            framing_det=False,
            framing_fiber=False,
            finite_rank_drop=None,
            singular_points=(),
            scan_complete=None,
            fiber_spotchecks=(),
            ch_check=ch_check,
            stabilizer_dim=None,
            normalizable=normalizable,
            valid=False,
            failures=tuple(failures),
        )

    residual = constraint_residual(cfg)
    raw_zero = residual.raw_is_zero()
    compact_zero = residual.compact_is_zero()
    if not raw_zero:
        failures.append("monad condition residual is nonzero")

    monad = build_monad(cfg)
    comp = check_monad_condition(monad)
    monad_zero = composite_is_zero(comp)
    if monad_zero != raw_zero:
        raise InternalConsistencyError(
            "symbolic composite and residual formulas disagree"
        )

    det_v, fiber_v = framing_verdicts(cfg, seed, monad, det_ok)
    framing = det_v and fiber_v
    if det_v != fiber_v:
        failures.append("framing criteria disagree")

    finite_drop: bool | None
    try:
        scan = singular_scan(monad, seed)
        finite_drop = True
        singular_points = scan.points
        scan_complete = scan.complete
    except NotInPError as exc:
        finite_drop = False
        singular_points = ()
        scan_complete = None
        failures.append(str(exc))

    rng = Random(seed + 1)
    spots: list[SpotCheck] = []
    singular_set = set(singular_points)
    for pt in _spotcheck_points(monad, rng):
        try:
            fd = fiber_data(monad, pt)
        except MonadDegeneracyError:
            spots.append(SpotCheck(pt, None, None, None, False, False))
            failures.append(f"beta not surjective at {pt}")
            continue
        expected_min = cfg.r + 1 if pt in singular_set else cfg.r
        ok = (fd.fiber_dim >= expected_min if pt in singular_set
              else fd.fiber_dim == cfg.r)
        if not ok:
            failures.append(f"unexpected fibre dimension {fd.fiber_dim} at {pt}")
        spots.append(SpotCheck(pt, fd.rank_alpha, fd.dim_ker_beta,
                               fd.fiber_dim, True, ok))

    try:
        normalized = cfg if cfg.is_normalized() else gauge_fix(cfg)
    except NonGenericStratumError:
        normalized = None
    if normalized is not None:
        stab = _stabilizer_dim(normalized)
        if stab != 0:
            failures.append(f"positive-dimensional stabilizer ({stab})")
    else:
        # a singular ai0 block: not normalisable, though possibly still valid
        stab = None

    valid = (
        det_ok
        and raw_zero
        and compact_zero
        and monad_zero
        and framing
        and finite_drop is True
        and ch_check
        and (stab in (0, None))
        and all(s.ok for s in spots)
    )
    return ValidationReport(
        det_a_nonzero=det_ok,
        raw_residual_zero=raw_zero,
        compact_residual_zero=compact_zero,
        monad_identity_zero=monad_zero,
        framing=framing,
        framing_det=det_v,
        framing_fiber=fiber_v,
        finite_rank_drop=finite_drop,
        singular_points=tuple(singular_points),
        scan_complete=scan_complete,
        fiber_spotchecks=tuple(spots),
        ch_check=ch_check,
        stabilizer_dim=stab,
        normalizable=normalized is not None,
        valid=valid,
        failures=tuple(failures),
    )
