"""Monads built from ADHM configurations, and their pointwise analysis.

``build_monad`` turns a configuration into the two maps

    alpha : (+) K_j (-1, E_j)  ->  W,        beta : W  ->  (+) L_i (1, -E_i)

with the middle term trivial of rank ``2 sum(dim L) + r``, ordered ``(L, L,
C^r)``.  Each map is an integer linear pencil ``(z0 M_0 + z1 M_1 + z2 M_2) /
L``, read off three products:

    alpha = z0 [0; a; 0] + z1 [-a; 0; 0] + z2 [q^1; -q^0; [c 0]],
    beta  = [z0 - z2 S^0 | z1 - z2 S^1 | z2 [d; 0]],   S^A = q^A a^{-1},

so ``beta . alpha = z2^2 (q^1 a^{-1} q^0 - q^0 a^{-1} q^1 + [d; 0] [c 0])``.
``S^A`` is ``-b^A`` on ``L_0`` and ``p_i^A`` on ``L_i``, whose rows of
``q^A`` are ``p_i^A`` times those of ``a``, so the composite vanishes outside
its ``(L_0, K_0)`` block, the compact residual.  An entry twisted by ``-E_i``
(a ``K_i`` column of alpha, an ``L_i`` row of beta) vanishes at the centre
``p_i``; on ``E_i`` it restricts to ``w0 M_0 + w1 M_1`` and every other entry
to its value at ``p_i``.  A value at a point is one integer combination of the
three matrices, and rank-only callers rank those integer rows as they are,
over no denominator.  ``check_monad_condition`` composes the pencils; the tests
compare it with the compact residual, the verdict of :func:`validate_config`.

Pointwise, ``fiber_data`` computes exact ranks of the evaluated maps;
``singular_scan`` locates the finite set where alpha drops rank, and reads
both of its parts from the ``K_0`` columns ``W_A`` of ``T_A = a^{-1} q^A``
that the configuration keeps.  In the chart ``z2 = 1`` the drop points are
the joint eigenvalues of the ``T_A`` on the largest subspace of the framing
kernel both preserve.  Each ``K_i`` is the joint eigenspace of its centre, so
the scan reads the ``K_0`` rows ``P_A`` of ``W_A`` on ``S_0``, the largest
subspace of ker ``c`` both preserve.  On a monad the ``P_A`` commute on
``S_0`` (the blow-up form of the ADHM identity ``[B_1, B_2] + ij = 0``), so
every eigenvalue of ``P_A|S_0`` is a coordinate of a drop point.  On ``E_i``
alpha drops where the pencil ``w0 R_1^i - w1 R_0^i`` of the ``K_i`` rows of
``W_A`` does on a subspace ``V_i`` of ``K_0``.  The rational eigenvalues are
found p-adically (:func:`.linalg.rational_eigenvalues`) and verified by exact
ranks, and a scan is complete when every characteristic polynomial it reads
splits over Q.  Nothing in the scan is drawn at random, and none of it
imports sympy.  The framing holds on every monad: ``build_monad`` needs ``a``
invertible, and that forces the fibre criterion at every point of the framing
line ``z2 = 0`` (:func:`framing_verdicts`).  ``validate_config`` bundles
everything into one report; its seed picks only the spot-check points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from random import Random

from .adhm import (
    AdhmConfig,
    _point_matrix,
    assemble_a,
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
from .lattice import ChernCharacter, DivisorClass, MonadDims, _frac
from .linalg import Matrix, _inner_inverse, block_matrix, clear_denoms, rational_eigenvalues
from .sections import BlowupPoints

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


def _terms(x: SurfacePoint, ctx: BlowupPoints) -> tuple:
    """``(den, (i, plain, twisted))``: what :meth:`Pencil.combine` weighs its matrices by at ``x``.

    In the chart ``i`` is None and ``plain`` is the chosen representative
    ``(z0, z1, z2)``.  On ``E_i``, ``plain = (p_i^0, p_i^1, 1)`` gives an
    untwisted entry its value at the centre and ``twisted = (w0, w1)`` gives
    an entry twisted by ``-E_i`` its restriction: the ``lambda``-frame of
    :mod:`.sections`.  All of them are integers over the common denominator
    ``den``, which scales every entry by the same nonzero constant.
    """
    i = x.exceptional_index
    ctx.check_point(x.coords, i)
    nums = ((*ctx.points[i - 1], Fraction(1), *x.coords) if x.is_exceptional
            else x.coords + x.coords[:2])
    den = math.lcm(*(x.denominator for x in nums))
    nums = [x.numerator * (den // x.denominator) for x in nums]
    return den, (i, tuple(nums[:3]), tuple(nums[3:]))


@dataclass(frozen=True)
class Pencil:
    """The matrix ``(z0 M_0 + z1 M_1 + z2 M_2) / den`` of linear forms, ``M_a`` integer.

    ``row_twist[r]`` (or ``col_twist[c]``) is ``i`` when the entries of that
    row (column) are sections twisted by ``-E_i``, and 0 when untwisted.
    """

    mats: tuple[tuple[tuple[int, ...], ...], ...]
    den: int
    row_twist: tuple[int, ...]
    col_twist: tuple[int, ...]

    @classmethod
    def from_ints(cls, mats, den: int, row_twist, col_twist) -> Pencil:
        """The pencil of the integer matrices ``mats`` over ``den``, in lowest terms."""
        g = math.gcd(den, *(x for m in mats for row in m for x in row))
        return cls(tuple(tuple(tuple(x // g for x in row) for row in m) for m in mats),
                   den // g, tuple(row_twist), tuple(col_twist))

    def combine(self, terms) -> list[list]:
        """``sum_a t_a M_a`` entrywise, with ``t`` chosen by :func:`_terms`."""
        i, (x0, x1, x2), (w0, w1) = terms
        out = []
        for r, (m0, m1, m2) in enumerate(zip(*self.mats)):
            if i is None:
                out.append([x0 * a + x1 * b + x2 * c for a, b, c in zip(m0, m1, m2)])
            elif self.row_twist[r] == i:
                out.append([w0 * a + w1 * b for a, b in zip(m0, m1)])
            else:
                out.append([w0 * a + w1 * b if t == i else x0 * a + x1 * b + x2 * c
                            for a, b, c, t in zip(m0, m1, m2, self.col_twist)])
        return out

    def at(self, x: SurfacePoint, ctx: BlowupPoints) -> Matrix:
        """Exact values at ``x``, in the frame its coordinates fix."""
        den, terms = _terms(x, ctx)
        return Matrix.from_ints(self.combine(terms), den * self.den, len(self.col_twist))

    def rank_at(self, x: SurfacePoint, ctx: BlowupPoints) -> int:
        return Matrix.from_ints(self.combine(_terms(x, ctx)[1]), 1, len(self.col_twist)).rank()


@dataclass(frozen=True)
class MonadRep:
    """The two monad maps as integer pencils, plus what the scans read.

    ``alpha`` has ``rank W`` rows and ``sum(dim K)`` columns; ``beta`` has
    ``sum(dim L)`` rows and ``rank W`` columns, with ``W`` ordered ``(L, L,
    C^r)`` (see :func:`build_monad`).  ``chart`` is ``(W_0, W_1, c)``: the
    full-height ``K_0`` columns ``W_A`` of ``T_A = a^{-1} q^A`` and the
    framing row ``c``, which are all the singular scan reads besides the
    centres (see :func:`_scan_chart` and :func:`_scan_divisor`).
    """

    alpha: Pencil
    beta: Pencil
    dims: MonadDims
    ctx: BlowupPoints
    chart: tuple[Matrix, Matrix, Matrix]

    def alpha_at(self, x: SurfacePoint) -> Matrix:
        return self.alpha.at(x, self.ctx)

    def beta_at(self, x: SurfacePoint) -> Matrix:
        return self.beta.at(x, self.ctx)


def _offsets(sizes) -> list[int]:
    """Start of each block and the total, for consecutive blocks of these sizes."""
    return list(itertools.accumulate(sizes, initial=0))


def build_monad(cfg: AdhmConfig) -> MonadRep:
    """The monad pencils, read off ``a``, ``q^A`` and ``q^A a^{-1}`` (see the module docstring).

    ``W`` is copy 0 of every ``L_i``, then copy 1, then ``C^r``.  The ``L_0``
    rows of ``S^A`` are read through :func:`derive_bA`, and ``chart`` keeps
    the configuration's ``K_0`` columns of ``a^{-1} q^A`` for the scans.
    """
    dims, n = cfg.dims, cfg.n
    k0, l0, tk = dims.dim_k[0], dims.dim_l[0], dims.total_k
    tl, rank_w = dims.total_l, dims.rank_w
    col_twist = [j for j in range(n + 1) for _ in range(dims.dim_k[j])]
    row_twist = [i for i in range(n + 1) for _ in range(dims.dim_l[i])]
    # alpha: a, c and q^A over one denominator.  q^A is its kept L_0 strip,
    # then p_i^A a on each L_i: the centres over dp, the rest over a_den
    dp, (p,) = clear_denoms(_point_matrix(cfg))
    a_den, (a, *strips, c) = clear_denoms(assemble_a(cfg), *cfg._strips[0], cfg.c)
    q0, q1 = ([[dp * x for x in row] for row in strips[A]]
              + [[p[i - 1][A] * x for x in row] for i, row in zip(row_twist[l0:], a[l0:])]
              for A in (0, 1))
    a, c = ([[dp * x for x in row] for row in m] for m in (a, c))
    zeros = [[0] * tk] * (tl + cfg.r)
    alpha = (zeros[:tl] + a + zeros[tl:], [[-x for x in row] for row in a] + zeros,
             q1 + [[-x for x in row] for row in q0] + [row + [0] * (tk - k0) for row in c])
    # beta: the identity, the centres, d and b^A over one denominator
    b_den, (pts, d, b0, b1) = clear_denoms(_point_matrix(cfg), cfg.d, *derive_bA(cfg))
    beta: tuple[list, list, list] = ([], [], [])
    for m, i in enumerate(row_twist):
        rows = [[0] * rank_w for _ in range(3)]
        for A in (0, 1):
            rows[A][A * tl + m] = b_den
            if i:
                rows[2][A * tl + m] = -pts[i - 1][A]
        if not i:
            rows[2] = b0[m] + b1[m] + d[m]
        for mat, row in zip(beta, rows):
            mat.append(row)
    return MonadRep(
        alpha=Pencil.from_ints(alpha, a_den * dp, [0] * rank_w, col_twist),
        beta=Pencil.from_ints(beta, b_den, row_twist, [0] * rank_w),
        dims=dims,
        ctx=cfg.points,
        chart=(*(cfg._aq_cols.submatrix(0, tk, A * k0, (A + 1) * k0) for A in (0, 1)), cfg.c),
    )


def check_monad_condition(m: MonadRep) -> dict[tuple[int, int, int], Matrix]:
    """The composite ``beta . alpha`` by monomial: exponents of ``z_a z_b`` to its coefficient.

    With ``alpha = sum z_a A_a`` and ``beta = sum z_a B_a``, the coefficient
    of ``z_a z_b`` is ``B_a A_b + B_b A_a`` for a < b and ``B_a A_a`` for
    a = b.  The monad condition holds iff all six matrices vanish.
    """
    alpha_cols = [list(zip(*mat)) for mat in m.alpha.mats]
    beta = m.beta.mats
    den = m.alpha.den * m.beta.den
    out = {}
    for a, b in itertools.combinations_with_replacement(range(3), 2):
        pairs = {(a, b), (b, a)}
        out[tuple((a == e) + (b == e) for e in range(3))] = Matrix.from_ints(
            [[sum(sum(map(mul, beta[s][i], alpha_cols[t][j])) for s, t in pairs)
              for j in range(m.dims.total_k)] for i in range(m.dims.total_l)],
            den, m.dims.total_k)
    return out


def fiber_data(m: MonadRep, x: SurfacePoint) -> FiberData:
    """Exact fibre ranks at one point; flags a non-surjective ``beta``."""
    rank_beta = m.beta.rank_at(x, m.ctx)
    if rank_beta < m.dims.total_l:
        raise MonadDegeneracyError(
            f"beta drops to rank {rank_beta} < {m.dims.total_l} at {x}"
        )
    rank_alpha = m.alpha.rank_at(x, m.ctx)
    dim_ker_beta = m.dims.rank_w - rank_beta
    return FiberData(
        point=x,
        rank_alpha=rank_alpha,
        dim_ker_beta=dim_ker_beta,
        fiber_dim=dim_ker_beta - rank_alpha,
    )


# -- singular locus -----------------------------------------------------------------


@dataclass(frozen=True)
class ScanResult:
    points: tuple[SurfacePoint, ...]
    complete: bool


def _restrict(c: Matrix, ops: list[Matrix]) -> list[Matrix]:
    """The ``ops`` on the largest subspace of ker ``c`` that they all preserve.

    That subspace is the kernel of the observability matrix ``[c; c T; c T';
    c T T'; ...]`` over all words in the ops (the unobservable subspace; W.
    M. Wonham, *Linear Multivariable Control*).  Its rows are collected
    breadth-first, each kept only if it raises the rank, so there are at
    most ``dim`` of them.  Returns each op in a basis of the kernel.
    """
    n = c.ncols
    # rows only matter up to scale here, so they are kept as integer rows
    kept: list[list[int]] = []
    frontier = c.num
    while frontier:
        new = []
        for row in frontier:
            if any(row) and Matrix.from_ints(kept + [row], 1, n).rank() > len(kept):
                kept.append(row)
                new.append(row)
        frontier = [row for t in ops for row in (Matrix.from_ints(new, 1, n) * t).num] if new else []
    basis = Matrix.from_ints(kept, 1, n).nullspace()
    v = block_matrix([basis], [n], [1] * len(basis))
    return [v.solve(t * v) for t in ops]


def _scan_chart(m: MonadRep) -> tuple[list[SurfacePoint], bool]:
    """Rank-drop points in the chart z2 = 1 (minus blow-up centres), and completeness.

    ``alpha(x0, x1, 1) v = 0`` iff ``T_A v = x_A v`` and ``C v = 0``, for
    ``T_A = a^{-1} q^A`` and the framing rows ``C = [c 0]``.  The ``K_i``
    columns of ``q^A`` are ``p_i^A`` times those of ``a``, so in the order
    ``(K_0, K_1 .. K_n)`` each ``T_A`` is ``[[P_A, 0], [R_A, diag(p_i^A)]]``.
    Hence the largest subspace S of ker ``C`` invariant under both ``T_A`` is
    the preimage of ``S_0``, the largest subspace of ker ``c`` invariant
    under both ``P_A``, and the characteristic polynomial of ``T_A|S`` is that
    of ``P_A|S_0`` times the centres' linear factors.  A drop point off the
    centres has a kernel vector whose ``K_0`` part is nonzero, and that part
    is a joint eigenvector of the ``P_A`` in ker ``c``.  So the scan reads
    the ``K_0`` rows ``P_A`` of the kept columns ``m.chart = (W_0, W_1, c)``
    alone: every pair of rational eigenvalues of ``P_0|S_0`` and
    ``P_1|S_0`` off the centres is verified by an exact rank.

    On a monad the ``T_A`` commute on S: ``a [T_1, T_0] = q^1 a^{-1} q^0 -
    q^0 a^{-1} q^1`` vanishes outside its ``(L_0, K_0)`` corner, where it is
    the compact residual minus ``dc``, and ``C`` kills S.  The ``P_A|S_0``,
    their quotient by ``(+) K_i``, commute too.  Commuting operators share an
    eigenvector on every invariant subspace, so each eigenvalue of either
    ``P_A|S_0`` is a coordinate of a joint eigenvalue, and the scan is
    complete exactly when all of them are rational.  Off the monad condition
    an irrational eigenvalue may pair with none, and the scan still says
    incomplete: less precise, never a false certificate.
    """
    w0, w1, c = m.chart
    k0 = c.ncols
    p0, p1 = (w.submatrix(0, k0, 0, k0) for w in (w0, w1))
    (roots0, rest0), (roots1, rest1) = map(rational_eigenvalues, _restrict(c, [p0, p1]))
    centres = set(m.ctx.points)
    candidates = [SurfacePoint.generic(x0, x1, 1) for x0 in roots0 for x1 in roots1
                  if (x0, x1) not in centres]
    full_rank = m.dims.total_k
    return ([pt for pt in candidates if m.alpha.rank_at(pt, m.ctx) < full_rank],
            rest0 == rest1 == [1])


def _line_drops(a0: Matrix, a1: Matrix) -> tuple[list[tuple[Fraction, Fraction]], bool] | None:
    """Where the pencil ``w0 a0 + w1 a1`` drops below full column rank ``d``.

    None if it drops everywhere; otherwise the rational points ``(w0 : w1)``,
    as ``(1, w1/w0)`` or ``(0, 1)``, and whether they are all of them.  Every
    d x d minor is a form of degree d in ``w``, so full rank at one of the
    d + 1 points ``(mu : 1)``, ``0 <= mu <= d``, rules out a drop everywhere.
    With ``B = mu a0 + a1`` of full rank, its inner inverse ``L``
    (:func:`.linalg._inner_inverse`) is a left inverse; put ``T = -L a0``
    and ``C = a0 + B T``.  ``C v = 0`` iff ``a0 v = -B u`` for some ``u``,
    and then ``T v = u``, whatever the left inverse.  The pencil at ``(1 +
    mu tau : tau)`` is ``B (tau - T) + C``.  It kills ``v``
    iff ``T v = tau v`` and ``C v = 0``, so the drop points other than
    ``(mu : 1)``, which is none, are the eigenvalues of ``T`` on the largest
    ``T``-invariant subspace of ker ``C``.  Each rational eigenvalue there is
    a rational point, and any other makes the list incomplete.
    """
    d = a0.ncols
    mu = next((mu for mu in range(d + 1) if (a0.scale(mu) + a1).rank() == d), None)
    if mu is None:
        return None
    b = a0.scale(mu) + a1
    t = -(_inner_inverse(b)[0] * a0)
    [g] = _restrict(a0 + b * t, [t])
    taus, rest = rational_eigenvalues(g)
    points = []
    for tau in taus:
        w0 = 1 + mu * tau
        points.append((Fraction(1), tau / w0) if w0 else (Fraction(0), Fraction(1)))
    return points, rest == [1]


def _scan_divisor(m: MonadRep, i: int) -> tuple[list[SurfacePoint], bool]:
    """Rank-drop points on the exceptional line E_i, and completeness.

    Read off the kept columns ``m.chart = (W_0, W_1, c)`` of ``T_A = a^{-1}
    q^A``: their ``K_0`` rows ``P_A`` and their ``K_j`` rows ``R_A^j``.  At
    ``p_i + lambda w`` alpha kills ``v`` iff ``T_A v = x_A v`` and ``c v_0 =
    0``, and the ``K_i`` part of a kernel vector scales as ``1 / lambda``.
    On ``E_i``, the limit, the ``K_0`` rows read ``P_A v_0 = p_i^A v_0``, the
    ``K_j`` rows ``(p_i^A - p_j^A) v_j = R_A^j v_0`` and the ``K_i`` rows
    ``w_A v_i = R_A^i v_0``.  As ``p_j != p_i``, the ``K_j`` rows have a
    solution ``v_j`` iff ``(p_i^1 - p_j^1) R_0^j v_0 = (p_i^0 - p_j^0) R_1^j
    v_0``, and a nonzero kernel vector has ``v_0 != 0``.  So alpha drops at
    ``w`` iff ``w0 R_1^i - w1 R_0^i`` drops rank on ``V_i``, the kernel of
    ``[P_0 - p_i^0; P_1 - p_i^1; c; (p_i^1 - p_j^1) R_0^j - (p_i^0 - p_j^0)
    R_1^j for j != i]``: the pencil of :func:`_line_drops` on a basis of
    ``V_i``.  A drop along the whole line raises :class:`NotInPError`, and
    every point found is verified by an exact rank.
    """
    w0, w1, c = m.chart
    ko, p = _offsets(m.dims.dim_k), m.ctx.points
    k0, pi = ko[1], p[i - 1]

    def block(A: int, j: int) -> Matrix:  # R_A^j, or P_A at j = 0
        return (w0, w1)[A].submatrix(ko[j], ko[j + 1], 0, k0)

    rows = [block(A, 0) - Matrix.identity(k0).scale(pi[A]) for A in (0, 1)] + [c]
    rows += [block(0, j).scale(pi[1] - p[j - 1][1]) - block(1, j).scale(pi[0] - p[j - 1][0])
             for j in range(1, m.dims.n + 1) if j != i]
    basis = block_matrix([[x] for x in rows], [x.nrows for x in rows], [k0]).nullspace()
    if not basis:
        return [], True
    v = block_matrix([basis], [k0], [1] * len(basis))
    found = _line_drops(block(1, i) * v, -(block(0, i) * v))
    if found is None:
        raise NotInPError(f"alpha drops rank along the exceptional line E_{i}")
    full_rank = m.dims.total_k
    candidates = (SurfacePoint.exceptional(i, *x) for x in found[0])
    return [pt for pt in candidates if m.alpha.rank_at(pt, m.ctx) < full_rank], found[1]


def singular_scan(m: MonadRep) -> ScanResult:
    """All points where ``alpha`` drops below full column rank.

    Covers the affine chart and every exceptional line; on the framing line
    alpha has full rank, because its L rows there are ``x0 a`` and ``-x1 a``
    and ``build_monad`` requires ``a`` invertible.  In the chart the drop
    points are the joint eigenvalues of ``T_A = a^{-1} q^A`` on the largest
    subspace of the framing kernel they preserve, read off their ``K_0``
    corners ``P_A`` on the largest subspace ``S_0`` of ker ``c`` that those
    preserve (see :func:`_scan_chart`).  On each exceptional line ``E_i``
    alpha drops where a pencil in the ``K_i`` rows of the same kept columns
    does, and the drop points are the eigenvalues of one matrix on the
    largest subspace of one kernel it preserves (see :func:`_scan_divisor`);
    a drop along the line raises :class:`NotInPError`.  Every reported point
    is re-verified by an exact rank computation.  Nothing is drawn at
    random, so the result is a function of ``m`` alone.

    ``complete`` is True exactly when every eigenvalue read, of ``P_0`` and
    ``P_1`` on ``S_0`` and of each line's matrix on its own, is rational.
    On a monad the ``P_A`` commute on ``S_0``, so this certifies that
    no drop point has an irrational coordinate.  Off the monad condition an
    irrational eigenvalue still gives False, though it may mark no drop
    point.  False means further drop points could not be ruled out; the
    reported points are still genuine.
    """
    if m.dims.total_k == 0:
        return ScanResult(points=(), complete=True)
    drops, complete = _scan_chart(m)
    for i in range(1, m.dims.n + 1):
        d_i, c_i = _scan_divisor(m, i)
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


# -- framing ------------------------------------------------------------------------


def _a_invertible(cfg: AdhmConfig) -> bool:
    """Whether ``a`` is invertible, read off the configuration's kept ``a^{-1}``."""
    try:
        return cfg._a_inverse is not None
    except FramingViolationError:
        return False


def framing_verdicts(cfg: AdhmConfig, m: MonadRep | None = None) -> tuple[bool, bool]:
    """(``a`` invertible, the fibre criterion at every point of the framing line ``z2 = 0``).

    The second is read off the pencils of ``m``, ``build_monad(cfg)`` when
    not given, and is False when ``a`` is singular and there is no monad.
    On the line both maps are ``x0 M_0 + x1 M_1``, and ``C^r`` injects into
    every fibre iff beta's framing columns vanish, ``[alpha | C^r]`` never
    drops rank and beta is onto (its transpose never drops rank).  Both
    go through :func:`_line_drops`: ``[alpha | C^r]`` drops where the first
    ``rank W - r`` rows of alpha do, since the columns of ``C^r`` are unit
    columns in the last ``r``.

    On a monad of :func:`build_monad` both verdicts are True, so
    :func:`validate_config` reads the framing from ``a`` alone.  At
    ``(x0 : x1 : 0)`` alpha's L rows are ``[-x1 a; x0 a]`` and its framing
    rows are zero: as ``a`` is invertible, ``[alpha | C^r]`` has full column
    rank.  Beta is ``[x0 | x1]`` on every ``L_i``, with zero framing
    columns, so it is onto.  This function checks the same from the pencils,
    which makes it a test of ``build_monad``.
    """
    det_ok = _a_invertible(cfg)
    if m is None:
        if not det_ok:
            return False, False
        m = build_monad(cfg)
    dims = m.dims
    first = dims.rank_w - dims.rank  # the framing summand is the last block of W
    if any(x for mat in m.beta.mats[:2] for row in mat for x in row[first:]):
        return det_ok, False
    injects = _line_drops(*(Matrix.from_ints(a[:first], 1, dims.total_k)
                            for a in m.alpha.mats[:2]))
    onto = _line_drops(*(Matrix.from_ints(b, 1, dims.rank_w).transpose()
                         for b in m.beta.mats[:2]))
    return det_ok, injects == onto == ([], True)


def framing_check(m: MonadRep, cfg: AdhmConfig) -> bool:
    """True iff the framing exists; the two criteria must agree."""
    det_ok, fiber_ok = framing_verdicts(cfg, m)
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


@dataclass(frozen=True, kw_only=True)
class ValidationReport:
    """The verdicts of :func:`validate_config`, each stored once.

    Schema 1 (:func:`.config_io.report_to_json`) writes ``a_invertible`` as
    ``det_a_nonzero``, ``framing``, ``framing_det`` and ``framing_fiber``, and
    ``monad_condition`` as ``raw_residual_zero``, ``compact_residual_zero``
    and ``monad_identity_zero``.  With ``a`` singular there is no monad, and
    the fields that need one keep their defaults.
    """

    a_invertible: bool
    monad_condition: bool | None = None
    finite_rank_drop: bool | None = None
    singular_points: tuple[SurfacePoint, ...] = ()
    scan_complete: bool | None = None
    fiber_spotchecks: tuple[SpotCheck, ...] = ()
    ch_check: bool
    stabilizer_dim: int | None = None
    normalizable: bool
    valid: bool
    failures: tuple[str, ...] = ()
    #: The gauge-fixed configuration, if any; not part of the report's value.
    normalized: AdhmConfig | None = field(default=None, compare=False, repr=False)


def _spotcheck_points(m: MonadRep, rng: Random) -> list[SurfacePoint]:
    """(1:0:0), two points on each exceptional line, then chart points.

    The chart points make twelve in all, and there is at least one.
    """
    pts = [SurfacePoint.generic(1, 0, 0)]
    for i in range(1, m.dims.n + 1):
        pts.append(SurfacePoint.exceptional(i, 1, _rand_frac(rng)))
        pts.append(SurfacePoint.exceptional(i, 0, 1))
    for _ in range(max(1, 12 - len(pts))):
        pts.append(_rand_chart_point(rng, m.ctx))
    return pts


def validate_config(cfg: AdhmConfig, seed: int = 0) -> ValidationReport:
    """Run every finite check on a configuration and aggregate the verdicts.

    The monad condition is read from the compact residual alone: with ``b^A``
    derived it is the one coefficient of ``beta . alpha`` that can be nonzero
    (the tests compare it with :func:`check_monad_condition`).  The framing
    is read from ``a`` being invertible, which forces the fibre criterion on
    the framing line (see :func:`framing_verdicts`).
    """
    failures: list[str] = []
    try:
        ch_check = cohomology_ch_check(cfg.dims) is not None
    except InternalConsistencyError:
        ch_check = False
        failures.append("chern character bookkeeping")

    try:
        normalized = cfg if cfg.is_normalized() else gauge_fix(cfg)
    except NonGenericStratumError:
        # a singular ai0 block: not normalisable, though possibly still valid
        normalized = None

    det_ok = _a_invertible(cfg)
    found: dict = {}
    valid = False
    if not det_ok:
        failures.append("assembled matrix a is singular")
    else:
        residual_zero = constraint_residual(cfg).is_zero()
        if not residual_zero:
            failures.append("monad condition residual is nonzero")
        monad = build_monad(cfg)

        try:
            scan = singular_scan(monad)
        except NotInPError as exc:
            scan = None
            failures.append(str(exc))

        rng = Random(seed + 1)
        spots: list[SpotCheck] = []
        singular_set = set(scan.points if scan else ())
        for pt in _spotcheck_points(monad, rng):
            try:
                fd = fiber_data(monad, pt)
            except MonadDegeneracyError:
                spots.append(SpotCheck(pt, None, None, None, False, False))
                failures.append(f"beta not surjective at {pt}")
                continue
            ok = fd.fiber_dim > cfg.r if pt in singular_set else fd.fiber_dim == cfg.r
            if not ok:
                failures.append(f"unexpected fibre dimension {fd.fiber_dim} at {pt}")
            spots.append(SpotCheck(pt, fd.rank_alpha, fd.dim_ker_beta,
                                   fd.fiber_dim, True, ok))

        stab = None if normalized is None else _stabilizer_dim(normalized)
        if stab:
            failures.append(f"positive-dimensional stabilizer ({stab})")

        found = dict(
            monad_condition=residual_zero,
            finite_rank_drop=scan is not None,
            singular_points=scan.points if scan else (),
            scan_complete=scan.complete if scan else None,
            fiber_spotchecks=tuple(spots),
            stabilizer_dim=stab,
        )
        valid = (residual_zero and scan is not None and ch_check
                 and not stab and all(s.ok for s in spots))
    return ValidationReport(
        a_invertible=det_ok,
        ch_check=ch_check,
        normalizable=normalized is not None,
        valid=valid,
        failures=tuple(failures),
        normalized=normalized,
        **found,
    )
