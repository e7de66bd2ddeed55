"""ADHM configurations for monads on the blown-up plane.

A configuration is the finite matrix data from which the two monad maps are
assembled.  With ``K_0 .. K_n`` and ``L_0 .. L_n`` the end-term summands
(dimensions from :func:`adhm_blowup_kit.lattice.monad_dims`), the data consists
of blocks

* ``a00 : K_0 -> L_0``, ``a0i : K_i -> L_0``, ``ai0 : K_0 -> L_i``,
  ``aii : K_i -> L_i`` (the arrowhead matrix ``a``),
* the pair ``aA00 : K_0 -> L_0`` (A = 0, 1),
* ``c : K_0 -> C^r`` and ``d : C^r -> L_0`` (the framing row and column).

This is the normal form of the data: the framing row of the middle term
involves ``K_0`` alone.  The row ``b^A = (b^A_00, ..., b^A_0n)`` is never free
data: it is derived from the linear part of the monad condition,
``b^A a + a_{0.} p^A = a^A``, whenever ``a`` is invertible.  With ``b^A`` so
derived the whole monad condition collapses to a single block, the compact
residual ``(q^A a^{-1} q_A)^{00} + dc``.  ``AdhmConfig`` forms ``a^{-1}``, the
strips of ``q^A`` and their products with ``a^{-1}`` once each.  A draw of
the sampler forms two of them, the ``L_0`` rows of ``q^0 a^{-1}`` and ``W_0
= a^{-1} q^0_{., K0}``, which depend on neither ``aA00[1]`` nor ``c``; its
sample keeps them, and its residual and its certificate read them.

Gauge normalisation sets ``ai0 = Id``; the residual symmetry group and its
action on normalised configurations, the tangent computation, and the
deterministic sampler of valid configurations all live here.  The Jacobian,
the isotropy system and the sampler's system are term lists for one row
generator, :func:`_linearise`, so the sampler's columns are the Jacobian's
``(aA00[1], c)`` columns by construction.  The zero stabilizer and the
Jacobian's rank (full on those columns) are certified from the rows modulo
a prime, which stops at full rank; a matrix is built only where that fails.
The isotropy rows come block by block, framing blocks first, and each
block's inputs are built only when the certificate first reads from it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property, reduce
from fractions import Fraction
from itertools import accumulate, product
from math import lcm
from operator import add, sub
from random import Random
from typing import Iterator, Sequence

from .errors import (
    DimensionMismatchError,
    FramingViolationError,
    InternalConsistencyError,
    NonGenericStratumError,
    SamplingFailureError,
)
from .lattice import MonadDims, monad_dims
from .linalg import Matrix, _gauss_jordan, _inner_inverse, _primitive, _reaches_rank_mod_p
from .linalg import block_matrix, clear_denoms
from .sections import BlowupPoints

MatrixPair = tuple[Matrix, Matrix]


@dataclass(frozen=True)
class AdhmConfig:
    """Matrix data of one monad, tied to a choice of blow-up points."""

    r: int
    a_vec: tuple[int, ...]
    k: int
    dims: MonadDims = field(init=False, compare=False)
    points: BlowupPoints
    a00: Matrix
    a0i: tuple[Matrix, ...]
    ai0: tuple[Matrix, ...]
    aii: tuple[Matrix, ...]
    aA00: MatrixPair
    c: Matrix
    d: Matrix

    def __post_init__(self):
        for name, value in (("r", int(self.r)), ("a_vec", tuple(int(x) for x in self.a_vec)),
                            ("k", int(self.k)), ("a0i", tuple(self.a0i)),
                            ("ai0", tuple(self.ai0)), ("aii", tuple(self.aii)),
                            ("aA00", (self.aA00[0], self.aA00[1]))):
            object.__setattr__(self, name, value)
        dims = monad_dims(self.r, self.a_vec, self.k)
        object.__setattr__(self, "dims", dims)
        n = dims.n
        if self.points.n != n:
            raise DimensionMismatchError(
                f"{self.points.n} blow-up points for {n} exceptional classes"
            )
        if not len(self.a0i) == len(self.ai0) == len(self.aii) == n:
            raise DimensionMismatchError("off-arrow block lists must have length n")
        kd, ld = dims.dim_k, dims.dim_l
        shapes = [
            ("a00", self.a00, (ld[0], kd[0])),
            ("c", self.c, (self.r, kd[0])),
            ("d", self.d, (ld[0], self.r)),
            ("aA00[0]", self.aA00[0], (ld[0], kd[0])),
            ("aA00[1]", self.aA00[1], (ld[0], kd[0])),
        ]
        for i in range(n):
            shapes.append((f"a0i[{i}]", self.a0i[i], (ld[0], kd[i + 1])))
            shapes.append((f"ai0[{i}]", self.ai0[i], (ld[i + 1], kd[0])))
            shapes.append((f"aii[{i}]", self.aii[i], (ld[i + 1], kd[i + 1])))
        for name, mat, want in shapes:
            if mat.shape != want:
                raise DimensionMismatchError(f"{name} is {mat.shape}, expected {want}")

    @property
    def n(self) -> int:
        return self.dims.n

    def replace(self, **changes) -> AdhmConfig:
        return dataclasses.replace(self, **changes)

    @cached_property
    def _stabilizer_nullity(self) -> int:
        """Nullity of the isotropy system, kept on the instance once computed.

        Not a field: equality, ``replace`` and ``act`` ignore it, and every new
        instance starts without it.  It is 0 where :func:`_uncertified_isotropy`
        certifies that; only otherwise is the isotropy system assembled, from
        the rows that its certificate read.
        """
        system = _uncertified_isotropy(self)
        if system is None:
            return 0
        den, ncols, rows = system
        return Matrix.from_ints(rows, den, ncols).nullity()

    @cached_property
    def _jacobian_rank(self) -> int:
        """Rank of :func:`_jacobian`, kept on the instance like the nullity above.

        :func:`_solve_draw` sets it on the sample it returns, where its solve
        has proved it.  Data from elsewhere certify the rows of the Jacobian's
        ``(aA00[1], c)`` columns (:func:`_framing_unknowns`) modulo a prime:
        full row rank ``dim L_0 dim K_0`` there is the Jacobian's rank, as
        the sampler's system shows it.  Only when those rows fall short is
        the whole Jacobian built and ranked.
        """
        l0, k0 = self.dims.dim_l[0], self.dims.dim_k[0]
        _den, ncols, rows = _linearise([(l0, k0)], _framing_unknowns(self))
        if _reaches_rank_mod_p(rows, ncols, l0 * k0):
            return l0 * k0
        return _jacobian(self).rank()

    @cached_property
    def _a_inverse(self) -> Matrix:
        """``a^{-1}``, kept on the instance once computed, like the nullity above.

        Raises :class:`FramingViolationError` when ``a`` is singular; nothing
        is kept then.
        """
        try:
            return assemble_a(self).inverse()
        except ZeroDivisionError:
            raise FramingViolationError("assembled matrix a is singular") from None

    @cached_property
    def _strips(self) -> tuple[MatrixPair, MatrixPair]:
        """The strips of ``q^0`` and ``q^1`` (:func:`_q_strips`), kept like the nullity above.

        They and the products below depend on ``aA00``, which the sampler's
        solve replaces, so :func:`_solve_draw` hands on only those of ``q^0``.
        """
        return _q_strips(self, 0), _q_strips(self, 1)

    @cached_property
    def _qa_rows(self) -> MatrixPair:
        """The ``L_0`` rows of ``q^A a^{-1}``, kept like the strips."""
        return self._q0a_rows, self._strips[1][0] * self._a_inverse

    @cached_property
    def _q0a_rows(self) -> Matrix:
        """The ``L_0`` rows of ``q^0 a^{-1}``, kept like the strips.

        ``q^0`` depends on neither ``aA00[1]`` nor ``c``, so :func:`_solve_draw`
        hands its draw's on to the sample, with the strips of ``q^0`` and ``W_0``.
        """
        return self._strips[0][0] * self._a_inverse

    @cached_property
    def _w0(self) -> Matrix:
        """``W_0 = a^{-1} q^0_{., K0}``, the first ``k0`` columns of ``_aq_cols``, kept like the strips.

        A draw forms it alone (:func:`_solve_draw`) and hands it on to its
        sample, as it depends on neither ``aA00[1]`` nor ``c``.  Other data
        read it off ``_aq_cols``, which their scans read too.
        """
        return self._aq_cols.submatrix(0, self.dims.total_k, 0, self.dims.dim_k[0])

    @cached_property
    def _aq_cols(self) -> Matrix:
        """``[W_0 | W_1 | W_d] = a^{-1} [q^0_{., K0} | q^1_{., K0} | -d on L_0]``, kept like the strips.

        The ``K_0`` columns of ``a^{-1} q^A``, then ``-(a^{-1})_{., L0} d``.
        Their first ``k0`` rows are the corners ``P_A`` that the chart scan
        reads (see :func:`.monad.build_monad`).
        """
        k0, r = self.dims.dim_k[0], self.r
        (_rows0, cols0), (_rows1, cols1) = self._strips
        return self._a_inverse * block_matrix([[cols0, cols1, _neg_d(self)]],
                                              [self.dims.total_l], [k0, k0, r])

    @cached_property
    def _bA(self) -> MatrixPair:
        """``b^A`` (see :func:`derive_bA`), kept on the instance like the products above."""
        return tuple(-m for m in self._qa_rows)

    def point_coord(self, i: int, a: int) -> Fraction:
        return self.points.coordinate(i, a)

    def is_normalized(self) -> bool:
        """True iff every ``ai0`` is an identity, read off its integer rows."""
        return all(m.den == 1 and m.nrows == m.ncols
                   and all(row[i] == 1 and row.count(0) == m.ncols - 1
                           for i, row in enumerate(m.num))
                   for m in self.ai0)


def assemble_a(cfg: AdhmConfig) -> Matrix:
    """The arrowhead matrix ``a``: row 0 and column 0 full, diagonal, zeros elsewhere."""
    kd, ld = cfg.dims.dim_k, cfg.dims.dim_l
    blocks = [[cfg.a00, *cfg.a0i]] + [
        [cfg.ai0[i]] + [cfg.aii[i] if i == j else Matrix.zeros(ld[i + 1], kd[j + 1])
                        for j in range(cfg.n)] for i in range(cfg.n)]
    return block_matrix(blocks, list(ld), list(kd))


def derive_bA(cfg: AdhmConfig) -> MatrixPair:
    """Solve ``b^A a + a_{0.} p^A = a^A`` for the full rows ``b^A``.

    These are the linear blocks of the monad condition.  Returns two
    ``dim L_0 x sum(dim L)`` matrices; block ``j`` of ``b^A`` maps ``L_j`` to
    ``L_0``: minus the kept ``L_0`` rows of ``q^A a^{-1}``, as ``a^A - a_{0.}
    p^A`` is minus those of ``q^A``.  Raises if ``a`` is singular (no framing).
    """
    return cfg._bA


def _q_strips(cfg: AdhmConfig, a: int) -> MatrixPair:
    """The first ``l0`` rows and the first ``k0`` columns of ``q^a``.

    Corner ``-a^a_00``, then the ``a0i`` (rows) or the ``ai0`` (columns)
    scaled by ``p_i^a``: the blocks over one denominator ``den``, the point
    coordinates over ``dp``, and each strip over ``dp den``.
    """
    dp, (p,) = clear_denoms(_point_matrix(cfg))
    den, (corner, *blocks) = clear_denoms(cfg.aA00[a], *cfg.a0i, *cfg.ai0)
    a0i, ai0 = blocks[:cfg.n], blocks[cfg.n:]
    corner = [[-dp * x for x in row] for row in corner]
    rows = Matrix.from_ints([row + [p[i][a] * x for i, blk in enumerate(a0i) for x in blk[r]]
                             for r, row in enumerate(corner)], dp * den, cfg.dims.total_k)
    cols = Matrix.from_ints(
        corner + [[p[i][a] * x for x in row] for i, blk in enumerate(ai0) for row in blk],
        dp * den, cfg.dims.dim_k[0])
    return rows, cols


def _neg_d(cfg: AdhmConfig) -> Matrix:
    """``[-d; 0]``: ``-d`` on the ``L_0`` rows, zero on the others."""
    rest = cfg.dims.total_l - cfg.dims.dim_l[0]
    return Matrix.from_ints((-cfg.d).num + [[0] * cfg.r for _ in range(rest)], cfg.d.den, cfg.r)


def _aq_block(cfg: AdhmConfig, j: int) -> Matrix:
    """``W_0``, ``W_1`` or ``W_d`` (``j`` = 0, 1, 2), the column blocks of ``_aq_cols``.

    Slices of ``_aq_cols`` where it is kept, and ``W_0`` where that is;
    otherwise one product with ``a^{-1}``, not kept.
    """
    if j == 0:
        return cfg._w0
    if "_aq_cols" in cfg.__dict__:
        start = j * cfg.dims.dim_k[0]
        stop = start + (cfg.dims.dim_k[0] if j == 1 else cfg.r)
        return cfg._aq_cols.submatrix(0, cfg.dims.total_k, start, stop)
    return cfg._a_inverse * (cfg._strips[1][1] if j == 1 else _neg_d(cfg))


def _compact_block(cfg: AdhmConfig) -> Matrix:
    """``(q^A a^{-1} q_A)^{00}``, the compact residual without ``dc``.

    Only the ``(L_0, K_0)`` block is kept: ``q^1_{L0, .} W_0 - (q^0
    a^{-1})_{L0, .} q^1_{., K0}``.  Neither ``W_0`` nor the ``L_0`` rows of
    ``q^0 a^{-1}`` depend on ``aA00[1]`` or ``c``, so the sampler's draw and
    its sample share them, and no row of ``q^1 a^{-1}`` is formed.
    """
    rows1, cols1 = cfg._strips[1]
    return rows1 * cfg._w0 - cfg._q0a_rows * cols1


def constraint_residual(cfg: AdhmConfig) -> Matrix:
    """The compact residual ``(q^A a^{-1} q_A)^{00} + dc`` of the monad condition.

    With ``b^A`` derived (:func:`derive_bA`) it is the ``z2^2`` coefficient
    of the ``(L_0, K_0)`` block of ``beta . alpha``, and every other
    coefficient of the composite vanishes; so the monad condition holds iff
    it is zero.  Raises :class:`FramingViolationError` if ``a`` is singular.
    """
    return _compact_block(cfg) + cfg.d * cfg.c


def gauge_fix(cfg: AdhmConfig) -> AdhmConfig:
    """Normalise: set every ``ai0`` to the identity.

    This is an isomorphism of the end terms, so it does not change the
    cohomology.  Fails with :class:`NonGenericStratumError` if some ``ai0``
    is singular.
    """
    new_ai0 = []
    new_aii = []
    for i in range(cfg.n):
        blk = cfg.ai0[i]
        if blk.nrows == 0:
            new_ai0.append(blk)
            new_aii.append(cfg.aii[i])
            continue
        try:
            inv = blk.inverse()
        except ZeroDivisionError:
            raise NonGenericStratumError(
                f"ai0[{i + 1}] is singular; configuration is not normalisable"
            ) from None
        new_ai0.append(Matrix.identity(blk.nrows))
        new_aii.append(inv * cfg.aii[i])
    return cfg.replace(ai0=tuple(new_ai0), aii=tuple(new_aii))


# -- residual symmetry group ----------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """Residual symmetry of a normalised configuration.

    Free blocks: ``g00`` on ``L_0``, ``g0i : L_i -> L_0``, ``h00`` on ``K_0``
    and ``hii`` on ``K_i``.  The diagonal blocks on ``L_i`` are slaved to
    ``h00^{-1}`` (this is what keeps ``ai0 = Id``), and the lower ``h`` blocks
    are fixed to zero, which is a cross-section of the transformations acting
    trivially on every configuration.
    """

    g00: Matrix
    g0i: tuple[Matrix, ...]
    h00: Matrix
    hii: tuple[Matrix, ...]

    def __post_init__(self):
        for name, m in (("g00", self.g00), ("h00", self.h00)):
            if m.nrows != m.ncols:
                raise DimensionMismatchError(f"{name} must be square")
        object.__setattr__(self, "g0i", tuple(self.g0i))
        object.__setattr__(self, "hii", tuple(self.hii))

    @classmethod
    def identity(cls, dims: MonadDims) -> GroupElement:
        kd, ld = dims.dim_k, dims.dim_l
        return cls(
            g00=Matrix.identity(ld[0]),
            g0i=tuple(Matrix.zeros(ld[0], ld[i + 1]) for i in range(dims.n)),
            h00=Matrix.identity(kd[0]),
            hii=tuple(Matrix.identity(kd[i + 1]) for i in range(dims.n)),
        )

    def compose(self, other: GroupElement) -> GroupElement:
        """Element acting as ``other`` first, then ``self``."""
        h00_other_inv = other.h00.inverse()
        return GroupElement(
            g00=self.g00 * other.g00,
            g0i=tuple(
                self.g00 * other.g0i[i] + self.g0i[i] * h00_other_inv
                for i in range(len(self.g0i))
            ),
            h00=other.h00 * self.h00,
            hii=tuple(other.hii[i] * self.hii[i] for i in range(len(self.hii))),
        )

    def inverse(self) -> GroupElement:
        g00_inv = self.g00.inverse()
        return GroupElement(
            g00=g00_inv,
            g0i=tuple(-(g00_inv * g) * self.h00 for g in self.g0i),
            h00=self.h00.inverse(),
            hii=tuple(h.inverse() for h in self.hii),
        )


def dim_group(dims: MonadDims) -> int:
    """Dimension of the residual symmetry group in this parametrisation."""
    kd, ld = dims.dim_k, dims.dim_l
    return ld[0] ** 2 + kd[0] ** 2 + sum(ld[0] * h + w * w for h, w in zip(ld[1:], kd[1:]))


def act(el: GroupElement, cfg: AdhmConfig) -> AdhmConfig:
    """Transform a normalised configuration; preserves the constraint locus."""
    if not cfg.is_normalized():
        raise ValueError("group action is defined on gauge-normalised configurations")
    n = cfg.n
    kd, ld = cfg.dims.dim_k, cfg.dims.dim_l
    if el.g00.shape != (ld[0], ld[0]) or el.h00.shape != (kd[0], kd[0]):
        raise DimensionMismatchError("group element does not match configuration dims")
    for i in range(n):
        if el.g0i[i].shape != (ld[0], ld[i + 1]):
            raise DimensionMismatchError(f"g0i[{i}] shape mismatch")
        if el.hii[i].shape != (kd[i + 1], kd[i + 1]):
            raise DimensionMismatchError(f"hii[{i}] shape mismatch")
    try:
        h00_inv = el.h00.inverse()
        for m in (el.g00, *el.hii):
            m.inverse()
    except ZeroDivisionError:
        raise ValueError("group element has a singular diagonal block") from None
    g_sum = Matrix.zeros(ld[0], kd[0])
    for g in el.g0i:
        g_sum = g_sum + g
    new_a00 = (el.g00 * cfg.a00 + g_sum) * el.h00
    new_aA = []
    for a in (0, 1):
        acc = el.g00 * cfg.aA00[a]
        for i in range(n):
            acc = acc - el.g0i[i].scale(cfg.point_coord(i + 1, a))
        new_aA.append(acc * el.h00)
    new_a0i = tuple(
        (el.g00 * cfg.a0i[i] + el.g0i[i] * cfg.aii[i]) * el.hii[i] for i in range(n)
    )
    new_aii = tuple(h00_inv * cfg.aii[i] * el.hii[i] for i in range(n))
    return cfg.replace(
        a00=new_a00,
        aA00=(new_aA[0], new_aA[1]),
        a0i=new_a0i,
        aii=new_aii,
        c=cfg.c * el.h00,
        d=el.g00 * cfg.d,
    )


def verify_equivalence(c1: AdhmConfig, c2: AdhmConfig, witness: GroupElement) -> bool:
    """True iff the witness maps ``c1`` to ``c2`` entrywise."""
    if not (c1.is_normalized() and c2.is_normalized()):
        raise ValueError("equivalence is checked on gauge-normalised configurations")
    return act(witness, c1) == c2


def _point_matrix(cfg: AdhmConfig) -> Matrix:
    """The blow-up centres as the rows of an ``n x 2`` matrix."""
    return Matrix([list(p) for p in cfg.points.points], ncols=2)


def _linearise(outputs: Sequence[tuple[int, int]],
               unknowns: Sequence[tuple]) -> tuple[int, int, Iterator[list[int]]]:
    """``(den, ncols, rows)`` of ``E -> sum X E Y`` in the unit directions ``E_PQ`` of unknowns.

    Each unknown ``(m, w, terms)`` is an ``m x w`` block; a term ``(o, X,
    Y)`` adds ``X E Y`` to output block ``o``, with None for an identity in
    at most one factor.  Columns are the ``E_PQ``, unknown after unknown,
    each block row by row.  ``rows`` yields the integer rows over ``den``, the
    lcm of the terms' denominators, one at a time: the entries of the output
    blocks, block after block in the order of ``outputs``.  As ``X E_PQ Y =
    X[:, P] Y[Q, :]``, row ``(i, j)`` holds the outer product of row ``i`` of
    ``X`` and column ``j`` of ``Y``, or that column (row) at ``P = i`` (``Q =
    j``) when ``X`` (``Y``) is the identity.  No other function knows this
    column layout.
    """
    dens = [[(1 if x is None else x.den) * (1 if y is None else y.den) for _o, x, y in terms]
            for _m, _w, terms in unknowns]
    den = lcm(1, *(d for ds in dens for d in ds))
    starts = list(accumulate((m * w for m, w, _terms in unknowns), initial=0))
    placed: list[list[tuple]] = [[] for _ in outputs]
    for (m, w, terms), ds, start in zip(unknowns, dens, starts):
        seen = set()
        for (o, x, y), d in zip(terms, ds):
            f = den // d  # the scale goes on X, or on Y when X is the identity
            xs = None if x is None else x.num if f == 1 else [[f * v for v in row] for row in x.num]
            ys = None if y is None else list(zip(*y.num)) if y.num else [()] * y.ncols
            if x is None and f != 1:
                ys = [[f * v for v in col] for col in ys]
            placed[o].append((start, m, w, xs, ys, o not in seen))
            seen.add(o)

    def rows() -> Iterator[list[int]]:
        for (h, ow), terms in zip(outputs, placed):
            for i, j in product(range(h), range(ow)):
                row = [0] * starts[-1]
                for start, m, w, xs, ys, fresh in terms:
                    if xs is None:  # E_PQ Y: column j of Y at P = i
                        span, vec = slice(start + i * w, start + (i + 1) * w), ys[j]
                    elif ys is None:  # X E_PQ: row i of X at Q = j
                        span, vec = slice(start + j, start + m * w, w), xs[i]
                    else:
                        span = slice(start, start + m * w)
                        vec = [a * b for a in xs[i] for b in ys[j]]
                    row[span] = vec if fresh else map(add, row[span], vec)
                yield row

    return den, starts[-1], rows()


def _unknown_blocks(x: Sequence, shapes: Sequence[tuple]) -> list[list[list]]:
    """A vector over the columns of :func:`_linearise` as the rows of each unknown block.

    ``shapes`` starts each item with ``(m, w)``, as the unknowns do.
    """
    starts = list(accumulate((m * w for m, w, *_ in shapes), initial=0))
    return [[list(x[s + P * w:s + (P + 1) * w]) for P in range(m)]
            for s, (m, w, *_) in zip(starts, shapes)]


def _isotropy_system(cfg: AdhmConfig) -> tuple[int, int, Iterator[list[int]]]:
    """Linearised fixed-point equations at the identity, in ``h0`` and the kernels of ``aii``.

    On normalised data the action on ``a`` is ``a -> G a H``, with ``G``
    block upper triangular (``g00``, ``g0i`` and ``g_ii = h00^{-1}``) and
    ``H = diag(h00, hii...)``.  At first order, with ``h = diag(h0, hi...)``
    and ``a`` invertible, the a00 and a0i equations say exactly ``[g0 | gam]
    = -a_{0.} h a^{-1}``; substituting that in the others leaves the blocks
    ``a_{0.} h W_A + aA00[A] h0`` (A = 0, 1), ``a_{0.} h W_d``, ``c h0`` and
    ``aii hi - h0 aii``, with ``W = [W_0 | W_1 | W_d]`` the blocks of
    ``_aq_cols`` and ``W^b`` their ``K_b`` rows.

    The ``L_i`` rows of ``a W = [q^0_{., K0} | q^1_{., K0} | -d on L_0]``
    read ``W^0 + aii W^i = [p_i^0 I | p_i^1 I | 0]``.  With ``aii L_i aii =
    aii``, ``N_i`` a kernel basis and ``M_i`` a left-kernel basis of ``aii``
    (:func:`.linalg._inner_inverse`), ``aii hi = h0 aii`` holds iff ``M_i h0
    aii = 0`` and ``hi = L_i h0 aii + N_i Z_i``.  Substituted, the other
    blocks become ``X h0 W_A^0 + X_A h0 + sum a0i N_i Z_i W_A^i``, ``X h0
    W_d^0 + sum a0i N_i Z_i W_d^i`` and ``c h0``, with ``X = a00 - sum a0i
    L_i`` and ``X_A = aA00[A] + sum p_i^A a0i L_i``.  The substitution maps
    the unknowns ``(h0, Z_i)`` isomorphically onto the solutions of the
    ``K_i`` blocks, so the nullity is still the isotropy dimension, over
    ``k0^2 + sum dim ker(aii) dim K_i`` columns.

    Returns ``(1, ncols, rows)``: ``rows`` yields the rows block by block
    (:func:`_linearise`), each block's integer rows over its own denominator,
    which changes neither the rank nor the nullity.  A block's inputs are
    built when its first row is read, so a certificate that stops early
    builds none of the later ones.  The order is ``c h0`` (it needs ``c``
    alone), the ``M_i h0 aii``, the ``W_d`` block (``X``, the ``a0i N_i``
    and ``W_d``), then those of ``W_0`` and ``W_1``, each with its ``X_A``.
    Each ``W`` is sliced from ``_aq_cols`` where that is kept, as after a
    scan (:func:`_aq_block`).
    Raises :class:`FramingViolationError` when ``a`` is singular.
    """
    cfg._a_inverse  # a singular a raises here, although the c h0 rows need no a^{-1}
    kd, l0, r = cfg.dims.dim_k, cfg.dims.dim_l[0], cfg.r
    k0, ko = kd[0], list(accumulate(kd, initial=0))
    triples = [_inner_inverse(aii) for aii in cfg.aii]
    kernels = [(i, kernel.ncols) for i, (_inner, kernel, _left) in enumerate(triples, 1)
               if kernel.ncols]

    def block(height: int, width: int, h0: list, z: dict) -> Iterator[list[int]]:
        # one output block; z holds the terms of the Z_i that reach it
        unknowns = [(k0, k0, h0)] + [(m, kd[i], z.get(i, [])) for i, m in kernels]
        return _linearise([(height, width)], unknowns)[2]

    def rows() -> Iterator[list[int]]:
        yield from block(r, k0, [(0, cfg.c, None)], {})
        for (_inner, _kernel, left), aii, w in zip(triples, cfg.aii, kd[1:]):
            if left.nrows and w:
                yield from block(left.nrows, w, [(0, left, aii)], {})
        moves = [a0i * inner for a0i, (inner, _kernel, _left) in zip(cfg.a0i, triples)]
        x = reduce(sub, moves, cfg.a00)
        a0n = {i: cfg.a0i[i - 1] * triples[i - 1][1] for i, _m in kernels}
        for j in (2, 0, 1):  # W_d, W_0, W_1
            w = _aq_block(cfg, j)
            h0 = [(0, x, w.submatrix(0, k0, 0, w.ncols))]
            if j < 2:  # X_A h0, X_A = aA00[A] + sum p_i^A a0i L_i
                h0.append((0, sum((m.scale(p[j]) for m, p in zip(moves, cfg.points.points)),
                                  cfg.aA00[j]), None))
            yield from block(l0, w.ncols, h0, {i: [(0, a0n[i], w.submatrix(
                ko[i], ko[i + 1], 0, w.ncols))] for i in a0n})

    return 1, k0 * k0 + sum(m * kd[i] for i, m in kernels), rows()


def stabilizer_dim(cfg: AdhmConfig) -> int:
    """Dimension of the isotropy algebra at ``cfg``; expected 0 on valid data.

    The nullity of :func:`_isotropy_system`, computed once per configuration
    instance and then read back; a zero certified from its rows (as every
    sample's is) needs no elimination.  Raises :class:`FramingViolationError`
    when ``a`` is singular, since the system is solved for ``g`` through
    ``a^{-1}``.
    """
    if not cfg.is_normalized():
        raise ValueError("stabilizer is computed on gauge-normalised configurations")
    return cfg._stabilizer_nullity


def _uncertified_isotropy(cfg: AdhmConfig) -> tuple[int, int, list[list[int]]] | None:
    """None iff the rows of :func:`_isotropy_system` reach full column rank modulo a prime.

    That certifies a zero stabilizer (:func:`.linalg._reaches_rank_mod_p`),
    which is then kept on ``cfg``.  Otherwise the certificate has read every
    row, and the system comes back as ``(den, ncols, rows)`` with the rows
    in a list.  That proves nothing: the stabilizer is positive, or the
    prime is unlucky.  No exact elimination runs.
    """
    den, ncols, rows = _isotropy_system(cfg)
    read: list[list[int]] = []
    if not _reaches_rank_mod_p(_recorded(rows, read), ncols, ncols):
        return den, ncols, read
    cfg.__dict__["_stabilizer_nullity"] = 0
    return None


def _recorded(rows: Iterator[list[int]], read: list[list[int]]) -> Iterator[list[int]]:
    """``rows``, each appended to ``read`` as it is yielded."""
    for row in rows:
        read.append(row)
        yield row


def _stabilizer_uncertified(cfg: AdhmConfig) -> bool:
    """False iff :func:`_uncertified_isotropy` certifies a zero stabilizer, kept on ``cfg``."""
    return _uncertified_isotropy(cfg) is not None


# -- tangent computation ----------------------------------------------------------


@dataclass(frozen=True)
class TangentReport:
    dim_ker_jacobian: int
    dim_group: int
    stabilizer_dim: int
    dim_orbit: int
    empirical_moduli_dim: int


def _jacobian(cfg: AdhmConfig) -> Matrix:
    """Jacobian of the compact constraint in the free entries a00, a0i..., aii..., aA00, c and d.

    A direction ``E`` moves the arrow by ``t E`` (or not) and ``q^A`` by ``t
    s_A E``, so the compact block moves by ``U_0 E V_1 - U_1 E V_0 + E (s_1
    V_0 - s_0 V_1) + (s_0 U_1 - s_1 U_0) E``: ``U_A`` are the kept ``L_0``
    rows of ``q^A a^{-1}`` and ``V_A`` the kept ``K_0`` columns of ``a^{-1}
    q^A``, restricted to ``E``'s block.  The ``aA00[1]`` and ``c`` columns
    are :func:`_framing_unknowns`, which the sampler's system shares.
    """
    n, l0, k0 = cfg.n, cfg.dims.dim_l[0], cfg.dims.dim_k[0]
    lo, ko = (list(accumulate(dims, initial=0)) for dims in (cfg.dims.dim_l, cfg.dims.dim_k))
    u = [[m.submatrix(0, l0, lo[b], lo[b + 1]) for b in range(n + 1)] for m in cfg._qa_rows]
    v = [[cfg._aq_cols.submatrix(ko[b], ko[b + 1], A * k0, (A + 1) * k0) for b in range(n + 1)]
         for A in (0, 1)]

    def moves(b: int, c: int) -> list:  # the arrow's block (L_b, K_c) moves
        return [(0, u[0][b], v[1][c]), (0, -u[1][b], v[0][c])]

    unknowns = [(l0, k0, moves(0, 0))]
    unknowns += [(l0, kd, moves(0, i) + [(0, None, v[0][i].scale(p1) - v[1][i].scale(p0))])
                 for i, (kd, (p0, p1)) in enumerate(zip(cfg.dims.dim_k[1:], cfg.points.points), 1)]
    unknowns += [(cfg.dims.dim_l[i], cfg.dims.dim_k[i], moves(i, i)) for i in range(1, n + 1)]
    unknowns.append((l0, k0, [(0, None, v[1][0]), (0, -u[1][0], None)]))  # aA00[0]: s_0 = -1
    unknowns += _framing_unknowns(cfg)
    unknowns.append((l0, cfg.r, [(0, None, cfg.c)]))  # d
    den, ncols, rows = _linearise([(l0, k0)], unknowns)
    return Matrix.from_ints(list(rows), den, ncols)


def tangent_dims(cfg: AdhmConfig) -> TangentReport:
    """Exact tangent bookkeeping at a valid, normalised configuration.

    The Jacobian is that of the full residual system with respect to the free
    entries; with ``b^A`` derived, only the quadratic block contributes.  Its
    kernel is the number of free entries less its rank, which a sample
    carries from its solve and other data certify from the rows of its
    ``(aA00[1], c)`` columns (``AdhmConfig._jacobian_rank``).  The orbit
    dimension is the group dimension minus the isotropy dimension
    (:func:`stabilizer_dim`), and the empirical moduli dimension is their
    difference.
    """
    if not cfg.is_normalized():
        raise ValueError("tangent data is computed on gauge-normalised configurations")
    # the Jacobian's columns: the entries of every block but the ai0
    free = sum(m.nrows * m.ncols for m in (cfg.a00, *cfg.a0i, *cfg.aii, *cfg.aA00, cfg.c, cfg.d))
    dim_ker = free - cfg._jacobian_rank
    dg = dim_group(cfg.dims)
    stab = stabilizer_dim(cfg)
    orbit = dg - stab
    return TangentReport(
        dim_ker_jacobian=dim_ker,
        dim_group=dg,
        stabilizer_dim=stab,
        dim_orbit=orbit,
        empirical_moduli_dim=dim_ker - orbit,
    )


# -- deterministic sampler ---------------------------------------------------------


def _rand_fraction(rng: Random, lo: int = -4, hi: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2)))


def _rand_matrix(rng: Random, m: int, n: int) -> Matrix:
    """An ``m x n`` matrix of :func:`_rand_fraction` entries, drawn row by row."""
    draws = [[(rng.randint(-4, 4), rng.choice((1, 1, 2))) for _ in range(n)] for _ in range(m)]
    den = 2 if any(q == 2 for row in draws for _, q in row) else 1
    return Matrix.from_ints([[v * (den // q) for v, q in row] for row in draws], den, n)


def _rand_points(rng: Random, n: int) -> BlowupPoints:
    pts: list[tuple[Fraction, Fraction]] = []
    while len(pts) < n:
        cand = (_rand_fraction(rng, -3, 3), _rand_fraction(rng, -3, 3))
        if cand not in pts:
            pts.append(cand)
    return BlowupPoints(pts)


def _draw(r: int, a_vec: tuple[int, ...], k: int, rng: Random) -> AdhmConfig:
    """Random points, ``a00``, ``a0i``, ``aii``, ``aA00[0]`` and ``d``; ``ai0 = Id``.

    ``aA00[1]`` and ``c`` are zero: :func:`_solve_draw` fills them in.
    """
    dims = monad_dims(r, a_vec, k)
    n = dims.n
    kd, ld = dims.dim_k, dims.dim_l
    return AdhmConfig(
        r, a_vec, k, _rand_points(rng, n),
        a00=_rand_matrix(rng, ld[0], kd[0]),
        a0i=tuple(_rand_matrix(rng, ld[0], kd[i + 1]) for i in range(n)),
        ai0=tuple(Matrix.identity(kd[0]) for _ in range(n)),
        aii=tuple(_rand_matrix(rng, ld[i + 1], kd[i + 1]) for i in range(n)),
        aA00=(_rand_matrix(rng, ld[0], kd[0]), Matrix.zeros(ld[0], kd[0])),
        c=Matrix.zeros(r, kd[0]),
        d=_rand_matrix(rng, ld[0], r),
    )


def _framing_unknowns(cfg: AdhmConfig) -> list:
    """The ``aA00[1]`` and ``c`` unknowns of the compact block, for :func:`_linearise`.

    ``X = aA00[1]`` is the corner ``-X`` of ``q^1``, so ``X`` moves the block
    by ``q X - X p``, with ``q`` and ``p`` the ``(L_0, L_0)`` corner of the
    kept ``L_0`` rows of ``q^0 a^{-1}`` and the ``(K_0, K_0)`` corner of
    ``W_0 = a^{-1} q^0_{., K0}``; ``c`` moves it by ``d c``.  Neither corner
    depends on ``aA00[1]`` or ``c``.  The sampler's system, the certificate
    of the Jacobian's rank (``AdhmConfig._jacobian_rank``) and the Jacobian
    share them.
    """
    l0, k0 = cfg.dims.dim_l[0], cfg.dims.dim_k[0]
    q, p = cfg._q0a_rows.submatrix(0, l0, 0, l0), cfg._w0.submatrix(0, k0, 0, k0)
    return [(l0, k0, [(0, q, None), (0, None, -p)]), (cfg.r, k0, [(0, cfg.d, None)])]


def _sylvester_system(cfg: AdhmConfig) -> tuple[list[list[int]], int]:
    """The monad condition as a linear system in ``(X, c)``, ``X = aA00[1]``.

    ``cfg`` has ``X = 0`` and ``c = 0``, and the compact block is affine in
    them (:func:`_framing_unknowns`), so the residual vanishes iff ``q X - X
    p + d c = -compact(cfg)``.  Returns the integer rows of ``[system |
    rhs]`` over one denominator; the system is the Jacobian's ``(aA00[1],
    c)`` columns by construction, and it and the right-hand side
    (:func:`_compact_block`) read the same kept rows of ``q^0 a^{-1}`` and
    ``W_0``.  Raises :class:`FramingViolationError` when ``a`` is singular.
    """
    den, _ncols, rows = _linearise([(cfg.dims.dim_l[0], cfg.dims.dim_k[0])], _framing_unknowns(cfg))
    compact = _compact_block(cfg)
    both = lcm(den, compact.den)
    s, t = both // den, both // compact.den
    rhs = (-t * x for line in compact.num for x in line)
    return [[s * v for v in row] + [x] for row, x in zip(rows, rhs)], both


def _solve_draw(cfg: AdhmConfig, rng: Random) -> AdhmConfig | None:
    """A random point of the solution space of :func:`_sylvester_system`, or None.

    One fraction-free Gauss-Jordan reduction of ``[system | rhs]``; each free
    unknown takes a small random integer, which keeps the entries short, and
    the pivot unknowns follow.  None unless the system has full row rank.
    Full row rank makes the monad condition a submersion at the sample, and
    it is what a generic ``d`` gives: an inconsistent system is one way to
    lack it, and ``d = 0`` at ``dim L_0 = dim K_0 = r = 1`` another.  The
    system's columns are the Jacobian's ``(aA00[1], c)`` columns, which
    depend on neither ``aA00[1]`` nor ``c``, so the Jacobian of the sample
    has rank ``dim L_0 dim K_0`` too.  The draw forms ``W_0 = a^{-1}
    q^0_{., K0}`` alone, once, and neither ``_aq_cols`` nor a row of ``q^1
    a^{-1}``.  The sample keeps the rank and the draw's ``a^{-1}`` (the
    solve changes no block of ``a``), its strips of ``q^0``, its ``L_0`` rows
    of ``q^0 a^{-1}`` and its ``W_0``.
    """
    cfg.__dict__["_w0"] = cfg._a_inverse * cfg._strips[0][1]
    system, _den = _sylvester_system(cfg)
    l0, k0, r = cfg.dims.dim_l[0], cfg.dims.dim_k[0], cfg.r
    nu = (l0 + r) * k0
    system = [_primitive(row) for row in system]
    pivots, _sign, pivot = _gauss_jordan(system)
    if sum(pc < nu for pc in pivots) < len(system):
        return None
    taken = set(pivots)
    free = {j: rng.randint(-3, 3) for j in range(nu) if j not in taken}
    # every unknown over the last pivot
    x = [pivot * free.get(j, 0) for j in range(nu)]
    for row, pc in zip(system, pivots):
        x[pc] = row[nu] - sum(row[j] * t for j, t in free.items())
    aA1, c = (Matrix.from_ints(rows, pivot, k0)
              for rows in _unknown_blocks(x, [(l0, k0), (r, k0)]))
    sample = cfg.replace(aA00=(cfg.aA00[0], aA1), c=c)
    sample.__dict__.update(_a_inverse=cfg._a_inverse, _jacobian_rank=len(system),
                           _strips=(cfg._strips[0], _q_strips(sample, 1)),
                           _q0a_rows=cfg._q0a_rows, _w0=cfg._w0)
    return sample


#: Draws ``sample_config`` makes before it reports a sampling failure.
_SAMPLE_ATTEMPTS = 60


def sample_config(r: int, a_vec: Sequence[int], k: int, seed: int) -> AdhmConfig:
    """Deterministically sample a gauge-normalised, constraint-valid configuration.

    One method for every shape.  Each draw takes the points, ``a00``,
    ``a0i``, ``aii``, ``aA00[0]`` and ``d`` at random with ``ai0 = Id``, then
    a random point ``(aA00[1], c)`` of the affine space on which the monad
    condition holds (:func:`_sylvester_system`).  At n = 0 that condition is
    the ADHM equation ``[B, X] + dc = 0``, whose solutions for generic ``d``
    are stable (Nakajima, *Lectures on Hilbert Schemes of Points on
    Surfaces*, Prop. 2.8).  A draw is accepted on the modular certificate
    of a zero stabilizer (:func:`_stabilizer_uncertified`), so every sample
    carries a certified stabilizer of 0 and no draw is eliminated exactly.
    No singular scan runs on a draw, so a sample can fail
    :func:`.monad.validate_config`: at (1, (1, 1), 1), seeds 2 and 5, alpha
    drops rank along a whole exceptional line.
    After ``_SAMPLE_ATTEMPTS`` rejected draws it raises
    :class:`SamplingFailureError`, which counts them by reason: singular
    ``a``, a system not of full rank, positive stabilizer (one the
    certificate does not rule out).
    """
    a_vec = tuple(int(x) for x in a_vec)
    monad_dims(r, a_vec, k)  # validates feasibility
    rng = Random(seed)
    rejected = {"singular a": 0, "system not of full rank": 0, "positive stabilizer": 0}
    for _ in range(_SAMPLE_ATTEMPTS):
        try:
            cfg = _solve_draw(_draw(r, a_vec, k, rng), rng)
        except FramingViolationError:
            rejected["singular a"] += 1
            continue
        if cfg is None:
            rejected["system not of full rank"] += 1
        elif _stabilizer_uncertified(cfg):
            rejected["positive stabilizer"] += 1
        elif not constraint_residual(cfg).is_zero():
            raise InternalConsistencyError("sampler produced an invalid configuration")
        else:
            return cfg
    raise SamplingFailureError(
        f"no draw accepted in {_SAMPLE_ATTEMPTS} attempts for (r={r}, a={a_vec}, k={k})",
        rejected)
