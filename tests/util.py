"""Shared helpers for the test suite: seeded random data of every flavour."""

from __future__ import annotations

from fractions import Fraction
from random import Random

from adhm_blowup_kit.adhm import AdhmConfig, GroupElement, assemble_a
from adhm_blowup_kit.lattice import DivisorClass, monad_dims
from adhm_blowup_kit.linalg import Matrix
from adhm_blowup_kit.sections import BlowupPoints


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
    rows = m.copy_rows()
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


def rand_config(rng: Random, r: int, a_vec, k: int,
                with_cai: bool = False, normalized: bool = True) -> AdhmConfig:
    """Random configuration with invertible assembled matrix (not nec. valid)."""
    dims = monad_dims(r, a_vec, k)
    n = dims.n
    kd, ld = dims.dim_k, dims.dim_l
    while True:
        if normalized:
            ai0 = tuple(Matrix.identity(kd[0]) for _ in range(n))
        else:
            ai0 = tuple(rand_invertible(rng, kd[0]) for _ in range(n))
        cai = None
        if with_cai:
            cai = tuple(
                (rand_matrix(rng, r, kd[j]), rand_matrix(rng, r, kd[j]))
                for j in range(n + 1)
            )
        cfg = AdhmConfig(
            r, a_vec, k, rand_points(rng, n),
            a00=rand_matrix(rng, ld[0], kd[0]),
            a0i=tuple(rand_matrix(rng, ld[0], kd[i + 1]) for i in range(n)),
            ai0=ai0,
            aii=tuple(rand_matrix(rng, ld[i + 1], kd[i + 1]) for i in range(n)),
            aA00=(rand_matrix(rng, ld[0], kd[0]), rand_matrix(rng, ld[0], kd[0])),
            c=rand_matrix(rng, r, kd[0]),
            d=rand_matrix(rng, ld[0], r),
            cAi=cai,
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
