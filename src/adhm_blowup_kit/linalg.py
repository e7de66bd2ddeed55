"""Exact linear algebra over the rationals.

Small dense matrices with ``fractions.Fraction`` entries: enough for block
assembly, Gaussian elimination, kernels and determinants.  Every elimination
and product scales each row (or column) by the lcm of its denominators, runs
on Python ints and builds a ``Fraction`` only for each result entry.  There
are two integer kernels: Bareiss elimination for ``rank`` and ``nullity``,
and one fraction-free Gauss-Jordan reduction behind ``det``, ``inverse``,
``solve`` and ``nullspace``.  Every operation is exact; nothing here ever
touches floating point.  Zero-sized matrices are first-class citizens because
several block dimensions in this project are legitimately zero (``det`` of a
0x0 matrix is 1, the kernel of a 0xn matrix is all of Q^n, and so on).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatchError

Rational = Fraction | int


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _integer_row(row: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm ``s`` of the row's denominators, and the row times ``s`` as ints."""
    den = lcm(*(x.denominator for x in row))
    return den, [x.numerator * (den // x.denominator) for x in row]


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss elimination.

    Each step drops the leading column and the pivot row.  The entries left
    are then minors of the input, so the division by the previous pivot is
    exact and they stay integers (Bareiss, Math. Comp. 22, 1968).
    """
    rank, prev = 0, 1
    while rows and rows[0]:
        pivot_row = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot_row is None:
            rows = [row[1:] for row in rows]
            continue
        prow = rows.pop(pivot_row)
        p, tail = prow[0], prow[1:]
        rows = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
                for row in rows]
        prev = p
        rank += 1
    return rank


def _gauss_jordan(rows: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination on integer rows, in place.

    Finds the pivot columns left to right and returns ``(pivots, sign,
    pivot)``: those columns, the sign of the row swaps and the last pivot (1
    if there is none).  Row ``i < len(pivots)`` then ends as ``pivot`` times
    row ``i`` of the reduced row echelon form, and the rows below as zero,
    in every column but the pivot columns, which are not written back.  A
    square matrix has determinant ``sign * pivot`` if every column is a pivot
    column, and 0 otherwise.  Every entry is a minor of the input, so each
    division by the previous pivot is exact (Nakos, Turner and Williams,
    SIGSAM Bull. 31, 1997).
    """
    pivots: list[int] = []
    free: list[int] = []
    sign, prev, m = 1, 1, len(rows)
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            free.append(c)
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        prow = rows[r]
        pk, tail = prow[c], prow[c + 1:]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                row[c + 1:] = [(pk * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
        if free:
            # a free column left of this pivot is zero from row r down, but
            # the rows above carry it scaled by prev
            for row in rows[:r]:
                for j in free:
                    row[j] = pk * row[j] // prev
        pivots.append(c)
        prev = pk
        if r + 1 == m:
            break
    return pivots, sign, prev


class Matrix:
    """Immutable-by-convention dense rational matrix."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Rational]], ncols: int | None = None):
        data = [[_frac(x) for x in row] for row in rows]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DimensionMismatchError("ragged rows")
            if ncols is not None and ncols != width:
                raise DimensionMismatchError("ncols disagrees with row length")
            ncols = width
        elif ncols is None:
            ncols = 0
        self.rows = data
        self.nrows = len(data)
        self.ncols = ncols

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, m: int, n: int) -> Matrix:
        return cls([[Fraction(0)] * n for _ in range(m)], ncols=n)

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls(
            [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)],
            ncols=n,
        )

    @classmethod
    def from_function(cls, m: int, n: int, f: Callable[[int, int], Rational]) -> Matrix:
        return cls([[f(i, j) for j in range(n)] for i in range(m)], ncols=n)

    @classmethod
    def column(cls, entries: Iterable[Rational]) -> Matrix:
        return cls([[x] for x in entries], ncols=1)

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.rows)))

    def __repr__(self) -> str:
        return f"Matrix({self.rows!r}, ncols={self.ncols})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Matrix) -> Matrix:
        if self.shape != other.shape:
            raise DimensionMismatchError(f"add {self.shape} vs {other.shape}")
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __sub__(self, other: Matrix) -> Matrix:
        return self + (-other)

    def __neg__(self) -> Matrix:
        return self.scale(-1)

    def scale(self, s: Rational) -> Matrix:
        s = _frac(s)
        return Matrix([[s * x for x in row] for row in self.rows], ncols=self.ncols)

    def __mul__(self, other: Matrix) -> Matrix:
        """Integer-scaled rows times integer-scaled columns, one ``Fraction`` per entry."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatchError(f"mul {self.shape} by {other.shape}")
        if other.rows:
            cols = [_integer_row(col) for col in zip(*other.rows)]
        else:
            cols = [(1, [])] * other.ncols
        out = []
        for row in self.rows:
            s, a = _integer_row(row)
            out.append([Fraction(sum(map(mul, a, b)), s * t) for t, b in cols])
        return Matrix(out, ncols=other.ncols)

    def transpose(self) -> Matrix:
        return Matrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    # -- elimination -------------------------------------------------------

    def rank(self) -> int:
        """Rank by fraction-free elimination on the rows scaled to integers."""
        return _bareiss_rank([_integer_row(row)[1] for row in self.rows if any(row)])

    def nullspace(self) -> list[Matrix]:
        """Basis of the right kernel, as column matrices, read off the reduced rows."""
        rows = [_integer_row(row)[1] for row in self.rows if any(row)]
        pivots, _sign, pivot = _gauss_jordan(rows)
        basis = []
        for fc in (c for c in range(self.ncols) if c not in pivots):
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for row, pc in zip(rows, pivots):
                v[pc] = Fraction(-row[fc], pivot)
            basis.append(Matrix.column(v))
        return basis

    def nullity(self) -> int:
        return self.ncols - self.rank()

    def det(self) -> Fraction:
        """Determinant by fraction-free elimination on the rows scaled to integers."""
        if self.nrows != self.ncols:
            raise DimensionMismatchError("det of non-square matrix")
        scaled = [_integer_row(row) for row in self.rows]
        pivots, sign, pivot = _gauss_jordan([ints for _, ints in scaled])
        if len(pivots) < self.nrows:
            return Fraction(0)
        return Fraction(sign * pivot, prod(den for den, _ in scaled))

    def inverse(self) -> Matrix:
        """Inverse by fraction-free Gauss-Jordan on the rows scaled to integers.

        With ``D`` the row scales, ``(D A)^-1 = X / pivot`` and so
        ``A^-1 = X D / pivot``.  Raises ``ZeroDivisionError`` if singular.
        """
        if self.nrows != self.ncols:
            raise DimensionMismatchError("inverse of non-square matrix")
        n = self.nrows
        dens, rows = [], []
        for i, row in enumerate(self.rows):
            den, ints = _integer_row(row)
            dens.append(den)
            rows.append(ints + [int(i == j) for j in range(n)])
        pivots, _sign, pivot = _gauss_jordan(rows)
        if pivots and pivots[-1] >= n:
            raise ZeroDivisionError("matrix is singular")
        return Matrix([[Fraction(x * s, pivot) for x, s in zip(row[n:], dens)]
                       for row in rows], ncols=n)

    def solve(self, rhs: Matrix) -> Matrix | None:
        """One solution X of self @ X = rhs, or None if inconsistent.

        Reduces ``[self | rhs]``: a pivot in a column of ``rhs`` means no
        solution, and otherwise the rows of X at free columns are zero.
        """
        if rhs.nrows != self.nrows:
            raise DimensionMismatchError("solve shape mismatch")
        n, k = self.ncols, rhs.ncols
        rows = [_integer_row(r1 + r2)[1] for r1, r2 in zip(self.rows, rhs.rows)]
        pivots, _sign, pivot = _gauss_jordan(rows)
        if pivots and pivots[-1] >= n:
            return None
        sol = [[Fraction(0)] * k for _ in range(n)]
        for row, pc in zip(rows, pivots):
            sol[pc] = [Fraction(x, pivot) for x in row[n:]]
        return Matrix(sol, ncols=k)

    # -- block helpers -----------------------------------------------------

    def submatrix(self, row0: int, row1: int, col0: int, col1: int) -> Matrix:
        return Matrix(
            [row[col0:col1] for row in self.rows[row0:row1]], ncols=col1 - col0
        )


def block_matrix(blocks: Sequence[Sequence[Matrix]],
                 row_dims: Sequence[int], col_dims: Sequence[int]) -> Matrix:
    """Assemble a matrix from a grid of blocks with prescribed block dimensions."""
    if len(blocks) != len(row_dims):
        raise DimensionMismatchError("block row count mismatch")
    total_cols = sum(col_dims)
    out: list[list[Fraction]] = []
    for bi, brow in enumerate(blocks):
        if len(brow) != len(col_dims):
            raise DimensionMismatchError("block column count mismatch")
        strip = [[Fraction(0)] * total_cols for _ in range(row_dims[bi])]
        offset = 0
        for bj, blk in enumerate(brow):
            if blk.shape != (row_dims[bi], col_dims[bj]):
                raise DimensionMismatchError(
                    f"block ({bi},{bj}) is {blk.shape}, expected "
                    f"({row_dims[bi]},{col_dims[bj]})"
                )
            for i in range(blk.nrows):
                row = blk.rows[i]
                for j in range(blk.ncols):
                    strip[i][offset + j] = row[j]
            offset += col_dims[bj]
        out.extend(strip)
    return Matrix(out, ncols=total_cols)
