"""Exact linear algebra over the rationals.

Small dense matrices with ``fractions.Fraction`` entries: enough for block
assembly, Gaussian elimination, kernels and determinants.  Products, ranks,
determinants and inverses scale each row (or column) by the lcm of its
denominators and run on Python ints, building a ``Fraction`` only for each
result entry.  Every operation is exact; nothing here ever touches floating
point.  Zero-sized matrices are first-class citizens because several block
dimensions in this project are legitimately zero (``det`` of a 0x0 matrix is
1, the kernel of a 0xn matrix is all of Q^n, and so on).
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


def _gauss_jordan(rows: list[list[int]], n: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan on the ``n x n`` left block of ``n`` integer rows.

    Works in place and returns ``(sign, pivot)``: the determinant of the left
    block is ``sign * pivot``, and ``pivot`` is 0 when the block is singular.
    Otherwise the rows end as ``[pivot * I | pivot * B^-1 R]`` for input
    ``[B | R]``; only the columns right of the left block are written back.
    Every entry is a minor of the input, so each division by the previous
    pivot is exact (Nakos, Turner and Williams, SIGSAM Bull. 31, 1997).
    """
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return sign, 0
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pk, tail = rows[k][k], rows[k][k + 1:]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                row[k + 1:] = [(pk * x - f * y) // prev
                               for x, y in zip(row[k + 1:], tail)]
        prev = pk
    return sign, prev


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

    def copy_rows(self) -> list[list[Fraction]]:
        return [list(row) for row in self.rows]

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

    def _echelon(self) -> tuple[list[list[Fraction]], list[int]]:
        """Row echelon form (destructive on a copy); returns (rows, pivot columns)."""
        m = self.copy_rows()
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            pivot_row = None
            for i in range(r, self.nrows):
                if m[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(self.nrows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return m, pivots

    def rank(self) -> int:
        """Rank by fraction-free elimination on the rows scaled to integers."""
        return _bareiss_rank([_integer_row(row)[1] for row in self.rows if any(row)])

    def nullspace(self) -> list[Matrix]:
        """Basis of the right kernel, as column matrices."""
        m, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(Matrix.column(v))
        return basis

    def nullity(self) -> int:
        return self.ncols - self.rank()

    def det(self) -> Fraction:
        """Determinant by fraction-free elimination on the rows scaled to integers."""
        if self.nrows != self.ncols:
            raise DimensionMismatchError("det of non-square matrix")
        scaled = [_integer_row(row) for row in self.rows]
        sign, pivot = _gauss_jordan([ints for _, ints in scaled], self.nrows)
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
        _sign, pivot = _gauss_jordan(rows, n)
        if not pivot:
            raise ZeroDivisionError("matrix is singular")
        return Matrix([[Fraction(x * s, pivot) for x, s in zip(row[n:], dens)]
                       for row in rows], ncols=n)

    def solve(self, rhs: Matrix) -> Matrix | None:
        """One solution X of self @ X = rhs, or None if inconsistent."""
        if rhs.nrows != self.nrows:
            raise DimensionMismatchError("solve shape mismatch")
        n, k = self.ncols, rhs.ncols
        aug = [list(r1) + list(r2) for r1, r2 in zip(self.rows, rhs.rows)]
        wide = Matrix(aug, ncols=n + k) if self.nrows else Matrix([], ncols=n + k)
        m, pivots = wide._echelon()
        if any(p >= n for p in pivots):
            return None
        sol = [[Fraction(0)] * k for _ in range(n)]
        for r, pc in enumerate(pivots):
            for j in range(k):
                sol[pc][j] = m[r][n + j]
        return Matrix(sol, ncols=k)

    # -- block helpers -----------------------------------------------------

    def hstack(self, other: Matrix) -> Matrix:
        if self.nrows != other.nrows:
            raise DimensionMismatchError("hstack row mismatch")
        return Matrix(
            [list(a) + list(b) for a, b in zip(self.rows, other.rows)],
            ncols=self.ncols + other.ncols,
        )

    def vstack(self, other: Matrix) -> Matrix:
        if self.ncols != other.ncols:
            raise DimensionMismatchError("vstack column mismatch")
        return Matrix(self.copy_rows() + other.copy_rows(), ncols=self.ncols)

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
