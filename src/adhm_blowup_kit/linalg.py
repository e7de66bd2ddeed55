"""Exact linear algebra over the rationals.

A ``Matrix`` stores integer rows ``num`` over one positive denominator
``den``, in lowest terms: ``gcd(den, every entry) == 1``.  So each rational
matrix has exactly one ``(num, den)``, and a zero matrix has ``den == 1``
(sympy's ``DomainMatrix.clear_denoms``).  Sums, products, scaling,
transposes and blocks run on ``num`` and restore lowest terms with one gcd
over the entries.  Entries go in as ints or ``fractions.Fraction``s, and
``rows`` and indexing give ``Fraction``s back.

``rank`` first eliminates modulo one prime and returns that rank only when
it is full, which certifies it (``certified_rank`` is that half alone).
Exact elimination first divides each row by
its content, the gcd of its entries (sympy's ``clear_denoms_rowwise``), so
that no row carries a factor that only another row's denominator put there.
Then one integer kernel runs, a fraction-free Gauss-Jordan reduction, for
``rank`` and ``nullity`` when the certificate fails and for ``det``,
``inverse``, ``solve`` and ``nullspace``.  Every operation is exact; nothing
here ever touches floating point.  Zero-sized
matrices are first-class citizens because several block dimensions in this
project are legitimately zero (``det`` of a 0x0 matrix is 1, the kernel of a
0xn matrix is all of Q^n, and so on).

``rational_eigenvalues`` stays in Z as well.  The eigenvalues of ``num /
den`` are the roots of the monic integer characteristic polynomial of
``num`` (Faddeev-LeVerrier, each division exact) over ``den``.  Its rational
roots are integers, the roots of its squarefree part ``h`` (a primitive-PRS
gcd with the derivative, then exact division).  They are found modulo the
first odd prime at which ``h`` is squarefree, lifted p-adically past the
bound ``|h(0)|`` and each kept only if ``h`` vanishes there; all of them are
found, and the characteristic polynomial splits over Q iff they number
``deg h``.  What does not split comes back as the integer cofactor.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatchError

Rational = Fraction | int


def _primitive(row: Sequence[int]) -> list[int]:
    """A new list: the row divided by its content (a zero row stays zero)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


#: The prime of ``Matrix.rank``'s certificate, and the bits of one packed
#: entry: three 32-bit words, a residue in the lowest.  A slot then holds a
#: residue plus 2**34 addends below ``2**62``, far more than there can be
#: pivots.
_P = 2 ** 31 - 1
_SLOT = 96
_SLOT_MASK = (1 << _SLOT) - 1


def _pack(vec: Sequence[int]) -> int:
    """The residues of ``vec`` modulo ``_P``, one per slot, lowest slot first."""
    words = array("I", bytes(12 * len(vec)))
    words[::3] = array("I", map(_P.__rmod__, vec))
    if sys.byteorder != "little":
        words.byteswap()
    return int.from_bytes(words, "little")


def _each_slot(pattern: int, width: int) -> int:
    return int.from_bytes(pattern.to_bytes(12, "little") * width, "little")


def _independent_mod_p(vectors: Sequence[Sequence[int]]) -> bool:
    """True iff the integer vectors are linearly independent modulo ``_P``.

    Each vector is packed into one int, so that one big-int multiply-add
    eliminates a whole pivot.  Adding ``(_P - f)`` times a pivot subtracts
    ``f`` times it modulo ``_P``, and no slot ever borrows from the next.  A
    new pivot is first folded to slots of at most ``2**31``, all at once:
    ``x = 2**31 h + l`` is ``h + l`` modulo ``2**31 - 1``.  Only the entry
    under each pivot, and the lowest nonzero slot of a new one, are read.
    """
    width = len(vectors[0])
    low, high = _each_slot((1 << 31) - 1, width), _each_slot((1 << (_SLOT - 31)) - 1, width)
    pivots: list[tuple[int, int, int]] = []  # (bit offset of the pivot slot, vector, 1/pivot)
    for vec in vectors:
        v = _pack(vec)
        for shift, w, inv in pivots:
            f = (v >> shift & _SLOT_MASK) * inv % _P
            if f:
                v += (_P - f) * w
        for _ in range(4):  # slots below 2**96, then 2**66, 2**36, 2**31 + 32, then at most 2**31
            v = (v & low) + (v >> 31 & high)
        while v:
            shift = ((v & -v).bit_length() - 1) // _SLOT * _SLOT
            s = v >> shift & _SLOT_MASK
            if s != _P:
                pivots.append((shift, v, pow(s, -1, _P)))
                break
            v -= s << shift  # the residue 0 folded to _P
        else:
            return False
    return True


def _gauss_jordan(rows: list[list[int]], width: int | None = None) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination on integer rows, in place.

    Finds the pivot columns left to right, among the first ``width`` columns
    when it is given, and returns ``(pivots, sign, pivot)``: those columns,
    the sign of the row swaps and the last pivot (1 if there is none).  Row
    ``i < len(pivots)`` then ends as ``pivot`` times row ``i`` of the reduced
    row echelon form, and the rows below as zero, in every column but the
    pivot columns, which are not written back.  Columns past ``width`` are
    eliminated but never pivoted on, so the rows below keep what is left
    there.  A square matrix has
    determinant ``sign * pivot`` if every column is a pivot column, and 0
    otherwise.  Every entry is a minor of the input, so each division by the
    previous pivot is exact (Nakos, Turner and Williams, SIGSAM Bull. 31,
    1997).
    """
    pivots: list[int] = []
    free: list[int] = []
    sign, prev, m = 1, 1, len(rows)
    for c in range(width if width is not None else len(rows[0]) if rows else 0):
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


def _kernel(rows: list[list[int]], pivots: list[int], pivot: int, width: int) -> list[list[int]]:
    """A kernel basis of the first ``width`` columns of ``rows``, reduced by :func:`_gauss_jordan`.

    One integer vector per free column, with ``pivot``, the last pivot, in
    that column.
    """
    basis = []
    for fc in sorted(set(range(width)) - set(pivots)):
        v = [0] * width
        v[fc] = pivot
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def _inner_inverse(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """``(L, N, M)``: ``m L m = m``, a kernel basis ``N`` and a left-kernel basis ``M``.

    With ``num = C P``, ``C`` the diagonal of the row contents, one
    fraction-free Gauss-Jordan pass on ``[P | I]`` that pivots in the ``P``
    columns alone leaves ``E P`` in reduced row echelon form, with ``E`` the
    identity part over the last pivot.  With ``pc_j`` the pivot columns,
    ``L_P`` with row ``j`` of ``E`` in row ``pc_j`` and zeros elsewhere has
    ``P L_P P = P``, so ``L = den L_P C^-1``.  The kernel is read off the
    echelon rows (:func:`_kernel`), and the rows of ``E C^-1`` below the
    rank span the left kernel.  ``N`` holds its vectors in columns and ``M``
    in rows, each an integer vector divided by its content.
    """
    h, w = m.shape
    contents = [gcd(*row) or 1 for row in m.num]
    rows = [[x // c for x in row] + [int(i == j) for j in range(h)]
            for i, (row, c) in enumerate(zip(m.num, contents))]
    pivots, _sign, pivot = _gauss_jordan(rows, w)
    den = lcm(1, *contents)
    scales = [m.den * (den // c) for c in contents]
    inner = [[0] * h for _ in range(w)]
    for row, pc in zip(rows, pivots):
        inner[pc] = [x * s for x, s in zip(row[w:], scales)]
    kernel = [_primitive(v) for v in _kernel(rows, pivots, pivot, w)]
    left = [_primitive([x * s for x, s in zip(row[w:], scales)]) for row in rows[len(pivots):]]
    return (Matrix.from_ints(inner, den * pivot, h),
            Matrix.from_ints([[v[i] for v in kernel] for i in range(w)], 1, len(kernel)),
            Matrix.from_ints(left, 1, h))


def clear_denoms(*mats: Matrix) -> tuple[int, list[list[list[int]]]]:
    """The lcm ``L`` of the matrices' denominators, and each one's rows times ``L``."""
    den = lcm(1, *(m.den for m in mats))
    return den, [m.num if m.den == den else [[x * (den // m.den) for x in row] for row in m.num]
                 for m in mats]


class Matrix:
    """Immutable-by-convention dense rational matrix ``num / den``."""

    __slots__ = ("num", "den", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Rational]], ncols: int | None = None):
        data = [list(row) for row in rows]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DimensionMismatchError("ragged rows")
            if ncols is not None and ncols != width:
                raise DimensionMismatchError("ncols disagrees with row length")
            ncols = width
        elif ncols is None:
            ncols = 0
        den = 1
        for row in data:
            for x in row:
                if type(x) is not int:
                    if isinstance(x, Fraction):
                        den = lcm(den, x.denominator)
                    elif not isinstance(x, int):
                        raise TypeError(f"Matrix entries are int or Fraction, not {type(x).__name__}")
        # the lcm of reduced denominators leaves the entries in lowest terms
        self.num = [[x.numerator * (den // x.denominator) for x in row] for row in data]
        self.den = den
        self.nrows = len(data)
        self.ncols = ncols

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ints(cls, num: list[list[int]], den: int = 1, ncols: int | None = None) -> Matrix:
        """The matrix ``num / den``, for integer rows and a nonzero int ``den``.

        Brings it to lowest terms with one gcd over the entries.  ``num`` is
        taken over, not copied, when it is already in lowest terms.
        """
        if den < 0:
            num, den = [[-x for x in row] for row in num], -den
        if den != 1:
            g = den
            for row in num:
                g = gcd(g, *row)
                if g == 1:
                    break
            if g != 1:
                num, den = [[x // g for x in row] for row in num], den // g
        return cls._reduced(num, den, len(num[0]) if num else ncols or 0)

    @classmethod
    def _reduced(cls, num: list[list[int]], den: int, ncols: int) -> Matrix:
        """``num / den`` already in lowest terms, with ``den > 0``."""
        self = object.__new__(cls)
        self.num, self.den, self.nrows, self.ncols = num, den, len(num), ncols
        return self

    @classmethod
    def zeros(cls, m: int, n: int) -> Matrix:
        return cls._reduced([[0] * n for _ in range(m)], 1, n)

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls._reduced([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

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

    @property
    def rows(self) -> list[list[Fraction]]:
        """The entries as new lists of ``Fraction``s."""
        den = self.den
        return [[Fraction(x, den) for x in row] for row in self.num]

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def __eq__(self, other: object) -> bool:
        """Same shape and entries, whether ``num`` holds its rows as lists or tuples."""
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.shape == other.shape and self.den == other.den
                and all(a == b or tuple(a) == tuple(b) for a, b in zip(self.num, other.num)))

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.den, tuple(map(tuple, self.num))))

    def __repr__(self) -> str:
        return f"Matrix({self.rows!r}, ncols={self.ncols})"

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    # -- arithmetic --------------------------------------------------------

    def _plus(self, other: Matrix, sign: int) -> Matrix:
        if self.shape != other.shape:
            raise DimensionMismatchError(f"add {self.shape} vs {other.shape}")
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        return Matrix.from_ints([[s * a + t * b for a, b in zip(r1, r2)]
                                 for r1, r2 in zip(self.num, other.num)], den, self.ncols)

    def __add__(self, other: Matrix) -> Matrix:
        return self._plus(other, 1)

    def __sub__(self, other: Matrix) -> Matrix:
        return self._plus(other, -1)

    def __neg__(self) -> Matrix:
        return Matrix._reduced([[-x for x in row] for row in self.num], self.den, self.ncols)

    def scale(self, s: Rational) -> Matrix:
        if not isinstance(s, (int, Fraction)):
            raise TypeError(f"Matrix scalars are int or Fraction, not {type(s).__name__}")
        p = s.numerator
        return Matrix.from_ints([[p * x for x in row] for row in self.num],
                                self.den * s.denominator, self.ncols)

    def __mul__(self, other: Matrix) -> Matrix:
        """Integer rows times integer columns, over the product of the denominators."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatchError(f"mul {self.shape} by {other.shape}")
        cols = list(zip(*other.num)) if other.num else [()] * other.ncols
        return Matrix.from_ints([[sum(map(mul, row, col)) for col in cols] for row in self.num],
                                self.den * other.den, other.ncols)

    def transpose(self) -> Matrix:
        num = [list(col) for col in zip(*self.num)] if self.num else [[] for _ in range(self.ncols)]
        return Matrix._reduced(num, self.den, self.nrows)

    # -- elimination -------------------------------------------------------

    def certified_rank(self) -> int | None:
        """The rank when a certificate modulo a prime proves it full, else None.

        The vectors of the shorter side of the nonzero rows are eliminated
        modulo ``_P``.  When they are independent there, the rank is their
        number: a minor that is nonzero modulo ``_P`` is a nonzero integer.
        None says only that the rank is below that number or the prime
        unlucky.
        """
        rows = [row for row in self.num if any(row)]
        vectors = rows if len(rows) <= self.ncols else list(zip(*rows))
        return len(vectors) if not vectors or _independent_mod_p(vectors) else None

    def rank(self) -> int:
        """Rank: :meth:`certified_rank` when it is full, else exact elimination.

        Without a certificate the rank is the number of pivots that
        :func:`_gauss_jordan` finds in the primitive rows, which is exact
        whatever the prime.
        """
        certified = self.certified_rank()
        if certified is not None:
            return certified
        return len(_gauss_jordan([_primitive(row) for row in self.num if any(row)])[0])

    def nullspace(self) -> list[Matrix]:
        """Basis of the right kernel, as column matrices, read off the reduced rows."""
        rows = [_primitive(row) for row in self.num if any(row)]
        pivots, _sign, pivot = _gauss_jordan(rows)
        return [Matrix.from_ints([[x] for x in v], pivot, 1)
                for v in _kernel(rows, pivots, pivot, self.ncols)]

    def nullity(self) -> int:
        return self.ncols - self.rank()

    def det(self) -> Fraction:
        """Determinant by fraction-free elimination on the primitive rows.

        With ``c_i`` the row contents, ``det(num) = prod(c_i) det(primitive rows)``.
        """
        if self.nrows != self.ncols:
            raise DimensionMismatchError("det of non-square matrix")
        contents = [gcd(*row) or 1 for row in self.num]
        rows = [[x // c for x in row] for row, c in zip(self.num, contents)]
        pivots, sign, pivot = _gauss_jordan(rows)
        if len(pivots) < self.nrows:
            return Fraction(0)
        return Fraction(sign * pivot * prod(contents), self.den ** self.nrows)

    def inverse(self) -> Matrix:
        """Inverse: the inner inverse of :func:`_inner_inverse`, the only one when the kernel is 0.

        Raises ``ZeroDivisionError`` if singular.
        """
        if self.nrows != self.ncols:
            raise DimensionMismatchError("inverse of non-square matrix")
        inner, kernel, _left = _inner_inverse(self)
        if kernel.ncols:
            raise ZeroDivisionError("matrix is singular")
        return inner

    def solve(self, rhs: Matrix) -> Matrix | None:
        """One solution X of self @ X = rhs, or None if inconsistent.

        Reduces the primitive rows of ``[self | rhs]`` over one denominator:
        a pivot in a column of ``rhs`` means no solution, and otherwise the
        rows of X at free columns are zero.
        """
        if rhs.nrows != self.nrows:
            raise DimensionMismatchError("solve shape mismatch")
        n, k = self.ncols, rhs.ncols
        g = gcd(self.den, rhs.den)
        s, t = rhs.den // g, self.den // g
        rows = [_primitive([s * x for x in r1] + [t * y for y in r2])
                for r1, r2 in zip(self.num, rhs.num)]
        pivots, _sign, pivot = _gauss_jordan(rows)
        if pivots and pivots[-1] >= n:
            return None
        sol = [[0] * k for _ in range(n)]
        for row, pc in zip(rows, pivots):
            sol[pc] = row[n:]
        return Matrix.from_ints(sol, pivot, k)

    # -- block helpers -----------------------------------------------------

    def submatrix(self, row0: int, row1: int, col0: int, col1: int) -> Matrix:
        return Matrix.from_ints([row[col0:col1] for row in self.num[row0:row1]],
                                self.den, col1 - col0)


def block_matrix(blocks: Sequence[Sequence[Matrix]],
                 row_dims: Sequence[int], col_dims: Sequence[int]) -> Matrix:
    """Assemble a matrix from a grid of blocks with prescribed block dimensions.

    The blocks are brought to the lcm of their denominators, which leaves the
    result in lowest terms.
    """
    if len(blocks) != len(row_dims):
        raise DimensionMismatchError("block row count mismatch")
    den = lcm(1, *(blk.den for brow in blocks for blk in brow))
    out: list[list[int]] = []
    for bi, brow in enumerate(blocks):
        if len(brow) != len(col_dims):
            raise DimensionMismatchError("block column count mismatch")
        strip: list[list[int]] = [[] for _ in range(row_dims[bi])]
        for bj, blk in enumerate(brow):
            if blk.shape != (row_dims[bi], col_dims[bj]):
                raise DimensionMismatchError(
                    f"block ({bi},{bj}) is {blk.shape}, expected "
                    f"({row_dims[bi]},{col_dims[bj]})"
                )
            s = den // blk.den
            for line, row in zip(strip, blk.num):
                line.extend(row if s == 1 else [s * x for x in row])
        out.extend(strip)
    return Matrix._reduced(out, den, sum(col_dims))


# -- characteristic polynomials and their rational roots --------------------------


def charpoly(rows: Sequence[Sequence[int]]) -> list[int]:
    """``det(x I - rows)`` of a square integer matrix, leading coefficient first.

    Faddeev-LeVerrier: with ``M_1 = I``, the coefficient of ``x^(n-k)`` is
    ``c_k = -tr(A M_k) / k`` and ``M_(k+1) = A M_k + c_k I``.  Each ``c_k``
    is a coefficient of an integer polynomial, so each division is exact.
    """
    n = len(rows)
    coeffs = [1]
    m = [list(row) for row in rows]  # A M_1
    for k in range(1, n + 1):
        c = -sum(m[i][i] for i in range(n)) // k
        coeffs.append(c)
        if k < n:
            for i in range(n):
                m[i][i] += c
            cols = list(zip(*m))
            m = [[sum(map(mul, row, col)) for col in cols] for row in rows]
    return coeffs


def _horner(f: Sequence[int], x: int, mod: int = 0) -> int:
    """``f(x)``, reduced modulo ``mod`` at each step when it is nonzero."""
    v = 0
    for c in f:
        v = (v * x + c) % mod if mod else v * x + c
    return v


def _derivative(f: Sequence[int]) -> list[int]:
    d = len(f) - 1
    return [c * (d - i) for i, c in enumerate(f[:-1])]


def _strip(f: list[int]) -> list[int]:
    """``f`` without leading zero coefficients."""
    i = next((i for i, c in enumerate(f) if c), len(f))
    return f[i:]


def _primitive_poly(f: list[int]) -> list[int]:
    """``f`` over its content, with a positive leading coefficient."""
    g = gcd(*f)
    if f[0] < 0:
        g = -g
    return [c // g for c in f] if g != 1 else f


def _prs_gcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd of two nonzero integer polynomials, ``deg f >= deg g``, by the primitive PRS.

    Each step takes the pseudo-remainder, ``lc(g)^(deg f - deg g + 1) f``
    modulo ``g``, and divides it by its content (Knuth, TAOCP 2, 4.6.1).
    """
    f, g = _primitive_poly(f), _primitive_poly(g)
    while len(g) > 1:
        lc, ng = g[0], len(g)
        r = f
        while len(r) >= ng:
            c = r[0]
            tail = g[1:] + [0] * (len(r) - ng)
            r = _strip([lc * x - c * y for x, y in zip(r[1:], tail)])
        f, g = g, (_primitive_poly(r) if r else [])
    return [1] if g else f


def _divide_monic(f: list[int], g: list[int]) -> list[int]:
    """The quotient of ``f`` by a monic ``g`` that divides it."""
    r = list(f)
    ng = len(g)
    for i in range(len(f) - ng + 1):
        c = r[i]
        if c:
            for j in range(1, ng):
                r[i + j] -= c * g[j]
    return r[:len(f) - ng + 1]


def _squarefree_mod(f: list[int], p: int) -> bool:
    """True iff the monic ``f`` is squarefree modulo ``p``: ``gcd(f, f')`` is a unit there."""
    a = [c % p for c in f]
    b = _strip([c % p for c in _derivative(f)])
    while b:
        inv = pow(b[0], -1, p)
        while len(a) >= len(b):  # a mod b over GF(p)
            c = a[0] * inv % p
            a = _strip([(x - c * y) % p for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))])
        a, b = b, a
    return len(a) == 1


def _primes():
    """3, 5, 7, 11, ... by trial division."""
    found: list[int] = []
    for n in itertools.count(3, 2):
        if all(n % q for q in found):
            found.append(n)
            yield n


def integer_roots(f: list[int]) -> tuple[list[int], list[int]]:
    """The distinct integer roots of a monic integer polynomial, and its non-split part.

    With ``f = x^m g`` and ``g(0) != 0``, the roots are 0 when ``m > 0`` and
    those of the squarefree part ``h = g / gcd(g, g')``, found p-adically
    (R. Loos, *SIAM J. Comput.* 12, 1983).  Modulo the first odd prime ``p``
    at which ``h`` is squarefree every root of ``h`` is simple, and Newton's
    iteration lifts it to one root modulo ``p^(2^e)`` past twice ``|h(0)|``,
    a bound on any integer root, since it divides ``h(0)``.  A lift is kept
    only if it is a root of ``h``.  The second item is ``h`` over the product
    of ``x - z`` for those roots: ``[1]`` iff ``f`` splits over Z.
    """
    zeros = len(f) - len(_strip(f[::-1]))  # the multiplicity of the root 0
    h = f[:len(f) - zeros]
    roots = [0] if zeros else []
    if len(h) == 1:
        return roots, h
    primes = _primes()
    p = next(primes)
    if not _squarefree_mod(h, p):
        h = _divide_monic(h, _prs_gcd(h, _derivative(h)))
        while not _squarefree_mod(h, p):
            p = next(primes)
    dh = _derivative(h)
    bound = 2 * abs(h[-1])
    rest = h
    for r0 in range(p):
        if _horner(h, r0, p):
            continue
        r, m = r0, p
        while m <= bound:
            m *= m
            r = (r - _horner(h, r, m) * pow(_horner(dh, r, m), -1, m)) % m
        z = r if 2 * r < m else r - m
        if not _horner(h, z):
            roots.append(z)
            rest = _divide_monic(rest, [1, -z])
    return roots, rest


def rational_eigenvalues(g: Matrix) -> tuple[list[Fraction], list[int]]:
    """The distinct rational eigenvalues of ``g``, ascending, and the part that does not split.

    With ``g = num / den`` they are ``z / den`` for the integer roots ``z`` of
    the monic integer polynomial ``charpoly(num)`` (:func:`integer_roots`).
    The second item is the squarefree characteristic polynomial of ``num``
    over its linear factors, so every eigenvalue of ``g`` is rational iff it
    is ``[1]``.
    """
    if g.nrows != g.ncols:
        raise DimensionMismatchError("eigenvalues of non-square matrix")
    if g.nrows <= 1:
        return [Fraction(x, g.den) for row in g.num for x in row], [1]
    roots, rest = integer_roots(charpoly(g.num))
    return sorted(Fraction(z, g.den) for z in roots), rest
