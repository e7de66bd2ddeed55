from decimal import Decimal
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhm_blowup_kit import linalg
from adhm_blowup_kit.errors import DimensionMismatchError
from adhm_blowup_kit.linalg import Matrix, block_matrix
from util import echelon, reference_rational_eigenvalues


def test_identity_and_inverse():
    rng = Random(1)
    for n in (1, 2, 3, 4):
        while True:
            m = Matrix.from_function(
                n, n, lambda i, j: Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            if m.det() != 0:
                break
        assert m * m.inverse() == Matrix.identity(n)
        assert m.inverse() * m == Matrix.identity(n)


def test_singular_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_rank_nullspace_consistency():
    rng = Random(2)
    for _ in range(20):
        m_rows, n_cols = rng.randint(0, 5), rng.randint(0, 5)
        m = Matrix.from_function(m_rows, n_cols,
                                 lambda i, j: Fraction(rng.randint(-2, 2)))
        basis = m.nullspace()
        assert m.rank() + len(basis) == n_cols
        for v in basis:
            assert (m * v).is_zero()


def test_solve():
    a = Matrix([[1, 2], [3, 4]])
    rhs = Matrix([[5], [6]])
    x = a.solve(rhs)
    assert a * x == rhs
    inconsistent = Matrix([[1, 2], [2, 4]]).solve(Matrix([[1], [0]]))
    assert inconsistent is None


def test_empty_matrices():
    e = Matrix([], ncols=0)
    assert e.det() == 1
    assert e.inverse() == e
    wide = Matrix([], ncols=3)       # 0 x 3
    assert wide.rank() == 0
    assert len(wide.nullspace()) == 3
    tall = Matrix([[], []], ncols=0)  # 2 x 0
    assert tall.rank() == 0
    prod = tall * wide                # (2x0)(0x3) = zero 2x3
    assert prod.shape == (2, 3) and prod.is_zero()


def test_block_matrix_shapes():
    a = Matrix([[1]])
    z = Matrix.zeros(1, 2)
    m = block_matrix([[a, z], [z.transpose(), Matrix.identity(2)]], [1, 2], [1, 2])
    assert m == Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DimensionMismatchError):
        block_matrix([[a, a]], [1], [1, 2])


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def rational_matrices(draw):
    """Rational matrices with up to 9 rows and 7 columns, 0 x n and n x 0 included,
    with zero rows, repeated rows and sums of rows mixed in, and some with a
    zero column or a multiple of an earlier column, which is free although a
    pivot column may follow it."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(fractions, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "sum")), max_size=3)):
        if kind == "zero" or not rows:
            new = [Fraction(0)] * n
        elif kind == "repeat":
            new = list(draw(st.sampled_from(rows)))
        else:
            f = draw(fractions)
            new = [x + f * y for x, y in zip(draw(st.sampled_from(rows)),
                                             draw(st.sampled_from(rows)))]
        rows.insert(draw(st.integers(0, len(rows))), new)
    if draw(st.booleans()):
        at = draw(st.integers(0, n))
        f = draw(fractions) if at else Fraction(0)
        src = draw(st.integers(0, at - 1)) if at else 0
        for row in rows:
            row.insert(at, f * row[src] if at else Fraction(0))
        n += 1
    return Matrix(rows, ncols=n)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=rational_matrices())
def test_rank_matches_echelon(m):
    assert m.rank() == len(echelon(m)[1])
    assert m.nullity() == m.ncols - len(echelon(m)[1])


@st.composite
def planted_rank_matrices(draw):
    """Products ``A B`` of an ``m x s`` and an ``s x n`` matrix, tall or wide.

    ``s`` below ``min(m, n)`` plants a rank deficiency.  Entries are
    rationals, small integers or integers up to 10^30, which fill many slots
    of the packed elimination.
    """
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    s = draw(st.integers(0, min(m, n)))
    entries = draw(st.sampled_from((fractions, st.integers(-3, 3),
                                    st.integers(-10 ** 30, 10 ** 30))))
    a, b = (Matrix(draw(st.lists(st.lists(entries, min_size=w, max_size=w),
                                 min_size=h, max_size=h)), ncols=w)
            for h, w in ((m, s), (s, n)))
    return a * b


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=planted_rank_matrices())
def test_planted_rank_matches_echelon(m):
    assert m.rank() == len(echelon(m)[1]) == m.transpose().rank()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=planted_rank_matrices())
def test_inner_inverse_is_an_inner_inverse_with_both_kernels(m):
    inner, kernel, left = linalg._inner_inverse(m)
    rank = len(echelon(m)[1])
    assert m * inner * m == m
    if rank == m.ncols:  # a left inverse, as monad._line_drops takes it
        assert inner * m == Matrix.identity(m.ncols)
    assert (m * kernel).is_zero() and (left * m).is_zero()
    assert kernel.shape == (m.ncols, m.ncols - rank)
    assert left.shape == (m.nrows - rank, m.nrows)
    assert len(echelon(kernel)[1]) == kernel.ncols and len(echelon(left)[1]) == left.nrows


def test_rank_certificate_falls_back_on_an_unlucky_prime(monkeypatch):
    p = linalg._P
    fallbacks = []
    real = linalg._gauss_jordan

    def counted(rows, width=None):
        fallbacks.append(rows)
        return real(rows, width)

    monkeypatch.setattr(linalg, "_gauss_jordan", counted)
    # full rank over Q, deficient modulo p: diag(p, 1), and a matrix whose
    # only full-size minor is p, wide and tall
    for m in (Matrix([[p, 0], [0, 1]]), Matrix([[1, 1], [1, 1 + p]]),
              Matrix([[1, 1, 0], [1, 1 + p, 0]]).transpose()):
        assert m.rank() == 2
    assert len(fallbacks) == 3
    # a full rank that the prime sees reaches no kernel
    assert Matrix([[p + 1, 0], [0, 1]]).rank() == 2
    assert len(fallbacks) == 3


def _ref_nullspace(m):
    """Kernel basis read off the ``Fraction`` reduced row echelon form."""
    rows, pivots = echelon(m)
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [Fraction(0)] * m.ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=rational_matrices())
def test_nullspace_matches_echelon(m):
    basis = m.nullspace()
    assert [v.rows for v in basis] == [[[x] for x in v] for v in _ref_nullspace(m)]
    assert len(basis) == m.nullity()
    for v in basis:
        assert v.shape == (m.ncols, 1) and (m * v).is_zero()
    # the same kernel gives determinants, with the sign of its row swaps
    sq = min(m.shape)
    block = m.submatrix(0, sq, 0, sq)
    assert block.det() == _ref_reduce(block.rows)[0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=rational_matrices(), k=st.integers(0, 3), consistent=st.booleans(), data=st.data())
def test_solve_matches_echelon(m, k, consistent, data):
    if consistent:
        x = data.draw(st.lists(st.lists(fractions, min_size=k, max_size=k),
                               min_size=m.ncols, max_size=m.ncols))
        rhs = m * Matrix(x, ncols=k)
    else:
        rhs = Matrix(data.draw(st.lists(st.lists(fractions, min_size=k, max_size=k),
                                        min_size=m.nrows, max_size=m.nrows)), ncols=k)
    joined = block_matrix([[m, rhs]], [m.nrows], [m.ncols, k])
    rows, pivots = echelon(joined)
    n = m.ncols
    sol = m.solve(rhs)
    if any(p >= n for p in pivots):
        assert sol is None
        assert joined.rank() > m.rank()
    else:
        assert joined.rank() == m.rank()
        ref = [[Fraction(0)] * k for _ in range(n)]
        for r, pc in enumerate(pivots):
            ref[pc] = rows[r][n:]
        assert sol.shape == (n, k) and sol.rows == ref
        assert m * sol == rhs


# -- Fraction references for the integer kernels ---------------------------------


def _ref_mul(a, b, n, p):
    """Schoolbook product of row lists of Fractions, ``a`` is m x n, ``b`` n x p."""
    return [[sum((row[t] * b[t][j] for t in range(n)), Fraction(0)) for j in range(p)]
            for row in a]


def _ref_reduce(rows):
    """Gauss-Jordan with Fraction division on square ``[B | R]`` rows.

    Returns ``(det B, B^-1 R)``, or ``(0, None)`` when ``B`` is singular.
    """
    n = len(rows)
    m = [list(row) for row in rows]
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return Fraction(0), None
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det, [row[n:] for row in m]


def _ref_inverse(rows):
    n = len(rows)
    return _ref_reduce([list(row) + [Fraction(int(i == j)) for j in range(n)]
                        for i, row in enumerate(rows)])[1]


# denominators well past 1 and 2
wide_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def square_matrices(draw):
    """Square rational matrices up to 6 x 6, 0 x 0 included.

    Some have a zero leading column above their last row, so that the first
    pivot search must swap; some have a row that is a combination of two
    others.
    """
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(wide_fractions, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        for row in rows[:-1]:
            row[0] = Fraction(0)
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        f = draw(wide_fractions)
        rows[i] = [x + f * y for x, y in zip(rows[j], rows[k])]
    return rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=square_matrices())
def test_det_and_inverse_match_fraction_reference(rows):
    n = len(rows)
    m = Matrix(rows, ncols=n)
    ref_inv = _ref_inverse(rows)
    assert m.det() == _ref_reduce(rows)[0]
    if ref_inv is None:
        assert m.det() == 0
        with pytest.raises(ZeroDivisionError):
            m.inverse()
    else:
        inv = m.inverse()
        assert inv.shape == (n, n)
        assert inv.rows == ref_inv
        assert m * inv == Matrix.identity(n)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dims=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
       data=st.data())
def test_product_matches_fraction_reference(dims, data):
    m, n, p = dims
    a = data.draw(st.lists(st.lists(wide_fractions, min_size=n, max_size=n),
                           min_size=m, max_size=m))
    b = data.draw(st.lists(st.lists(wide_fractions, min_size=p, max_size=p),
                           min_size=n, max_size=n))
    prod = Matrix(a, ncols=n) * Matrix(b, ncols=p)
    assert prod.shape == (m, p)
    assert prod.rows == _ref_mul(a, b, n, p)


@pytest.mark.parametrize("m,n,p", [(0, 0, 0), (3, 0, 2), (0, 0, 4), (0, 3, 2), (2, 3, 0)])
def test_product_of_empty_shapes(m, n, p):
    a = Matrix([[Fraction(j + 1, i + 2) for j in range(n)] for i in range(m)], ncols=n)
    b = Matrix([[Fraction(i - j, 3) for j in range(p)] for i in range(n)], ncols=p)
    prod = a * b
    assert prod.shape == (m, p)
    assert prod == Matrix.zeros(m, p)


# -- the stored form: integer rows over one denominator, in lowest terms ---------


def _assert_lowest_terms(m):
    assert len(m.num) == m.nrows and all(len(row) == m.ncols for row in m.num)
    assert all(type(x) is int for row in m.num for x in row)
    assert m.den > 0 and gcd(m.den, *(x for row in m.num for x in row)) == 1
    if m.is_zero():
        assert m.den == 1


def _fraction_rows(data, m, n):
    return data.draw(st.lists(st.lists(fractions, min_size=n, max_size=n),
                              min_size=m, max_size=m))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=rational_matrices(), s=fractions, data=st.data())
def test_results_are_in_lowest_terms_and_match_fraction_reference(m, s, data):
    a = m.rows
    b = _fraction_rows(data, m.nrows, m.ncols)
    other = Matrix(b, ncols=m.ncols)
    at = [[a[i][j] for i in range(m.nrows)] for j in range(m.ncols)]
    r0, r1 = sorted(data.draw(st.lists(st.integers(0, m.nrows), min_size=2, max_size=2)))
    c0, c1 = sorted(data.draw(st.lists(st.integers(0, m.ncols), min_size=2, max_size=2)))
    cases = [
        (m, a),
        (m + other, [[x + y for x, y in zip(u, v)] for u, v in zip(a, b)]),
        (m - other, [[x - y for x, y in zip(u, v)] for u, v in zip(a, b)]),
        (-m, [[-x for x in u] for u in a]),
        (m.scale(s), [[s * x for x in u] for u in a]),
        (m.transpose(), at),
        (m * m.transpose(), _ref_mul(a, at, m.ncols, m.nrows)),
        (m.submatrix(r0, r1, c0, c1), [u[c0:c1] for u in a[r0:r1]]),
        (block_matrix([[m, other], [other, m]], [m.nrows] * 2, [m.ncols] * 2),
         [u + v for u, v in zip(a, b)] + [v + u for u, v in zip(a, b)]),
    ]
    for got, want in cases:
        _assert_lowest_terms(got)
        assert got.rows == want
    basis = m.nullspace()
    for v, want in zip(basis, _ref_nullspace(m)):
        _assert_lowest_terms(v)
        assert v.rows == [[x] for x in want]
    x = Matrix(_fraction_rows(data, m.ncols, 2), ncols=2)
    sol = m.solve(m * x)
    _assert_lowest_terms(sol)
    assert m * sol == m * x
    sq = min(m.shape)
    block = m.submatrix(0, sq, 0, sq)
    ref_inv = _ref_inverse(block.rows)
    if ref_inv is not None:
        inv = block.inverse()
        _assert_lowest_terms(inv)
        assert inv.rows == ref_inv


@settings(derandomize=True, max_examples=100, deadline=None)
@given(m=rational_matrices(), s=fractions.filter(bool))
def test_the_same_matrix_by_any_route_is_stored_alike(m, s):
    for same in (Matrix(m.rows, ncols=m.ncols), m.scale(s).scale(1 / s),
                 m * Matrix.identity(m.ncols), -(-m), m + Matrix.zeros(*m.shape),
                 m.transpose().transpose()):
        assert (same.num, same.den) == (m.num, m.den)
        assert same == m and hash(same) == hash(m)


def test_one_half_by_three_routes():
    routes = [Matrix([[Fraction(1, 2)]]), Matrix([[1]]).scale(Fraction(1, 2)),
              Matrix([[2]]) * Matrix([[Fraction(1, 4)]]), Matrix.from_ints([[-3]], -6)]
    for m in routes:
        assert (m.num, m.den) == ([[1]], 2)
        assert m == routes[0] and hash(m) == hash(routes[0])
    zeros = [Matrix.zeros(2, 2), Matrix([[Fraction(1, 3)] * 2] * 2).scale(0),
             Matrix([[Fraction(1, 3), 1]] * 2) - Matrix([[Fraction(1, 3), 1]] * 2),
             Matrix.from_ints([[0, 0], [0, 0]], 7)]
    for z in zeros:
        assert (z.num, z.den) == ([[0, 0], [0, 0]], 1)
        assert z == zeros[0] and hash(z) == hash(zeros[0])


@pytest.mark.parametrize("num, ncols", [([[1, -2], [0, 3]], 2), ([], 3), ([[], []], 0), ([], 0)])
def test_tuple_rows_equal_list_rows(num, ncols):
    # Pencil.mats hold their rows as tuples, and from_ints takes rows over as they are
    lists = Matrix.from_ints([list(row) for row in num], 1, ncols)
    tuples = Matrix.from_ints(tuple(map(tuple, num)), 1, ncols)
    assert tuples.shape == lists.shape == (len(num), ncols)
    assert tuples == lists and lists == tuples and hash(tuples) == hash(lists)
    assert tuples == Matrix(num, ncols=ncols)
    if num:
        assert tuples != Matrix.from_ints([list(row) for row in num[1:]], 1, ncols)
    assert Matrix.zeros(0, 3) != Matrix.zeros(0, 2) and Matrix.zeros(2, 0) != Matrix.zeros(3, 0)


@pytest.mark.parametrize("bad", [0.5, 2.0, Decimal("0.5"), "1/2", None, 1j])
def test_matrix_refuses_inexact_entries(bad):
    with pytest.raises(TypeError):
        Matrix([[1, bad]])
    with pytest.raises(TypeError):
        Matrix.column([bad])
    with pytest.raises(TypeError):
        Matrix.identity(2).scale(bad)


def test_elimination_sees_primitive_rows(monkeypatch):
    """Each row reaches the integer kernel divided by its content.

    With one common denominator of 10^30, the row with denominator 1 would
    otherwise carry a factor 10^30 that only the other row put there.
    """
    seen = []

    kernel = linalg._gauss_jordan

    def checked(rows, width=None):
        seen.extend(list(row) for row in rows)
        assert all(gcd(*row) == 1 for row in rows if any(row))
        return kernel(rows, width)

    monkeypatch.setattr(linalg, "_gauss_jordan", checked)
    big = 10 ** 30
    m = Matrix([[1, 2, 3], [Fraction(1, big), Fraction(7, big), Fraction(5, big)]])
    assert m.den == big
    [v] = m.nullspace()
    assert (m * v).is_zero()
    rhs = Matrix([[1], [Fraction(1, big)]])
    assert m * m.solve(rhs) == rhs
    # a full rank is certified modulo a prime and reaches no kernel; a
    # deficient one reaches the elimination
    assert m.rank() == 2
    assert len(seen) == 2 + 2
    deficient = Matrix([[1, 2, 3], [Fraction(3, big), Fraction(6, big), Fraction(9, big)]])
    assert deficient.den == big
    assert deficient.rank() == 1
    assert len(seen) == 2 + 2 + 2
    # the inner inverse reduces the primitive rows beside an identity
    assert m * linalg._inner_inverse(m)[0] * m == m
    assert len(seen) == 2 + 2 + 2 + 2
    assert max(abs(x) for row in seen for x in row) < 10


huge = st.integers(-10 ** 30, 10 ** 30)


@st.composite
def spectral_matrices(draw):
    """Square matrices up to 6 x 6 with a known block structure, or dense and huge.

    A planted matrix is ``P B P^-1 / den`` with ``P`` unimodular and ``B``
    block diagonal: Jordan blocks of rational eigenvalues (repeats and zero
    among them), nilpotent blocks, and 2 x 2 companion blocks of ``x^2 - s x
    + t`` with irrational or complex roots.  A dense one has entries up to
    10^30 over denominators up to 10^30.
    """
    n = draw(st.integers(0, 6))
    if draw(st.integers(0, 3)) == 0:
        den = draw(st.integers(1, 10 ** 30))
        return Matrix([[Fraction(draw(huge), draw(st.sampled_from((1, den)))) for _ in range(n)]
                       for _ in range(n)], ncols=n)
    eigenvalue = st.one_of(fractions, st.just(Fraction(0)), huge.map(Fraction))
    rows = [[Fraction(0)] * n for _ in range(n)]
    i = 0
    while i < n:
        if i + 1 < n and draw(st.integers(0, 3)) == 0:
            s, t = draw(st.integers(-4, 4)), draw(st.integers(-10 ** 12, 10 ** 12))
            rows[i][i + 1], rows[i + 1][i], rows[i + 1][i + 1] = -t, Fraction(1), s
            i += 2
            continue
        size = draw(st.integers(1, n - i))
        lam = draw(eigenvalue)
        for j in range(i, i + size):
            rows[j][j] = lam
            if j + 1 < i + size:
                rows[j][j + 1] = Fraction(draw(st.integers(0, 1)))
        i += size
    lower, other = ([[Fraction(draw(st.integers(-3, 3))) if r > c else Fraction(int(r == c))
                      for c in range(n)] for r in range(n)] for _ in range(2))
    p = Matrix(lower, ncols=n) * Matrix(other, ncols=n).transpose()
    return (p * Matrix(rows, ncols=n) * p.inverse()).scale(draw(fractions.filter(bool)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=spectral_matrices())
def test_rational_eigenvalues_match_sympy_factoring(m):
    roots, rest = linalg.rational_eigenvalues(m)
    ref_roots, ref_complete = reference_rational_eigenvalues(m)
    assert roots == sorted(ref_roots)
    assert (rest == [1]) == ref_complete
    # the cofactor is a factor of the characteristic polynomial of num
    f = linalg.charpoly(m.num)
    quotient = linalg._divide_monic(f, rest)
    product = [0] * len(f)
    for i, x in enumerate(quotient):
        for j, y in enumerate(rest):
            product[i + j] += x * y
    assert product == f


def test_integer_roots_of_a_product():
    # (x - 1)^2 (x + 2) x^3 (x^2 - 2): repeated, zero and irrational roots
    f = [1, 0, -5, 2, 6, -4, 0, 0, 0]
    assert linalg.charpoly([[0, 1], [-4, 5]]) == [1, -5, 4]
    roots, rest = linalg.integer_roots(f)
    assert sorted(roots) == [-2, 0, 1] and rest == [1, 0, -2]
    assert linalg.rational_eigenvalues(Matrix([])) == ([], [1])
    assert linalg.rational_eigenvalues(Matrix([[Fraction(-3, 4)]])) == ([Fraction(-3, 4)], [1])
