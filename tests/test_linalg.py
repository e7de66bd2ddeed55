from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhm_blowup_kit.errors import DimensionMismatchError
from adhm_blowup_kit.linalg import Matrix, block_matrix


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
    """Rational matrices of every shape up to 6 x 6, 0 x n and n x 0 included,
    with zero rows, repeated rows and sums of rows mixed in."""
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
    return Matrix(rows, ncols=n)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=rational_matrices())
def test_rank_matches_echelon(m):
    assert m.rank() == len(m._echelon()[1])
    assert m.nullity() == m.ncols - len(m._echelon()[1])
