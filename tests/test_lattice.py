from fractions import Fraction
from random import Random

import pytest

from adhm_blowup_kit.errors import DimensionMismatchError, InfeasibleParametersError
from adhm_blowup_kit.lattice import (
    ChernCharacter,
    DivisorClass,
    canonical_class,
    chi_line,
    chi_twisted,
    exceptional_class,
    line_class,
    moduli_dim_formulas,
    monad_dims,
    restriction_degree,
)
from util import rand_divisor


def test_intersection_anchors():
    linf = line_class(2)
    assert linf.dot(linf) == 1
    e1, e2 = exceptional_class(2, 1), exceptional_class(2, 2)
    assert e1.dot(e2) == 0
    assert e1.dot(e1) == -1
    assert linf.dot(e1) == 0
    assert DivisorClass(2, [1, 1]).dot(DivisorClass(1, [1, 0])) == 1


def test_intersection_mismatched_n():
    with pytest.raises(DimensionMismatchError):
        DivisorClass(1, [0]).dot(DivisorClass(1, [0, 0]))


def test_chi_line_anchors():
    assert chi_line(DivisorClass(0, [])) == 1
    for n in (1, 2, 3):
        assert chi_line(DivisorClass(0, [0] * n)) == 1
        for i in range(n):
            q = [1] * n
            q[i] += 1
            assert chi_line(DivisorClass(-3, q)) == 0
    # (-2, e_i + e_j), i != j
    assert chi_line(DivisorClass(-2, [1, 1])) == 0
    assert chi_line(DivisorClass(-2, [1, 0, 1])) == 0
    # (-1, 1 - e_i): the other vanishing the dimension count leans on
    for n in (1, 2, 3):
        for i in range(n):
            q = [1] * n
            q[i] -= 1
            assert chi_line(DivisorClass(-1, q)) == 0


def test_chi_line_rejects_nonintegral():
    with pytest.raises(ValueError):
        chi_line(DivisorClass(Fraction(1, 2), []))


def test_chi_serre_symmetry():
    rng = Random(2024)
    for _ in range(50):
        n = rng.randint(0, 3)
        d = rand_divisor(rng, n)
        k_class = canonical_class(n)
        assert chi_line(d) == chi_line(k_class - d)


def test_chi_line_is_quadratic():
    # independent oracle: finite differences along lattice directions
    rng = Random(7)
    for _ in range(20):
        n = rng.randint(1, 3)
        d = rand_divisor(rng, n)
        v = rand_divisor(rng, n, bound=2)
        if v.is_zero():
            continue
        values = [chi_line(d + v.scale(t)) for t in range(5)]
        second = [values[t + 2] - 2 * values[t + 1] + values[t] for t in range(3)]
        assert second[0] == second[1] == second[2]
        third = [second[t + 1] - second[t] for t in range(2)]
        assert third == [0, 0]


def test_chi_twisted_anchors():
    triv = ChernCharacter.of_sheaf(1, [], 0)
    assert chi_twisted(triv, DivisorClass(0, [])) == 1
    rng = Random(5)
    for _ in range(20):
        n = rng.randint(0, 3)
        r = rng.randint(1, 3)
        a_vec = [rng.randint(-2, 2) for _ in range(n)]
        k = rng.randint(0, 4)
        ch = ChernCharacter.of_sheaf(r, a_vec, k)
        norm2 = sum(x * x for x in a_vec)
        abar = sum(a_vec)
        assert chi_twisted(ch, DivisorClass(-1, [0] * n)) == \
            -(k + Fraction(norm2 - abar, 2))
        assert chi_twisted(ch, DivisorClass(-2, [1] * n)) == \
            -(k + Fraction(norm2 + abar, 2))


def test_chi_twisted_cross_oracle():
    # the closed form must agree with twisting the character and applying
    # Riemann-Roch through the intersection form, including nonzero line part
    rng = Random(11)
    for _ in range(20):
        n = rng.randint(0, 3)
        ch = ChernCharacter.of_sheaf(
            rng.randint(1, 3),
            [rng.randint(-2, 2) for _ in range(n)],
            rng.randint(0, 4),
            a_line=rng.randint(-2, 2),
        )
        d = rand_divisor(rng, n, bound=4)
        assert chi_twisted(ch, d) == ch.twist(d).chi()


def test_chi_twisted_of_structure_sheaf_is_chi_line():
    rng = Random(13)
    for _ in range(20):
        n = rng.randint(0, 3)
        triv = ChernCharacter.of_sheaf(1, [0] * n, 0)
        d = rand_divisor(rng, n)
        assert chi_twisted(triv, d) == chi_line(d)


def test_restriction_degree():
    d = DivisorClass(3, [1, 2])
    assert restriction_degree(d, "linf") == 3
    assert restriction_degree(d, 2) == -2
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            assert restriction_degree(canonical_class(n), i) == -1
    with pytest.raises(ValueError):
        restriction_degree(d, 3)


def test_ch_twist_anchors():
    triv1 = ChernCharacter.of_sheaf(1, [0], 0)
    twisted = triv1.twist(exceptional_class(1, 1))
    assert twisted.rank == 1
    assert twisted.c1 == exceptional_class(1, 1)
    assert twisted.pt == Fraction(-1, 2)
    # identity twist
    ch = ChernCharacter.of_sheaf(2, [1, -1], 3)
    assert ch.twist(DivisorClass(0, [0, 0])) == ch


def test_ch_twist_group_law_and_roundtrip():
    rng = Random(3)
    for _ in range(30):
        n = rng.randint(0, 3)
        ch = ChernCharacter.of_sheaf(
            rng.randint(1, 3), [rng.randint(-2, 2) for _ in range(n)],
            rng.randint(0, 4))
        d1, d2 = rand_divisor(rng, n), rand_divisor(rng, n)
        assert ch.twist(d1).twist(d2) == ch.twist(d1 + d2)
        assert ch.twist(d1).twist(-d1) == ch


def test_monad_dims_examples():
    d = monad_dims(1, [-1], 0)
    assert d.dim_k == (0, 1)
    assert d.dim_l == (1, 0)
    assert d.rank_w == 3
    for r in (1, 2, 3):
        for k in (0, 1, 2, 3):
            d0 = monad_dims(r, [], k)
            assert d0.dim_k == (k,) and d0.dim_l == (k,)
            assert d0.rank_w == 2 * k + r


def test_monad_dims_balance_exhaustive():
    from itertools import product
    for r in (1, 2, 3):
        for n in range(4):
            for a_vec in product(range(-2, 3), repeat=n):
                for k in range(5):
                    try:
                        d = monad_dims(r, a_vec, k)
                    except InfeasibleParametersError:
                        continue
                    assert d.total_k == d.total_l
                    assert d.rank_w == 2 * d.total_l + r
                    assert all(x >= 0 for x in d.dim_k + d.dim_l)


def test_monad_dims_rejects_infeasible():
    with pytest.raises(InfeasibleParametersError):
        monad_dims(0, [], 1)
    with pytest.raises(InfeasibleParametersError):
        monad_dims(1, [], -1)
    # k = -2, a = (2): dim K_1 = k + 3 - 2 = -1
    with pytest.raises(InfeasibleParametersError):
        monad_dims(1, [2], -2)


def test_moduli_dim_formulas():
    for k in range(5):
        assert moduli_dim_formulas(1, [], k) == (2 * k, 2 * k)
    assert moduli_dim_formulas(2, [], 1) == (4, 2)
    assert moduli_dim_formulas(1, [1], 0) == (0, 0)
