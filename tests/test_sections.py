from fractions import Fraction
from random import Random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.rings import ring

from adhm_blowup_kit.errors import (
    AmbiguousPointError,
    DimensionMismatchError,
    MalformedSectionError,
)
from adhm_blowup_kit.lattice import DivisorClass
from adhm_blowup_kit.sections import (
    BlowupPoints,
    SectionPoly,
    const_section,
    lambda_section,
    lower_pair,
    raise_pair,
    w_section,
    z_section,
    zero_section,
)
from util import _fraction

CTX = BlowupPoints([(Fraction(1, 2), Fraction(3)), (Fraction(-1), Fraction(0))])


def _basic_pool(ctx):
    pool = [z_section(ctx, a) for a in range(3)]
    for i in range(1, ctx.n + 1):
        pool.append(lambda_section(ctx, i))
        pool.extend(w_section(ctx, i, a) for a in (0, 1))
    return pool


def test_blowup_points_distinct():
    with pytest.raises(ValueError):
        BlowupPoints([(0, 0), (0, 0)])


def test_constructor_bidegrees():
    assert z_section(CTX, 0).bidegree == DivisorClass(1, [0, 0])
    assert w_section(CTX, 1, 0).bidegree == DivisorClass(1, [-1, 0])
    assert lambda_section(CTX, 2).bidegree == DivisorClass(0, [0, 1])
    assert const_section(CTX, 5).bidegree == DivisorClass(0, [0, 0])


def test_lambda_times_w_is_linear_form():
    for i in (1, 2):
        for a in (0, 1):
            lhs = lambda_section(CTX, i) * w_section(CTX, i, a)
            rhs = z_section(CTX, a) + z_section(CTX, 2).scale(-CTX.coordinate(i, a))
            assert lhs == rhs


def test_contraction_vanishes():
    for i in (1, 2):
        w = (w_section(CTX, i, 0), w_section(CTX, i, 1))
        wl = lower_pair(w)
        assert (w[0] * wl[0] + w[1] * wl[1]).is_zero()


def test_raise_lower_inverse():
    pair = (z_section(CTX, 0), z_section(CTX, 1))
    assert raise_pair(lower_pair(pair)) == pair


def test_zero_section_and_unit():
    z = zero_section(CTX, DivisorClass(2, [-1, 0]))
    assert z.is_zero()
    s = w_section(CTX, 1, 1)
    assert s * const_section(CTX, 1) == s
    assert (s + zero_section(CTX, s.bidegree)) == s


def test_add_requires_matching_bidegree():
    with pytest.raises(DimensionMismatchError):
        z_section(CTX, 0) + w_section(CTX, 1, 0)


def test_distributivity_random():
    rng = Random(17)
    pool = _basic_pool(CTX)
    for _ in range(50):
        s1 = rng.choice(pool) * rng.choice(pool)
        s2 = s1.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        s3 = rng.choice(pool)
        assert (s1 + s2) * s3 == s1 * s3 + s2 * s3


def test_vanishing_order_enforced():
    # z^0 does not vanish at p_1 = (1/2, 3), so it is not a section of O(1,-E_1)
    with pytest.raises(MalformedSectionError):
        SectionPoly(DivisorClass(1, [-1, 0]), {(1, 0, 0): Fraction(1)}, CTX)
    # homogeneity is enforced too
    with pytest.raises(MalformedSectionError):
        SectionPoly(DivisorClass(2, [0, 0]), {(1, 0, 0): Fraction(1)}, CTX)


def test_eval_generic_rules():
    # w at a point of the framing line reduces to z^A
    x = (Fraction(4), Fraction(6), Fraction(0))
    for i in (1, 2):
        assert w_section(CTX, i, 0).eval_generic(x) == 4
        assert w_section(CTX, i, 1).eval_generic(x) == 6
        assert lambda_section(CTX, i).eval_generic((2, 2, 1)) == 1
    assert zero_section(CTX, DivisorClass(1, [0, 0])).eval_generic(x) == 0


def test_eval_generic_refuses_blown_up_point():
    with pytest.raises(AmbiguousPointError):
        z_section(CTX, 0).eval_generic((Fraction(1, 2), Fraction(3), Fraction(1)))
    # and the same point with a scaled representative
    with pytest.raises(AmbiguousPointError):
        z_section(CTX, 0).eval_generic((Fraction(1), Fraction(6), Fraction(2)))


def test_eval_exceptional_rules():
    w = (Fraction(2), Fraction(5))
    assert lambda_section(CTX, 1).eval_exceptional(1, w) == 0
    assert w_section(CTX, 1, 0).eval_exceptional(1, w) == 2
    assert w_section(CTX, 1, 1).eval_exceptional(1, w) == 5
    # degree-(1,0) sections restrict to their value at the centre
    assert z_section(CTX, 0).eval_exceptional(1, w) == Fraction(1, 2)
    assert z_section(CTX, 1).eval_exceptional(1, w) == 3
    assert z_section(CTX, 2).eval_exceptional(1, w) == 1


def test_blowup_relation_is_zero_section():
    for i in (1, 2):
        for a in (0, 1):
            rel = (lambda_section(CTX, i) * w_section(CTX, i, a)
                   - z_section(CTX, a)
                   - z_section(CTX, 2).scale(-CTX.coordinate(i, a)))
            assert rel.is_zero()
            assert rel.eval_exceptional(i, (7, 9)) == 0
            assert rel.eval_generic((3, 4, 5)) == 0


def test_frame_coherence_multiplicative():
    rng = Random(23)
    pool = _basic_pool(CTX)
    for _ in range(60):
        s1 = rng.choice(pool)
        s2 = rng.choice(pool) * rng.choice(pool)
        i = rng.choice((1, 2))
        w = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(1, 5)))
        lhs = (s1 * s2).eval_exceptional(i, w)
        rhs = s1.eval_exceptional(i, w) * s2.eval_exceptional(i, w)
        assert lhs == rhs


def test_faithfulness_sampled():
    rng = Random(29)
    pool = _basic_pool(CTX)
    for trial in range(100):
        s = rng.choice(pool) * rng.choice(pool)
        if trial % 3 == 0:
            s = s - s  # exact zero of the same bidegree
        values = []
        for _ in range(10):
            while True:
                x = (Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                     Fraction(1))
                if (x[0], x[1]) not in CTX.points:
                    break
            values.append(s.eval_generic(x))
        assert s.is_zero() == all(v == 0 for v in values)


def test_exceptional_values_match_expr_oracle():
    """Products of z/w/lambda sections against a sympy ``Expr`` built alongside.

    The oracle expands ``poly(p_i + lambda w, 1)`` from the constructors'
    definitions alone (``z^a``, ``z^A - p_i^A z2``, 1), so it shares no code
    with the sections' ring arithmetic or Taylor shift.
    """
    z = sp.symbols("z0:3")
    lam, w0, w1 = sp.symbols("lam w0 w1")
    rng = Random(31)

    def rand_q(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 3))

    for _ in range(40):
        n = rng.randint(1, 3)
        pts = []
        while len(pts) < n:
            pt = (rand_q(-5, 5), rand_q(-5, 5))
            if pt not in pts:
                pts.append(pt)
        ctx = BlowupPoints(pts)
        centres = [tuple(sp.Rational(c) for c in pt) for pt in pts]
        pool = [(z_section(ctx, a), z[a]) for a in range(3)]
        for i, (p0, p1) in enumerate(centres, start=1):
            pool.append((lambda_section(ctx, i), sp.Integer(1)))
            pool.append((w_section(ctx, i, 0), z[0] - p0 * z[2]))
            pool.append((w_section(ctx, i, 1), z[1] - p1 * z[2]))
        section, expr = const_section(ctx, 1), sp.Integer(1)
        for _ in range(rng.randint(1, 4)):
            s, e = rng.choice(pool)
            section, expr = section * s, expr * e
        for i, (p0, p1) in enumerate(centres, start=1):
            along = sp.Poly(sp.expand(expr.subs(
                {z[0]: p0 + lam * w0, z[1]: p1 + lam * w1, z[2]: 1},
                simultaneous=True)), lam)
            assert section.vanishing_order(i) == min(m for (m,) in along.monoms())
            order = -int(section.bidegree.q[i - 1])
            coeff = along.coeff_monomial(lam ** order) if order >= 0 else 0
            w = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(1, 5)))
            expected = sp.sympify(coeff).subs({w0: w[0], w1: w[1]})
            assert sp.Rational(section.eval_exceptional(i, w)) == expected
        while True:
            x = (rand_q(-9, 9), rand_q(-9, 9), Fraction(rng.randint(1, 3)))
            if (x[0] / x[2], x[1] / x[2]) not in pts:
                break
        direct = expr.subs({z[a]: sp.Rational(x[a]) for a in range(3)})
        assert sp.Rational(section.eval_generic(x)) == direct


# -- the dict arithmetic against sympy's polynomial ring ------------------------------

_QQ_Z = ring("z0,z1,z2", QQ)[0]
_small = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


@st.composite
def _blowups(draw):
    """A blow-up at one to three distinct random centres, and three lists of twist slots.

    A slot is ``("z",)``, ``("w", i)`` or ``("lam", i)``: any ``z^a``, any
    ``w_i^A`` or ``lambda_i`` fills it, so products over one list of slots
    share their bidegree and can be summed.
    """
    pts = draw(st.lists(st.tuples(_small, _small), min_size=1, max_size=3, unique=True))
    slot = st.one_of(st.just(("z",)),
                     st.tuples(st.sampled_from(["w", "lam"]), st.integers(1, len(pts))))
    return BlowupPoints(pts), *(draw(st.lists(slot, max_size=3)) for _ in range(3))


def _draw_section(draw, ctx, slots):
    """A sum of scaled products over ``slots``, and the same built in ``QQ[z0, z1, z2]``."""
    z = _QQ_Z.gens
    total, poly = None, _QQ_Z.zero
    for _ in range(draw(st.integers(1, 3))):
        c = draw(_small)
        term, expected = const_section(ctx, c), _QQ_Z(QQ.convert(c))
        for kind, *i in slots:
            if kind == "z":
                a = draw(st.integers(0, 2))
                term, expected = term * z_section(ctx, a), expected * z[a]
            elif kind == "w":
                a = draw(st.integers(0, 1))
                p = QQ.convert(ctx.coordinate(i[0], a))
                term, expected = term * w_section(ctx, i[0], a), expected * (z[a] - p * z[2])
            else:
                term = term * lambda_section(ctx, i[0])
        total = term if total is None else total + term
        poly += expected
    return total, poly


def _read(poly) -> dict:
    return {mono: _fraction(c) for mono, c in poly.items()}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dict_arithmetic_matches_sympy_ring(data):
    ctx, slots, other, _ = data.draw(_blowups())
    (s1, p1), (s2, p2) = (_draw_section(data.draw, ctx, slots) for _ in range(2))
    s3, p3 = _draw_section(data.draw, ctx, other)
    c = data.draw(_small)
    for section, poly in ((s1, p1), (s1 + s2, p1 + p2), (s1 - s2, p1 - p2), (-s1, -p1),
                          (s1 * s3, p1 * p3), (s1.scale(c), p1 * QQ.convert(c))):
        assert section.poly == _read(poly)
        assert all(type(x) is Fraction and x for x in section.poly.values())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dict_arithmetic_ring_laws_and_hash(data):
    ctx, slots, other, third = data.draw(_blowups())
    (s1, _), (s2, _) = (_draw_section(data.draw, ctx, slots) for _ in range(2))
    s3, _ = _draw_section(data.draw, ctx, other)
    s4, _ = _draw_section(data.draw, ctx, third)
    zero, one = zero_section(ctx, s1.bidegree), const_section(ctx, 1)
    laws = [(s1 + s2, s2 + s1), (s1 * s3, s3 * s1), ((s1 * s3) * s4, s1 * (s3 * s4)),
            ((s1 + s2) * s3, s1 * s3 + s2 * s3), (s1 + zero, s1), (s1 * one, s1),
            ((s1 - s2) + s2, s1), (s1.scale(2), s1 + s1)]
    for lhs, rhs in laws:
        assert lhs == rhs and hash(lhs) == hash(rhs)
    diff = s1 - s1
    assert diff.is_zero() and diff.poly == {} and diff == zero
    assert len({s1, s1 + zero, s2 + s1 - s2}) == 1
