"""Exact sections of line bundles ``O(p, q)`` on the blow-up.

A section is stored through its image under the trivialisation away from the
exceptional divisors: a homogeneous polynomial of degree ``p`` in the plane
coordinates, an element of the ring ``QQ[z0, z1, z2]``.  That ring is built on
first use, so importing the package does not import sympy.  The
trivialisation is injective (the complement of the exceptional set is
dense), so equality of sections is plain polynomial equality and no
elimination machinery is needed.

Conventions, fixed once for the whole package:

* the framing line is ``z2 = 0`` and every blow-up point ``p_i`` is affine,
  written ``(p_i^0 : p_i^1 : 1)``;
* ``w_i^A`` (A = 0, 1) is the section of ``O(1, -E_i)`` with polynomial
  ``z^A - p_i^A z2``, and ``lambda_i`` is the section of ``O(0, E_i)`` with
  polynomial 1, so that ``lambda_i w_i^A = z^A - p_i^A z2``;
* two-component indices are lowered by ``x_0 = -x^1, x_1 = x^0``, hence the
  contraction ``x^A y_A = x^1 y^0 - x^0 y^1`` and ``w^A w_A = 0``.

Values on an exceptional divisor use the local frame in which the value of a
section of ``O(p, q)`` at ``(w0 : w1)`` on ``E_i`` is the coefficient of
``lambda^(-q_i)`` in ``poly(p_i + lambda w, 1)``, read off the Taylor shift
``poly(z0 + p_i^0 z2, z1 + p_i^1 z2, z2)``.  This makes ``lambda_i``
vanish on ``E_i`` and makes ``w_i^A`` restrict to the homogeneous coordinates
of ``E_i``, and it is multiplicative, so joint ranks of matrices with a common
frame are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb
from typing import TYPE_CHECKING, Iterable, TypeVar

from .errors import AmbiguousPointError, DimensionMismatchError, MalformedSectionError
from .lattice import DivisorClass, _frac

if TYPE_CHECKING:
    from sympy.polys.rings import PolyElement, PolyRing

Rational = Fraction | int

T = TypeVar("T")


def lower_pair(pair: tuple[T, T]) -> tuple[T, T]:
    """Lower a two-component index: ``(x^0, x^1) -> (-x^1, x^0)``."""
    x0, x1 = pair
    return (-x1, x0)


def raise_pair(pair: tuple[T, T]) -> tuple[T, T]:
    """Inverse of :func:`lower_pair`: ``(x_0, x_1) -> (x_1, -x_0)``."""
    x0, x1 = pair
    return (x1, -x0)


@cache
def _ring() -> PolyRing:
    """``QQ[z0, z1, z2]``, the ring every section polynomial lives in."""
    from sympy import QQ
    from sympy.polys.rings import ring

    return ring("z0,z1,z2", QQ)[0]


def _to_ring(x: Rational):
    """An int or ``Fraction`` as an element of ``QQ``."""
    x = _frac(x)
    return _ring().domain(x.numerator, x.denominator)


def _fraction(c) -> Fraction:
    """An element of ``QQ`` as a ``Fraction``."""
    return Fraction(int(c.numerator), int(c.denominator))


def _value(poly: PolyElement, x):
    """``poly`` at the ``QQ`` coordinates ``x = (x0, x1, x2)``."""
    x0, x1, x2 = x
    total = _ring().domain.zero
    for (e0, e1, e2), c in poly.items():
        total += c * x0 ** e0 * x1 ** e1 * x2 ** e2
    return total


@dataclass(frozen=True)
class BlowupPoints:
    """The (pairwise distinct, affine) centres of the blow-up."""

    points: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, points: Iterable[tuple[Rational, Rational]]):
        pts = tuple((_frac(a), _frac(b)) for a, b in points)
        if len(set(pts)) != len(pts):
            raise ValueError("blow-up points must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    @cached_property
    def _ring_points(self) -> tuple:
        """The centres in ``QQ``, for the sections' Taylor shifts."""
        return tuple((_to_ring(a), _to_ring(b)) for a, b in self.points)

    @property
    def n(self) -> int:
        return len(self.points)

    def coordinate(self, i: int, a: int) -> Fraction:
        """Affine coordinate ``p_i^A`` (i is 1-based, A in {0, 1})."""
        return self.points[i - 1][a]

    def check_point(self, x: tuple[Fraction, ...], i: int | None = None) -> None:
        """Refuse ``x`` unless it lies on E_i or, with ``i`` None, in the plane off the centres."""
        if i is not None and not 1 <= i <= self.n:
            raise ValueError(f"exceptional index {i} out of range 1..{self.n}")
        if not any(x):
            raise ValueError(f"{x} has no nonzero coordinate, so it is not a point")
        if i is None and x[2] and (x[0] / x[2], x[1] / x[2]) in self.points:
            raise AmbiguousPointError(
                f"{x} is a blown-up point; evaluate on its exceptional divisor")

    def chart_point(self, x: tuple[Rational, Rational, Rational]) -> tuple:
        """``x`` in ``QQ``, after checking it is a plane point off the centres."""
        x = tuple(map(_frac, x))
        self.check_point(x)
        return tuple(map(_to_ring, x))

    def line_point(self, i: int, w: tuple[Rational, Rational]) -> tuple:
        """``(w0, w1, 1)`` in ``QQ``, after checking ``(w0 : w1)`` is a point of E_i."""
        w = tuple(map(_frac, w))
        self.check_point(w, i)
        return (*map(_to_ring, w), _ring().domain.one)


@dataclass(frozen=True)
class SectionPoly:
    """A section of ``O(bidegree)``, stored as its trivialised polynomial.

    ``poly`` is an element of ``QQ[z0, z1, z2]``, or anything that ring converts
    (a dict from exponent triples to rationals, a number).  Every
    construction checks that it is homogeneous of degree ``p`` and vanishes
    to order at least ``-q_i`` at each centre with ``q_i < 0``.
    """

    bidegree: DivisorClass
    poly: PolyElement
    ctx: BlowupPoints

    def __init__(self, bidegree: DivisorClass, poly, ctx: BlowupPoints):
        if bidegree.n != ctx.n:
            raise DimensionMismatchError("bidegree length disagrees with point count")
        if not bidegree.is_integral():
            raise ValueError("section bidegree must be integral")
        object.__setattr__(self, "bidegree", bidegree)
        object.__setattr__(self, "poly", _ring()(poly))
        object.__setattr__(self, "ctx", ctx)
        # Taylor shifts by centre index, computed on first use
        object.__setattr__(self, "_shifts", {})
        self._check_invariants()

    # -- invariants ----------------------------------------------------------

    def _check_invariants(self) -> None:
        p = int(self.bidegree.p)
        for mono in self.poly.itermonoms():
            if sum(mono) != p:
                raise MalformedSectionError(
                    f"monomial {mono} is not homogeneous of degree {p}"
                )
        for i, qi in enumerate(self.bidegree.q, start=1):
            if qi < 0 and (order := self.vanishing_order(i)) < -qi:
                raise MalformedSectionError(
                    f"section of twist q_{i}={qi} vanishes to order "
                    f"{order} < {-qi} at point {i}"
                )

    def vanishing_order(self, i: int) -> int:
        """Vanishing order at the blow-up point ``p_i`` (in the chart z2=1)."""
        shifted = self._shifted(i)
        if not shifted:
            return int(self.bidegree.p) + 1  # zero section: order beyond degree
        return min(u + v for u, v, _ in shifted.itermonoms())

    def _shifted(self, i: int):
        """``poly(z0 + p_i^0 z2, z1 + p_i^1 z2, z2)``: the Taylor expansion at ``p_i``.

        A term ``z0^u z1^v z2^t`` carries the coefficient of ``X^u Y^v`` in
        ``poly(p_i^0 + X, p_i^1 + Y, 1)``.  Computed once per centre.
        """
        if i in self._shifts:
            return self._shifts[i]
        p0, p1 = self.ctx._ring_points[i - 1]
        ring = _ring()
        out = ring.zero
        for (e0, e1, e2), c in self.poly.items():
            for u in range(e0 + 1):
                c0 = c * comb(e0, u) * p0 ** (e0 - u)
                for v in range(e1 + 1):
                    mono = (u, v, e0 + e1 + e2 - u - v)
                    val = out.get(mono, ring.domain.zero) + c0 * comb(e1, v) * p1 ** (e1 - v)
                    if val:
                        out[mono] = val
                    else:
                        out.pop(mono, None)
        self._shifts[i] = out
        return out

    def restriction(self, i: int):
        """The value on ``E_i`` in the ``lambda``-frame, as a form in ``z0, z1``.

        This is the coefficient of ``lambda^(-q_i)`` in
        ``poly(p_i + lambda (z0, z1), 1)``: homogeneous of degree ``-q_i``
        in ``z0, z1`` (read as ``w0, w1``), and 0 whenever ``q_i > 0``.
        """
        order = -int(self.bidegree.q[i - 1])
        out = _ring().zero
        if order >= 0:
            keep = int(self.bidegree.p) - order
            for (u, v, t), c in self._shifted(i).items():
                if t == keep:
                    out[(u, v, 0)] = c
        return out

    # -- ring structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.poly

    def _same_blowup(self, other: SectionPoly) -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise DimensionMismatchError("sections from different blow-ups")

    def __add__(self, other: SectionPoly) -> SectionPoly:
        self._same_blowup(other)
        if self.bidegree != other.bidegree:
            raise DimensionMismatchError(
                f"adding sections of bidegrees {self.bidegree} and {other.bidegree}"
            )
        return SectionPoly(self.bidegree, self.poly + other.poly, self.ctx)

    def __sub__(self, other: SectionPoly) -> SectionPoly:
        return self + -other

    def __neg__(self) -> SectionPoly:
        return SectionPoly(self.bidegree, -self.poly, self.ctx)

    def __mul__(self, other: SectionPoly) -> SectionPoly:
        self._same_blowup(other)
        return SectionPoly(self.bidegree + other.bidegree, self.poly * other.poly,
                           self.ctx)

    def scale(self, s: Rational) -> SectionPoly:
        return SectionPoly(self.bidegree, self.poly.mul_ground(_to_ring(s)), self.ctx)

    # -- evaluation ------------------------------------------------------------

    def eval_generic(self, x: tuple[Rational, Rational, Rational]) -> Fraction:
        """Value at a point of the dense chart, in the frame fixed by ``x`` itself.

        The caller chooses the homogeneous representative; only joint ranks of
        matrices evaluated in a common frame are invariant.
        """
        return _fraction(_value(self.poly, self.ctx.chart_point(x)))

    def eval_exceptional(self, i: int, w: tuple[Rational, Rational]) -> Fraction:
        """Value at ``(w0 : w1)`` on ``E_i`` in the local ``lambda``-frame.

        Returns the coefficient of ``lambda^(-q_i)`` in
        ``poly(p_i + lambda w, 1)``; in particular 0 whenever ``q_i > 0``.
        """
        w = self.ctx.line_point(i, w)
        return _fraction(_value(self.restriction(i), w))


# -- constructors ---------------------------------------------------------------


def z_section(ctx: BlowupPoints, a: int) -> SectionPoly:
    """Coordinate section ``z^a`` of ``O(1, 0)``, a in {0, 1, 2}."""
    if a not in (0, 1, 2):
        raise ValueError(f"coordinate index {a} out of range 0..2")
    return SectionPoly(DivisorClass(1, [0] * ctx.n), _ring().gens[a], ctx)


def w_section(ctx: BlowupPoints, i: int, a: int) -> SectionPoly:
    """Section ``w_i^A`` of ``O(1, -E_i)``: polynomial ``z^A - p_i^A z2``."""
    if a not in (0, 1):
        raise ValueError(f"pair index {a} out of range 0..1")
    if not 1 <= i <= ctx.n:
        raise ValueError(f"exceptional index {i} out of range 1..{ctx.n}")
    q = [0] * ctx.n
    q[i - 1] = -1
    z = _ring().gens
    return SectionPoly(DivisorClass(1, q), z[a] - z[2].mul_ground(ctx._ring_points[i - 1][a]),
                       ctx)


def lambda_section(ctx: BlowupPoints, i: int) -> SectionPoly:
    """Section ``lambda_i`` of ``O(0, E_i)``: the constant polynomial 1."""
    if not 1 <= i <= ctx.n:
        raise ValueError(f"exceptional index {i} out of range 1..{ctx.n}")
    q = [0] * ctx.n
    q[i - 1] = 1
    return SectionPoly(DivisorClass(0, q), _ring().one, ctx)


def const_section(ctx: BlowupPoints, value: Rational) -> SectionPoly:
    """Constant section of the trivial bundle."""
    return SectionPoly(DivisorClass(0, [0] * ctx.n), _to_ring(value), ctx)


def zero_section(ctx: BlowupPoints, bidegree: DivisorClass) -> SectionPoly:
    """The zero section, shape-typed by an explicit bidegree."""
    return SectionPoly(bidegree, _ring().zero, ctx)
