"""Exact sections of line bundles ``O(p, q)`` on the blow-up.

A section is stored through its image under the trivialisation away from the
exceptional divisors: a homogeneous polynomial of degree ``p`` in the plane
coordinates ``z0, z1, z2`` with rational coefficients.  The trivialisation is
injective (the complement of the exceptional set is dense), so equality of
sections is plain polynomial equality and no elimination machinery is needed.

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
``lambda^(-q_i)`` in ``poly(p_i + lambda w, 1)``.  This makes ``lambda_i``
vanish on ``E_i`` and makes ``w_i^A`` restrict to the homogeneous coordinates
of ``E_i``, and it is multiplicative, so joint ranks of matrices with a common
frame are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, TypeVar

from .errors import AmbiguousPointError, DimensionMismatchError, MalformedSectionError
from .lattice import DivisorClass

Rational = Fraction | int
Monomial = tuple[int, int, int]

#: Invariant checking on construction; cheap at this project's scale.
VERIFY_INVARIANTS = True

T = TypeVar("T")


def lower_pair(pair: tuple[T, T]) -> tuple[T, T]:
    """Lower a two-component index: ``(x^0, x^1) -> (-x^1, x^0)``."""
    x0, x1 = pair
    return (-x1, x0)


def raise_pair(pair: tuple[T, T]) -> tuple[T, T]:
    """Inverse of :func:`lower_pair`: ``(x_0, x_1) -> (x_1, -x_0)``."""
    x0, x1 = pair
    return (x1, -x0)


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class BlowupPoints:
    """The (pairwise distinct, affine) centres of the blow-up."""

    points: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, points: Iterable[tuple[Rational, Rational]]):
        pts = tuple((_frac(a), _frac(b)) for a, b in points)
        if len(set(pts)) != len(pts):
            raise ValueError("blow-up points must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def coordinate(self, i: int, a: int) -> Fraction:
        """Affine coordinate ``p_i^A`` (i is 1-based, A in {0, 1})."""
        return self.points[i - 1][a]


def _poly_mul(f: dict[Monomial, Fraction], g: dict[Monomial, Fraction]):
    out: dict[Monomial, Fraction] = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            c = out.get(m, Fraction(0)) + c1 * c2
            if c:
                out[m] = c
            elif m in out:
                del out[m]
    return out


@dataclass(frozen=True)
class SectionPoly:
    """A section of ``O(bidegree)``, stored as its trivialised polynomial."""

    bidegree: DivisorClass
    coeffs: tuple[tuple[Monomial, Fraction], ...]
    ctx: BlowupPoints

    def __init__(self, bidegree: DivisorClass, coeffs, ctx: BlowupPoints):
        if bidegree.n != ctx.n:
            raise DimensionMismatchError("bidegree length disagrees with point count")
        if not bidegree.is_integral():
            raise ValueError("section bidegree must be integral")
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = coeffs
        clean = {tuple(m): _frac(c) for m, c in items if c != 0}
        object.__setattr__(self, "bidegree", bidegree)
        object.__setattr__(self, "coeffs", tuple(sorted(clean.items())))
        object.__setattr__(self, "ctx", ctx)
        if VERIFY_INVARIANTS:
            self._check_invariants()

    # -- invariants ----------------------------------------------------------

    def _check_invariants(self) -> None:
        p = int(self.bidegree.p)
        for mono, _ in self.coeffs:
            if sum(mono) != p or min(mono) < 0:
                raise MalformedSectionError(
                    f"monomial {mono} is not homogeneous of degree {p}"
                )
        for i, qi in enumerate(self.bidegree.q, start=1):
            if qi < 0 and self.vanishing_order(i) < -qi:
                raise MalformedSectionError(
                    f"section of twist q_{i}={qi} vanishes to order "
                    f"{self.vanishing_order(i)} < {-qi} at point {i}"
                )

    def vanishing_order(self, i: int) -> int:
        """Vanishing order at the blow-up point ``p_i`` (in the chart z2=1)."""
        taylor = self._taylor_at(i)
        if not taylor:
            return int(self.bidegree.p) + 1  # zero section: order beyond degree
        return min(mx + my for (mx, my) in taylor)

    def _taylor_at(self, i: int) -> dict[tuple[int, int], Fraction]:
        """Coefficients of ``poly(p_i^0 + X, p_i^1 + Y, 1)`` in ``Q[X, Y]``."""
        p0, p1 = self.ctx.points[i - 1]
        out: dict[tuple[int, int], Fraction] = {}
        for (e0, e1, e2), c in self.coeffs:
            for u in range(e0 + 1):
                b0 = comb(e0, u) * p0 ** (e0 - u)
                for v in range(e1 + 1):
                    b1 = comb(e1, v) * p1 ** (e1 - v)
                    key = (u, v)
                    val = out.get(key, Fraction(0)) + c * b0 * b1
                    if val:
                        out[key] = val
                    elif key in out:
                        del out[key]
        return out

    # -- ring structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: SectionPoly) -> SectionPoly:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise DimensionMismatchError("sections from different blow-ups")
        if self.bidegree != other.bidegree:
            raise DimensionMismatchError(
                f"adding sections of bidegrees {self.bidegree} and {other.bidegree}"
            )
        out = dict(self.coeffs)
        for m, c in other.coeffs:
            v = out.get(m, Fraction(0)) + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return SectionPoly(self.bidegree, out, self.ctx)

    def __sub__(self, other: SectionPoly) -> SectionPoly:
        return self + other.scale(-1)

    def __neg__(self) -> SectionPoly:
        return self.scale(-1)

    def __mul__(self, other: SectionPoly) -> SectionPoly:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise DimensionMismatchError("sections from different blow-ups")
        return SectionPoly(
            self.bidegree + other.bidegree,
            _poly_mul(dict(self.coeffs), dict(other.coeffs)),
            self.ctx,
        )

    def scale(self, s: Rational) -> SectionPoly:
        s = _frac(s)
        return SectionPoly(
            self.bidegree, {m: s * c for m, c in self.coeffs}, self.ctx
        )

    # -- evaluation ------------------------------------------------------------

    def eval_generic(self, x: tuple[Rational, Rational, Rational]) -> Fraction:
        """Value at a point of the dense chart, in the frame fixed by ``x`` itself.

        The caller chooses the homogeneous representative; only joint ranks of
        matrices evaluated in a common frame are invariant.
        """
        x = tuple(_frac(t) for t in x)
        if all(t == 0 for t in x):
            raise ValueError("(0,0,0) is not a projective point")
        if x[2] != 0:
            affine = (x[0] / x[2], x[1] / x[2])
            if affine in self.ctx.points:
                raise AmbiguousPointError(
                    f"{x} is a blown-up point; evaluate on its exceptional divisor"
                )
        total = Fraction(0)
        for (e0, e1, e2), c in self.coeffs:
            total += c * x[0] ** e0 * x[1] ** e1 * x[2] ** e2
        return total

    def eval_exceptional(self, i: int, w: tuple[Rational, Rational]) -> Fraction:
        """Value at ``(w0 : w1)`` on ``E_i`` in the local ``lambda``-frame.

        Returns the coefficient of ``lambda^(-q_i)`` in
        ``poly(p_i + lambda w, 1)``; in particular 0 whenever ``q_i > 0``.
        """
        if not 1 <= i <= self.ctx.n:
            raise ValueError(f"exceptional index {i} out of range 1..{self.ctx.n}")
        w0, w1 = _frac(w[0]), _frac(w[1])
        if w0 == 0 and w1 == 0:
            raise ValueError("(0,0) is not a point of the exceptional line")
        qi = int(self.bidegree.q[i - 1])
        taylor = self._taylor_at(i)
        by_order: dict[int, Fraction] = {}
        for (mx, my), c in taylor.items():
            v = by_order.get(mx + my, Fraction(0)) + c * w0 ** mx * w1 ** my
            if v:
                by_order[mx + my] = v
            elif mx + my in by_order:
                del by_order[mx + my]
        if qi < 0 and any(order < -qi for order in by_order):
            raise MalformedSectionError(
                f"vanishing order below {-qi} at point {i}; section is malformed"
            )
        if -qi < 0:
            return Fraction(0)
        return by_order.get(-qi, Fraction(0))


# -- constructors ---------------------------------------------------------------


def z_section(ctx: BlowupPoints, a: int) -> SectionPoly:
    """Coordinate section ``z^a`` of ``O(1, 0)``, a in {0, 1, 2}."""
    if a not in (0, 1, 2):
        raise ValueError(f"coordinate index {a} out of range 0..2")
    mono = tuple(1 if t == a else 0 for t in range(3))
    return SectionPoly(DivisorClass(1, [0] * ctx.n), {mono: Fraction(1)}, ctx)


def w_section(ctx: BlowupPoints, i: int, a: int) -> SectionPoly:
    """Section ``w_i^A`` of ``O(1, -E_i)``: polynomial ``z^A - p_i^A z2``."""
    if a not in (0, 1):
        raise ValueError(f"pair index {a} out of range 0..1")
    if not 1 <= i <= ctx.n:
        raise ValueError(f"exceptional index {i} out of range 1..{ctx.n}")
    q = [0] * ctx.n
    q[i - 1] = -1
    mono = (1, 0, 0) if a == 0 else (0, 1, 0)
    return SectionPoly(
        DivisorClass(1, q),
        {mono: Fraction(1), (0, 0, 1): -ctx.coordinate(i, a)},
        ctx,
    )


def lambda_section(ctx: BlowupPoints, i: int) -> SectionPoly:
    """Section ``lambda_i`` of ``O(0, E_i)``: the constant polynomial 1."""
    if not 1 <= i <= ctx.n:
        raise ValueError(f"exceptional index {i} out of range 1..{ctx.n}")
    q = [0] * ctx.n
    q[i - 1] = 1
    return SectionPoly(DivisorClass(0, q), {(0, 0, 0): Fraction(1)}, ctx)


def const_section(ctx: BlowupPoints, value: Rational) -> SectionPoly:
    """Constant section of the trivial bundle."""
    return SectionPoly(
        DivisorClass(0, [0] * ctx.n), {(0, 0, 0): _frac(value)}, ctx
    )


def zero_section(ctx: BlowupPoints, bidegree: DivisorClass) -> SectionPoly:
    """The zero section, shape-typed by an explicit bidegree."""
    return SectionPoly(bidegree, {}, ctx)
