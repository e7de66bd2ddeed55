"""Picard-lattice arithmetic for the n-point blow-up of the projective plane.

The lattice is generated by the line class ``l`` (self-intersection +1) and
the exceptional classes ``E_1 .. E_n`` (self-intersection -1, mutually
orthogonal), so the intersection form is ``diag(+1, -1, ..., -1)``.  On top of
divisor classes this module carries Chern characters truncated at the point
class, both Riemann-Roch formulas used by the monad construction, and the
dimension bookkeeping for the monad's end terms.

Everything is exact: divisor coefficients and point-class coefficients are
``Fraction``s, and Euler characteristics that must be integers are asserted to
be integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    InfeasibleParametersError,
    InternalConsistencyError,
)

Rational = Fraction | int


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class DivisorClass:
    """Class ``p*l + sum_i q_i E_i`` in the Picard lattice of an n-point blow-up."""

    p: Fraction
    q: tuple[Fraction, ...]

    def __init__(self, p: Rational, q: Iterable[Rational] = ()):
        object.__setattr__(self, "p", _frac(p))
        object.__setattr__(self, "q", tuple(_frac(x) for x in q))

    @property
    def n(self) -> int:
        return len(self.q)

    def dot(self, other: DivisorClass) -> Fraction:
        """Intersection number: ``p p' - sum q_i q'_i``."""
        if self.n != other.n:
            raise DimensionMismatchError(
                f"divisors on blow-ups of {self.n} and {other.n} points"
            )
        return self.p * other.p - sum(a * b for a, b in zip(self.q, other.q))

    def __add__(self, other: DivisorClass) -> DivisorClass:
        if self.n != other.n:
            raise DimensionMismatchError("divisor addition across different blow-ups")
        return DivisorClass(self.p + other.p, [a + b for a, b in zip(self.q, other.q)])

    def __sub__(self, other: DivisorClass) -> DivisorClass:
        return self + other.scale(-1)

    def __neg__(self) -> DivisorClass:
        return self.scale(-1)

    def scale(self, s: Rational) -> DivisorClass:
        s = _frac(s)
        return DivisorClass(s * self.p, [s * x for x in self.q])

    def is_integral(self) -> bool:
        return self.p.denominator == 1 and all(x.denominator == 1 for x in self.q)

    def is_zero(self) -> bool:
        return self.p == 0 and all(x == 0 for x in self.q)


def line_class(n: int) -> DivisorClass:
    """The generic-line class ``l`` (the framing line lives in this system)."""
    return DivisorClass(1, [0] * n)


def exceptional_class(n: int, i: int) -> DivisorClass:
    """The class ``E_i`` (1-based index)."""
    if not 1 <= i <= n:
        raise ValueError(f"exceptional index {i} out of range 1..{n}")
    return DivisorClass(0, [1 if j == i - 1 else 0 for j in range(n)])


def canonical_class(n: int) -> DivisorClass:
    """Canonical class ``-3 l + sum_i E_i``."""
    return DivisorClass(-3, [1] * n)


def restriction_degree(d: DivisorClass, curve: str | int) -> Fraction:
    """Degree of ``O(d)`` restricted to the line class (``"linf"``) or to ``E_i``.

    Restriction to a member of ``|l|`` has degree ``p``; restriction to ``E_i``
    has degree ``-q_i``.
    """
    if curve == "linf":
        return d.p
    if isinstance(curve, int):
        if not 1 <= curve <= d.n:
            raise ValueError(f"exceptional index {curve} out of range 1..{d.n}")
        return -d.q[curve - 1]
    raise ValueError(f"unknown curve {curve!r}")


def chi_line(d: DivisorClass) -> Fraction:
    """Euler characteristic of the line bundle ``O(p, q)``.

    ``chi = [(p+1)(p+2) - |q|^2 + sum q_i] / 2``; always an integer for an
    integral class, and non-integrality is treated as an internal bug.
    """
    if not d.is_integral():
        raise ValueError("chi_line needs an integral divisor class")
    chi = ((d.p + 1) * (d.p + 2) - sum(x * x for x in d.q) + sum(d.q)) / 2
    if chi.denominator != 1:
        raise InternalConsistencyError(f"chi_line({d}) is not an integer")
    return chi


@dataclass(frozen=True)
class ChernCharacter:
    """Chern character ``rank + c1 - (point coefficient) * omega``, truncated.

    ``pt`` is the coefficient of the point class ``omega``.  For a line bundle
    ``O(D)`` it equals ``D.D/2``; for the sheaves this project studies, with
    ``c1 = a l + sum a_i E_i``, the normalisation is
    ``pt = -k + (a^2 - |a|^2)/2`` (so ``pt = -(k + |a|^2/2)`` when ``a = 0``).
    """

    rank: int
    c1: DivisorClass
    pt: Fraction

    def __init__(self, rank: int, c1: DivisorClass, pt: Rational):
        if rank < 0:
            raise InfeasibleParametersError("rank must be nonnegative")
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "pt", _frac(pt))

    @property
    def n(self) -> int:
        return self.c1.n

    @classmethod
    def of_line_bundle(cls, d: DivisorClass) -> ChernCharacter:
        return cls(1, d, d.dot(d) / 2)

    @classmethod
    def of_sheaf(cls, rank: int, a_vec: Sequence[Rational], k: Rational,
                 a_line: Rational = 0) -> ChernCharacter:
        """Character with ``c1 = a_line*l + sum a_i E_i`` and instanton number k."""
        a_line = _frac(a_line)
        a_vec = [_frac(x) for x in a_vec]
        c1 = DivisorClass(a_line, a_vec)
        pt = -_frac(k) + (a_line * a_line - sum(x * x for x in a_vec)) / 2
        return cls(rank, c1, pt)

    def twist(self, d: DivisorClass) -> ChernCharacter:
        """Multiply by ``ch(O(d)) = 1 + d + d.d/2``."""
        if self.n != d.n:
            raise DimensionMismatchError("twist across different blow-ups")
        return ChernCharacter(
            self.rank,
            self.c1 + d.scale(self.rank),
            self.pt + self.c1.dot(d) + Fraction(self.rank) * d.dot(d) / 2,
        )

    def chi(self) -> Fraction:
        """Euler characteristic via Riemann-Roch: ``rank + c1.(-K)/2 + pt``."""
        k_class = canonical_class(self.n)
        return Fraction(self.rank) + self.c1.dot(k_class.scale(-1)) / 2 + self.pt


def chi_twisted(ch: ChernCharacter, d: DivisorClass) -> Fraction:
    """Euler characteristic of the sheaf twisted by ``O(p, q)``, closed form.

    With ``c1 = a l + sum a_i E_i`` and instanton number ``k`` read off from
    ``ch``, this evaluates

        chi = -[k - (a/2)(a+3) + (1/2) sum a_i (a_i - 1)]
              + (r/2) [(p+1)(p+2) - sum q_i (q_i - 1)]
              + [a p - sum a_i q_i]

    which agrees with ``ch.twist(d).chi()``; the two routes are kept separate
    as mutual cross-checks.
    """
    if ch.n != d.n:
        raise DimensionMismatchError("twist across different blow-ups")
    zero = Fraction(0)
    a = ch.c1.p
    a_vec = ch.c1.q
    k = -ch.pt + (a * a - sum((x * x for x in a_vec), zero)) / 2
    r = Fraction(ch.rank)
    p, q = d.p, d.q
    return (
        -(k - a * (a + 3) / 2 + sum((x * (x - 1) for x in a_vec), zero) / 2)
        + r * ((p + 1) * (p + 2) - sum((x * (x - 1) for x in q), zero)) / 2
        + (a * p - sum((x * y for x, y in zip(a_vec, q)), zero))
    )


@dataclass(frozen=True)
class MonadDims:
    """Dimensions of the monad end terms for parameters (r, a, k).

    ``dim_k[0] = k + (|a|^2 + abar)/2`` and ``dim_l[0] = k + (|a|^2 - abar)/2``;
    for i >= 1, ``dim_k[i] = dim_k[0] - a_i`` and ``dim_l[i] = dim_k[0]``.
    The two sides always balance, and the middle term has rank
    ``2 * sum(dim_l) + r``.
    """

    rank: int
    a_vec: tuple[int, ...]
    k: int
    dim_k: tuple[int, ...]
    dim_l: tuple[int, ...]
    rank_w: int

    @property
    def n(self) -> int:
        return len(self.a_vec)

    @property
    def total_k(self) -> int:
        return sum(self.dim_k)

    @property
    def total_l(self) -> int:
        return sum(self.dim_l)


def monad_dims(r: int, a_vec: Sequence[int], k: int) -> MonadDims:
    """Compute and validate the end-term dimensions; reject infeasible input."""
    if r < 1:
        raise InfeasibleParametersError(f"rank must be >= 1, got {r}")
    a_vec = tuple(int(x) for x in a_vec)
    k = int(k)
    norm2 = sum(x * x for x in a_vec)
    abar = sum(a_vec)
    # (|a|^2 + abar)/2 = sum a_i(a_i+1)/2 is always an integer.
    k0 = k + (norm2 + abar) // 2
    l0 = k + (norm2 - abar) // 2
    dim_k = (k0,) + tuple(k0 - a for a in a_vec)
    dim_l = (l0,) + tuple(k0 for _ in a_vec)
    if any(x < 0 for x in dim_k + dim_l):
        raise InfeasibleParametersError(
            f"(r={r}, a={a_vec}, k={k}) forces a negative dimension: "
            f"K={dim_k}, L={dim_l}"
        )
    if sum(dim_k) != sum(dim_l):
        raise InternalConsistencyError("monad end terms do not balance")
    return MonadDims(
        rank=r,
        a_vec=a_vec,
        k=k,
        dim_k=dim_k,
        dim_l=dim_l,
        rank_w=2 * sum(dim_l) + r,
    )


def moduli_dim_formulas(r: int, a_vec: Sequence[int], k: int) -> tuple[int, int]:
    """Both published closed forms for the moduli dimension.

    Returns ``(2 r (k + |a|^2/2) - |a|^2, 2 (k + |a|^2/2) - sum |a_i|)``.
    These disagree in general (for example at r=2, n=0, k=1); the empirical
    tangent computation adjudicates between them.
    """
    a_vec = tuple(int(x) for x in a_vec)
    norm2 = sum(x * x for x in a_vec)
    abstract = 2 * r * k + (r - 1) * norm2
    section3 = 2 * k + norm2 - sum(abs(x) for x in a_vec)
    return abstract, section3
