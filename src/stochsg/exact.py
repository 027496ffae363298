"""Exact scalar arithmetic for the symbolic layer.

Combinatorial coefficients stay exact (complex rationals together with
integer powers of the vertex charge ``a``, of ``hbar`` and of the coupling
``lambda``) until the final numeric evaluation.  Floating point enters only
through :meth:`Coeff.value`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import NonFiniteValue


def _crat(a: int, b: int, d: int) -> "CRat":
    """(a + i b) / d for d > 0, reduced to lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    c = object.__new__(CRat)
    c.a, c.b, c.d = a, b, d
    return c


class CRat:
    """Complex rational (a + i b) / d with integer numerators a, b over one
    positive denominator d, in lowest terms, so that equal values are equal
    triples.  Instances are immutable; ``re`` and ``im`` read the parts as
    Fractions."""

    __slots__ = ("a", "b", "d")

    @staticmethod
    def of(re=0, im=0) -> "CRat":
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        return _crat(re.numerator * (d // re.denominator),
                     im.numerator * (d // im.denominator), d)

    @staticmethod
    def i_power(k: int) -> "CRat":
        return _I_POWERS[k % 4]

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other) -> "CRat":
        o = other if other.__class__ is CRat else CRat.of(other)
        if self.d == o.d:
            return _crat(self.a + o.a, self.b + o.b, self.d)
        return _crat(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d,
                     self.d * o.d)

    __radd__ = __add__

    def __sub__(self, other) -> "CRat":
        return self + -other

    def __rsub__(self, other) -> "CRat":
        return -self + other

    def __mul__(self, other) -> "CRat":
        if other is CR_ONE:
            return self
        o = other if other.__class__ is CRat else CRat.of(other)
        return _crat(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a,
                     self.d * o.d)

    __rmul__ = __mul__

    def __neg__(self) -> "CRat":
        return _crat(-self.a, -self.b, self.d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CRat):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def as_complex(self) -> complex:
        return self.a / self.d + 1j * (self.b / self.d)

    def as_fraction_ipow(self) -> tuple[Fraction, int]:
        """Write the value as q * i**k; raises if it is a genuine mixture."""
        if self.b == 0:
            return (self.re, 0) if self.a >= 0 else (-self.re, 2)
        if self.a == 0:
            return (self.im, 1) if self.b >= 0 else (-self.im, 3)
        raise ValueError(f"{self} is not of the form q * i**k")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.re}+{self.im}i)"


_I_POWERS = (_crat(1, 0, 1), _crat(0, 1, 1), _crat(-1, 0, 1), _crat(0, -1, 1))
CR_ONE, CR_I = _I_POWERS[:2]


@dataclass(frozen=True)
class Coeff:
    """Exact prefactor ``crat * a**a_pow * hbar**hbar_pow * lam**lam_pow``."""

    crat: CRat = CR_ONE
    a_pow: int = 0
    hbar_pow: int = 0
    lam_pow: int = 0

    def __mul__(self, other) -> "Coeff":
        if isinstance(other, Coeff):
            return Coeff(self.crat * other.crat,
                         self.a_pow + other.a_pow,
                         self.hbar_pow + other.hbar_pow,
                         self.lam_pow + other.lam_pow)
        return Coeff(self.crat * other, self.a_pow, self.hbar_pow, self.lam_pow)

    __rmul__ = __mul__

    def powers_key(self) -> tuple[int, int, int]:
        return (self.a_pow, self.hbar_pow, self.lam_pow)

    def value(self, a: float, hbar: float, lam: float = 1.0) -> complex:
        """The prefactor at (a, hbar, lam); NonFiniteValue if a power
        overflows the float range, ZeroDivisionError for a negative hbar
        power at hbar = 0."""
        if hbar == 0.0 and self.hbar_pow < 0:
            raise ZeroDivisionError("hbar**%d at hbar=0" % self.hbar_pow)
        try:
            return (self.crat.as_complex() * a ** self.a_pow
                    * hbar ** self.hbar_pow * lam ** self.lam_pow)
        except OverflowError as exc:
            raise NonFiniteValue(
                f"a**{self.a_pow} hbar**{self.hbar_pow} lam**{self.lam_pow} "
                f"overflows at a = {a!r}, hbar = {hbar!r}, lam = {lam!r}"
            ) from exc


COEFF_ONE = Coeff()
