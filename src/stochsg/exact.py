"""Exact scalar arithmetic for the symbolic layer.

Combinatorial coefficients stay exact (complex rationals together with
integer powers of the vertex charge ``a``, of ``hbar`` and of the coupling
``lambda``) until the final numeric evaluation.  Floating point enters only
through :meth:`Coeff.value`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class CRat:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re=0, im=0) -> "CRat":
        return CRat(Fraction(re), Fraction(im))

    @staticmethod
    def i_power(k: int) -> "CRat":
        return (CRat.of(1), CRat.of(0, 1), CRat.of(-1), CRat.of(0, -1))[k % 4]

    def __add__(self, other: "CRat") -> "CRat":
        return CRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CRat") -> "CRat":
        return CRat(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "CRat":
        if isinstance(other, CRat):
            return CRat(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)
        q = Fraction(other)
        return CRat(self.re * q, self.im * q)

    __rmul__ = __mul__

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im)

    def conj(self) -> "CRat":
        return CRat(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def as_complex(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def as_fraction_ipow(self) -> tuple[Fraction, int]:
        """Write the value as q * i**k; raises if it is a genuine mixture."""
        if self.im == 0:
            return (self.re, 0) if self.re >= 0 else (-self.re, 2)
        if self.re == 0:
            return (self.im, 1) if self.im >= 0 else (-self.im, 3)
        raise ValueError(f"{self} is not of the form q * i**k")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.re}+{self.im}i)"


CR_ONE = CRat.of(1)
CR_I = CRat.of(0, 1)
CR_ZERO = CRat.of(0)


@dataclass(frozen=True)
class Coeff:
    """Exact prefactor ``crat * a**a_pow * hbar**hbar_pow * lam**lam_pow``."""

    crat: CRat = CR_ONE
    a_pow: int = 0
    hbar_pow: int = 0
    lam_pow: int = 0

    def __mul__(self, other) -> "Coeff":
        if other is COEFF_ONE:
            return self
        if isinstance(other, Coeff):
            return Coeff(self.crat * other.crat,
                         self.a_pow + other.a_pow,
                         self.hbar_pow + other.hbar_pow,
                         self.lam_pow + other.lam_pow)
        return Coeff(self.crat * other, self.a_pow, self.hbar_pow, self.lam_pow)

    __rmul__ = __mul__

    def __neg__(self) -> "Coeff":
        return Coeff(-self.crat, self.a_pow, self.hbar_pow, self.lam_pow)

    def is_zero(self) -> bool:
        return self.crat.is_zero()

    def powers_key(self) -> tuple[int, int, int]:
        return (self.a_pow, self.hbar_pow, self.lam_pow)

    def value(self, a: float, hbar: float, lam: float = 1.0) -> complex:
        if hbar == 0.0 and self.hbar_pow < 0:
            raise ZeroDivisionError("hbar**%d at hbar=0" % self.hbar_pow)
        return (self.crat.as_complex() * a ** self.a_pow
                * hbar ** self.hbar_pow * lam ** self.lam_pow)


COEFF_ONE = Coeff()
