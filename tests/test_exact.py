"""Property tests of the exact scalars against a Fraction-pair reference."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochsg.errors import NonFiniteValue
from stochsg.exact import CR_I, CR_ONE, Coeff, CRat

fractions = st.fractions(max_denominator=10 ** 6).filter(
    lambda q: abs(q.numerator) < 10 ** 12)
scalars = st.one_of(st.integers(-10 ** 9, 10 ** 9), fractions)


@st.composite
def pairs(draw):
    """A complex rational as a (re, im) pair of Fractions."""
    return draw(fractions), draw(fractions)


def crat(z) -> CRat:
    return CRat.of(*z)


def value(c: CRat) -> tuple[Fraction, Fraction]:
    return c.re, c.im


def ref_mul(z, w):
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


class TestCRat:
    @given(scalars, scalars)
    def test_of(self, re, im):
        assert value(CRat.of(re, im)) == (Fraction(re), Fraction(im))
        assert value(CRat.of(re)) == (Fraction(re), 0)

    def test_of_normalizes(self):
        c = CRat.of(Fraction(2, 4), Fraction(-6, 8))
        assert (c.a, c.b, c.d) == (2, -3, 4)
        assert CRat.of(Fraction(2, 4)) == CRat.of(Fraction(1, 2))
        assert (CRat.of(0).a, CRat.of(0).b, CRat.of(0).d) == (0, 0, 1)

    @given(pairs(), pairs())
    def test_ring_operations(self, z, w):
        x, y = crat(z), crat(w)
        assert value(x + y) == (z[0] + w[0], z[1] + w[1])
        assert value(x - y) == (z[0] - w[0], z[1] - w[1])
        assert value(x * y) == ref_mul(z, w)
        assert value(-x) == (-z[0], -z[1])

    @given(pairs(), scalars)
    def test_mixed_operations(self, z, q):
        x, q_ = crat(z), Fraction(q)
        assert value(x + q) == value(q + x) == (z[0] + q_, z[1])
        assert value(x - q) == (z[0] - q_, z[1])
        assert value(q - x) == (q_ - z[0], -z[1])
        assert value(x * q) == value(q * x) == (z[0] * q_, z[1] * q_)

    @given(pairs())
    def test_is_zero(self, z):
        assert crat(z).is_zero() == (z == (0, 0))
        assert (crat(z) - crat(z)).is_zero()

    @given(pairs(), pairs())
    def test_eq_and_hash_agree(self, z, w):
        # the same value reached by different roads
        x = crat(z)
        y = (crat(z) + crat(w)) - crat(w)
        assert x == y and hash(x) == hash(y)
        assert (x == crat(w)) == (z == w)

    @given(st.integers(1, 10 ** 6), pairs())
    def test_unnormalized_inputs(self, k, z):
        scaled = CRat.of(Fraction(z[0].numerator * k, z[0].denominator * k),
                         Fraction(z[1].numerator * k, z[1].denominator * k))
        assert scaled == crat(z) and hash(scaled) == hash(crat(z))

    @given(pairs())
    def test_as_complex_is_bit_equal(self, z):
        c = crat(z).as_complex()
        assert c.real == float(z[0]) and c.imag == float(z[1])
        assert repr(c) == repr(float(z[0]) + 1j * float(z[1]))

    @given(fractions, st.integers(0, 3))
    def test_as_fraction_ipow(self, q, k):
        q = abs(q)
        c = CRat.i_power(k) * q
        got_q, got_k = c.as_fraction_ipow()
        assert got_q == q
        if q:
            assert got_k == k
        assert c == CRat.i_power(got_k) * got_q

    @given(fractions.filter(bool), fractions.filter(bool))
    def test_as_fraction_ipow_mixture(self, re, im):
        with pytest.raises(ValueError):
            CRat.of(re, im).as_fraction_ipow()

    def test_i_powers(self):
        assert CRat.i_power(0) == CR_ONE and CRat.i_power(1) == CR_I
        assert CR_I * CR_I == CRat.of(-1) == CRat.i_power(-2)


class TestCoeff:
    def test_value_overflow_is_typed(self):
        with pytest.raises(NonFiniteValue):
            Coeff(CR_ONE, hbar_pow=-1).value(1.0, 1e-320)

    def test_value_at_hbar_zero(self):
        with pytest.raises(ZeroDivisionError):
            Coeff(CR_ONE, hbar_pow=-1).value(1.0, 0.0)
        assert Coeff(CR_I, a_pow=2).value(2.0, 0.0) == 4j
