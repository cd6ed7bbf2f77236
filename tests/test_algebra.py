import random

import pytest

from rollsim import algebra
from rollsim.algebra import (
    DEFAULT_PRIME,
    DivisionByZeroPolynomial,
    DuplicateAbscissa,
    Field,
    InversionOfZero,
    PairingGroup,
    Polynomial,
    is_prime,
    poly_interpolate,
)

F13 = Field(13)
F = Field(DEFAULT_PRIME)


class TestFieldInverse:
    def test_identity(self):
        assert F13(1).inverse() == F13(1)
        assert F(1).inverse() == F(1)

    def test_inverse_of_five_mod_13_exhaustive(self):
        # independent oracle: search all residues for the inverse
        expected = next(b for b in range(1, 13) if (5 * b) % 13 == 1)
        assert expected == 8
        assert F13(5).inverse() == F13(expected)

    def test_zero_raises(self):
        with pytest.raises(InversionOfZero):
            F13(0).inverse()

    def test_mul_inverse_roundtrip(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = F.random(rng), F.random(rng)
            if b.value == 0:
                continue
            assert (a * b) * b.inverse() == a


class TestInterpolation:
    def test_textbook_parabola(self):
        # A_1 from the worked example: through (1,0), (2,0), (3,8)
        poly = poly_interpolate(F, [(1, 0), (2, 0), (3, 8)])
        assert poly == Polynomial(F, [8, -12, 4])

    def test_single_point_constant(self):
        poly = poly_interpolate(F, [(5, 7)])
        assert poly == Polynomial(F, [7])

    def test_square_points(self):
        poly = poly_interpolate(F, [(1, 1), (2, 4), (3, 9)])
        for x in (1, 2, 3, 17):
            assert poly(x) == F(x * x)
        assert poly == Polynomial(F, [0, 0, 1])

    @pytest.mark.parametrize("second", [1, 1 + DEFAULT_PRIME, F(1)])
    def test_duplicate_abscissa(self, second):
        # congruent abscissas are the same point, whatever their form
        with pytest.raises(DuplicateAbscissa):
            poly_interpolate(F, [(1, 1), (second, 2)])

    def test_interpolate_evaluate_identity(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(1, 8)
            coeffs = [rng.randrange(DEFAULT_PRIME) for _ in range(n)]
            poly = Polynomial(F, coeffs)
            xs = rng.sample(range(1, 100), n)
            points = [(x, poly(x)) for x in xs]
            assert poly_interpolate(F, points) == poly


class TestPolyDivmod:
    def test_worked_example_quotient(self):
        p = Polynomial(F, [36, -6, -74, 54, -10])
        z = Polynomial(F, [-6, 11, -6, 1])
        quot, rem = p.divmod(z)
        assert quot == Polynomial(F, [-6, -10])
        assert rem.is_zero()

    def test_x_squared_by_x(self):
        quot, rem = Polynomial(F, [0, 0, 1]).divmod(Polynomial(F, [0, 1]))
        assert quot == Polynomial(F, [0, 1])
        assert rem.is_zero()

    def test_with_remainder(self):
        quot, rem = Polynomial(F, [1, 0, 1]).divmod(Polynomial(F, [0, 1]))
        assert quot == Polynomial(F, [0, 1])
        assert rem == Polynomial(F, [1])

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZeroPolynomial):
            Polynomial(F, [1]).divmod(Polynomial(F, []))

    def test_reconstruction_property(self):
        rng = random.Random(3)
        for _ in range(50):
            f = Polynomial(F, [rng.randrange(DEFAULT_PRIME) for _ in range(rng.randrange(0, 7))])
            g = Polynomial(F, [rng.randrange(DEFAULT_PRIME) for _ in range(rng.randrange(1, 5))])
            if g.is_zero():
                continue
            q, r = f.divmod(g)
            assert g * q + r == f
            assert r.degree < g.degree


class TestRationalDisplay:
    def test_half(self):
        half = F(1) / F(2)
        assert half.as_rational() == __import__("fractions").Fraction(1, 2)

    def test_negative(self):
        assert F(-3).as_rational() == -3

    def test_poly_to_rationals(self):
        poly = Polynomial.from_rationals(F, [(1, 2), (-5, 2), 3])
        assert poly.to_rationals() == (
            __import__("fractions").Fraction(1, 2),
            __import__("fractions").Fraction(-5, 2),
            __import__("fractions").Fraction(3),
        )


class TestGroupOracle:
    group = PairingGroup(DEFAULT_PRIME)

    def test_encrypt_zero_is_identity(self):
        assert self.group.encrypt(0) == self.group.identity

    def test_homomorphic_addition(self):
        rng = random.Random(5)
        for _ in range(50):
            a, b = rng.randrange(2**64), rng.randrange(2**64)
            assert self.group.encrypt(a) * self.group.encrypt(b) == self.group.encrypt(a + b)

    def test_order_wraps(self):
        assert self.group.encrypt(self.group.order) == self.group.identity

    def test_pow_clear(self):
        a, b = 1234567, 89
        assert self.group.encrypt(a).pow_clear(b) == self.group.encrypt(a * b)

    def test_div_self_identity(self):
        x = self.group.encrypt(42)
        assert x / x == self.group.identity

    def test_mul_examples(self):
        g = self.group
        assert g.encrypt(2) * g.encrypt(3) == g.encrypt(5)

    def test_pairing_symmetric(self):
        g = self.group
        assert g.pairing(g.encrypt(2), g.encrypt(3)) == g.pairing(g.encrypt(3), g.encrypt(2))
        assert g.pairing(g.encrypt(2), g.encrypt(3)) == g.pairing(g.encrypt(1), g.encrypt(6))

    def test_pairing_identity_absorbs(self):
        g = self.group
        assert g.pairing(g.encrypt(77), g.identity) == g.pairing(g.identity, g.identity)

    def test_pairing_bilinearity(self):
        g = self.group
        rng = random.Random(9)
        for _ in range(30):
            a, b, c = (rng.randrange(g.order) for _ in range(3))
            x, y = g.encrypt(a), g.encrypt(b)
            assert g.pairing(x.pow_clear(c), y) == g.pairing(x, y).pow_clear(c)

    def test_exponent_not_in_public_interface(self):
        """Interface audit: no public attribute exposes the exponent."""
        x = self.group.encrypt(7)
        public = {name for name in dir(x) if not name.startswith("_")}
        assert public <= {"pow_clear", "to_hex"}

    def test_composite_order_rejected(self):
        with pytest.raises(ValueError, match="^group order must be prime$"):
            PairingGroup(15)
        with pytest.raises(ValueError, match="^group order must be prime$"):
            PairingGroup(341)  # 11 * 31 passes a Fermat base-2 check

    def test_scalar_field_built_with_one_primality_test(self, monkeypatch):
        tested = []
        monkeypatch.setattr(algebra, "is_prime", lambda n: tested.append(n) or True)
        group = PairingGroup(1009)
        assert tested == [1009]
        assert isinstance(group.field, Field) and group.field == Field(1009)
        assert group.field.prime == group.order


class TestIsPrime:
    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [n for n in range(-3, 5000) if is_prime(n)] == [
            n for n in range(-3, 5000) if trial(n)
        ]

    def test_pseudoprimes_rejected(self):
        # Fermat base 2, Carmichael, and strong pseudoprime to bases 2, 3, 5, 7
        for n in (341, 561, 3215031751):
            assert not is_prime(n)

    def test_large_primes(self):
        for n in (DEFAULT_PRIME, 2**61 - 1, 2**127 - 1):
            assert is_prime(n)
        assert not is_prime((2**61 - 1) * (2**31 - 1))
