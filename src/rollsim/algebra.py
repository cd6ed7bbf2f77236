"""Prime-field arithmetic, polynomials, and a pairing-capable group oracle.

Every proof system in this package runs over ``Field``/``Polynomial``. The
group is not an elliptic curve: it is an exponent-bookkeeping oracle that
preserves the algebraic laws a discrete-log group provides (add exponents
under multiplication, scalar powers by known constants, a symmetric bilinear
pairing) while keeping the exponent out of the public interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

# Goldilocks prime, 2^64 - 2^32 + 1. Large enough that probabilistic checks
# (Freivalds, fingerprinting) have negligible error at desk scale.
DEFAULT_PRIME = 18446744069414584321

# Miller-Rabin with these bases is exact below 318665857834031151167461 (~3.2e23),
# the least strong pseudoprime to all of them
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Fixed-base Miller-Rabin; larger inputs are probable primes."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class InversionOfZero(ZeroDivisionError):
    """Multiplicative inverse of the zero element was requested."""


class DuplicateAbscissa(ValueError):
    """Interpolation points share an x-coordinate."""


class DivisionByZeroPolynomial(ZeroDivisionError):
    """Polynomial division by the zero polynomial."""


class Field:
    """The prime field F_p for a fixed prime ``p``."""

    __slots__ = ("prime",)

    def __init__(self, prime: int):
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        self.prime = prime

    def __call__(self, value: int | "FieldElement") -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is not self and value.field.prime != self.prime:
                raise ValueError("element belongs to a different field")
            return value
        return FieldElement(value % self.prime, self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.prime == self.prime

    def __hash__(self) -> int:
        return hash(("Field", self.prime))

    def __repr__(self) -> str:
        return f"Field({self.prime})"

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def random(self, rng) -> "FieldElement":
        return FieldElement(rng.randrange(self.prime), self)


class FieldElement:
    """An immutable residue modulo the field prime."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: Field):
        object.__setattr__(self, "value", value % field.prime)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field.prime != self.field.prime:
                raise ValueError("mixed-field arithmetic")
            return other
        if isinstance(other, int):
            return FieldElement(other, self.field)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value + o.value, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value - o.value, self.field)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(o.value - self.value, self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value * o.value, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.field)

    def __pow__(self, exponent: int):
        return FieldElement(pow(self.value, exponent, self.field.prime), self.field)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise InversionOfZero("0 has no multiplicative inverse")
        return FieldElement(pow(self.value, -1, self.field.prime), self.field)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.value == other.value and self.field.prime == other.field.prime
        if isinstance(other, int):
            return self.value == other % self.field.prime
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.field.prime))

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value}"

    def as_rational(self) -> Fraction:
        """Map back to the small rational this residue most plausibly encodes.

        Searches denominators 1..64 for num/den with |num| <= 10^9 such that
        num * den^-1 equals this element. Used to display field-encoded QAP
        coefficients against their textbook fractional form.
        """
        from fractions import Fraction

        p, max_num = self.field.prime, 10**9
        for den in range(1, 65):
            num = (self.value * den) % p
            if num <= max_num:
                return Fraction(num, den)
            if p - num <= max_num:
                return Fraction(-(p - num), den)
        raise ValueError(f"{self.value} has no small rational preimage")


class Polynomial:
    """A polynomial over a prime field, coefficients lowest-degree first.

    Canonical form: no trailing zero coefficients; the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[FieldElement | int]):
        cs = [field(c) for c in coeffs]
        while cs and cs[-1].value == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.prime, tuple(c.value for c in self.coeffs)))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.field.zero
        return Polynomial(
            self.field,
            [
                (self.coeffs[i] if i < len(self.coeffs) else zero)
                + (other.coeffs[i] if i < len(other.coeffs) else zero)
                for i in range(n)
            ],
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            k = self.field(other)
            return Polynomial(self.field, [c * k for c in self.coeffs])
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def __call__(self, x: FieldElement | int) -> FieldElement:
        x = self.field(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, den: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Euclidean division: self = den * quotient + remainder."""
        if den.is_zero():
            raise DivisionByZeroPolynomial("division by the zero polynomial")
        if self.degree < den.degree:
            return Polynomial(self.field, []), self
        rem = list(self.coeffs)
        quot = [self.field.zero] * (self.degree - den.degree + 1)
        lead_inv = den.coeffs[-1].inverse()
        for shift in range(len(quot) - 1, -1, -1):
            q = rem[shift + den.degree] * lead_inv
            quot[shift] = q
            for i, d in enumerate(den.coeffs):
                rem[shift + i] = rem[shift + i] - q * d
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def to_rationals(self) -> tuple[Fraction, ...]:
        return tuple(c.as_rational() for c in self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.value == 0:
                continue
            terms.append(f"{c.value}" if i == 0 else f"{c.value}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    @classmethod
    def from_rationals(cls, field: Field, fracs: Sequence[Fraction | int | tuple[int, int]]) -> "Polynomial":
        from fractions import Fraction

        coeffs = []
        for f in fracs:
            if isinstance(f, tuple):
                f = Fraction(*f)
            f = Fraction(f)
            coeffs.append(field(f.numerator) / field(f.denominator))
        return cls(field, coeffs)

    @classmethod
    def vanishing(cls, field: Field, points: Sequence[FieldElement | int]) -> "Polynomial":
        """The monic polynomial with roots exactly at ``points``."""
        p = field.prime
        coeffs = [1]
        for x in points:
            x = field(x).value
            # times (X - x): coefficient k becomes the old k - 1 minus x times the old k
            coeffs = [(lo - x * hi) % p for lo, hi in zip([0, *coeffs], [*coeffs, 0])]
        return cls(field, coeffs)


class LagrangeBasis:
    """The Lagrange polynomials L_0..L_{m-1} over m distinct abscissas x_j,
    with L_i(x_j) = 1 if i == j else 0.

    Built once, in O(m^2) field operations and one inversion per polynomial:
    each L_i is Z(x) / (x - x_i), from one synthetic division of the
    vanishing polynomial Z, kept as ``vanishing``, scaled by the inverse of
    its value at x_i. Every polynomial of degree below m is then
    ``interpolate`` of its values at the abscissas, a sum over the nonzero
    ones.
    """

    __slots__ = ("field", "vanishing", "rows")

    def __init__(self, field: Field, xs: Iterable[FieldElement | int]):
        p = field.prime
        xs = [field(x).value for x in xs]
        if len(set(xs)) != len(xs):
            raise DuplicateAbscissa("interpolation points share an x-coordinate")
        self.vanishing = Polynomial.vanishing(field, xs)
        z = [c.value for c in self.vanishing.coeffs]
        rows = []
        for xi in xs:
            # Z(x) / (x - xi) by synthetic division from the top coefficient
            quotient = [0] * len(xs)
            carry = 0
            for k in range(len(xs), 0, -1):
                carry = quotient[k - 1] = (z[k] + xi * carry) % p
            denom = 1
            for xj in xs:
                if xj != xi:
                    denom = denom * (xi - xj) % p
            inv = pow(denom, -1, p)
            rows.append([c * inv % p for c in quotient])
        self.field = field
        self.rows = rows

    def interpolate(self, ys: Sequence[FieldElement | int]) -> Polynomial:
        """The polynomial of degree below m with value ``ys[i]`` at x_i: the
        sum of ys[i] * L_i over the nonzero ys[i]."""
        field = self.field
        acc = [0] * len(self.rows)
        for y, row in zip(ys, self.rows, strict=True):
            y = field(y).value
            if y:
                for k, c in enumerate(row):
                    acc[k] += y * c
        return Polynomial(field, acc)


def poly_interpolate(
    field: Field, points: Sequence[tuple[FieldElement | int, FieldElement | int]]
) -> Polynomial:
    """Lagrange interpolation through ``points``, as the sum of y_i * L_i over
    their ``LagrangeBasis``; x-coordinates must be distinct, else
    ``DuplicateAbscissa``."""
    return LagrangeBasis(field, [x for x, _ in points]).interpolate([y for _, y in points])


# --- group oracle -----------------------------------------------------------

# Odd 64-bit constants for the opaque wire encoding of group elements. The
# affine map stands in for a curve-point encoding: deterministic, invertible
# by the group itself, and not the raw exponent.
_ENC_MULT = 0x9E3779B97F4A7C15
_ENC_SHIFT = 0xD1B54A32D192ED03


class PairingGroup:
    """A cyclic group of prime order with a symmetric bilinear pairing.

    Elements are exponents of an abstract generator g, retained internally
    and reachable only through the group laws, equality, and ``pairing``.
    ``field`` is the scalar field F_order, built with the group, so the order
    is tested for primality once and every prover or pipeline over the group
    shares it.
    """

    __slots__ = ("order", "field", "_mult", "_shift")

    def __init__(self, order: int = DEFAULT_PRIME):
        try:
            self.field = Field(order)
        except ValueError:
            raise ValueError("group order must be prime") from None
        self.order = order
        self._mult = _ENC_MULT % order or 1
        self._shift = _ENC_SHIFT % order

    def __eq__(self, other) -> bool:
        return isinstance(other, PairingGroup) and other.order == self.order

    def __hash__(self) -> int:
        return hash(("PairingGroup", self.order))

    def encrypt(self, exponent: int | FieldElement) -> "GroupElement":
        """g^exponent; equal results iff exponents are congruent mod the order."""
        if isinstance(exponent, FieldElement):
            exponent = exponent.value
        return GroupElement(self, exponent)

    @property
    def identity(self) -> "GroupElement":
        return GroupElement(self, 0)

    @property
    def generator(self) -> "GroupElement":
        return GroupElement(self, 1)

    def pairing(self, a: "GroupElement", b: "GroupElement") -> "TargetElement":
        """e(g^a, g^b) = e(g,g)^(a*b); symmetric and bilinear."""
        if a._group is not self or b._group is not self:
            raise ValueError("pairing arguments from a different group")
        return TargetElement(self, (a._exponent() * b._exponent()) % self.order)


class GroupElement:
    """g^x for a hidden exponent x; supports *, /, pow_clear and equality."""

    __slots__ = ("_group", "__exp")

    def __init__(self, group: PairingGroup, exponent: int):
        self._group = group
        self.__exp = exponent % group.order

    def _exponent(self) -> int:
        # module-internal accessor for the pairing oracle; not public API
        return self.__exp

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self._group, self.__exp + other._exponent())

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self._group, self.__exp - other._exponent())

    def pow_clear(self, scalar: int | FieldElement) -> "GroupElement":
        """Raise to a *known* scalar: (g^a)^b = g^(a*b)."""
        if isinstance(scalar, FieldElement):
            scalar = scalar.value
        return GroupElement(self._group, self.__exp * scalar)

    def _check(self, other: "GroupElement") -> None:
        if not isinstance(other, GroupElement) or other._group.order != self._group.order:
            raise ValueError("mixed-group operation")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and other._group.order == self._group.order
            and other._exponent() == self.__exp
        )

    def __hash__(self) -> int:
        return hash(("G", self._group.order, self.__exp))

    def to_hex(self) -> str:
        enc = (self.__exp * self._group._mult + self._group._shift) % self._group.order
        return f"{enc:x}"

    def __repr__(self) -> str:
        return f"GroupElement(0x{self.to_hex()})"


class TargetElement:
    """e(g,g)^x in the pairing co-domain; no further pairing applies."""

    __slots__ = ("_group", "__exp")

    def __init__(self, group: PairingGroup, exponent: int):
        self._group = group
        self.__exp = exponent % group.order

    def __mul__(self, other: "TargetElement") -> "TargetElement":
        return TargetElement(self._group, self.__exp + other.__exp)

    def pow_clear(self, scalar: int | FieldElement) -> "TargetElement":
        if isinstance(scalar, FieldElement):
            scalar = scalar.value
        return TargetElement(self._group, self.__exp * scalar)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TargetElement)
            and other._group.order == self._group.order
            and other._TargetElement__exp == self.__exp
        )

    def __hash__(self) -> int:
        return hash(("GT", self._group.order, self.__exp))

    def __repr__(self) -> str:
        return f"TargetElement(order={self._group.order})"
