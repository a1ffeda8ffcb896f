"""Exact coefficient fields: the rationals and prime fields GF(p).

Every computation in this package runs over one of these two field
implementations.  Field elements are plain Python objects (`fractions.Fraction`
for Q, `int` residues in ``[0, p)`` for GF(p)) and the field object carries the
arithmetic, so matrices stay lightweight lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Union

Scalar = Union[Fraction, int]

MAX_PRIME = 2**31


class FieldError(ValueError):
    """Raised for invalid field specifications or non-invertible divisions."""


def _strong_probable_prime(n: int, a: int) -> bool:
    """Whether an odd n > 2 passes the strong Fermat test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to bases 2, 3, 5 and 7, exact for every
    n below 3,215,031,751 (the least strong pseudoprime to all four), which
    covers every modulus below MAX_PRIME."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    return all(_strong_probable_prime(n, a) for a in (2, 3, 5, 7))


@dataclass(frozen=True)
class Rationals:
    """The field Q with `fractions.Fraction` elements."""

    name: str = "Q"
    zero: ClassVar[Fraction] = Fraction(0)
    one: ClassVar[Fraction] = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise FieldError("division by zero in Q")
        return Fraction(1, a)

    def from_fraction(self, q: Fraction) -> Fraction:
        return q

    def to_str(self, a: Fraction) -> str:
        return str(a)

    def to_spec(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime p < 2**31, elements stored as ints in [0, p)."""

    p: int
    zero: ClassVar[int] = 0
    one: ClassVar[int] = 1

    def __post_init__(self):
        if not (2 <= self.p < MAX_PRIME) or not _is_prime(self.p):
            raise FieldError(f"modulus must be a prime below 2**31, got {self.p}")

    @property
    def name(self) -> str:
        return f"GF({self.p})"

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise FieldError(f"division by zero in GF({self.p})")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return (a * self.inv(b)) % self.p

    def from_fraction(self, q: Fraction) -> int:
        # "p/q" means p * q^-1
        return self.div(self.from_int(q.numerator), self.from_int(q.denominator))

    def to_str(self, a: int) -> str:
        return str(a % self.p)

    def to_spec(self):
        return {"Fp": self.p}


Field = Union[Rationals, PrimeField]

QQ = Rationals()
GF2 = PrimeField(2)


def field_from_spec(spec) -> Field:
    """Build a field from its JSON form: ``"Q"`` or ``{"Fp": p}``."""
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        p = spec["Fp"]
        if not isinstance(p, int):
            raise FieldError(f"Fp modulus must be an integer, got {p!r}")
        return PrimeField(p)
    raise FieldError(f"unrecognized field spec: {spec!r}")
