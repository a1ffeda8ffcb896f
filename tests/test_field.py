from __future__ import annotations

from fractions import Fraction

import pytest

from kernel_oracles import trial_division_is_prime
from tamebars.field import (GF2, MAX_PRIME, QQ, FieldError, PrimeField, _is_prime,
                            _strong_probable_prime, field_from_spec)

# the strong pseudoprimes to bases 2, 3 and 5 below 2**31
PSEUDOPRIMES_235 = [25326001, 161304001, 960946321, 1157839381]


def test_rational_basics():
    assert QQ.from_fraction(Fraction("3/2")) == Fraction(3, 2)
    assert QQ.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert QQ.inv(Fraction(-2, 5)) == Fraction(-5, 2)
    assert QQ.to_str(Fraction(-7, 3)) == "-7/3"


def test_rational_zero_division():
    with pytest.raises(FieldError):
        QQ.inv(Fraction(0))


def test_rational_inverse_of_an_int_is_a_fraction():
    # 0.5 == Fraction(1, 2) holds, so the type is asserted too
    for a, want in ((2, Fraction(1, 2)), (-3, Fraction(-1, 3))):
        got = QQ.inv(a)
        assert type(got) is Fraction and got == want
    with pytest.raises(FieldError):
        QQ.inv(0)


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(3) == 2  # 3*2 = 6 = 1 mod 5
    assert f5.neg(2) == 3
    assert f5.from_int(-1) == 4


def test_prime_field_parse_fraction_string():
    f5 = PrimeField(5)
    # "1/2" means 1 * inverse(2) = 3 mod 5
    assert f5.from_fraction(Fraction("1/2")) == 3
    assert GF2.from_fraction(Fraction("1")) == 1


def test_prime_field_rejects_composite_and_huge():
    with pytest.raises(FieldError):
        PrimeField(6)
    with pytest.raises(FieldError):
        PrimeField(2**31 + 11)
    with pytest.raises(FieldError):
        PrimeField(1)


def test_field_from_spec_round_trip():
    assert field_from_spec("Q") is QQ or field_from_spec("Q") == QQ
    f = field_from_spec({"Fp": 7})
    assert isinstance(f, PrimeField) and f.p == 7
    assert f.to_spec() == {"Fp": 7}
    assert QQ.to_spec() == "Q"
    with pytest.raises(FieldError):
        field_from_spec({"Fp": "7"})
    with pytest.raises(FieldError):
        field_from_spec("R")


def test_is_prime_matches_trial_division():
    for n in range(200_000):
        assert _is_prime(n) == trial_division_is_prime(n), n
    for n in [MAX_PRIME - 1, MAX_PRIME - 3, *PSEUDOPRIMES_235]:
        assert _is_prime(n) == trial_division_is_prime(n), n
    assert _is_prime(MAX_PRIME - 1) and not _is_prime(MAX_PRIME - 3)


def test_base_seven_rejects_the_pseudoprimes_to_two_three_and_five():
    for n in PSEUDOPRIMES_235:
        assert all(_strong_probable_prime(n, a) for a in (2, 3, 5)), n
        assert not _strong_probable_prime(n, 7), n
        assert not _is_prime(n)
