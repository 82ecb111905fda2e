import pytest

from evalcodes import FieldMismatchError, PrimeField
from evalcodes.field import check_int64_products


def test_rejects_composite_and_bad_sizes():
    for q in (0, 1, 4, 6, 9, 12, -3):
        with pytest.raises(ValueError):
            PrimeField(q)


def test_small_primes_accepted():
    for q in (2, 3, 5, 7, 11, 13):
        assert PrimeField(q).q == q


def test_arithmetic_examples():
    F3, F5 = PrimeField(3), PrimeField(5)
    assert int(F3(2) + F3(2)) == 1
    assert int(F5(3) * F5(4)) == 2
    assert int(-F3(0)) == 0
    assert int(F5(2).inv()) == 3
    assert int(F3(2).inv()) == 2
    assert int(F5(1).inv()) == 1


def test_elements_listing():
    assert [int(a) for a in PrimeField(3).nonzero_elements()] == [1, 2]
    assert [int(a) for a in PrimeField(5).nonzero_elements()] == [1, 2, 3, 4]
    assert [int(a) for a in PrimeField(2).nonzero_elements()] == [1]
    assert [int(a) for a in PrimeField(3).elements()] == [0, 1, 2]


def test_field_axioms_exhaustive():
    for q in (2, 3, 5, 7):
        F = PrimeField(q)
        elems = F.elements()
        for a in elems:
            assert int(a + F.zero()) == int(a)
            assert int(a * F.one()) == int(a)
            assert int(a + (-a)) == 0
            for b in elems:
                assert int(a + b) == (int(a) + int(b)) % q
                assert int(a * b) == (int(a) * int(b)) % q
                assert int(a - b) == (int(a) - int(b)) % q
                for c in elems:
                    assert int((a + b) + c) == int(a + (b + c))
                    assert int((a * b) * c) == int(a * (b * c))
                    assert int(a * (b + c)) == int(a * b + a * c)


def test_inverse_property_all_small_fields():
    for q in (2, 3, 5, 7, 11, 13):
        F = PrimeField(q)
        for a in F.nonzero_elements():
            assert int(a.inv() * a) == 1
        assert F.inv(q - 1) * (q - 1) % q == 1


def test_division_by_zero_rejected():
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        F.zero().inv()
    with pytest.raises(ZeroDivisionError):
        F(3) / F(0)


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldMismatchError):
        PrimeField(3)(1) + PrimeField(5)(1)


def test_int_coercion_and_equality():
    F = PrimeField(5)
    assert F(7) == F(2)
    assert F(2) + 4 == F(1)
    assert 4 + F(2) == F(1)
    assert F(-1) == F(4)
    assert hash(PrimeField(3)) == hash(PrimeField(3))
    assert PrimeField(3) == PrimeField(3)
    assert PrimeField(3) != PrimeField(5)


class TestInt64Limit:
    """terms * (q - 1)^2 < 2^63, checked at the nearest primes on each side."""

    def test_single_products(self):
        check_int64_products(3037000493)
        with pytest.raises(ValueError, match=r"2\^63"):
            check_int64_products(3037000507)

    def test_sums_of_two_products(self):
        check_int64_products(2147483647, 2)
        with pytest.raises(ValueError, match=r"2\^63"):
            check_int64_products(2147483659, 2)
        with pytest.raises(ValueError, match=r"2\^63"):
            check_int64_products(2147483647, 3)
