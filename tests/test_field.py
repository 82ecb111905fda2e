import random

import numpy as np
import pytest

from evalcodes import PrimeField
from evalcodes.field import _MR_LIMIT, _is_prime, check_int64_products, matmul_mod

from oracles import trial_division_is_prime


def test_rejects_composite_and_bad_sizes():
    for q in (0, 1, 4, 6, 9, 12, -3):
        with pytest.raises(ValueError):
            PrimeField(q)


def test_small_primes_accepted():
    for q in (2, 3, 5, 7, 11, 13):
        assert PrimeField(q).q == q


def test_miller_rabin_agrees_with_trial_division():
    assert [n for n in range(10**5) if _is_prime(n) != trial_division_is_prime(n)] == []


def test_large_primes_settled_at_once():
    for q in (3037000493, 2**61 - 1, 2**31 - 1):
        assert PrimeField(q).q == q
    # A strong pseudoprime to the bases 2..37, and products of large primes.
    for n in (318665857834031151167461, (2**31 - 1) * 3037000493, 3037000493**2):
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="prime integer"):
            PrimeField(n)


def test_sizes_beyond_the_exact_range_refused():
    # The least strong pseudoprime to every base of the test, and beyond.
    for q in (_MR_LIMIT, 2**89 - 1):
        with pytest.raises(ValueError, match="must be below"):
            PrimeField(q)


def test_inverse_property_all_small_fields():
    for q in (2, 3, 5, 7, 11, 13):
        F = PrimeField(q)
        for a in range(1, q):
            assert F.inv(a) * a % q == 1
        assert F.inv(q - 1) * (q - 1) % q == 1


def test_division_by_zero_rejected():
    F = PrimeField(5)
    for value in (0, 5, -10):
        with pytest.raises(ZeroDivisionError):
            F.inv(value)


def test_int_coercion_and_equality():
    F = PrimeField(5)
    assert F.inv(7) == F.inv(2) == 3
    assert F.inv(-1) == 4
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


# int64 operands sum chunks of 2 and 1 products at the two large primes;
# int32 operands at 46337, the largest prime with (q - 1)^2 + q < 2^31, sum
# one product at a time.
OPERANDS = [
    *(pytest.param(q, np.int64, id=str(q)) for q in (2, 31, 2147483647, 3037000493)),
    *(pytest.param(q, np.int32, id=f"{q}-int32") for q in (2, 31, 46337)),
]


@pytest.mark.parametrize("q, dtype", OPERANDS)
def test_matmul_mod_agrees_with_python_ints(q, dtype):
    # All-(q - 1) operands are the largest sums a chunk can meet.
    rng = random.Random(q)
    for rows, inner, cols in [(3, 7, 4), (1, 1, 1), (5, 12, 2)]:
        a = [[rng.randrange(q) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randrange(q) for _ in range(cols)] for _ in range(inner)]
        for x, y in [(a, b), ([[q - 1] * inner] * rows, [[q - 1] * cols] * inner)]:
            want = [
                [sum(x[i][t] * y[t][j] for t in range(inner)) % q for j in range(cols)]
                for i in range(rows)
            ]
            xa, ya = np.array(x, dtype=dtype), np.array(y, dtype=dtype)
            assert matmul_mod(xa, ya, q).tolist() == want
            # Vector times matrix and matrix times vector.
            assert matmul_mod(xa[0], ya, q).tolist() == want[0]
            assert matmul_mod(xa, ya[:, 0], q).tolist() == [row[0] for row in want]


@pytest.mark.parametrize("q, dtype", OPERANDS)
def test_matmul_mod_on_the_slices_of_the_elimination(q, dtype):
    # The operand shapes `_buchberger_moeller` passes, as views of larger
    # arrays: a leading block Ut[:k, :k] times a gathered vector, a vector
    # times the block R[:k, :m + k] of the row-major stored rows (rows longer
    # than m + k), and a column slice R[:k, p] times Ut[:k, :k].  Half the
    # entries are q - 1, so a chunk meets its largest sums; the all-(q - 1)
    # vector times the block meets them in every column.
    rng = random.Random(q + 1)
    m, k, p = 9, 6, 4

    def residues(rows, cols):
        draws = [rng.choice((rng.randrange(q), q - 1)) for _ in range(rows * cols)]
        return np.array(draws, dtype=dtype).reshape(rows, cols)

    R, Ut = residues(m, 2 * m + 1), residues(m, m)
    vec = residues(1, m)[0]
    piv = np.array(rng.sample(range(m), k))
    full = np.full(k, q - 1, dtype=dtype)
    cases = [
        (Ut[:k, :k], vec[piv]),
        (vec[piv], R[:k, : m + k]),
        (full, R[:k, : m + k]),
        (R[:k, p], Ut[:k, :k]),
        (Ut[:k, :k].T, R[:k, p]),  # a transposed block times a column slice
        (R[::2, 1:k], Ut[1, 2 : k + 1]),  # strided rows and a strided slice
    ]
    for a, b in cases:
        assert not (a.flags.c_contiguous and b.flags.c_contiguous)
        got = matmul_mod(a, b, q).tolist()
        if a.ndim == 1:
            a, b = b.T, a  # x @ M is M.T @ x
        want = [sum(int(x) * int(y) for x, y in zip(row, b)) % q for row in a.tolist()]
        assert got == want
