import random
from itertools import product
from unittest import mock

import numpy as np
import pytest

from evalcodes import (
    GREVLEX,
    BudgetExceededError,
    EvaluationCode,
    GeneratorMatrix,
    HypersimplexSpec,
    NonInjectiveEvaluationError,
    PointSet,
    Polynomial,
    PrimeField,
    WeightProfile,
    echelonize,
    evaluate_space,
    format_polynomial,
    next_to_minimal,
    standardize,
    support,
    toric_code,
    torus_points,
    vanishing_ideal,
    weight_distribution,
)
from evalcodes import codes
from evalcodes.field import rank_mod, reduce_rows, rref_mod

from oracles import (
    brute_codeword_weights,
    brute_max_zero_count,
    brute_support_union,
    brute_weight_distribution,
    pp_rank,
    pp_rref,
)

SEED = 20260823
F3 = PrimeField(3)
F5 = PrimeField(5)

FIVE_POINTS = [[0, 0], [1, 0], [0, 1], [1, 1], [0, -1]]


def random_rows(rng, q, k, n):
    return [[rng.randrange(q) for _ in range(n)] for _ in range(k)]


class TestRowReduction:
    def test_matches_plain_python_oracle(self):
        rng = random.Random(SEED)
        for q in (2, 3, 5):
            for _ in range(30):
                rows = random_rows(rng, q, rng.randint(1, 4), rng.randint(1, 6))
                got, piv = rref_mod(rows, q)
                want, want_piv = pp_rref(rows, q)
                assert piv == want_piv
                assert [[int(v) for v in row] for row in got] == want
                assert rank_mod(rows, q) == pp_rank(rows, q)

    def test_reduce_rows_eliminates_pivots(self):
        rng = random.Random(SEED + 1)
        for _ in range(20):
            q = 3
            basis = random_rows(rng, q, 2, 5)
            rref, piv = rref_mod(basis, q)
            vec = np.array(random_rows(rng, q, 1, 5), dtype=np.int64)
            red = reduce_rows(vec, rref, piv, q)
            for col in piv:
                assert int(red[0, col]) == 0


class TestGeneratorMatrix:
    def test_shape_and_rank(self):
        g = GeneratorMatrix(F3, [[1, 0, 2], [0, 0, 1]])
        assert g.k == 2
        assert g.n == 3
        assert g.rank == 2
        assert g.tolist() == [[1, 0, 2], [0, 0, 1]]

    def test_zero_row_count_rank(self):
        g = GeneratorMatrix(F3, [[1, 1], [2, 2]])
        assert g.rank == 1


class TestEvaluateSpace:
    def test_constant_space_gives_repetition_code(self):
        pts = PointSet(F3, FIVE_POINTS)
        space = echelonize([Polynomial.constant(F3, 2, 1)], GREVLEX)
        code = evaluate_space(space, pts)
        assert code.k == 1
        assert code.n == 5
        assert code.matrix.tolist() == [[1, 1, 1, 1, 1]]

    def test_hypersimplex_dimensions(self):
        assert toric_code(HypersimplexSpec(F3, 4, 1)).k == 4
        assert toric_code(HypersimplexSpec(F3, 4, 2)).k == 6

    def test_non_injective_rejected(self):
        pts = PointSet(F3, [[0, 0], [1, 1]])
        space = echelonize(
            [
                Polynomial.constant(F3, 2, 1),
                Polynomial.monomial(F3, (1, 0)),
                Polynomial.monomial(F3, (0, 1)),
            ],
            GREVLEX,
        )
        with pytest.raises(NonInjectiveEvaluationError):
            evaluate_space(space, pts)


class TestStandardize:
    def test_standard_space_unchanged(self):
        pts = PointSet(F3, FIVE_POINTS)
        gb = vanishing_ideal(pts, GREVLEX)
        space = echelonize(
            [Polynomial.monomial(F3, (1, 1)), Polynomial.monomial(F3, (0, 1))],
            GREVLEX,
        )
        out = standardize(space, gb)
        assert out.basis == space.basis

    def test_torus_power_collapses(self):
        pts = torus_points(F5, 2)
        gb = vanishing_ideal(pts, GREVLEX)
        space = echelonize([Polynomial.monomial(F5, (4, 0))], GREVLEX)
        out = standardize(space, gb)
        assert [format_polynomial(b) for b in out.basis] == ["1"]

    def test_dimension_drop(self):
        pts = PointSet(F3, FIVE_POINTS)
        gb = vanishing_ideal(pts, GREVLEX)
        space = echelonize(
            [Polynomial.monomial(F3, (2, 0)), Polynomial.monomial(F3, (1, 0))],
            GREVLEX,
        )
        out = standardize(space, gb)
        assert [format_polynomial(b) for b in out.basis] == ["t1"]

    def test_preserves_the_code(self):
        rng = random.Random(SEED + 2)
        for _ in range(15):
            pts = torus_points(F3, 2)
            gb = vanishing_ideal(pts, GREVLEX)
            polys = []
            for _ in range(rng.randint(1, 3)):
                terms = {
                    tuple(rng.randint(0, 3) for _ in range(2)): rng.randrange(3)
                    for _ in range(3)
                }
                polys.append(Polynomial(F3, 2, terms))
            space = echelonize(polys, GREVLEX, field=F3, nvars=2)
            out = standardize(space, gb)
            rows_before = [
                [int(b.evaluate(p)) for p in pts] for b in space.basis
            ]
            rows_after = [[int(b.evaluate(p)) for p in pts] for b in out.basis]
            if not rows_before and not rows_after:
                continue
            stacked = rows_before + rows_after
            if rows_after:
                assert rank_mod(stacked, 3) == rank_mod(rows_after, 3)
            if rows_before:
                assert rank_mod(stacked, 3) == rank_mod(rows_before, 3)


class TestSupport:
    def test_examples(self):
        assert support([[1, 0, 2], [0, 0, 1]]) == {1, 3}
        assert support([[0, 0], [0, 0]]) == set()
        assert support(GeneratorMatrix(F3, [[0, 2, 0]])) == {2}

    def test_matches_span_union(self):
        rng = random.Random(SEED + 3)
        for _ in range(10):
            rows = random_rows(rng, 5, 2, 8)
            if rank_mod(rows, 5) < 2:
                continue
            assert support(rows) == brute_support_union(rows, 5)

    def test_basis_independence(self):
        rng = random.Random(SEED + 4)
        for _ in range(20):
            rows = random_rows(rng, 3, 3, 6)
            rref, piv = rref_mod(rows, 3)
            reduced = [[int(v) for v in row] for row in rref]
            if reduced:
                assert support(rows) == support(reduced)


class TestWeightDistribution:
    def test_zero_code(self):
        pts = PointSet(F3, FIVE_POINTS)
        space = echelonize([], GREVLEX, field=F3, nvars=2)
        code = evaluate_space(space, pts)
        profile = weight_distribution(code)
        assert profile.distribution == {0: 1}
        assert profile.distinct_weights == []

    def test_single_dimensional_toric_code(self):
        profile = weight_distribution(toric_code(HypersimplexSpec(F3, 4, 4)))
        assert profile.distribution == {0: 1, 16: 2}

    def test_toric_degree_one_weights(self):
        profile = weight_distribution(toric_code(HypersimplexSpec(F3, 4, 1)))
        assert profile.distinct_weights[:2] == [8, 10]
        assert profile.total() == 3**4

    def test_matches_plain_python_oracle(self):
        rng = random.Random(SEED + 5)
        for q in (2, 3, 5):
            for _ in range(12):
                k, n = rng.randint(1, 3), rng.randint(1, 7)
                rows = random_rows(rng, q, k, n)
                rows, piv = pp_rref(rows, q)
                if not rows:
                    continue
                profile = _profile_from_rows(rows, q)
                assert profile.distribution == brute_weight_distribution(rows, q)
                assert profile.total() == q ** len(rows)

    def test_minimum_distance_consistency(self):
        rng = random.Random(SEED + 6)
        for _ in range(10):
            rows = random_rows(rng, 3, 2, 6)
            rows, _ = pp_rref(rows, 3)
            if not rows:
                continue
            profile = _profile_from_rows(rows, 3)
            n = len(rows[0])
            assert profile.minimum_distance == n - brute_max_zero_count(rows, 3)

    def test_budget_refusal(self):
        code = toric_code(HypersimplexSpec(F5, 3, 2))
        with pytest.raises(BudgetExceededError) as info:
            weight_distribution(code, budget=10)
        assert info.value.needed == 5**3
        assert info.value.budget == 10

    def test_thread_count_does_not_change_results(self):
        code = toric_code(HypersimplexSpec(F3, 4, 2))
        base = weight_distribution(code, threads=1)
        for threads in (2, 3, 7):
            assert weight_distribution(code, threads=threads) == base

    def test_thread_count_below_one_refused(self):
        # Also for the zero code, where nothing is enumerated.
        space = echelonize([], GREVLEX, field=F3, nvars=2)
        zero = evaluate_space(space, PointSet(F3, FIVE_POINTS))
        for code in (zero, toric_code(HypersimplexSpec(F3, 2, 1))):
            with pytest.raises(ValueError, match="threads must be at least 1"):
                weight_distribution(code, threads=0)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_monic_walk_counts_every_coefficient_vector(self, q):
        # Three-row chunks split every lead group, so the first chunk and
        # the thread batches come into play.  Three shapes in four are rank
        # deficient (a zero row, a repeated row or a combination of rows),
        # where codewords repeat.
        rng = random.Random(SEED + q)
        for k in range(1, 6):
            for shape in ("random", "zero", "repeat", "combination"):
                n = rng.randint(1, 6)
                rows = random_rows(rng, q, k, n)
                if k > 1 and shape == "zero":
                    rows[rng.randrange(k)] = [0] * n
                elif k > 1 and shape == "repeat":
                    rows[1] = [(rng.randrange(1, q) * v) % q for v in rows[0]]
                elif k > 2 and shape == "combination":
                    rows[2] = [(a + 2 * b) % q for a, b in zip(rows[0], rows[1])]
                expected = brute_codeword_weights(rows, q)
                with mock.patch.object(codes, "_CHUNK", 3):
                    for threads in (1, 2, 3):
                        profile = _profile_from_rows(rows, q, threads)
                        assert profile.distribution == expected
                        assert profile.total() == q**k


class TestMonicKernel:
    def test_chunks_come_in_odometer_order(self):
        # The search's witness and budget charges follow the span order.
        for q, k in ((2, 5), (3, 4), (5, 3)):
            expected = [
                [0] * lead + [1] + list(free)
                for lead in range(k)
                for free in product(range(q), repeat=k - lead - 1)
            ]
            with mock.patch.object(codes, "_CHUNK", 3):
                spans = list(codes._monic_spans(q, k, range(k)))
                for lead in range(k):
                    group = [span for span in spans if span[0] == lead]
                    assert list(codes._monic_spans(q, k, [lead])) == group
                    sizes = [hi - lo for _, lo, hi in group]
                    assert all(size == 3 for size in sizes[:-1])
                    assert 1 <= sizes[-1] <= 3
            walked = [row for span in spans for row in codes._monic_rows(q, k, *span)]
            assert [row.tolist() for row in walked] == expected


class TestThreadPolicy:
    # The weight distribution maps its chunks over at most one pool per
    # call; a walk that fits in one chunk, or one thread, makes none.
    ROWS = [[1, 2, 0, 1, 1], [0, 1, 1, 2, 0], [2, 2, 1, 0, 1]]  # 13 monic rows

    def no_pool(self):
        error = AssertionError("a thread pool was made")
        return mock.patch.object(codes, "ThreadPoolExecutor", side_effect=error)

    def counted_pools(self):
        real = codes.ThreadPoolExecutor
        return mock.patch.object(codes, "ThreadPoolExecutor", wraps=real)

    def test_one_pool_per_call(self):
        expected = brute_codeword_weights(self.ROWS, 3)
        for chunk, threads in product((3, 12), (2, 3)):
            chunk_size = mock.patch.object(codes, "_CHUNK", chunk)
            with chunk_size, self.counted_pools() as pool:
                profile = _profile_from_rows(self.ROWS, 3, threads)
            assert profile.distribution == expected
            assert pool.call_count == 1

    def test_no_pool_at_one_thread_or_for_one_chunk(self):
        expected = brute_codeword_weights(self.ROWS, 3)
        with self.no_pool():
            with mock.patch.object(codes, "_CHUNK", 3):
                assert _profile_from_rows(self.ROWS, 3, 1).distribution == expected
            with mock.patch.object(codes, "_CHUNK", 13):
                for threads in (2, 3, None):
                    profile = _profile_from_rows(self.ROWS, 3, threads)
                    assert profile.distribution == expected

    def test_default_follows_cpu_affinity(self):
        # One allowed CPU means one worker, whatever os.cpu_count() says;
        # without sched_getaffinity the default falls back to os.cpu_count().
        expected = brute_codeword_weights(self.ROWS, 3)
        affinity = mock.patch.object(
            codes.os, "sched_getaffinity", return_value={0}, create=True
        )
        no_affinity = mock.patch.object(codes.os, "sched_getaffinity", None, create=True)
        with mock.patch.object(codes, "_CHUNK", 3), self.no_pool():
            with affinity, mock.patch.object(codes.os, "cpu_count", return_value=8):
                assert _profile_from_rows(self.ROWS, 3).distribution == expected
            with no_affinity, mock.patch.object(codes.os, "cpu_count", return_value=1):
                assert _profile_from_rows(self.ROWS, 3).distribution == expected
        with mock.patch.object(codes, "_CHUNK", 3), self.counted_pools() as pool:
            with no_affinity, mock.patch.object(codes.os, "cpu_count", return_value=2):
                assert _profile_from_rows(self.ROWS, 3).distribution == expected
        assert pool.call_count == 1


def _profile_from_rows(rows, q, threads=None):
    """Run the enumeration path on a bare generator matrix."""
    field = PrimeField(q)
    n = len(rows[0])
    matrix = GeneratorMatrix(field, rows, n=n)

    class _Bare:
        pass

    code = _Bare()
    code.matrix = matrix
    code.n = n
    code.k = matrix.k
    code.field = field
    return weight_distribution(code, threads=threads)


class TestNextToMinimal:
    def test_table_values(self):
        assert next_to_minimal(toric_code(HypersimplexSpec(F3, 4, 2))) == 6
        assert next_to_minimal(toric_code(HypersimplexSpec(F3, 4, 3))) == 10
        assert next_to_minimal(toric_code(HypersimplexSpec(F3, 4, 4))) == 16

    def test_repetition_code_single_weight(self):
        pts = PointSet(F3, FIVE_POINTS)
        space = echelonize([Polynomial.constant(F3, 2, 1)], GREVLEX)
        code = evaluate_space(space, pts)
        profile = weight_distribution(code)
        assert profile.distribution == {0: 1, 5: 2}
        assert next_to_minimal(profile) == 5

    def test_accepts_code_or_profile(self):
        code = toric_code(HypersimplexSpec(F3, 4, 2))
        assert next_to_minimal(code) == next_to_minimal(weight_distribution(code))

    def test_zero_code_rejected(self):
        profile = WeightProfile(5, 3, 0, {0: 1})
        with pytest.raises(ValueError):
            next_to_minimal(profile)


class TestInt64Limit:
    def test_generator_matrix_limit(self):
        GeneratorMatrix(PrimeField(3037000493), [[1, 2]])
        with pytest.raises(ValueError, match=r"2\^63"):
            GeneratorMatrix(PrimeField(3037000507), [[1, 2]])

    def test_enumeration_needs_k_products_below_the_limit(self):
        # A 2 x 2 generator matrix is fine over this field, but codeword
        # enumeration sums two products per coordinate.
        field = PrimeField(2147483659)
        matrix = GeneratorMatrix(field, [[1, 0], [0, 1]])
        code = EvaluationCode(None, PointSet(field, [(0,), (1,)]), matrix)
        with pytest.raises(ValueError, match=r"2\^63"):
            weight_distribution(code)

    def test_enumeration_needs_codeword_indices_below_the_limit(self):
        # 3^41 >= 2^63 codewords cannot be indexed in int64.  A budget that
        # admits them gets a refusal naming the limit, raised before any
        # array is built; a smaller budget still refuses on the budget.
        field = PrimeField(3)
        points = PointSet(field, list(product(range(3), repeat=4))[:41])
        matrix = GeneratorMatrix(field, np.eye(41, dtype=np.int64))
        code = EvaluationCode(None, points, matrix)
        with pytest.raises(ValueError, match=r"q\^k < 2\^63"):
            weight_distribution(code, budget=3**41)
        with pytest.raises(BudgetExceededError):
            weight_distribution(code)
