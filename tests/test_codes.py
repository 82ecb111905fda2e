import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evalcodes import (
    GREVLEX,
    BudgetExceededError,
    DimensionMismatchError,
    EvaluationCode,
    FieldMismatchError,
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
    evaluate_at,
    monic_rows,
    monic_walk_weights,
    pp_rank,
    pp_rref,
    support,
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
    """The generator matrix an EvaluationCode holds, given bare."""

    def test_shape_and_rank(self):
        g = EvaluationCode(F3, [[1, 0, 5], [0, 0, -2]])
        assert g.k == 2
        assert g.n == 3
        assert g.rank == 2
        assert g.rows.tolist() == [[1, 0, 2], [0, 0, 1]]

    def test_zero_row_count_rank(self):
        g = EvaluationCode(F3, [[1, 1], [2, 2]])
        assert g.rank == 1

    def test_empty_and_malformed(self):
        empty = EvaluationCode(F3, [], n=4)
        assert (empty.k, empty.n, empty.rank) == (0, 4, 0)
        with pytest.raises(DimensionMismatchError):
            EvaluationCode(F3, [1, 2, 0])


class TestEvaluateSpace:
    def test_constant_space_gives_repetition_code(self):
        pts = PointSet(F3, FIVE_POINTS)
        space = echelonize([Polynomial.constant(F3, 2, 1)], GREVLEX)
        code = evaluate_space(space, pts)
        assert code.k == 1
        assert code.n == 5
        assert code.rows.tolist() == [[1, 1, 1, 1, 1]]

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

    @pytest.mark.parametrize(
        "field, nvars, error, message",
        [
            (F5, 2, FieldMismatchError, "space and points over different fields"),
            (F3, 3, DimensionMismatchError, "space and points in different arities"),
        ],
    )
    def test_mismatched_points_refused(self, field, nvars, error, message):
        space = echelonize([Polynomial.constant(field, nvars, 1)], GREVLEX)
        with pytest.raises(error, match=message):
            evaluate_space(space, PointSet(F3, FIVE_POINTS))


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
            rows_before = [[evaluate_at(b, p) for p in pts] for b in space.basis]
            rows_after = [[evaluate_at(b, p) for p in pts] for b in out.basis]
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
        assert support(EvaluationCode(F3, [[0, 2, 0]]).rows) == {2}
        assert support([0, 0, 4]) == {3}

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

    def test_budget_refusal_from_k_alone(self):
        # The walked side is k = min(rank, n - rank).  From
        # k >= budget.bit_length() on, q^k >= 2^k exceeds the budget, so the
        # refusal names the count as q^k without forming it.
        assert codes.enumeration_size(2, 3, 6, 8) == 8
        assert codes.enumeration_size(2, 4, 8, 16) == 16
        with pytest.raises(BudgetExceededError, match=r"needs 2\^4 elements"):
            codes.enumeration_size(2, 4, 8, 15)
        with pytest.raises(BudgetExceededError) as info:
            codes.enumeration_size(3, 10**12, 3 * 10**12, 10**7)
        assert (info.value.needed, info.value.budget) == ("3^1000000000000", 10**7)

    def test_budget_counts_the_dual_side(self):
        # rank > n - rank: the dual, of dimension n - rank, is walked.
        assert codes.enumeration_size(2, 7, 10, 8) == 8
        assert codes.enumeration_size(3, 10**12, 10**12, 1) == 1
        with pytest.raises(BudgetExceededError, match=r"needs 2\^4 elements"):
            codes.enumeration_size(2, 9, 13, 15)
        with pytest.raises(BudgetExceededError) as info:
            codes.enumeration_size(3, 3 * 10**12, 4 * 10**12, 10**7)
        assert info.value.needed == "3^1000000000000"
        # A [7, 5] code over GF(3): its 3^2 dual words fit a budget of 9.
        code = EvaluationCode(F3, np.eye(5, 7, dtype=np.int64))
        with pytest.raises(BudgetExceededError) as info:
            weight_distribution(code, budget=8)
        assert info.value.needed == 9
        assert weight_distribution(code, budget=9).total() == 3**5

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
        # Three-word tables and four-word batches split every lead group
        # into several prefixes and batches.  Three shapes in four are rank
        # deficient (a zero row, a repeated row or a combination of rows),
        # where codewords repeat; a rank above n / 2 takes the dual route.
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
                with mock.patch.multiple(codes, _CHUNK=3, _BATCH=4):
                    for threads in (1, 2, 3):
                        profile = _profile_from_rows(rows, q, threads)
                        assert profile.distribution == expected
                        assert profile.total() == q**k


class TestTableKernel:
    def test_zero_counts_come_in_odometer_order(self):
        # The search's witness and budget charges follow this order: the
        # words of prefix h, low index i are monic row h * q^l + i times G,
        # and each has the zero count of that reference word.  A two-digit
        # table over GF(251) sums residues past 255 while it grows.
        rng = random.Random(SEED)
        cases = [
            (q, k, chunk)
            for q, k in ((2, 5), (3, 4), (5, 3), (257, 2))
            for chunk in (3, codes._CHUNK)
        ]
        for q, k, chunk in cases + [(251, 3, 251**2)]:
            n = rng.randint(1, 6)
            g = np.array(random_rows(rng, q, k, n), dtype=np.int64)
            with mock.patch.object(codes, "_CHUNK", chunk):
                table = codes._ZeroTable(g, q)
                for lead in range(k):
                    free = k - lead - 1
                    depth = table.depth(lead)
                    assert q**depth <= chunk
                    assert depth == free or q ** (depth + 1) > chunk
                    low = table.low(depth)
                    zeros = [
                        int(c)
                        for h in range(q ** (free - depth))
                        for c in codes._count_equal(
                            low, table.targets(lead, depth, h, h + 1)[0]
                        )
                    ]
                    rows = monic_rows(q, k, lead, 0, q**free)
                    assert zeros == list(np.count_nonzero((rows @ g) % q == 0, axis=1))
                    for index in range(0, q**free, max(1, q**free // 7)):
                        row = codes._monic_row(q, k, lead, index)
                        assert row.tolist() == rows[index].tolist()

    def test_prefix_walk_numbers_each_prefix(self):
        # zero_counts hands over the number of each batch's first monic row
        # with its zero counts, row j for the prefix q^depth * j rows on, so
        # a reader of the walk never counts prefixes itself; batches of one
        # and of several prefixes alike, and with the counts restricted to
        # some columns.
        rng = random.Random(SEED)
        for q, k, chunk, batch in ((2, 6, 4, 8), (3, 5, 9, 9), (5, 3, 5, 1 << 15)):
            n = rng.randint(2, 6)
            g = np.array(random_rows(rng, q, k, n), dtype=np.int64)
            columns = np.array(sorted(rng.sample(range(n), 2)))
            with mock.patch.multiple(codes, _CHUNK=chunk, _BATCH=batch):
                table = codes._ZeroTable(g, q)
                for lead in range(k):
                    free = k - lead - 1
                    size = q ** table.depth(lead)
                    rows = monic_rows(q, k, lead, 0, q**free)
                    zeros = np.count_nonzero((rows @ g[:, columns]) % q == 0, axis=1)
                    walked = list(table.zero_counts(lead, columns))
                    firsts = [first for first, _ in walked]
                    assert firsts == list(range(0, q**free, size * len(walked[0][1])))
                    for first, counts in walked:
                        assert counts.shape[1] == size
                        got = counts.ravel().tolist()
                        assert got == zeros[first : first + counts.size].tolist()
                    assert sum(counts.size for _, counts in walked) == q**free
        # Square matrices with zero rows: a monic row's word on a k x k
        # matrix is nonzero exactly when it has fewer than k zeros.
        for q, k in ((2, 5), (3, 4), (5, 3)):
            m = np.array(random_rows(rng, q, k, k), dtype=np.int64)
            m[rng.sample(range(k), 2)] = 0
            with mock.patch.multiple(codes, _CHUNK=q, _BATCH=q * q):
                table = codes._ZeroTable(m, q)
                for lead in range(k):
                    rows = monic_rows(q, k, lead, 0, q ** (k - lead - 1))
                    nonzero = ((rows @ m) % q).any(axis=1)
                    walked = table.zero_counts(lead)
                    got = np.concatenate([counts.ravel() for _, counts in walked])
                    assert (got < k).tolist() == nonzero.tolist()

    def test_table_dtype_and_growth(self):
        # The smallest unsigned dtype that holds q - 1; the table is only as
        # deep as asked, and a shallower table is a leading slice.
        g = np.array([[1, 2, 3], [4, 5, 6], [0, 6, 1]], dtype=np.int64)
        for q, dtype in ((2, np.uint8), (251, np.uint8), (257, np.uint16)):
            table = codes._ZeroTable(g % q, q)
            assert table.low(1).dtype == dtype
            assert table.targets(0, 1, 0, 2).dtype == dtype
        table = codes._ZeroTable(g % 7, 7)
        one = table.low(1).copy()
        assert table._depth == 1
        assert table.low(2).shape == (3, 49)
        assert table._depth == 2
        assert np.array_equal(table.low(1), one)
        assert table.low(0).tolist() == [[0], [0], [0]]


class TestThreadPolicy:
    # The weight distribution runs on the calling thread; `threads` is
    # checked (test_thread_count_below_one_refused) and otherwise ignored.
    ROWS = [[1, 2, 0, 1, 1], [0, 1, 1, 2, 0], [2, 2, 1, 0, 1]]  # 13 monic rows

    def no_thread(self):
        error = AssertionError("a thread was started")
        return mock.patch("threading.Thread", side_effect=error)

    def counted_pools(self):
        import concurrent.futures

        real = concurrent.futures.ThreadPoolExecutor
        return mock.patch("concurrent.futures.ThreadPoolExecutor", wraps=real)

    def test_one_pool_per_call(self):
        # The bound of at most one pool per call is met with none, however
        # the walk is chunked and whatever thread count is asked for; a pool
        # bound at import would still have to start a thread.
        expected = brute_codeword_weights(self.ROWS, 3)
        for chunk in (3, 12):
            for threads in (2, 3):
                chunk_size = mock.patch.multiple(codes, _CHUNK=chunk, _BATCH=4)
                with chunk_size, self.no_thread(), self.counted_pools() as pool:
                    profile = _profile_from_rows(self.ROWS, 3, threads)
                assert profile.distribution == expected
                assert pool.call_count == 0

    def test_no_pool_at_one_thread_or_for_one_chunk(self):
        expected = brute_codeword_weights(self.ROWS, 3)
        with self.no_thread():
            with mock.patch.object(codes, "_CHUNK", 3):
                assert _profile_from_rows(self.ROWS, 3, 1).distribution == expected
            with mock.patch.object(codes, "_CHUNK", 13):
                for threads in (2, 3, None):
                    profile = _profile_from_rows(self.ROWS, 3, threads)
                    assert profile.distribution == expected

    def test_starts_no_thread(self):
        # Three-word tables and four-word batches give several batches per
        # lead; the direct route (rank 3 of 10) and the dual route (rank 3
        # of 5) both walk them on the calling thread.
        direct_rows = [row + row for row in self.ROWS]
        for rows in (direct_rows, self.ROWS):
            expected = brute_codeword_weights(rows, 3)
            chunk_size = mock.patch.multiple(codes, _CHUNK=3, _BATCH=4)
            with chunk_size, self.no_thread():
                for threads in (None, 1, 2, 3, 7):
                    profile = _profile_from_rows(rows, 3, threads)
                    assert profile.distribution == expected


def _profile_from_rows(rows, q, threads=None):
    """Run the enumeration path on a bare generator matrix."""
    return weight_distribution(EvaluationCode(PrimeField(q), rows), threads=threads)


@st.composite
def generator_matrices(draw):
    """(q, rows) of a k x n matrix over GF(q); three shapes in four are rank
    deficient.  q = 257 needs a uint16 table."""
    q = draw(st.sampled_from((2, 3, 5, 7, 257)))
    k = draw(st.integers(1, {2: 7, 3: 5, 5: 4, 7: 3, 257: 2}[q]))
    n = draw(st.integers(1, 8))
    entries = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=k, max_size=k))
    shape = draw(st.sampled_from(("random", "zero", "repeat", "combination")))
    if k > 1 and shape == "zero":
        rows[draw(st.integers(0, k - 1))] = [0] * n
    elif k > 1 and shape == "repeat":
        c = draw(st.integers(1, q - 1))
        rows[1] = [(c * v) % q for v in rows[0]]
    elif k > 2 and shape == "combination":
        rows[2] = [(a + 2 * b) % q for a, b in zip(rows[0], rows[1])]
    return q, rows


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    generator_matrices(),
    st.sampled_from(((3, 4), (codes._CHUNK, codes._BATCH))),
    st.sampled_from((1, 2)),
)
def test_table_kernel_matches_reference_walk(case, sizes, threads):
    # Three-word tables and four-word batches split every lead into many
    # prefixes and batches.
    q, rows = case
    chunk, batch = sizes
    with mock.patch.multiple(codes, _CHUNK=chunk, _BATCH=batch):
        profile = _profile_from_rows(rows, q, threads)
    assert profile.distribution == monic_walk_weights(rows, q)
    assert sum(profile.distribution.values()) == q ** len(rows)


@st.composite
def dual_route_matrices(draw):
    """(q, rows, n) of a k x n matrix over GF(q) whose code and dual are both
    small enough to walk: the zero matrix (rank 0), a matrix holding I_n
    (rank n), one with a repeated row, or a random one."""
    q = draw(st.sampled_from((2, 3, 5, 131, 257)))
    n = draw(st.integers(1, {2: 8, 3: 6, 5: 5, 131: 3, 257: 3}[q]))
    k = draw(st.integers(0, n + 1))
    entries = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=k, max_size=k))
    shape = draw(st.sampled_from(("random", "zero", "full", "repeat")))
    if shape == "zero":
        rows = [[0] * n for _ in rows]
    elif shape == "full":
        rows = np.eye(n, dtype=np.int64).tolist() + rows
    elif shape == "repeat" and k > 1:
        rows[-1] = rows[0]
    return q, rows, n


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(dual_route_matrices())
@example((131, [[1, 2, 3], [4, 5, 6]], 3))  # rank 2 of 3, dual side
@example((257, [[1, 2, 3]], 3))  # rank 1 of 3, direct side
@example((257, [[1, 0, 5], [0, 1, 7], [1, 1, 12]], 3))  # rank deficient, dual
def test_direct_and_dual_routes_agree(case):
    # Both sides walked through the table kernel: the reduced rows of C,
    # and the parity-check matrix turned into the counts of C by the
    # MacWilliams identity.  weight_distribution takes the smaller side and
    # scales by q^(k - rho).
    q, rows, n = case
    code = EvaluationCode(PrimeField(q), rows, n=n)
    reduced, _ = code.reduced
    rho = reduced.shape[0]
    assume(q ** max(rho, n - rho) <= 10**5)
    h = codes.parity_check_matrix(code)
    assert h.shape == (n - rho, n)
    assert not ((reduced @ h.T) % q).any()
    direct = codes._monic_walk(reduced, q)
    dual = codes._macwilliams(codes._monic_walk(h, q), q, n - rho)
    assert direct == dual
    assert sum(direct) == q**rho
    scale = q ** (len(rows) - rho)
    profile = weight_distribution(code)
    assert profile.distribution == {w: c * scale for w, c in enumerate(direct) if c}
    assert profile.total() == q ** len(rows)


@pytest.mark.parametrize("q", [131, 251, 257])
def test_wide_fields_match_reference_walk(q):
    # The table is stored as uint8 and grown in uint16 at q = 131 and 251,
    # both in uint16 at q = 257.  Two-digit walks on the direct side (rank
    # 2 of 5, also with a repeated row) and on the dual side (rank 3 of 5).
    rng = random.Random(SEED + q)
    for k, n in ((2, 5), (3, 4), (3, 5)):
        rows = random_rows(rng, q, k, n)
        if k == 3 and n == 4:
            rows[2] = rows[0]
        profile = _profile_from_rows(rows, q)
        assert profile.distribution == monic_walk_weights(rows, q)


def test_macwilliams_refuses_an_inexact_sum():
    # Dual counts that no code has: half the words of a one-dimensional
    # binary code of length 2 are missing.
    with pytest.raises(RuntimeError, match="not exact"):
        codes._macwilliams([1, 0, 0], 2, 1)


class TestNextToMinimal:
    def test_table_values(self):
        for d, second in ((2, 6), (3, 10), (4, 16)):
            code = toric_code(HypersimplexSpec(F3, 4, d))
            assert next_to_minimal(weight_distribution(code)) == second

    def test_repetition_code_single_weight(self):
        pts = PointSet(F3, FIVE_POINTS)
        space = echelonize([Polynomial.constant(F3, 2, 1)], GREVLEX)
        code = evaluate_space(space, pts)
        profile = weight_distribution(code)
        assert profile.distribution == {0: 1, 5: 2}
        assert next_to_minimal(profile) == 5

    def test_second_distinct_weight_of_the_profile(self):
        profile = weight_distribution(toric_code(HypersimplexSpec(F3, 4, 2)))
        assert next_to_minimal(profile) == profile.distinct_weights[1]

    def test_zero_code_rejected(self):
        profile = WeightProfile(5, 3, 0, {0: 1})
        with pytest.raises(ValueError):
            next_to_minimal(profile)


class TestInt64Limit:
    def test_generator_matrix_limit(self):
        EvaluationCode(PrimeField(3037000493), [[1, 2]])
        with pytest.raises(ValueError, match=r"2\^63"):
            EvaluationCode(PrimeField(3037000507), [[1, 2]])

    def test_enumeration_needs_k_products_below_the_limit(self):
        # A 2 x 4 generator matrix is fine over this field, but codeword
        # enumeration sums two products per coordinate.  [I | I] has rank
        # 2 and a dual of dimension 2, so either side needs that.
        field = PrimeField(2147483659)
        code = EvaluationCode(field, np.hstack([np.eye(2, dtype=np.int64)] * 2))
        with pytest.raises(ValueError, match=r"2\^63"):
            weight_distribution(code)

    def test_enumeration_needs_codeword_indices_below_the_limit(self):
        # 3^41 >= 2^63 codewords cannot be indexed in int64.  A budget that
        # admits them gets a refusal naming the limit, raised before any
        # array is built; a smaller budget still refuses on the budget.
        # [I | I] has rank 41 and a dual of dimension 41.
        field = PrimeField(3)
        code = EvaluationCode(field, np.hstack([np.eye(41, dtype=np.int64)] * 2))
        with pytest.raises(ValueError, match=r"q\^k < 2\^63"):
            weight_distribution(code, budget=3**41)
        with pytest.raises(BudgetExceededError):
            weight_distribution(code)
