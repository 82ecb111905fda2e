import json
import math
import random
import time
from itertools import product
from pathlib import Path

import pytest

from evalcodes import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    PointSet,
    Polynomial,
    PrimeField,
    cli,
    format_polynomial,
    standardize,
    toric_deg1_weight,
    vanishing_ideal,
    weights,
)
from evalcodes.cli import (
    build_parser,
    fixture_names,
    load_problem,
    main,
    parse_polynomial,
    polynomial_from_pairs,
    resolve_problem,
)

from oracles import box_monomials

SEED = 20260823
DATA = Path(__file__).parent / "data"
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPolynomialParsing:
    def test_text_form(self):
        f = parse_polynomial("t1^2*t2 + 2*t2 - 1", F3, 2)
        assert f == Polynomial(F3, 2, {(2, 1): 1, (0, 1): 2, (0, 0): -1})

    def test_plain_tokens(self):
        assert parse_polynomial("1", F3, 2) == Polynomial.constant(F3, 2, 1)
        assert parse_polynomial("t2", F3, 2) == Polynomial.monomial(F3, (0, 1))
        assert parse_polynomial("-t1", F3, 2) == Polynomial(F3, 2, {(1, 0): -1})
        assert parse_polynomial("0", F3, 2).is_zero()
        assert parse_polynomial("t1 - t1", F3, 2).is_zero()
        assert parse_polynomial("2*3*t1", F5, 1) == Polynomial(F5, 1, {(1,): 6})
        assert parse_polynomial("t1*t1", F3, 2) == Polynomial.monomial(F3, (2, 0))

    def test_rejects_malformed_input(self):
        for text in ("", "t3", "x1", "t1^", "t1t2", "t1 +", "^2", "t0"):
            with pytest.raises(ValueError):
                parse_polynomial(text, F3, 2)

    def test_pair_form(self):
        f = polynomial_from_pairs([[[2, 1], 1], [[0, 0], 2]], F3, 2)
        assert f == Polynomial(F3, 2, {(2, 1): 1, (0, 0): 2})

    def test_pair_form_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            polynomial_from_pairs([[1, 2]], F3, 2)
        with pytest.raises(ValueError):
            polynomial_from_pairs([[[1], 2]], F3, 2)

    def test_round_trip_with_formatter(self):
        rng = random.Random(SEED)
        for _ in range(40):
            terms = {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randrange(5)
                for _ in range(rng.randint(1, 4))
            }
            f = Polynomial(F5, 2, terms)
            assert parse_polynomial(format_polynomial(f), F5, 2) == f


class TestLargeExponents:
    """An exponent e >= q is read as ((e - 1) mod (q - 1)) + 1: x^e = x^e'
    on GF(q) when e, e' >= 1 and e = e' mod (q - 1)."""

    def test_lowered_exponents_and_collisions(self):
        assert parse_polynomial("t1^3", F3, 1) == Polynomial.monomial(F3, (1,))
        assert parse_polynomial("t1^2*t1^2*t2^2", F3, 2) == Polynomial.monomial(
            F3, (2, 2)
        )
        # t1^5 and t1 coincide on GF(5), so their coefficients add.
        assert parse_polynomial("t1^5 + t1", F5, 1) == Polynomial(F5, 1, {(1,): 2})
        assert parse_polynomial("t1^9 - t1", F5, 1).is_zero()
        pairs = [[[7], 1], [[3], 2]]
        assert polynomial_from_pairs(pairs, F5, 1) == Polynomial(F5, 1, {(3,): 3})
        # Over GF(2) every positive exponent becomes 1; t^0 stays constant.
        f = parse_polynomial("t1^6*t2^0 + t2^0", F2, 2)
        assert f == Polynomial(F2, 2, {(1, 0): 1, (0, 0): 1})

    def test_same_standardized_space_as_the_raw_exponents(self):
        rng = random.Random(SEED)
        for q in (2, 3, 5):
            field = PrimeField(q)
            for _ in range(12):
                s = rng.randint(1, 3)
                grid = list(product(range(q), repeat=s))
                points = PointSet(field, rng.sample(grid, rng.randint(1, len(grid))))
                gb = vanishing_ideal(points)
                raw = []
                for _ in range(rng.randint(1, 4)):
                    terms = {}
                    for _ in range(rng.randint(1, 4)):
                        mono = tuple(rng.randint(0, 3 * q) for _ in range(s))
                        terms[mono] = rng.randrange(q)
                    raw.append(Polynomial(field, s, terms))
                texts = [parse_polynomial(format_polynomial(f), field, s) for f in raw]
                pairs = [
                    polynomial_from_pairs([[list(m), c] for m, c in f.terms.items()], field, s)
                    for f in raw
                ]
                for f in texts + pairs:
                    assert all(e < q for m in f.terms for e in m)
                assert standardize(texts, gb) == standardize(raw, gb)
                assert standardize(pairs, gb) == standardize(raw, gb)

    def test_huge_exponent_answers_at_once(self, capsys, tmp_path):
        # 10^9 is even, so t1^(10^9) is read as t1^2 over GF(3).
        path = tmp_path / "problem.json"
        reduced = _five_point_file(L1=["t1^2 + t2", "t1*t2"], L2=None)
        path.write_text(json.dumps(reduced))
        expected = json.loads(run(capsys, "rghw", str(path), "--json")[1])["results"]
        text = ["t1^1000000000 + t2", "t1*t2"]
        pairs = [[[[10**9, 0], 1], [[0, 1], 1]], [[[1, 1], 1]]]
        for L1 in (text, pairs):
            path.write_text(json.dumps(_five_point_file(L1=L1, L2=None)))
            start = time.perf_counter()
            code, out, _ = run(capsys, "rghw", str(path), "--json")
            assert time.perf_counter() - start < 1
            assert code == 0
            assert json.loads(out)["results"] == expected


class TestProblemLoading:
    def test_fixture_names_listed(self):
        assert fixture_names() == [
            "five-points-f3",
            "hypersimplex-f3-s4",
            "torus-f5-sharp-gap",
        ]

    def test_fixture_loads_by_name(self):
        data = load_problem("five-points-f3")
        assert data["q"] == 3
        assert data["r"] == [1, 2]

    def test_missing_schema_rejected(self, tmp_path):
        # true and 1.0 compare equal to 1 in Python, but only the JSON
        # integer 1 is the marker.
        path = tmp_path / "bad.json"
        for schema in (None, True, 1.0):
            data = {"q": 3} if schema is None else _five_point_file(schema=schema)
            path.write_text(json.dumps(data))
            with pytest.raises(ValueError, match='"schema": 1'):
                load_problem(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_problem(str(path))

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            load_problem("no-such-fixture")


class TestVanishingIdealCommand:
    def test_five_point_fixture(self, capsys):
        code, out, _ = run(capsys, "vanishing-ideal", "five-points-f3")
        assert code == 0
        assert "t1^2 - t1" in out
        assert "t2^3 - t2" in out
        assert "t1*t2^2 - t1*t2" in out
        assert "footprint size: 5" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "vanishing-ideal", "five-points-f3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["generators"] == [
            "t1^2 - t1",
            "t2^3 - t2",
            "t1*t2^2 - t1*t2",
        ]
        assert payload["footprint_size"] == 5
        assert len(payload["standard_monomials"]) == 5

    def test_single_point_file(self, capsys, tmp_path):
        path = tmp_path / "single.json"
        path.write_text(
            json.dumps(
                {"schema": 1, "q": 5, "s": 2, "points": [[2, 3]]}
            )
        )
        code, out, _ = run(capsys, "vanishing-ideal", str(path))
        assert code == 0
        assert "t1 - 2" in out
        assert "t2 - 3" in out or "t2 + 2" in out

    def test_duplicate_points_rejected(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps(
                {"schema": 1, "q": 3, "s": 1, "points": [[0], [3]]}
            )
        )
        code, _, err = run(capsys, "vanishing-ideal", str(path))
        assert code == 1
        assert "duplicate" in err


class TestRghwCommand:
    def test_five_point_fixture(self, capsys):
        code, out, _ = run(capsys, "rghw", "five-points-f3", "--validate")
        assert code == 0
        assert "M_1 = 1" in out
        assert "M_2 = 2" in out

    def test_torus_gap_fixture(self, capsys):
        code, out, _ = run(capsys, "rghw", "torus-f5-sharp-gap", "--validate")
        assert code == 0
        assert "M_1 = 8" in out
        assert "RFP_1 = 4" in out

    def test_json_report_round_trip(self, capsys):
        code, out, _ = run(capsys, "rghw", "five-points-f3", "--json")
        assert code == 0
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report
        assert list(report) == [
            "schema",
            "command",
            "problem",
            "order",
            "q",
            "s",
            "n",
            "k1",
            "k2",
            "results",
            "weights",
            "refusal",
            "budget",
            "elapsed_seconds",
        ]
        assert report["k1"] == 5
        assert report["k2"] == 3
        assert report["results"] == [
            {
                "r": r,
                "rghw": r,
                "relative_footprint": r,
                "certified": True,
                "oracle": None,
                "refusal": None,
            }
            for r in (1, 2)
        ]

    def test_order_override_keeps_values(self, capsys):
        for order in ("lex", "grlex", "grevlex"):
            code, out, _ = run(
                capsys, "rghw", "five-points-f3", "--order", order, "--json"
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["order"] == order
            assert [e["rghw"] for e in payload["results"]] == [1, 2]

    def test_validation_does_not_change_numbers(self, capsys):
        # Only "oracle" differs: null without --validate, true once replayed.
        _, plain, _ = run(capsys, "rghw", "five-points-f3", "--json")
        _, checked, _ = run(capsys, "rghw", "five-points-f3", "--validate", "--json")
        plain, checked = json.loads(plain)["results"], json.loads(checked)["results"]
        assert [e.pop("oracle") for e in plain] == [None, None]
        assert [e.pop("oracle") for e in checked] == [True, True]
        assert plain == checked

    def test_oracle_skipped_past_the_budget(self, capsys):
        # At budget 100 the oracle's 121 one-dimensional subcodes of C1
        # (k1 = 5 over GF(3)) do not fit, and r = 2 is refused: its walk
        # needs 108 candidates.
        argv = ["rghw", "five-points-f3", "--validate", "--budget", "100"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2
        first, second = json.loads(out)["results"]
        assert (first["rghw"], first["certified"], first["oracle"]) == (1, True, False)
        assert (second["rghw"], second["oracle"]) == (None, None)
        assert "108" in second["refusal"]
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert (
            "r=1: M_1 = 1  RFP_1 = 1  (certified)"
            "  [oracle skipped: 121 subcodes > budget 100]"
        ) in out.splitlines()
        assert "oracle" not in out.splitlines()[2]

    def test_budget_refusal_keeps_partial_report(self, capsys):
        code, out, _ = run(
            capsys, "rghw", "five-points-f3", "--budget", "10", "--json"
        )
        assert code == 2
        payload = json.loads(out)
        for entry in payload["results"]:
            assert entry["rghw"] is None
            assert entry["refusal"] is not None
            assert isinstance(entry["relative_footprint"], int)

    def test_equal_spaces_rejected(self, capsys, tmp_path):
        path = tmp_path / "equal.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "q": 3,
                    "s": 2,
                    "points": [[0, 0], [1, 0], [0, 1]],
                    "L1": {"total_degree": 1},
                    "L2": {"total_degree": 1},
                    "r": [1],
                }
            )
        )
        code, _, err = run(capsys, "rghw", str(path))
        assert code == 1
        assert err.startswith("error:")

    def test_pair_form_and_shorthands(self, capsys, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "q": 3,
                    "s": 2,
                    "points": {"family": "cartesian", "subsets": [[0, 1], [0, 1]]},
                    "L1": ["1", "t1", "t2", [[[1, 1], 1]]],
                    "L2": {"total_degree": 1},
                    "r": [1],
                }
            )
        )
        code, out, _ = run(capsys, "rghw", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k1"] == 4
        assert payload["k2"] == 3
        assert payload["results"][0]["rghw"] == 1

    def test_unknown_fixture_exits_one(self, capsys):
        code, _, err = run(capsys, "rghw", "no-such-problem")
        assert code == 1
        assert "fixtures" in err


class TestWeightsCommand:
    def test_hypersimplex_fixture(self, capsys):
        code, out, _ = run(capsys, "weights", "hypersimplex-f3-s4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["weights"]["distribution"] == [
            [0, 1],
            [8, 24],
            [10, 16],
            [12, 32],
            [16, 8],
        ]
        assert payload["weights"]["distinct_weights"] == [8, 10, 12, 16]
        assert sum(c for _, c in payload["weights"]["distribution"]) == 81

    def test_budget_refusal(self, capsys):
        code, out, _ = run(
            capsys, "weights", "torus-f5-sharp-gap", "--budget", "3", "--json"
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["weights"] is None
        assert payload["refusal"] is not None


def _no_building(*args):
    raise AssertionError("a refused row's space or code was built")


class TestToricTableCommand:
    def test_reference_table(self, capsys):
        code, out, _ = run(capsys, "toric-table", "3", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        rows = payload["rows"]
        assert [row["n"] for row in rows] == [16, 16, 16, 16]
        assert [row["k"] for row in rows] == [4, 6, 4, 1]
        assert [row["min_distance"] for row in rows] == [8, 4, 8, 16]
        assert [row["min_distance_formula"] for row in rows] == [8, 4, 8, 16]
        assert [row["next_to_minimal"] for row in rows] == [10, 6, 10, 16]

    def test_small_table(self, capsys):
        code, out, _ = run(capsys, "toric-table", "3", "2", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0] == {
            "d": 1,
            "n": 4,
            "k": 2,
            "min_distance_formula": 2,
            "min_distance": 2,
            "next_to_minimal": 4,
            "refusal": None,
        }

    @pytest.mark.parametrize(
        "q, s, second", [(3, 4, 10), (5, 4, 204), (3, 6, 40), (7, 4, 1110)]
    )
    def test_degree_one_second_weight_matches_its_formula(self, capsys, q, s, second):
        # At s = 6 the rows d = 2..4 are refused (3^15 and 3^20 words), so
        # the exit code is 2; row 1 is answered and checked all the same.
        code, out, _ = run(capsys, "toric-table", str(q), str(s), "--json")
        assert code == (2 if s == 6 else 0)
        row = json.loads(out)["rows"][0]
        assert row["refusal"] is None
        assert row["next_to_minimal"] == second == toric_deg1_weight(q, s, 2)

    def test_second_weight_disagreement_aborts(self, capsys, monkeypatch):
        # The d = 1 row's next-to-minimal weight is compared with
        # toric_deg1_weight(q, s, 2) as its distance is with the formula.
        monkeypatch.setattr(
            cli, "toric_deg1_weight", lambda q, s, t: toric_deg1_weight(q, s, t) + 1
        )
        message = "enumerated next-to-minimal weight 10 != formula 11 at d=1"
        with pytest.raises(RuntimeError, match=message):
            main(["toric-table", "3", "4", "--json"])
        assert capsys.readouterr().out == ""

    def test_binary_field_suppresses_second_weight(self, capsys):
        code, out, _ = run(capsys, "toric-table", "2", "3", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["min_distance"] for row in rows] == [1, 1, 1]
        assert all(row["next_to_minimal"] is None for row in rows)

    def test_composite_field_rejected(self, capsys):
        code, _, err = run(capsys, "toric-table", "4", "2")
        assert code == 1
        assert "prime" in err

    def test_nonpositive_s_rejected(self, capsys):
        assert run(capsys, "toric-table", "3", "0") == (1, "", "error: s must be positive\n")

    def test_budget_refuses_rows_before_building_codes(self, capsys, monkeypatch):
        # 3^k > 1 for every row below d = s, so each is refused from its
        # dimension alone, before its space is built or any polynomial is
        # evaluated at the 1024 torus points.  k >= budget.bit_length(), so
        # the refusal writes the count as the power 3^k.  The d = s row is
        # the repetition code, answered in closed form.
        monkeypatch.setattr(PointSet, "evaluate", _no_building)
        monkeypatch.setattr(cli, "toric_space", _no_building)
        code, out, _ = run(capsys, "toric-table", "3", "10", "--budget", "1", "--json")
        assert code == 2
        rows = json.loads(out)["rows"]
        assert [row["n"] for row in rows] == [1024] * 10
        assert [row["k"] for row in rows] == [math.comb(10, d) for d in range(1, 11)]
        for row in rows[:9]:
            refusal = BudgetExceededError(f"3^{row['k']}", 1, "codeword enumeration")
            assert row["refusal"] == str(refusal)
            assert row["min_distance"] is None and row["next_to_minimal"] is None
        assert rows[9]["refusal"] is None
        assert rows[9]["min_distance"] == rows[9]["next_to_minimal"] == 1024

    def test_refusals_of_huge_rows_are_written_as_powers(self, capsys, monkeypatch):
        # The d = 4 row needs 3^91390 words, too many digits to write out,
        # and the d = 20 row would first list C(40, 20) monomials.
        monkeypatch.setattr(cli, "toric_space", _no_building)
        code, out, _ = run(capsys, "toric-table", "3", "40", "--budget", "1", "--json")
        assert code == 2
        rows = json.loads(out)["rows"]
        assert len(rows) == 40 and all(row["refusal"] for row in rows[:39])
        assert "needs 3^91390 elements" in rows[3]["refusal"]
        assert rows[19]["k"] == math.comb(40, 20)

    def test_repetition_row_is_answered_without_the_torus(self, capsys, monkeypatch):
        # The d = s row of s = 40 is the repetition code of length 2^40: it
        # is answered in closed form at every budget, and its torus points
        # are neither listed nor counted against the budget.
        monkeypatch.setattr(cli, "torus_points", _no_building)
        monkeypatch.setattr(cli, "toric_space", _no_building)
        for budget in (["--budget", "1"], []):
            code, out, _ = run(capsys, "toric-table", "3", "40", "--json", *budget)
            assert code == 2
            rows = json.loads(out)["rows"]
            assert len(rows) == 40 and all(row["refusal"] for row in rows[:39])
            assert rows[39]["refusal"] is None
            assert rows[39]["min_distance"] == rows[39]["min_distance_formula"] == 2**40
            assert rows[39]["next_to_minimal"] == 2**40

    def test_torus_budget_boundary(self, capsys):
        # n = 16: the rows of dimension 4 need 3^4 = 81 words, refused at
        # budget 80 and computed at 81; the d = 2 row needs 3^6 words, and
        # the k = 1 row is answered at every budget.
        for budget, distance in (("80", None), ("81", 8)):
            argv = ["toric-table", "3", "4", "--budget", budget, "--json"]
            code, out, _ = run(capsys, *argv)
            assert code == 2
            rows = json.loads(out)["rows"]
            assert "needs 729 elements" in rows[1]["refusal"]
            assert rows[0]["min_distance"] == rows[2]["min_distance"] == distance
            assert rows[3]["min_distance"] == 16
        assert "needs 81 elements" in run(
            capsys, "toric-table", "3", "4", "--budget", "80"
        )[1]

    def test_binary_field_rows_have_dimension_one(self, capsys):
        # The torus of GF(2) is one point; every row is the repetition code
        # of length 1, whose dual has dimension 0: one word to walk, within
        # a budget of 1.  Only the d = s row comes in closed form.
        code, out, _ = run(capsys, "toric-table", "2", "5", "--budget", "1", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["k"] for row in rows] == [1] * 5
        assert all(row["refusal"] is None for row in rows)
        assert [row["min_distance"] for row in rows] == [1] * 5


class TestArgumentHandling:
    @pytest.mark.parametrize("order", [["grevlex"], {"name": "lex"}, 1, "Lex"])
    def test_malformed_order_exits_one(self, capsys, tmp_path, order):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(_five_point_file(order=order)))
        code, out, err = run(capsys, "vanishing-ideal", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: unknown monomial order")
        assert "Traceback" not in err

    def test_field_too_large_for_int64_exits_one_at_once(self, capsys, tmp_path):
        # 2^61 - 1 is prime; its primality is settled at once and the
        # vanishing ideal refuses it on the int64 limit.
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(_five_point_file(q=2**61 - 1)))
        code, _, err = run(capsys, "vanishing-ideal", str(path))
        assert code == 1
        assert err.startswith("error: the vanishing ideal needs") and "2^63" in err

    def test_unknown_command_exits_one(self, capsys):
        assert main(["bogus"]) == 1

    def test_missing_argument_exits_one(self, capsys):
        assert main(["rghw"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    COMMANDS = [
        ["rghw", "five-points-f3"],
        ["weights", "five-points-f3"],
        ["toric-table", "3", "2"],
    ]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_budget_below_one_exits_one(self, capsys, command):
        # A budget below 1 is an input error, not a budget refusal (exit 2).
        for budget in ("0", "-5"):
            code, out, err = run(capsys, *command, "--budget", budget)
            assert code == 1
            assert out == ""
            assert f"--budget: must be at least 1, got {budget}" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_threads_below_one_exits_one(self, capsys, command):
        # Rejected while parsing, before a small budget could refuse first.
        for threads in ("0", "-2"):
            code, out, err = run(capsys, *command, "--threads", threads, "--budget", "1")
            assert code == 1
            assert out == ""
            assert f"--threads: must be at least 1, got {threads}" in err


    def test_repeated_calls_carry_nothing_over(self, capsys):
        # One parser serves every call in the process; each call still
        # starts from the defaults.
        assert build_parser() is build_parser()
        argv = ["rghw", "five-points-f3", "--json"]
        code, out, _ = run(capsys, *argv, "--validate", "--budget", "100")
        assert code == 2
        assert json.loads(out)["budget"] == 100
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["budget"] == DEFAULT_BUDGET
        assert build_parser().parse_args(argv).validate is False
        code, out, _ = run(capsys, *argv, "--order", "lex")
        assert json.loads(out)["order"] == "lex"
        code, out, _ = run(capsys, *argv)
        assert json.loads(out)["order"] == "grevlex"
        code, out, err = run(capsys, *argv, "--budget", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("usage: evalcodes rghw")
        assert run(capsys, *argv)[0] == 0


class TestCertification:
    def test_sharp_gap_is_not_certified(self, capsys):
        code, out, _ = run(capsys, "rghw", "torus-f5-sharp-gap", "--json")
        assert code == 0
        entry = json.loads(out)["results"][0]
        assert (entry["rghw"], entry["relative_footprint"]) == (8, 4)
        assert entry["certified"] is False
        code, out, _ = run(capsys, "rghw", "torus-f5-sharp-gap")
        assert "M_1 = 8  RFP_1 = 4\n" in out
        assert "(certified)" not in out

    def test_five_points_are_certified(self, capsys):
        code, out, _ = run(capsys, "rghw", "five-points-f3", "--json")
        assert code == 0
        assert [e["certified"] for e in json.loads(out)["results"]] == [True, True]
        code, out, _ = run(capsys, "rghw", "five-points-f3")
        assert "r=1: M_1 = 1  RFP_1 = 1  (certified)" in out
        assert "r=2: M_2 = 2  RFP_2 = 2  (certified)" in out

    def test_value_below_the_footprint_bound_aborts(self, capsys, monkeypatch):
        # M_r >= RFP_r always holds; a report contradicting it is refused.
        monkeypatch.setattr(cli, "relative_footprint", lambda problem, r: 99)
        with pytest.raises(RuntimeError, match="below footprint bound 99"):
            main(["rghw", "five-points-f3", "--json"])
        assert capsys.readouterr().out == ""

    def test_refused_entry_is_not_judged(self, capsys):
        code, out, _ = run(capsys, "rghw", "five-points-f3", "--budget", "10", "--json")
        assert code == 2
        assert [e["certified"] for e in json.loads(out)["results"]] == [None, None]


def _five_point_file(**changes):
    data = {
        "schema": 1,
        "q": 3,
        "s": 2,
        "points": [[0, 0], [1, 0], [0, 1], [1, 1], [0, -1]],
        "L1": {"total_degree": 2},
        "L2": {"total_degree": 1},
        "r": [1],
    }
    data.update(changes)
    return data


class TestFamilySize:
    """A point family is counted before it is listed, and refused with exit 1
    above DEFAULT_BUDGET points."""

    @staticmethod
    def _unlisted(monkeypatch):
        for name in ("torus_points", "cartesian_points"):
            monkeypatch.setattr(cli, name, _no_building)

    def test_huge_families_refused_at_once(self, capsys, tmp_path, monkeypatch):
        # (3 - 1)^40 = 2^40 points either way.
        self._unlisted(monkeypatch)
        cartesian = tmp_path / "cartesian.json"
        family = {"family": "cartesian", "subsets": [[0, 1]] * 40}
        cartesian.write_text(json.dumps(_five_point_file(s=40, points=family)))
        torus = DATA / "torus-f3-s40.json"
        for path, family in ((torus, "torus"), (cartesian, "cartesian")):
            start = time.perf_counter()
            code, out, err = run(capsys, "rghw", str(path))
            assert time.perf_counter() - start < 1
            assert code == 1
            assert out == ""
            assert err == (
                f"error: the {family} family has 1099511627776 points,"
                f" over the limit {DEFAULT_BUDGET}\n"
            )

    @pytest.mark.parametrize(
        "points",
        [
            {"family": "torus"},
            {"family": "cartesian", "subsets": [[0, 1]] * 64},
            {"family": "cartesian", "subsets": [[0, 1, 2]] * 100},
        ],
    )
    def test_counts_from_2_to_the_64_named_as_such(
        self, capsys, monkeypatch, tmp_path, points
    ):
        # The torus count is (q - 1)^min(s, 64), never the full power.
        self._unlisted(monkeypatch)
        path = tmp_path / "problem.json"
        s = len(points["subsets"]) if "subsets" in points else 10**12
        path.write_text(json.dumps(_five_point_file(s=s, points=points)))
        code, _, err = run(capsys, "vanishing-ideal", str(path))
        assert code == 1
        assert "family has at least 2^64 points" in err

    def test_limit_boundary(self, capsys, monkeypatch, tmp_path):
        # The torus of GF(5)^2 has 16 points: listed at a limit of 16,
        # refused at 15.
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(_five_point_file(q=5, points={"family": "torus"})))
        monkeypatch.setattr(cli, "DEFAULT_BUDGET", 16)
        code, out, _ = run(capsys, "vanishing-ideal", str(path), "--json")
        assert (code, json.loads(out)["n"]) == (0, 16)
        monkeypatch.setattr(cli, "DEFAULT_BUDGET", 15)
        code, _, err = run(capsys, "vanishing-ideal", str(path))
        assert code == 1
        assert "the torus family has 16 points, over the limit 15" in err
        # An empty subset lists no point, whatever the others multiply to.
        empty = {"family": "cartesian", "subsets": [[0, 1]] * 70 + [[]]}
        path.write_text(json.dumps(_five_point_file(s=71, points=empty)))
        code, _, err = run(capsys, "vanishing-ideal", str(path))
        assert code == 1
        assert "point set is empty" in err


class TestTotalDegreeShorthand:
    """Exponents are capped at min(d, q - 1), since t^q = t on K."""

    def test_same_standardized_space_as_the_uncapped_list(self):
        for q in (2, 3, 5):
            field = PrimeField(q)
            for s in (1, 2, 3):
                # All of K^s: any function on a point set extends to it.
                gb = vanishing_ideal(PointSet(field, product(range(q), repeat=s)))
                for d in range(s * (q - 1) + 3):
                    data = {"schema": 1, "q": q, "s": s, "points": [[0] * s]}
                    data["L1"] = {"total_degree": d}
                    capped = resolve_problem(data).space1
                    uncapped = [
                        Polynomial.monomial(field, m)
                        for m in product(range(d + 1), repeat=s)
                        if sum(m) <= d
                    ]
                    assert len(capped) <= len(uncapped)
                    assert standardize(capped, gb) == standardize(uncapped, gb)

    def test_huge_degree_answers_at_once(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(_five_point_file(L1={"total_degree": 10**6}, L2=None)))
        start = time.perf_counter()
        code, out, _ = run(capsys, "rghw", str(path), "--json")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert json.loads(out)["k1"] == 5


class TestSpaceShorthands:
    """Each shorthand lists the monomials of its degree window in its box."""

    def test_same_lists_as_the_box_walk(self):
        # The walks the shorthands used to make: the box of exponents at
        # most min(d, q - 1), or the squarefree box, filtered by degree.
        for q in (2, 3, 5):
            field = PrimeField(q)
            for s in range(1, 5):
                cases = [
                    ({"total_degree": d}, (min(d, q - 1) + 1,) * s, 0, d)
                    for d in range(s * (q - 1) + 3)
                ]
                for d in range(s + 1):
                    cases.append(({"squarefree_degree": d}, (2,) * s, d, d))
                    cases.append(({"squarefree_max_degree": d}, (2,) * s, 0, d))
                for spec, bounds, low, high in cases:
                    expected = [
                        Polynomial.monomial(field, m)
                        for m in box_monomials(bounds, low, high)
                    ]
                    assert cli._space_polynomials(spec, field, s) == expected
                    # The closed form that counts the list before it is made.
                    [(key, d)] = spec.items()
                    assert cli._shorthand_size(key, d, q, s) == len(expected)

    def test_huge_counts_refused_before_listing(self, capsys, monkeypatch):
        # Counts past 2^64 stop early however large s and d are; the CI
        # family size check runs the s = 40 file.
        monkeypatch.setattr(cli, "monomials", _no_building)
        for key, d, q, s in [
            ("squarefree_degree", 5 * 10**5, 3, 10**6),
            ("squarefree_max_degree", 10**6, 3, 10**6),
            ("total_degree", 10**18, 3, 10**6),
            ("total_degree", 10**30, 2**61 - 1, 63),
        ]:
            assert cli._shorthand_size(key, d, q, s) >= 2**64
            with pytest.raises(ValueError, match="at least 2.64 monomials"):
                cli._space_polynomials({key: d}, PrimeField(q), s)
        start = time.perf_counter()
        code, _, err = run(capsys, "rghw", str(DATA / "squarefree-max-f3-s40.json"))
        assert time.perf_counter() - start < 1
        assert code == 1
        assert "has 1099511627776 monomials" in err

    def test_wide_squarefree_spaces_answer_at_once(self, capsys):
        # Boxes of 2^21 and 2^30 vectors hold 22 and 435 monomials.
        start = time.perf_counter()
        spec = {"squarefree_max_degree": 1}
        assert len(cli._space_polynomials(spec, F3, 21)) == 22
        path = DATA / "squarefree-f3-s30.json"
        code, out, _ = run(capsys, "rghw", str(path), "--json")
        assert time.perf_counter() - start < 5
        assert code == 0
        assert [e["rghw"] for e in json.loads(out)["results"]] == [1]


MISSING = object()  # drops the key from the problem file


class TestProblemFileRefusals:
    """A malformed problem file exits 1 at once, with a message naming the
    fault and nothing on stdout."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"q": MISSING}, "problem file is missing 'q'"),
            ({"s": MISSING}, "problem file is missing 's'"),
            ({"points": MISSING}, "problem file is missing 'points'"),
            ({"L1": MISSING}, "problem file is missing 'L1'"),
            ({"s": 0}, "s must be positive"),
            ({"r": [1, 0]}, "'r' must be a list of positive integers"),
            ({"r": 1}, "'r' entry must be a list of integers, got 1"),
            ({"points": [[0, 0], 1]}, "point coordinate must be a list of integers"),
            ({"L1": {"total_degree": -1}}, "total_degree must be non-negative"),
            ({"L1": {"squarefree_degree": 3}}, "squarefree_degree must lie in [0, s]"),
            ({"L2": {"squarefree_max_degree": -1}}, "squarefree_max_degree must lie in"),
            ({"L1": {"degree": 2}}, "unknown space shorthand {'degree': 2}"),
            ({"L1": ["1", 3]}, "cannot parse polynomial entry 3"),
            ({"L1": "t1 + t2"}, "space specification must be a list or shorthand"),
            ({"points": "all"}, "points must be a coordinate list or a family object"),
            ({"points": [[0, 0, 0], [1, 0, 0]]}, "points have arity 3, expected s=2"),
            (
                {"points": {"family": "cartesian", "subsets": [[0, 1]]}},
                "cartesian family needs s coordinate subsets",
            ),
            ({"points": {"family": "grid"}}, "unknown point family 'grid'"),
            # A misspelt key would leave its value unread.
            (
                {"l2": {"total_degree": 1}},
                "unknown problem file key 'l2'; known: schema, q, s, order,"
                " points, L1, L2, r",
            ),
            ({"R": [2]}, "unknown problem file key 'R'"),
            (
                {"points": {"family": "torus", "subset": [[0, 1]]}},
                "unknown point family key 'subset'; known: family",
            ),
            # Shorthands are counted before they are listed: 2^40, C(40, 20)
            # and all 3^15 monomials of the box [0, 3)^15.
            (
                {"s": 40, "points": [[0] * 40], "L1": {"squarefree_max_degree": 40}},
                "the squarefree_max_degree space has 1099511627776 monomials,"
                f" over the limit {DEFAULT_BUDGET}",
            ),
            (
                {"s": 40, "points": [[0] * 40], "L2": {"squarefree_degree": 20}},
                "the squarefree_degree space has 137846528820 monomials",
            ),
            (
                {"s": 15, "points": [[0] * 15], "L1": {"total_degree": 30}},
                "the total_degree space has 14348907 monomials",
            ),
            (
                {"s": 70, "points": [[0] * 70], "L1": {"squarefree_max_degree": 70}},
                "the squarefree_max_degree space has at least 2^64 monomials",
            ),
            # Each family has its own keys: the torus reads no subsets, so
            # they would be dropped unread.
            (
                {"points": {"family": "torus", "subsets": [[0, 1], [0, 2]]}},
                "unknown point family key 'subsets'; known: family",
            ),
            (
                {"points": {"family": "cartesian", "subsets": [[0], [1]], "s": 2}},
                "unknown point family key 's'; known: family, subsets",
            ),
            ({"points": {"family": ["torus"]}}, "unknown point family ['torus']"),
        ],
    )
    def test_refused_with_exit_one(self, capsys, tmp_path, changes, message):
        data = _five_point_file(**changes)
        data = {key: value for key, value in data.items() if value is not MISSING}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        code, out, err = run(capsys, "rghw", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")


class TestStrictIntegers:
    """Floats and booleans are refused with exit 1, never truncated."""

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"q": 3.7}, "'q'"),
            ({"q": 3.0}, "'q'"),
            ({"s": 2.9}, "'s'"),
            ({"s": True}, "'s'"),
            ({"L1": {"total_degree": 2.0}}, "total_degree"),
            ({"L1": {"squarefree_degree": True}}, "squarefree_degree"),
            ({"L2": {"squarefree_max_degree": 1.5}}, "squarefree_max_degree"),
            ({"points": [[0, 0], [1, 0], [0, 1], [1, 1], [0, -1.0]]}, "point coordinate"),
            ({"points": [[0, 0], [1, False]]}, "point coordinate"),
            (
                {"points": {"family": "cartesian", "subsets": [[0, 1], [0, 1.0]]}},
                "subset coordinate",
            ),
            ({"L1": [[[[1, 0], 1.5]]]}, "coefficient"),
            ({"L1": [[[[1.0, 0], 1]]]}, "exponent"),
            ({"r": [True]}, "'r' entry"),
            ({"r": [1.0]}, "'r' entry"),
        ],
    )
    def test_non_integer_refused(self, capsys, tmp_path, changes, field):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(_five_point_file(**changes)))
        code, out, err = run(capsys, "rghw", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {field} must be an integer")

    @pytest.mark.parametrize("schema", [True, 1.0])
    def test_non_integer_schema_refused(self, capsys, tmp_path, schema):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(_five_point_file(schema=schema)))
        start = time.perf_counter()
        code, out, err = run(capsys, "rghw", str(path))
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert err == 'error: problem file must be an object with "schema": 1\n'

    def test_reported_example_refused(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(
            json.dumps(
                _five_point_file(
                    q=3.7, s=2.9, points=[[0, 0], [1, 0], [0, 1], [1, 1], [0, -1.0]], r=[True]
                )
            )
        )
        assert run(capsys, "rghw", str(path), "--json")[0] == 1

    def test_integers_still_accepted(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(_five_point_file(r=[1, 2])))
        code, out, _ = run(capsys, "rghw", str(path), "--json")
        assert code == 0
        assert [e["rghw"] for e in json.loads(out)["results"]] == [1, 2]


@pytest.mark.parametrize(
    "fixture", ["five-points-f3", "hypersimplex-f3-s4", "torus-f5-sharp-gap"]
)
def test_rghw_builds_one_bound_tree_per_r(capsys, monkeypatch, fixture):
    # relative_footprint, the witness and the search read the same tree for
    # each r, and its leaves are counted one parent at a time: one reduction
    # for each of the C(|realized| - 1, r - 1) parents of leaves (the last
    # lead of a parent leaves at least one realized lead after it), once
    # per run.
    parents = []
    real = weights._leaf_bounds

    def counted(problem, parent, candidates):
        parents.append((problem, len(parent)))
        return real(problem, parent, candidates)

    monkeypatch.setattr(weights, "_leaf_bounds", counted)
    code, out, _ = run(capsys, "rghw", fixture, "--validate", "--json")
    assert code == 0
    r_values = [e["r"] for e in json.loads(out)["results"]]
    assert len({id(problem) for problem, _ in parents}) == 1
    realized = parents[0][0]._realized
    per_r = {r: sum(1 for _, size in parents if size == r - 1) for r in r_values}
    assert per_r == {r: math.comb(realized - 1, r - 1) for r in r_values}
    assert len(parents) == sum(per_r.values())


FIXTURE_PAYLOADS = json.loads((DATA / "fixture-payloads.json").read_text())
PAYLOAD_ARGS = {"vanishing-ideal": [], "rghw": ["--validate"], "weights": []}


@pytest.mark.parametrize("key", sorted(FIXTURE_PAYLOADS))
def test_fixture_payloads_unchanged(capsys, key):
    # Every payload of the three fixtures in each order, as recorded before
    # product point sets took the closed form; only the elapsed time varies.
    command, fixture, order = key.split()
    argv = [command, fixture, *PAYLOAD_ARGS[command], "--order", order, "--json"]
    code, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    payload.pop("elapsed_seconds", None)
    assert {"exit": code, "payload": payload} == FIXTURE_PAYLOADS[key]
