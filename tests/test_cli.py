import json
import math
import random

import pytest

from evalcodes import (
    BudgetExceededError,
    Polynomial,
    PrimeField,
    cli,
    format_polynomial,
)
from evalcodes.cli import (
    fixture_names,
    load_problem,
    main,
    parse_polynomial,
    polynomial_from_pairs,
)

SEED = 20260823
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
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q": 3}))
        with pytest.raises(ValueError):
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
            {"r": 1, "rghw": 1, "relative_footprint": 1, "certified": True, "refusal": None},
            {"r": 2, "rghw": 2, "relative_footprint": 2, "certified": True, "refusal": None},
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
        _, plain, _ = run(capsys, "rghw", "five-points-f3", "--json")
        _, checked, _ = run(capsys, "rghw", "five-points-f3", "--validate", "--json")
        assert json.loads(plain)["results"] == json.loads(checked)["results"]

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

    def test_budget_refuses_rows_before_building_codes(self, capsys, monkeypatch):
        # 3^k > 1 for every row, so every row is refused from its dimension
        # alone, before any polynomial is evaluated at the 1024 torus points.
        def no_evaluation(*args):
            raise AssertionError("a refused row's code was evaluated")

        monkeypatch.setattr(Polynomial, "evaluate", no_evaluation)
        code, out, _ = run(capsys, "toric-table", "3", "10", "--budget", "1", "--json")
        assert code == 2
        rows = json.loads(out)["rows"]
        assert [row["n"] for row in rows] == [1024] * 10
        assert [row["k"] for row in rows] == [math.comb(10, d) for d in range(1, 11)]
        for row in rows:
            refusal = BudgetExceededError(3 ** row["k"], 1, "codeword enumeration")
            assert row["refusal"] == str(refusal)
            assert row["min_distance"] is None and row["next_to_minimal"] is None


class TestArgumentHandling:
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
