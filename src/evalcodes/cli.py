"""Command line interface.

Four subcommands: vanishing-ideal, rghw, toric-table and weights.  Problem
files are JSON objects with a "schema": 1 marker:

    {
      "schema": 1,
      "q": 3, "s": 2,
      "order": "grevlex",
      "points": [[0, 0], [1, 0]],          or {"family": "torus"}
                                            or {"family": "cartesian",
                                                "subsets": [[0, 1], [0, 1, 2]]}
      "L1": {"total_degree": 2},            or a list of polynomials
      "L2": {"total_degree": 1},            optional; absent means zero
      "r": [1, 2]                           optional; defaults to [1]
    }

Polynomials are strings like "t1^2*t2 + 2*t2 - 1" (factors joined by "*",
terms by "+"/"-") or lists of [[e1, ..., es], coeff] term pairs; an
exponent e >= q is read as ((e - 1) mod (q - 1)) + 1, the same function on
GF(q), and terms that then coincide are added.  Space shorthands:
{"total_degree": d}, {"squarefree_degree": d},
{"squarefree_max_degree": d}.  Integers in a problem file (the schema, q,
s, degrees, coordinates, exponents, coefficients, r) must be JSON integers:
floats and booleans are refused, never truncated.  A key outside those
shown is refused by name ("subsets" in a torus too).  A point family of
more than DEFAULT_BUDGET points, or a shorthand of more than DEFAULT_BUDGET
monomials, is counted in closed form and refused before it is listed.
Exit codes: 0 success, 1 input error, 2 budget refusal.
"""

import argparse
import functools
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .codes import DEFAULT_BUDGET, evaluate_space, next_to_minimal, weight_distribution
from .codes import WeightProfile, enumeration_size, standardize
from .errors import BudgetExceededError
from .families import (
    HypersimplexSpec,
    cartesian_points,
    toric_deg1_weight,
    toric_min_distance_formula,
    toric_space,
    torus_points,
)
from .field import PrimeField
from .groebner import PointSet, footprint, vanishing_ideal
from .poly import Polynomial, format_polynomial, monomials, order_by_name
from .weights import RghwProblem, _oracle_skipped, relative_footprint, rghw_degree

_FACTOR_VAR = re.compile(r"t(\d+)(?:\^(\d+))?\Z")
_FACTOR_INT = re.compile(r"\d+\Z")
_TERM_SPLIT = re.compile(r"(?=[+-])")
_PROBLEM_KEYS = ("schema", "q", "s", "order", "points", "L1", "L2", "r")
_FAMILY_KEYS = {"torus": ("family",), "cartesian": ("family", "subsets")}


def _integer(value, what):
    """A problem-file integer; booleans, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _integer_list(values, what):
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return [_integer(v, what) for v in values]


def _term_monomial(exps, q):
    """The exponent vector of a parsed term, each e >= q lowered to
    ((e - 1) mod (q - 1)) + 1: x^e = x^e' for every x in GF(q) when e, e' >= 1
    and e = e' mod (q - 1), so the lowered term takes the same values."""
    return tuple(e if e < q else (e - 1) % (q - 1) + 1 for e in exps)


def parse_polynomial(text, field, nvars):
    """Parse the text form: terms joined by + or -, factors by *."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial string")
    terms = {}
    for chunk in _TERM_SPLIT.split(text.replace(" ", "")):
        if not chunk:
            continue
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        exps = [0] * nvars
        for factor in chunk.split("*"):
            m = _FACTOR_VAR.match(factor)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= nvars:
                    raise ValueError(
                        f"variable t{idx} out of range for s={nvars}"
                    )
                exps[idx - 1] += int(m.group(2) or 1)
                continue
            if _FACTOR_INT.match(factor):
                coeff *= int(factor)
                continue
            raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
        mono = _term_monomial(exps, field.q)
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(field, nvars, terms)


def polynomial_from_pairs(pairs, field, nvars):
    """Parse the [[exponents], coeff] term pair form."""
    terms = {}
    for item in pairs:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not isinstance(item[0], (list, tuple))
        ):
            raise ValueError(f"expected [[exponents], coeff] pair, got {item!r}")
        exps, coeff = item
        if len(exps) != nvars:
            raise ValueError(
                f"exponent vector {exps!r} has wrong length for s={nvars}"
            )
        mono = _term_monomial([_integer(e, "exponent") for e in exps], field.q)
        terms[mono] = terms.get(mono, 0) + _integer(coeff, "coefficient")
    return Polynomial(field, nvars, terms)


def _space_polynomials(spec, field, s):
    """Basis polynomials for a space specification (list or shorthand)."""
    if isinstance(spec, dict):
        key, d = next(iter(spec.items())) if len(spec) == 1 else (None, None)
        if key == "total_degree":
            if _integer(d, key) < 0:
                raise ValueError("total_degree must be non-negative")
            # t^q = t on K, so exponents above q - 1 add nothing on X.
            bounds, low = (field.q,) * s, 0
        elif key in ("squarefree_degree", "squarefree_max_degree"):
            if not 0 <= _integer(d, key) <= s:
                raise ValueError(f"{key} must lie in [0, s]")
            bounds, low = (2,) * s, d if key == "squarefree_degree" else 0
        else:
            raise ValueError(f"unknown space shorthand {spec!r}")
        size = _shorthand_size(key, d, field.q, s)
        _check_size(f"the {key} space", size, "monomials")
        return [Polynomial.monomial(field, m) for m in monomials(bounds, low, d)]
    if isinstance(spec, list):
        polys = []
        for item in spec:
            if isinstance(item, str):
                polys.append(parse_polynomial(item, field, s))
            elif isinstance(item, list):
                polys.append(polynomial_from_pairs(item, field, s))
            else:
                raise ValueError(f"cannot parse polynomial entry {item!r}")
        return polys
    raise ValueError(f"space specification must be a list or shorthand, got {spec!r}")


def _shorthand_size(key, d, q, s):
    """The number of monomials a shorthand lists, or a count of at least
    2^64 when it has that many: C(s, d) for squarefree_degree, the sum of
    C(s, i) over i <= d for squarefree_max_degree, and for total_degree
    over the box [0, q)^s, N(d) = sum_j (-1)^j C(s, j) C(d - jq + s, s).
    The C(s, i) are built one from the last and stop past 2^64, so a huge s
    takes few steps.  N(d) is at least the count of squarefree monomials of
    degree at most min(d, s); when that is below 2^64, d or s is small and
    the sum is short, with d capped at s (q - 1), the top degree."""

    def binomials(top):  # C(s, 0), C(s, 1), ..., C(s, top) or to past 2^64
        row = [1]
        for i in range(top):
            if row[-1] >= 2**64:
                break
            row.append(row[-1] * (s - i) // (i + 1))
        return row

    if key == "squarefree_degree":
        # C(s, i) grows with i up to s / 2, and C(s, d) = C(s, s - d).
        return binomials(min(d, s - d))[-1]
    count = sum(binomials(min(d, s)))
    if key == "squarefree_max_degree" or count >= 2**64:
        return count
    d = min(d, s * (q - 1))
    return sum(
        (-1) ** j * math.comb(s, j) * math.comb(d - j * q + s, s)
        for j in range(d // q + 1)
    )


def _points_from_spec(spec, field, s):
    if isinstance(spec, list):
        pts = PointSet(field, [_integer_list(p, "point coordinate") for p in spec])
        if pts.nvars != s:
            raise ValueError(f"points have arity {pts.nvars}, expected s={s}")
        return pts
    if isinstance(spec, dict) and "family" in spec:
        family = spec["family"]
        if not isinstance(family, str) or family not in _FAMILY_KEYS:
            raise ValueError(f"unknown point family {family!r}")
        _check_keys(spec, _FAMILY_KEYS[family], "point family")
        if family == "torus":
            # (q - 1)^s with s capped at 64: exact below 2^64, at least 2^64 above.
            _check_size(f"the {family} family", (field.q - 1) ** min(s, 64), "points")
            return torus_points(field, s)
        subsets = spec.get("subsets")
        if not isinstance(subsets, list) or len(subsets) != s:
            raise ValueError("cartesian family needs s coordinate subsets")
        subsets = [_integer_list(c, "subset coordinate") for c in subsets]
        _check_size(f"the {family} family", math.prod(map(len, subsets)), "points")
        return cartesian_points(field, subsets)
    raise ValueError("points must be a coordinate list or a family object")


def _check_size(what, count, items):
    """Refuse a list of more than DEFAULT_BUDGET items before it is built."""
    if count > DEFAULT_BUDGET:
        named = count if count < 2**64 else "at least 2^64"
        raise ValueError(f"{what} has {named} {items}, over the limit {DEFAULT_BUDGET}")


def _check_keys(data, known, what):
    """Refuse a key outside `known`: a misspelt key would go unread."""
    for key in data:
        if key not in known:
            raise ValueError(f"unknown {what} key {key!r}; known: {', '.join(known)}")


def _fixture_dir():
    return resources.files("evalcodes") / "fixtures"


def fixture_names():
    return sorted(
        p.name[: -len(".json")]
        for p in _fixture_dir().iterdir()
        if p.name.endswith(".json")
    )


def load_problem(source):
    """Load a problem file from a path or a built-in fixture name."""
    path = Path(source)
    if path.exists():
        text = path.read_text()
    else:
        name = source if source.endswith(".json") else source + ".json"
        candidate = _fixture_dir() / name
        if not candidate.is_file():
            raise ValueError(
                f"no such file or fixture {source!r};"
                f" fixtures: {', '.join(fixture_names())}"
            )
        text = candidate.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {source}: {exc}") from exc
    schema = data.get("schema") if isinstance(data, dict) else None
    if type(schema) is not int or schema != 1:  # true == 1.0 == 1 in Python
        raise ValueError('problem file must be an object with "schema": 1')
    return data


@dataclass
class ResolvedProblem:
    data: dict
    field: object
    s: int
    order: object
    points: object
    space1: list
    space2: list | None
    r_values: list


def resolve_problem(data, order_override=None, need_spaces=True):
    _check_keys(data, _PROBLEM_KEYS, "problem file")
    for key in ("q", "s", "points"):
        if key not in data:
            raise ValueError(f"problem file is missing {key!r}")
    field = PrimeField(_integer(data["q"], "'q'"))
    s = _integer(data["s"], "'s'")
    if s < 1:
        raise ValueError("s must be positive")
    order_name = order_override or data.get("order", "grevlex")
    order = order_by_name(order_name)
    points = _points_from_spec(data["points"], field, s)
    space1 = space2 = None
    if need_spaces:
        if "L1" not in data:
            raise ValueError("problem file is missing 'L1'")
        space1 = _space_polynomials(data["L1"], field, s)
        if data.get("L2") is not None:
            space2 = _space_polynomials(data["L2"], field, s)
    r_values = _integer_list(data.get("r", [1]), "'r' entry")
    if not all(r >= 1 for r in r_values):
        raise ValueError("'r' must be a list of positive integers")
    return ResolvedProblem(data, field, s, order, points, space1, space2, r_values)


def run_command(args):
    """Run one subcommand and print its report; the exit code, 2 on any
    refusal.

    A command on a problem file gets the loaded and resolved problem; the
    load is not timed.  `args.func(args, resolved)` returns (fields, text
    lines, refused).  The --json payload has the schema and command, then
    for a problem file the problem, order, q, s and n of the resolved
    problem, then the command's own fields, then the elapsed time; the text
    report ends with an "elapsed:" line.
    """
    payload = {"schema": 1, "command": args.command}
    resolved = None
    if hasattr(args, "problem"):
        data = load_problem(args.problem)
        need_spaces = args.command != "vanishing-ideal"
        resolved = resolve_problem(data, args.order, need_spaces)
        payload.update(
            problem=resolved.data,
            order=resolved.order.name,
            q=resolved.field.q,
            s=resolved.s,
            n=len(resolved.points),
        )
    t0 = time.perf_counter()
    fields, lines, refused = args.func(args, resolved)
    elapsed = time.perf_counter() - t0
    payload.update(fields, elapsed_seconds=elapsed)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in [*lines, f"elapsed: {elapsed:.3f}s"]:
            print(line)
    return 2 if refused else 0


def cmd_vanishing_ideal(args, resolved):
    gb = vanishing_ideal(resolved.points, resolved.order)
    fp = footprint(gb)
    fields = dict(
        generators=[format_polynomial(g) for g in gb.generators],
        initial_ideal=[list(m) for m in gb.leads()],
        footprint_size=len(fp),
        standard_monomials=[list(m) for m in fp],
    )
    lines = [
        f"vanishing ideal: q={resolved.field.q} s={resolved.s}"
        f" n={len(resolved.points)} order={resolved.order.name}",
        "generators:",
        *(f"  {g}" for g in fields["generators"]),
        f"footprint size: {len(fp)}",
    ]
    return fields, lines, False


def cmd_rghw(args, resolved):
    problem = RghwProblem(
        resolved.points, resolved.space1, resolved.space2, resolved.order
    )
    results = []
    skipped = {}  # r -> subcodes past the budget, where the oracle did not run
    for r in resolved.r_values:
        entry = {
            "r": r,
            "rghw": None,
            "relative_footprint": relative_footprint(problem, r),
            "certified": None,
            "oracle": None,
            "refusal": None,
        }
        try:
            entry["rghw"] = rghw_degree(
                problem, r, budget=args.budget, validate=args.validate
            )
        except BudgetExceededError as exc:
            entry["refusal"] = str(exc)
        else:
            if entry["rghw"] < entry["relative_footprint"]:
                raise RuntimeError(
                    f"internal inconsistency: M_{r}={entry['rghw']} below"
                    f" footprint bound {entry['relative_footprint']}"
                )
            # M_r meeting the lower bound RFP_r certifies the value by itself.
            entry["certified"] = entry["rghw"] == entry["relative_footprint"]
            if args.validate:
                skipped[r] = _oracle_skipped(problem, r, args.budget)
                entry["oracle"] = skipped[r] is None
        results.append(entry)
    fields = dict(k1=problem.k1, k2=problem.k2, results=results)
    fields.update(weights=None, refusal=None, budget=args.budget)
    lines = [
        f"rghw: q={resolved.field.q} s={resolved.s} n={len(resolved.points)}"
        f" k1={problem.k1} k2={problem.k2} order={resolved.order.name}"
    ]
    for entry in results:
        r = entry["r"]
        if entry["refusal"]:
            lines.append(f"r={r}: refused ({entry['refusal']})")
        else:
            lines.append(
                f"r={r}: M_{r} = {entry['rghw']}"
                f"  RFP_{r} = {entry['relative_footprint']}"
                + ("  (certified)" if entry["certified"] else "")
                + (
                    f"  [oracle skipped: {skipped[r]} subcodes > budget {args.budget}]"
                    if entry["oracle"] is False
                    else ""
                )
            )
    return fields, lines, any(entry["refusal"] for entry in results)


def cmd_weights(args, resolved):
    gb = vanishing_ideal(resolved.points, resolved.order)
    code = evaluate_space(standardize(resolved.space1, gb), resolved.points)
    refusal = None
    weights = None
    try:
        profile = weight_distribution(code, budget=args.budget)
        weights = {
            "distribution": [[w, c] for w, c in sorted(profile.distribution.items())],
            "distinct_weights": profile.distinct_weights,
        }
    except BudgetExceededError as exc:
        refusal = str(exc)
    fields = dict(k1=code.k, k2=0, results=[])
    fields.update(weights=weights, refusal=refusal, budget=args.budget)
    lines = [
        f"weights: q={resolved.field.q} s={resolved.s} n={code.n} k={code.k}"
        f" order={resolved.order.name}"
    ]
    if refusal:
        lines.append(f"refused ({refusal})")
    else:
        lines.append("weight  count")
        for w, c in weights["distribution"]:
            lines.append(f"{w:6d}  {c}")
        lines.append(f"distinct nonzero weights: {weights['distinct_weights']}")
    return fields, lines, refusal is not None


def cmd_toric_table(args, resolved):
    field = PrimeField(args.q)
    if args.s < 1:
        raise ValueError("s must be positive")
    rows = []
    points = None  # the torus, built for the first row that is not refused
    for d in range(1, args.s + 1):
        spec = HypersimplexSpec(field, args.s, d)
        row = {"d": d, "n": (args.q - 1) ** args.s, "k": spec.dim}  # n = |(K*)^s|
        row["min_distance_formula"] = toric_min_distance_formula(args.q, args.s, d)
        row.update(min_distance=None, next_to_minimal=None, refusal=None)
        try:
            if d == args.s:
                # The one monomial t1...ts is nonzero on the whole torus: the
                # repetition code, with nothing to list or count.
                repetition = {0: 1, row["n"]: args.q - 1}
                profile = WeightProfile(row["n"], args.q, 1, repetition)
            else:
                # Refused from (k, n) alone, before the space and the code
                # are built.  A row that passes has a torus of fewer than
                # q^k points, so the torus can be listed.
                enumeration_size(args.q, spec.dim, row["n"], args.budget)
                points = points or torus_points(field, args.s)
                profile = weight_distribution(
                    evaluate_space(toric_space(spec), points), budget=args.budget
                )
            row["min_distance"] = profile.minimum_distance
            # The second-weight convention is only defined for q >= 3.
            row["next_to_minimal"] = next_to_minimal(profile) if args.q >= 3 else None
            checks = [("distance", row["min_distance"], row["min_distance_formula"])]
            if d == 1 and args.q >= 3 and args.s >= 4:
                # The closed form of the degree one code's second weight,
                # defined for q >= 3 and t = 2 <= s / 2.
                second = toric_deg1_weight(args.q, args.s, 2)
                checks.append(
                    ("next-to-minimal weight", row["next_to_minimal"], second)
                )
            for what, got, formula in checks:
                if got != formula:
                    raise RuntimeError(
                        f"internal inconsistency: enumerated {what} {got}"
                        f" != formula {formula} at d={d}"
                    )
        except BudgetExceededError as exc:
            row["refusal"] = str(exc)
        rows.append(row)
    fields = dict(q=args.q, s=args.s, rows=rows, budget=args.budget)
    lines = [f"toric codes over hypersimplices: q={args.q} s={args.s}"]
    lines.append(" d    n    k  delta  delta_formula  delta2")
    for row in rows:
        if row["refusal"]:
            lines.append(
                f"{row['d']:2d} {row['n']:4d} {row['k']:4d}  refused"
                f" ({row['refusal']})"
            )
        else:
            delta2 = row["next_to_minimal"]
            lines.append(
                f"{row['d']:2d} {row['n']:4d} {row['k']:4d}"
                f" {row['min_distance']:6d} {row['min_distance_formula']:14d}"
                f" {delta2 if delta2 is not None else '-':>7}"
            )
    return fields, lines, any(row["refusal"] for row in rows)


def positive_int(text):
    """Argument type for --budget and --threads: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors exit with code 1; 2 is reserved for budget refusals."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def build_parser():
    """The argument parser, built on first use and then shared by every call."""
    parser = _ArgumentParser(
        prog="evalcodes",
        description="Weight hierarchies of evaluation codes over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    def common(p, spaces=True):
        p.add_argument(
            "--order",
            choices=["lex", "grlex", "grevlex"],
            default=None,
            help="monomial order override (default: problem file, then grevlex)",
        )
        p.add_argument("--json", action="store_true", help="machine readable output")
        if spaces:
            p.add_argument(
                "--budget",
                type=positive_int,
                default=DEFAULT_BUDGET,
                help=f"enumeration element budget (default {DEFAULT_BUDGET})",
            )
            p.add_argument(
                "--threads",
                type=positive_int,
                default=None,
                help="accepted and ignored; at least 1",
            )

    p = sub.add_parser(
        "vanishing-ideal",
        help="reduced basis and footprint of the ideal of a point set",
    )
    p.add_argument("problem", help="problem file path or fixture name")
    common(p, spaces=False)
    p.set_defaults(func=cmd_vanishing_ideal)

    p = sub.add_parser(
        "rghw", help="relative generalized Hamming weights and footprint bounds"
    )
    p.add_argument("problem", help="problem file path or fixture name")
    p.add_argument(
        "--validate",
        action="store_true",
        help="cross check through the basis degree route and the definition oracle",
    )
    common(p)
    p.set_defaults(func=cmd_rghw)

    p = sub.add_parser(
        "toric-table",
        help="dimension and distance table of hypersimplex toric codes",
    )
    p.add_argument("q", type=int, help="prime field size")
    p.add_argument("s", type=int, help="number of variables")
    common(p)
    p.set_defaults(func=cmd_toric_table)

    p = sub.add_parser("weights", help="weight distribution of an evaluation code")
    p.add_argument("problem", help="problem file path or fixture name")
    common(p)
    p.set_defaults(func=cmd_weights)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return run_command(args)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
