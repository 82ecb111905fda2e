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
terms by "+"/"-") or lists of [[e1, ..., es], coeff] term pairs.  Space
shorthands: {"total_degree": d}, {"squarefree_degree": d},
{"squarefree_max_degree": d}.  Integers in a problem file (q, s, degrees,
coordinates, exponents, coefficients, r) must be JSON integers: floats and
booleans are refused, never truncated.  Exit codes: 0 success, 1 input
error, 2 budget refusal.
"""

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass
from importlib import resources
from itertools import product
from pathlib import Path

from .codes import DEFAULT_BUDGET, evaluate_space, next_to_minimal, weight_distribution
from .codes import enumeration_size
from .errors import BudgetExceededError
from .families import (
    HypersimplexSpec,
    cartesian_points,
    toric_min_distance_formula,
    toric_space,
    torus_points,
)
from .field import PrimeField
from .groebner import PointSet, footprint, initial_ideal, normal_form, vanishing_ideal
from .poly import Polynomial, echelonize, format_polynomial, order_by_name
from .weights import RghwProblem, relative_footprint, rghw_degree

_FACTOR_VAR = re.compile(r"t(\d+)(?:\^(\d+))?\Z")
_FACTOR_INT = re.compile(r"\d+\Z")
_TERM_SPLIT = re.compile(r"(?=[+-])")


def _integer(value, what):
    """A problem-file integer; booleans, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _integer_list(values, what):
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return [_integer(v, what) for v in values]


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
        mono = tuple(exps)
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
        mono = tuple(_integer(e, "exponent") for e in exps)
        terms[mono] = terms.get(mono, 0) + _integer(coeff, "coefficient")
    return Polynomial(field, nvars, terms)


def _space_polynomials(spec, field, s):
    """Basis polynomials for a space specification (list or shorthand)."""
    if isinstance(spec, dict):
        keys = set(spec)
        if keys == {"total_degree"}:
            d = _integer(spec["total_degree"], "total_degree")
            if d < 0:
                raise ValueError("total_degree must be non-negative")
            monos = [
                m for m in product(range(d + 1), repeat=s) if sum(m) <= d
            ]
        elif keys == {"squarefree_degree"}:
            d = _integer(spec["squarefree_degree"], "squarefree_degree")
            if not 0 <= d <= s:
                raise ValueError("squarefree_degree must lie in [0, s]")
            monos = [m for m in product(range(2), repeat=s) if sum(m) == d]
        elif keys == {"squarefree_max_degree"}:
            d = _integer(spec["squarefree_max_degree"], "squarefree_max_degree")
            if not 0 <= d <= s:
                raise ValueError("squarefree_max_degree must lie in [0, s]")
            monos = [m for m in product(range(2), repeat=s) if sum(m) <= d]
        else:
            raise ValueError(f"unknown space shorthand {spec!r}")
        return [Polynomial.monomial(field, m) for m in monos]
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


def _points_from_spec(spec, field, s):
    if isinstance(spec, list):
        pts = PointSet(field, [_integer_list(p, "point coordinate") for p in spec])
        if pts.nvars != s:
            raise ValueError(f"points have arity {pts.nvars}, expected s={s}")
        return pts
    if isinstance(spec, dict) and "family" in spec:
        family = spec["family"]
        if family == "torus":
            return torus_points(field, s)
        if family == "cartesian":
            subsets = spec.get("subsets")
            if not isinstance(subsets, list) or len(subsets) != s:
                raise ValueError("cartesian family needs s coordinate subsets")
            return cartesian_points(
                field, [_integer_list(c, "subset coordinate") for c in subsets]
            )
        raise ValueError(f"unknown point family {family!r}")
    raise ValueError("points must be a coordinate list or a family object")


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
    if not isinstance(data, dict) or data.get("schema") != 1:
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


def _report(command, elapsed, resolved=None, **fields):
    """The --json payload of every command.

    Commands on a problem file put the problem, order, q, s and n of the
    resolved problem after the schema and command; the command's own fields
    follow, then the elapsed time.
    """
    payload = {"schema": 1, "command": command}
    if resolved is not None:
        payload.update(
            problem=resolved.data,
            order=resolved.order.name,
            q=resolved.field.q,
            s=resolved.s,
            n=len(resolved.points),
        )
    payload.update(fields, elapsed_seconds=elapsed)
    return payload


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_vanishing_ideal(args):
    data = load_problem(args.problem)
    resolved = resolve_problem(data, args.order, need_spaces=False)
    t0 = time.perf_counter()
    gb = vanishing_ideal(resolved.points, resolved.order)
    fp = footprint(gb)
    elapsed = time.perf_counter() - t0
    payload = _report(
        "vanishing-ideal",
        elapsed,
        resolved,
        generators=[format_polynomial(g) for g in gb.generators],
        initial_ideal=[list(m) for m in initial_ideal(gb)],
        footprint_size=len(fp),
        standard_monomials=[list(m) for m in fp],
    )
    lines = [
        f"vanishing ideal: q={resolved.field.q} s={resolved.s}"
        f" n={len(resolved.points)} order={resolved.order.name}",
        "generators:",
        *(f"  {format_polynomial(g)}" for g in gb.generators),
        f"footprint size: {len(fp)}",
        f"elapsed: {elapsed:.3f}s",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_rghw(args):
    data = load_problem(args.problem)
    resolved = resolve_problem(data, args.order)
    t0 = time.perf_counter()
    problem = RghwProblem(
        resolved.points,
        resolved.space1,
        resolved.space2,
        resolved.order,
    )
    results = []
    refused = False
    for r in resolved.r_values:
        entry = {
            "r": r,
            "rghw": None,
            "relative_footprint": relative_footprint(problem, r),
            "certified": None,
            "refusal": None,
        }
        try:
            entry["rghw"] = rghw_degree(
                problem,
                r,
                budget=args.budget,
                validate=args.validate,
            )
        except BudgetExceededError as exc:
            entry["refusal"] = str(exc)
            refused = True
        else:
            if entry["rghw"] < entry["relative_footprint"]:
                raise RuntimeError(
                    f"internal inconsistency: M_{r}={entry['rghw']} below"
                    f" footprint bound {entry['relative_footprint']}"
                )
            # M_r meeting the lower bound RFP_r certifies the value by itself.
            entry["certified"] = entry["rghw"] == entry["relative_footprint"]
        results.append(entry)
    elapsed = time.perf_counter() - t0
    payload = _report(
        "rghw",
        elapsed,
        resolved,
        k1=problem.k1,
        k2=problem.k2,
        results=results,
        weights=None,
        refusal=None,
        budget=args.budget,
    )
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
            )
    lines.append(f"elapsed: {elapsed:.3f}s")
    _emit(args, payload, lines)
    return 2 if refused else 0


def cmd_weights(args):
    data = load_problem(args.problem)
    resolved = resolve_problem(data, args.order)
    t0 = time.perf_counter()
    gb = vanishing_ideal(resolved.points, resolved.order)
    # One elimination over the normal forms of the generators: the normal
    # form is linear, so this is the standardized basis of their span.
    space = echelonize(
        [normal_form(f, gb) for f in resolved.space1],
        resolved.order,
        field=resolved.field,
        nvars=resolved.s,
    )
    code = evaluate_space(space, resolved.points)
    refusal = None
    weights = None
    try:
        profile = weight_distribution(code, budget=args.budget, threads=args.threads)
        weights = {
            "distribution": [[w, c] for w, c in sorted(profile.distribution.items())],
            "distinct_weights": profile.distinct_weights,
        }
    except BudgetExceededError as exc:
        refusal = str(exc)
    elapsed = time.perf_counter() - t0
    payload = _report(
        "weights",
        elapsed,
        resolved,
        k1=code.k,
        k2=0,
        results=[],
        weights=weights,
        refusal=refusal,
        budget=args.budget,
    )
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
    lines.append(f"elapsed: {elapsed:.3f}s")
    _emit(args, payload, lines)
    return 2 if refusal else 0


def cmd_toric_table(args):
    field = PrimeField(args.q)
    if args.s < 1:
        raise ValueError("s must be positive")
    t0 = time.perf_counter()
    rows = []
    points = None  # the torus, built for the first row that is not refused
    for d in range(1, args.s + 1):
        space = toric_space(HypersimplexSpec(field, args.s, d))
        row = {"d": d, "n": (args.q - 1) ** args.s, "k": space.dim}  # n = |(K*)^s|
        row["min_distance_formula"] = toric_min_distance_formula(args.q, args.s, d)
        row.update(min_distance=None, next_to_minimal=None, refusal=None)
        try:
            # Refused from k alone, before the costly evaluation of the code.
            enumeration_size(args.q, space.dim, args.budget)
            points = points or torus_points(field, args.s)
            profile = weight_distribution(
                evaluate_space(space, points), budget=args.budget, threads=args.threads
            )
            row["min_distance"] = profile.minimum_distance
            # The second-weight convention is only defined for q >= 3.
            row["next_to_minimal"] = next_to_minimal(profile) if args.q >= 3 else None
            if row["min_distance"] != row["min_distance_formula"]:
                raise RuntimeError(
                    f"internal inconsistency: enumerated distance"
                    f" {row['min_distance']} != formula"
                    f" {row['min_distance_formula']} at d={d}"
                )
        except BudgetExceededError as exc:
            row["refusal"] = str(exc)
        rows.append(row)
    elapsed = time.perf_counter() - t0
    payload = _report(
        "toric-table", elapsed, q=args.q, s=args.s, rows=rows, budget=args.budget
    )
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
    lines.append(f"elapsed: {elapsed:.3f}s")
    _emit(args, payload, lines)
    return 2 if any(row["refusal"] for row in rows) else 0


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


def build_parser():
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
                help="weight enumeration threads, at least 1 (default: the CPUs this"
                " process may run on); the rghw search runs on one thread",
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
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
