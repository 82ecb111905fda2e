"""The four benchmark workloads.

Each workload has `setup(seed, workdir)`, which makes its inputs from the
seed (coordinates, subsets and point orders change with the seed, problem
sizes never do), and `run_pass(inputs, run)`, which solves every problem
once through the public API and checks every answer against an independent
reference.  `replay` is the extra work of the traced run (cli-sweep only).
"""

import contextlib
import hashlib
import io
import json
import random
from itertools import combinations, product
from math import comb

import numpy as np

from evalcodes import (
    GREVLEX,
    HypersimplexSpec,
    PointSet,
    Polynomial,
    PrimeField,
    RghwProblem,
    cartesian_points,
    cartesian_rghw_formula,
    cartesian_space,
    degree_with_F,
    echelonize,
    evaluate_space,
    footprint,
    ghw,
    next_to_minimal,
    relative_footprint,
    rghw_degree,
    standardize,
    toric_code,
    toric_deg1_weight,
    toric_min_distance_formula,
    torus_points,
    vanishing_ideal,
    variety_in_X,
    weight_distribution,
)
from evalcodes.cli import load_problem, main as cli_main, resolve_problem


class Inputs:
    """Generated inputs plus a digest that shows what the seed changed."""

    def __init__(self, items, described):
        self.items = items
        text = json.dumps(described, sort_keys=True)
        self.digest = hashlib.sha256(text.encode()).hexdigest()[:16]


def _subsets(rng, q, sizes):
    return [sorted(rng.sample(range(q), n)) for n in sizes]


def _shuffled(rng, points):
    pts = list(points)
    rng.shuffle(pts)
    return PointSet(points.field, pts)


def _fixture(name, rng):
    """A shipped fixture with its points permuted by the seed."""
    res = resolve_problem(load_problem(name))
    res.points = _shuffled(rng, res.points)
    return res


def _cartesian_rghw(run, pid, q, sizes, subsets, d1, d2, r):
    """Build a nested Cartesian problem module by module and check M_r."""
    field = PrimeField(q)
    with run.problem(pid):
        pts = run.call("families.build", cartesian_points, field, subsets)
        space1 = run.call("families.build", cartesian_space, field, sizes, d1)
        space2 = None
        if d2 >= 0:
            space2 = run.call("families.build", cartesian_space, field, sizes, d2)
        gb = run.call("groebner.vanishing_ideal", vanishing_ideal, pts)
        problem = run.call("weights.problem_build", RghwProblem, pts, space1, space2, gb=gb)
        value = run.call("weights.rghw_degree", rghw_degree, problem, r, threads=run.threads)
        ref = run.call("families.reference", cartesian_rghw_formula, sizes, d1, d2, r)
        run.check(f"M_{r}", value, ref)


class Workload:
    def replay(self, inputs, run):
        """Extra traced work after the passes; none by default."""


class RghwSearch(Workload):
    """rghw_degree on seeded Cartesian problems and the sharp-gap fixture.

    The candidate walk is nearly all the time.  The cases cover the flat
    r=1 scorer, the recursive r=2 level and a case where RFP_r < M_r, so
    footprint pruning has nothing to cut there.
    """

    CASES = [  # q, sizes, d1, d2, r
        (5, (4, 4), 3, -1, 1),
        (5, (4, 4), 3, 1, 1),
        (5, (4, 4, 4), 2, 1, 1),
        (7, (6, 6), 2, -1, 2),
        (11, (10, 10), 2, -1, 1),
    ]

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        cases = [(q, sizes, _subsets(rng, q, sizes), d1, d2, r) for q, sizes, d1, d2, r in self.CASES]
        gap = _fixture("torus-f5-sharp-gap", rng)
        return Inputs(
            {"cartesian": cases, "sharp_gap": gap},
            {"cartesian": cases, "sharp_gap": gap.points.points},
        )

    def run_pass(self, inputs, run):
        for q, sizes, subsets, d1, d2, r in inputs.items["cartesian"]:
            pid = f"cartesian-q{q}-{'x'.join(map(str, sizes))}-d{d1}-{d2}-r{r}"
            _cartesian_rghw(run, pid, q, sizes, subsets, d1, d2, r)
        gap = inputs.items["sharp_gap"]
        with run.problem("torus-f5-sharp-gap-r1"):
            gb = run.call("groebner.vanishing_ideal", vanishing_ideal, gap.points, gap.order)
            problem = run.call(
                "weights.problem_build",
                RghwProblem, gap.points, gap.space1, gap.space2, gap.order, gb=gb,
            )
            value = run.call("weights.rghw_degree", rghw_degree, problem, 1, threads=run.threads)
            rfp = run.call("weights.relative_footprint", relative_footprint, problem, 1)
            run.check("M_1", value, 8)
            run.check("RFP_1", rfp, 4)

def _code_profile(run, field, monomials, points, gb, order=GREVLEX):
    """echelonize -> standardize -> evaluate_space -> weight_distribution."""
    space = run.call("poly.echelonize", echelonize, monomials, order, field=field, nvars=points.nvars)
    space = run.call("codes.standardize", standardize, space, gb)
    code = run.call("codes.evaluate_space", evaluate_space, space, points)
    profile = run.call("codes.weight_distribution", weight_distribution, code, threads=run.threads)
    run.check("total", profile.total(), field.q**code.k)
    return code, profile


class WeightEnum(Workload):
    """evaluate_space plus weight_distribution on three code sets.

    Codeword enumeration is nearly all the work, in two shapes: long words
    with few codewords (q=11, n=100) and short words with many (q=5, n=16).
    """

    CARTESIAN = [(11, (10, 10), 2), (5, (4, 4), 3)]  # q, sizes, degree
    TORIC = [(5, 4), (3, 5)]  # q, s: every degree d = 1..s

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        cartesian = [(q, sizes, _subsets(rng, q, sizes), d) for q, sizes, d in self.CARTESIAN]
        toric = []
        for q, s in self.TORIC:
            field = PrimeField(q)
            pts = _shuffled(rng, torus_points(field, s))
            degrees = [
                [Polynomial.monomial(field, tuple(int(i in pos) for i in range(s)))
                 for pos in combinations(range(s), d)]
                for d in range(1, s + 1)
            ]
            toric.append((q, s, pts, degrees))
        return Inputs(
            {"cartesian": cartesian, "toric": toric},
            {"cartesian": cartesian, "toric": [t[2].points for t in toric]},
        )

    def run_pass(self, inputs, run):
        for q, sizes, subsets, d in inputs.items["cartesian"]:
            field = PrimeField(q)
            with run.problem(f"cartesian-q{q}-{'x'.join(map(str, sizes))}-d{d}"):
                pts = run.call("families.build", cartesian_points, field, subsets)
                space = run.call("families.build", cartesian_space, field, sizes, d)
                gb = run.call("groebner.vanishing_ideal", vanishing_ideal, pts)
                _, profile = _code_profile(run, field, space.basis, pts, gb)
                ref = run.call("families.reference", cartesian_rghw_formula, sizes, d, -1, 1)
                run.check("minimum distance", profile.minimum_distance, ref)
        # One problem per torus, like `toric-table`: the degrees share the
        # ideal, and each degree alone is a few milliseconds, too short to
        # time steadily on a shared machine.
        for q, s, pts, degrees in inputs.items["toric"]:
            field = PrimeField(q)
            with run.problem(f"toric-q{q}-s{s}"):
                gb = run.call("groebner.vanishing_ideal", vanishing_ideal, pts)
                run.check("|footprint|", len(footprint(gb)), (q - 1) ** s)
                for d, monomials in enumerate(degrees, start=1):
                    code, profile = _code_profile(run, field, monomials, pts, gb)
                    run.check(f"k at d={d}", code.k, comb(s, d))
                    ref = run.call("families.reference", toric_min_distance_formula, q, s, d)
                    run.check(f"minimum distance at d={d}", profile.minimum_distance, ref)
                    if d == 1:
                        ref = run.call("families.reference", toric_deg1_weight, q, s, 2)
                        run.check("next-to-minimal weight at d=1", next_to_minimal(profile), ref)

def hyperplane_weight(coords, q):
    """M_1 for L1 = affine linear forms, L2 = 0, straight from the points:
    |X| minus the most points of X on one affine hyperplane."""
    pts = np.array(coords, dtype=np.int64)
    s = pts.shape[1]
    most = 0
    for normal in product(range(q), repeat=s):
        nonzero = [c for c in normal if c]
        if not nonzero or nonzero[0] != 1:
            continue
        levels = (pts @ np.array(normal, dtype=np.int64)) % q
        most = max(most, int(np.bincount(levels, minlength=q).max()))
    return len(coords) - most


class GroebnerValidate(Workload):
    """Random point sets with no family structure, where the Groebner routes
    (Buchberger for degree_with_F, Buchberger-Moeller for vanishing_ideal)
    dominate and the search is only q^s candidates.

    Buchberger's work depends on the point set, so drawing fresh sets per
    seed would change the work by about 8% from seed to seed.  The sets and
    forms are drawn once from BASE_SEED; the run's seed moves each by its
    own map x -> a*x + b (every a_i nonzero) and shuffles the point order.
    That changes every coordinate but keeps the lead monomials, so the work
    stays the same.
    """

    SMALL = [(31, 2, 20), (31, 2, 30), (31, 2, 40), (7, 3, 25)]  # q, s, m
    LARGE = [(31, 2, 250), (7, 3, 200)]
    FORMS = 1  # linear forms through a point of X, per small set
    BASE_SEED = 2112_07085

    @staticmethod
    def _points(rng, q, s, m):
        codes = rng.sample(range(q**s), m)
        return [tuple((c // q**i) % q for i in range(s)) for c in codes]

    @staticmethod
    def _affine(rng, q, s):
        a = [rng.randrange(1, q) for _ in range(s)]
        b = [rng.randrange(q) for _ in range(s)]
        return a, b

    def _moved(self, rng, q, s, coords):
        a, b = self._affine(rng, q, s)
        moved = [tuple((a[i] * p[i] + b[i]) % q for i in range(s)) for p in coords]
        order = list(range(len(moved)))
        rng.shuffle(order)
        return a, [moved[i] for i in order], {coords[i]: moved[i] for i in order}

    def setup(self, seed, workdir):
        base = random.Random(self.BASE_SEED)
        rng = random.Random(seed)
        small = []
        for q, s, m in self.SMALL:
            field = PrimeField(q)
            a, coords, image = self._moved(rng, q, s, self._points(base, q, s, m))
            linear = [Polynomial.monomial(field, e) for e in product(range(2), repeat=s) if sum(e) <= 1]
            forms = []
            for _ in range(self.FORMS):
                through = image[base.choice(sorted(image))]
                c = [0] * s
                while not any(c):
                    c = [base.randrange(q) for _ in range(s)]
                # f(T^-1 y) for f = sum c_i (x_i - p_i): direction c_i / a_i.
                c = [c[i] * pow(a[i], q - 2, q) % q for i in range(s)]
                terms = {tuple(int(j == i) for j in range(s)): c[i] for i in range(s)}
                terms[(0,) * s] = -sum(c[i] * through[i] for i in range(s))
                forms.append((c, through, Polynomial(field, s, terms)))
            small.append((q, s, coords, PointSet(field, coords), linear, forms))
        large = []
        for q, s, m in self.LARGE:
            _, coords, _ = self._moved(rng, q, s, self._points(base, q, s, m))
            large.append((q, s, PointSet(PrimeField(q), coords)))
        return Inputs(
            {"small": small, "large": large},
            {
                "small": [(c, [f[:2] for f in forms]) for _, _, c, _, _, forms in small],
                "large": [pts.points for _, _, pts in large],
            },
        )

    def run_pass(self, inputs, run):
        for q, s, coords, pts, linear, forms in inputs.items["small"]:
            pid = f"random-q{q}-s{s}-m{len(pts)}"
            gb = None
            with run.problem(f"{pid}-validate"):
                gb = run.call("groebner.vanishing_ideal", vanishing_ideal, pts)
                problem = run.call("weights.problem_build", RghwProblem, pts, linear, None, gb=gb)
                rfp = run.call("weights.relative_footprint", relative_footprint, problem, 1)
                value = run.call(
                    "weights.rghw_validate",
                    rghw_degree, problem, 1, threads=run.threads, validate=True,
                )
                ref = run.call("bench.reference", hyperplane_weight, coords, q)
                run.check("M_1", value, ref)
                run.check("RFP_1 <= M_1", rfp <= value, True)
            for j, (_, _, form) in enumerate(forms):
                with run.problem(f"{pid}-degree-with-F-{j}"):
                    exact, bound = run.call("groebner.degree_with_F", degree_with_F, gb, [form])
                    zeros = run.call("groebner.variety_in_X", variety_in_X, [form], pts)
                    run.check("deg S/(I(X)+(f))", exact, len(zeros))
                    run.check("footprint bound >= degree", bound >= exact, True)
        for q, s, pts in inputs.items["large"]:
            with run.problem(f"large-q{q}-s{s}-m{len(pts)}"):
                gb = run.call("groebner.vanishing_ideal", vanishing_ideal, pts)
                run.check("|footprint|", len(footprint(gb)), len(pts))

def run_cli(argv):
    """cli.main with its standard output captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def _box_count(sizes, d):
    return sum(1 for a in product(*(range(n) for n in sizes)) if sum(a) <= d)


def _standard_monomials_ok(report):
    """Every standard monomial avoids every initial-ideal generator, and
    every box monomial that avoids them all is standard."""
    leads = [tuple(m) for m in report["initial_ideal"]]
    standard = {tuple(m) for m in report["standard_monomials"]}
    s = report["s"]
    bound = [max(m[i] for m in standard | set(leads)) + 1 for i in range(s)]

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    avoiding = {
        m for m in product(*(range(b) for b in bound))
        if not any(divides(lead, m) for lead in leads)
    }
    return avoiding == standard


class CliSweep(Workload):
    """>=100 small problems run in-process through cli.main(--json).

    Fixed per-call costs dominate: parsing, problem resolution, small ideals
    and a new thread pool per search.
    """

    FIXTURES = ["five-points-f3", "torus-f5-sharp-gap", "hypersimplex-f3-s4"]
    TORIC_TABLES = [(3, 4), (5, 4)]
    HYPERSIMPLEX_F3_S4 = {0: 1, 8: 24, 10: 16, 12: 32, 16: 8}

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        problems = []
        described = []
        for q in (3, 5):
            for sizes in ((2, 2), (2, 3), (3, 3)):
                for d1 in range(1, sum(n - 1 for n in sizes) + 1):
                    for d2 in range(-1, d1):
                        free = _box_count(sizes, d1) - _box_count(sizes, d2)
                        for r in (1, 2):
                            if r > free:
                                continue
                            subsets = _subsets(rng, q, sizes)
                            data = {
                                "schema": 1, "q": q, "s": len(sizes),
                                "points": {"family": "cartesian", "subsets": subsets},
                                "L1": {"total_degree": d1}, "r": [r],
                            }
                            if d2 >= 0:
                                data["L2"] = {"total_degree": d2}
                            pid = f"cartesian-q{q}-{'x'.join(map(str, sizes))}-d{d1}-{d2}-r{r}"
                            path = workdir / f"{pid}.json"
                            path.write_text(json.dumps(data))
                            problems.append((pid, ["rghw", str(path)], ("cartesian", sizes, d1, d2, r)))
                            described.append(subsets)
        for name in self.FIXTURES:
            problems.append((f"{name}-rghw", ["rghw", name, "--validate"], ("rghw", name)))
            problems.append((f"{name}-weights", ["weights", name], ("weights", name)))
            problems.append((f"{name}-ideal", ["vanishing-ideal", name], ("ideal", name)))
        for q, s in self.TORIC_TABLES:
            problems.append((f"toric-table-{q}-{s}", ["toric-table", str(q), str(s)], ("toric", q, s)))
        gap = resolve_problem(load_problem("torus-f5-sharp-gap"))
        return Inputs({"problems": problems, "sharp_gap": gap}, described)

    def _argv(self, argv, run):
        if argv[0] == "vanishing-ideal":
            return argv + ["--json"]
        return argv + ["--json", "--threads", str(run.threads)]

    def run_pass(self, inputs, run):
        for pid, argv, ref in inputs.items["problems"]:
            with run.problem(pid):
                code, text = run.call("cli.main", run_cli, self._argv(argv, run))
                run.check("exit code", code, 0)
                self._check(run, json.loads(text), ref, inputs)

    def _check(self, run, out, ref, inputs):
        kind = ref[0]
        if kind == "cartesian":
            _, sizes, d1, d2, r = ref
            expected = run.call("families.reference", cartesian_rghw_formula, sizes, d1, d2, r)
            entry = out["results"][0]
            run.check(f"M_{r}", entry["rghw"], expected)
            run.check("RFP <= M", entry["relative_footprint"] <= entry["rghw"], True)
        elif kind == "rghw":
            got = {e["r"]: (e["rghw"], e["relative_footprint"]) for e in out["results"]}
            if ref[1] == "five-points-f3":
                run.check("M_1, M_2", (got[1][0], got[2][0]), (1, 2))
            elif ref[1] == "torus-f5-sharp-gap":
                run.check("M_1, RFP_1", got[1], (8, 4))
            else:
                expected = run.call("families.reference", toric_min_distance_formula, 3, 4, 1)
                run.check("M_1", got[1][0], expected)
            run.check("RFP_r <= M_r", all(fp <= m for m, fp in got.values()), True)
        elif kind == "weights":
            dist = {w: c for w, c in out["weights"]["distribution"]}
            q, n, k = out["q"], out["n"], out["k1"]
            run.check("total", sum(dist.values()), q**k)
            if ref[1] == "hypersimplex-f3-s4":
                run.check("distribution", dist, self.HYPERSIMPLEX_F3_S4)
            elif ref[1] == "five-points-f3":
                full = {w: comb(n, w) * (q - 1) ** w for w in range(n + 1)}
                run.check("distribution of GF(q)^n", dist, full if k == n else None)
            else:
                gap = inputs.items["sharp_gap"]
                gb = run.call("groebner.vanishing_ideal", vanishing_ideal, gap.points, gap.order)
                problem = run.call(
                    "weights.problem_build", RghwProblem, gap.points, gap.space1, None, gap.order, gb=gb
                )
                d1 = run.call("weights.rghw_degree", ghw, problem, 1, threads=run.threads)
                run.check("minimum distance = GHW d_1", min(w for w in dist if w), d1)
        elif kind == "ideal":
            run.check("|footprint| = |X|", out["footprint_size"], out["n"])
            run.check("standard monomials avoid in(I)", _standard_monomials_ok(out), True)
        else:
            _, q, s = ref
            for row in out["rows"]:
                d = row["d"]
                run.check("n, k", (row["n"], row["k"]), ((q - 1) ** s, comb(s, d)))
                expected = run.call("families.reference", toric_min_distance_formula, q, s, d)
                run.check("minimum distance", row["min_distance"], expected)
                if d == 1:
                    expected = run.call("families.reference", toric_deg1_weight, q, s, 2)
                    run.check("next-to-minimal weight", row["next_to_minimal"], expected)

    def replay(self, inputs, run):
        """The library calls each cli.main call makes, one pass, spanned."""
        for pid, argv, _ in inputs.items["problems"]:
            with run.problem(f"replay/{pid}"):
                command = argv[0]
                if command == "toric-table":
                    q, s = int(argv[1]), int(argv[2])
                    for d in range(1, s + 1):
                        code = run.call("families.build", toric_code, HypersimplexSpec(PrimeField(q), s, d))
                        run.call("codes.weight_distribution", weight_distribution, code, threads=run.threads)
                        run.call("families.reference", toric_min_distance_formula, q, s, d)
                    continue
                data = run.call("cli.load_problem", load_problem, argv[1])
                res = run.call("cli.resolve_problem", resolve_problem, data, None, command != "vanishing-ideal")
                gb = run.call("groebner.vanishing_ideal", vanishing_ideal, res.points, res.order)
                if command == "rghw":
                    problem = run.call(
                        "weights.problem_build",
                        RghwProblem, res.points, res.space1, res.space2, res.order, gb=gb,
                    )
                    validate = "--validate" in argv
                    layer = "weights.rghw_validate" if validate else "weights.rghw_degree"
                    for r in res.r_values:
                        run.call("weights.relative_footprint", relative_footprint, problem, r)
                        run.call(layer, rghw_degree, problem, r, threads=run.threads, validate=validate)
                elif command == "weights":
                    _code_profile(run, res.field, res.space1, res.points, gb, res.order)


WORKLOADS = {
    "rghw-search": RghwSearch(),
    "weight-enum": WeightEnum(),
    "groebner-validate": GroebnerValidate(),
    "cli-sweep": CliSweep(),
}
