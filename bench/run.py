"""Benchmark of evalcodes: one seeded workload per invocation.

    python3 bench/run.py --workload rghw-search --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With --trace 0 the last line of standard output carries the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer metrics.  Every
answer is checked; see bench/README.md for the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import harness

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
MIN_PASSES = 3
# Seconds the SpeedProbe work takes at the reference speed: a typical
# reading on a 2-vCPU Intel Xeon virtual machine (Python 3.11, numpy 2.4),
# so that times read close to raw seconds there.  Never change it between two
# measurements that are compared.
REF_PROBE_S = 0.025


def import_program():
    """Import evalcodes from this checkout's sources, never from elsewhere."""
    package = SRC / "evalcodes"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no evalcodes sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import evalcodes

    if Path(evalcodes.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported evalcodes from {evalcodes.__file__}, not {package}")
    return evalcodes


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 of the program sources, which identifies a non-git checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "evalcodes").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def measure_setup(args, probe):
    """Seconds from process start to the first timed call, at reference speed.

    Each set-up probe is a fresh interpreter that imports evalcodes, makes
    the workload's inputs, writes its problem files and reports when it is
    ready; it then removes its files and exits.  Returns (median at reference
    speed, raw median).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times, speeds = [], []
    for _ in range(SETUP_PROBES):
        speeds.append(probe.measure())
        t0 = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"bench: setup probe failed:\n{proc.stderr}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        times.append(ready - t0)
    raw = statistics.median(times)
    return raw * REF_PROBE_S / statistics.median(speeds), raw


def timed_pass(workload, inputs, run):
    w0 = time.perf_counter()
    workload.run_pass(inputs, run)
    return time.perf_counter() - w0


def per_problem_medians(samples, passes):
    """Each problem's median over the run's passes, in pass order.

    Taking each problem at its median spreads an estimate over the whole
    run instead of trusting whichever single pass was the median one.
    """
    per_pass = len(samples) // passes
    return [statistics.median(samples[i::per_pass]) for i in range(per_pass)]


def untraced(workload, inputs, run, seconds, probe):
    """As many passes as fit in `seconds`, at least MIN_PASSES.

    Times are scaled to the reference speed by the median speed probe of
    their pass (the probes run between problems, outside every timing).
    """
    run.speed = probe
    walls, scales = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start + statistics.median(walls) <= seconds:
        first = len(probe.samples)
        walls.append(timed_pass(workload, inputs, run))
        probe.measure()
        scales.append(REF_PROBE_S / statistics.median(probe.samples[first:]))
    run.speed = None
    per_pass = run.attempted // len(walls)
    scale = [scales[i // per_pass] for i in range(len(run.latencies))]
    lat = per_problem_medians([t * k for t, k in zip(run.latencies, scale)], len(walls))
    cpu = per_problem_medians([t * k for t, k in zip(run.cpu_times, scale)], len(walls))
    raw = per_problem_medians(run.latencies, len(walls))

    def p50_p90_ms(seconds):
        ms = [t * 1000.0 for t in seconds]
        return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]

    p50, p90 = p50_p90_ms(lat)
    values = {
        "wall_s": sum(lat),
        "cpu_s": sum(cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - run.failed / run.attempted,
        "problem_p50_ms": p50,
        "problem_p90_ms": p90,
    }
    raw_p50, raw_p90 = p50_p90_ms(raw)
    info = {
        "problems_per_pass": per_pass,
        "passes": len(walls),
        "pass_wall_s": walls,
        "speed_scale": scales,
        "raw_wall_s": sum(raw),
        "raw_cpu_s": sum(per_problem_medians(run.cpu_times, len(walls))),
        "raw_problem_p50_ms": raw_p50,
        "raw_problem_p90_ms": raw_p90,
        "percentile_samples": len(lat),
        "samples_beyond_p90": sum(1 for t in lat if t * 1000.0 > p90),
    }
    return values, info


def traced(workload, inputs, run, seconds, cores):
    """Alternate untraced and traced passes, then replay at threads=1.

    Layer metrics are self seconds per pass: spans under traced passes are
    averaged over them; the cli library replay and the threads=1 replays
    run once, i.e. one pass worth.
    """
    tracer = harness.Tracer()
    plain, walls = [], []
    start = time.perf_counter()
    while True:
        run.tracer = None
        plain.append(timed_pass(workload, inputs, run))
        if len(plain) == 1:
            per_pass = run.attempted
        run.tracer = tracer
        run.recorded = []
        w0 = time.perf_counter()
        with tracer.span("bench.pass"):
            workload.run_pass(inputs, run)
        walls.append(time.perf_counter() - w0)
        replay_guess = cores * sum(rec[-1] for rec in run.recorded) + walls[-1]
        elapsed = time.perf_counter() - start
        if elapsed + plain[-1] + walls[-1] + replay_guess > seconds:
            break
    with tracer.span("bench.replay"):
        workload.replay(inputs, run)
    recorded, run.recorded = run.recorded, None
    with tracer.span("bench.t1"):
        for layer, pid, fn, args, kwargs, result, _ in recorded:
            with run.problem(f"t1/{pid}"):
                single = run.call(harness.SINGLE_THREAD_REPLAY[layer], fn, *args, **{**kwargs, "threads": 1})
                run.check(f"{layer} at threads=1 equals threads={run.threads}", single, result)

    spans = tracer.spans
    pass_s, once_s = defaultdict(float), defaultdict(float)
    replay_s = 0.0
    for (name, start_t, end_t, _, root, _), self_s in zip(spans, tracer.self_times()):
        if spans[root][0] == "bench.pass":
            # Self time of the pass and problem spans is the benchmark's own
            # bookkeeping: checks, JSON parsing, loop overhead.
            pass_s[name if name not in ("bench.pass", "bench.problem") else "bench.bookkeeping"] += self_s
        elif name == "bench.replay":
            replay_s = end_t - start_t
        elif name not in ("bench.problem", "bench.t1"):
            once_s[name] += self_s
    values = defaultdict(float)
    for name, s in pass_s.items():
        values[f"{name}_s"] += s / len(walls)
    for name, s in once_s.items():
        values[f"{name}_s"] += s
    values["trace.wall_s"] = statistics.fmean(walls)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.fmean(plain)
    if "cli.main_s" in values:
        values["cli.overhead_s"] = values["cli.main_s"] - replay_s

    def at_cores(prefix):
        recs = [rec for rec in recorded if rec[0].startswith(prefix)]
        return recs, sum(rec[-1] for rec in recs)

    recs, t_search = at_cores("weights.")
    if t_search:
        values["weights.parallel_eff"] = values["weights.rghw_degree.t1_s"] / (cores * t_search)
    recs, t_enum = at_cores("codes.")
    if t_enum:
        values["codes.parallel_eff"] = values["codes.weight_distribution.t1_s"] / (cores * t_enum)
        values["codes.codewords_per_s"] = sum(rec[-2].total() for rec in recs) / t_enum
    info = {
        "problems_per_pass": per_pass,
        "traced_passes": len(walls),
        "untraced_passes": len(plain),
        "spans": len(spans),
        "replayed_at_threads_1": len(recorded),
        "pass_self_time_sum_s": sum(pass_s.values()) / len(walls),
    }
    return dict(values), info, tracer


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    evalcodes = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if args.setup_probe:
        try:
            workload.setup(args.seed, workdir)
            print(json.dumps({"ready": time.time()}))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    end_to_end, per_layer = declared_metrics()
    cores = usable_cores()
    probe = harness.SpeedProbe(cores)
    try:
        if not args.trace:
            setup_s, raw_setup_s = measure_setup(args, probe)
        inputs = workload.setup(args.seed, workdir)
        checker_errors = harness.self_check(evalcodes)
        run = harness.Run(threads=cores)
        if args.trace:
            values, info, tracer = traced(workload, inputs, run, args.seconds, cores)
            declared = per_layer
        else:
            values, info = untraced(workload, inputs, run, args.seconds, probe)
            values["setup_s"] = setup_s
            info["raw_setup_s"] = raw_setup_s
            declared = end_to_end
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)

    unknown = sorted(set(values) - {m["name"] for m in declared})
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "spans": tracer.to_json()}))
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "inputs_digest": inputs.digest,
        "usable_cores": cores,
        "threads": run.threads,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "checks": run.checks,
        "fail_frac": run.failed / run.attempted,
        "checker_errors": checker_errors,
        "undeclared_metrics": unknown,
    })
    run.report_failures()
    for error in checker_errors + [f"undeclared metric {name}" for name in unknown]:
        print(f"bench: {error}", file=sys.stderr)
    print("info " + json.dumps(info))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'fail_frac':34s} {info['fail_frac']:.6g} frac")
    correct = run.failed == 0 and not checker_errors and not unknown
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
