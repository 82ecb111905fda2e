"""Problem bookkeeping, answer checks and in-memory tracing for the benchmark.

A `Run` is handed to a workload's pass.  The workload wraps every call into
the evalcodes public API in `run.call(layer, fn, ...)`; untraced that is a
plain call, traced it records a span.  Each problem runs inside
`run.problem(pid)`, which times it and turns a wrong answer, an exception
or a budget refusal into a counted failure without stopping the run.
"""

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext

import numpy as np

# Calls replayed at threads=1 after the traced passes.  The value is the
# span name of the replay; both search layers share one single-thread
# baseline, as do all enumerations.
SINGLE_THREAD_REPLAY = {
    "weights.rghw_degree": "weights.rghw_degree.t1",
    "weights.rghw_validate": "weights.rghw_degree.t1",
    "codes.weight_distribution": "codes.weight_distribution.t1",
}


class SpeedProbe:
    """Fixed reference work that times how fast the machine runs right now.

    On a shared virtual machine the speed drifts by tens of percent over
    seconds to minutes, for reasons outside the benchmark.  Timing this work between
    problems lets a run express its times at a fixed reference speed.  The
    work mixes the two kinds evalcodes does: Python dict and tuple churn on
    the calling thread, then int64 matrix products on `threads` threads.
    It does not use evalcodes, so a faster program never speeds it up.
    """

    INTERVAL = 0.25  # seconds of workload between probes

    def __init__(self, threads):
        rng = np.random.default_rng(0)
        self._a = rng.integers(0, 31, (2048, 10))
        self._b = rng.integers(0, 31, (10, 64))
        self._threads = threads
        self._pool = ThreadPoolExecutor(max_workers=threads)
        self.samples = []  # seconds per measurement
        self._last = float("-inf")

    def _products(self, _):
        for _ in range(3):
            np.count_nonzero((self._a @ self._b) % 31, axis=1)

    def measure(self):
        t0 = time.perf_counter()
        table = {}
        for i in range(16000):
            key = (i % 97, i % 89)
            table[key] = (table.get(key, 0) + i * 7) % 31
        for _ in range(2):
            list(self._pool.map(self._products, range(self._threads)))
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        return self._last - t0

    def maybe_measure(self):
        if time.perf_counter() - self._last >= self.INTERVAL:
            self.measure()

    def close(self):
        self._pool.shutdown()


class Tracer:
    """Spans kept in memory as [name, start, end, parent, root, problem].

    Spans nest strictly (one calling thread), so a span's self time is its
    duration minus the durations of its direct children.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, problem=None):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        root = idx if parent is None else self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, root, problem])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Per-span self seconds, indexed like `spans`."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def to_json(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "problem": pid}
            for n, s, e, p, _, pid in self.spans
        ]


class Run:
    """Counts problems, checks and failures; times problems; traces calls."""

    def __init__(self, threads, tracer=None):
        self.threads = threads
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.latencies = []
        self.cpu_times = []
        self.failures = []
        self.recorded = None
        self.speed = None
        self._pid = None
        self._ok = True

    def span(self, name):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, self._pid)

    @contextmanager
    def problem(self, pid):
        if self.speed is not None:
            self.speed.maybe_measure()
        self.attempted += 1
        self._pid = pid
        self._ok = True
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with self.span("bench.problem"):
                yield self
        except Exception as exc:  # a failing problem must not stop the run
            self.fail(f"{type(exc).__name__}: {exc}")
        finally:
            self.latencies.append(time.perf_counter() - t0)
            self.cpu_times.append(time.process_time() - c0)
            if not self._ok:
                self.failed += 1
            self._pid = None

    def fail(self, message):
        self._ok = False
        self.failures.append(f"{self._pid}: {message}")

    def check(self, what, got, expected):
        """Count one check of an answer against its reference."""
        self.checks += 1
        if got != expected:
            self.fail(f"{what}: got {got!r}, expected {expected!r}")

    def call(self, layer, fn, *args, **kwargs):
        """Call into evalcodes under a span named after the layer."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        with self.tracer.span(layer, self._pid):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
        if self.recorded is not None and layer in SINGLE_THREAD_REPLAY:
            self.recorded.append((layer, self._pid, fn, args, kwargs, result, seconds))
        return result

    def report_failures(self, limit=20):
        for line in self.failures[:limit]:
            print(f"FAIL {line}", file=sys.stderr)
        if len(self.failures) > limit:
            print(f"... {len(self.failures) - limit} more failures", file=sys.stderr)


def self_check(evalcodes):
    """Prove that the checker catches a corrupted reference and an exception.

    Returns a list of problems with the checker itself; empty when it works.
    """
    from evalcodes.cli import load_problem, resolve_problem

    data = resolve_problem(load_problem("five-points-f3"))
    problem = evalcodes.RghwProblem(data.points, data.space1, data.space2, data.order)
    probe = Run(threads=1)
    with probe.problem("self-check/corrupted-reference"):
        m1 = evalcodes.rghw_degree(problem, 1, threads=1)
        probe.check("M_1", m1, 1 + 1)
    with probe.problem("self-check/exception"):
        evalcodes.rghw_degree(problem, 99, threads=1)
    with probe.problem("self-check/budget-refusal"):
        evalcodes.rghw_degree(problem, 1, budget=1, threads=1)
    with probe.problem("self-check/golden"):
        probe.check("M_1", m1, 1)
    errors = []
    if (probe.attempted, probe.failed, probe.checks) != (4, 3, 2):
        errors.append(
            "checker missed a corrupted reference, an exception or a refusal:"
            f" attempted={probe.attempted} failed={probe.failed}"
            f" checks={probe.checks}"
        )
    return errors
