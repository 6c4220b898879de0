"""cyclocover benchmark: one workload, seeded, single process and thread.

    python3 bench/run.py --workload cover_growth --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ./src.
The workload repeats whole rounds of the same operations until
--seconds have passed, checks every result against the independent
oracles in bench/oracles.py, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are end to end (set-up, round wall time, per-operation
percentiles in reference seconds, peak memory); with --trace 1
untraced and traced rounds alternate and the metrics are per layer
(see bench/layertrace.py).  bench/README.md describes it all.
"""

import argparse
import gc
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from collections import deque
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 7

# Every operation runs under an alarm.  Only the one operation that
# declares a budget is expected to hit it; this limit merely keeps a
# pathological input from running past the harness's time limit.
OP_LIMIT_SECONDS = 60.0

SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import cyclocover, cyclocover.cli
from cyclocover.classnumbers import default_fixture_path, load_hplus_table
load_hplus_table(default_fixture_path())
dt = time.perf_counter() - t0
assert cyclocover.__file__.startswith(sys.argv[1])
print(repr(dt))
"""


class Reference:
    """A fixed computation timed next to the workload, to track machine speed.

    On a shared machine the speed of one core drifts by 20-50% over tens
    of seconds, which swamps any change worth measuring.  The reference
    is pure-Python exact arithmetic like the library's own (Fraction
    elimination, integer-polynomial determinants, Bernoulli numbers)
    from the benchmark's oracles, so no change to the library can touch
    it, and it slows down with the machine about as much as the library
    does.  Timings are reported in reference seconds: measured seconds
    times REF_SECONDS over the reference's running median time.
    """

    REF_SECONDS = 0.0175      # median reference time on the machine in README
    INTERVAL = 0.2            # seconds of workload between reference samples
    WINDOW = 5                # samples in the running median

    def __init__(self):
        import oracles
        rng = random.Random(0)
        mat = [[rng.randint(-9, 9) for _ in range(16)] for _ in range(16)]
        polys = [[[rng.randint(-3, 3) for _ in range(3)] for _ in range(4)] for _ in range(4)]
        self._work = lambda: (oracles.rank(mat), oracles.det(polys), oracles.bernoulli(40))
        self.samples = deque(maxlen=self.WINDOW)
        self.last = -1.0
        for _ in range(self.WINDOW):
            self.measure()

    def measure(self):
        # without collections, so the reference does not pay for the
        # garbage the workload's last operation left behind
        gc.disable()
        try:
            t0 = perf_counter()
            self._work()
            self.last = perf_counter()
        finally:
            gc.enable()
        self.samples.append(self.last - t0)

    def tick(self):
        if perf_counter() - self.last >= self.INTERVAL:
            self.measure()

    def scale(self):
        return self.REF_SECONDS / statistics.median(self.samples)


class BudgetExceeded(BaseException):
    """Raised by the alarm when an operation overruns its time budget."""


def _alarm(signum, frame):
    raise BudgetExceeded()


def measure_setup(ref):
    """Median time, over fresh interpreters, to import the library and
    its CLI and load the h+ fixture, in reference seconds.  One untimed
    run first compiles the bytecode cache, which an installed package
    ships with."""
    times = []
    for i in range(SETUP_RUNS + 1):
        ref.measure()
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC],
                             capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(out.stdout) * ref.scale())
    return statistics.median(times)


class Library:
    """The layer modules, looked up by attribute at call time."""

    def __init__(self):
        import importlib
        from layertrace import LAYERS
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"cyclocover.{layer}"))
        import cyclocover
        if not os.path.abspath(cyclocover.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"cyclocover was imported from {cyclocover.__file__}, not {SRC}")


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.op_times = {}          # operation index -> its times, one per round
        self.walls = []
        self.failures = {}

    def note(self, label, why):
        if label not in self.failures:
            self.failures[label] = why
            print(f"bench: {label}: {why}", file=sys.stderr)


def run_round(ops, stats, tracer=None, ref=None):
    """Run every operation once; returns the summed time of those that did
    not fail, in reference seconds when `ref` is given."""
    wall = 0.0
    for i, op in enumerate(ops):
        stats.attempted += 1
        if ref:
            ref.tick()
        mark = tracer.mark() if tracer else None
        signal.setitimer(signal.ITIMER_REAL, op.budget or OP_LIMIT_SECONDS)
        t0 = perf_counter()
        try:
            result = op.call()
            dt = perf_counter() - t0
        except (BudgetExceeded, Exception) as exc:    # any error fails the operation
            if tracer:
                tracer.rollback(mark)
            stats.failed += 1
            stats.note(op.label, f"time budget of {op.budget or OP_LIMIT_SECONDS}s ran out"
                       if isinstance(exc, BudgetExceeded) else f"{type(exc).__name__}: {exc}")
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if ref:
            dt *= ref.scale()
        wall += dt
        stats.op_times.setdefault(i, []).append(dt)
        if not op.check(result):
            stats.correct = False
            stats.note(op.label, "wrong result")
    return wall


def smoothed_quantile(values, q):
    """Mean of the values ranked within n/20 of the q-quantile's rank.

    The per-operation medians near a percentile belong to different
    operations, each with its own noise; averaging a few neighbours keeps
    one noisy operation from setting the figure.
    """
    v = sorted(values)
    pos = q * (len(v) - 1)
    k = len(v) // 20
    lo = max(0, int(pos) - k)
    hi = min(len(v) - 1, math.ceil(pos) + k)
    return statistics.fmean(v[lo:hi + 1])


def end_to_end(ops, seconds, ref):
    stats = Stats()
    deadline = perf_counter() + seconds
    while True:
        stats.walls.append(run_round(ops, stats, ref=ref))
        if perf_counter() >= deadline:
            break
    # percentiles over the fixed set of operations, each taken at its median
    # over rounds, so they do not shift with the number of rounds a run fits
    times = [statistics.median(t) for t in stats.op_times.values()]
    metrics = {
        "wall_s": (statistics.median(stats.walls), "s"),
        "op_p50_ms": (1000 * smoothed_quantile(times, 0.5), "ms"),
        "op_p90_ms": (1000 * smoothed_quantile(times, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return stats, metrics


def traced(ops, seconds):
    from layertrace import COUNTERS, LAYERS, Tracer
    stats = Stats()
    tracer = Tracer()
    untraced_walls, traced_walls, per_round = [], [], []
    deadline = perf_counter() + seconds
    while True:
        # the untraced round first, so caches are warm for the traced one
        untraced_walls.append(run_round(ops, stats))
        tracer.install()
        try:
            traced_walls.append(run_round(ops, stats, tracer))
        finally:
            tracer.uninstall()
        self_s, calls, spans = tracer.fold()
        per_round.append((self_s, calls, spans, tracer.take_counts()))
        if perf_counter() >= deadline:
            break
    first = per_round[0]
    if any((r[1], r[2], r[3]) != (first[1], first[2], first[3]) for r in per_round):
        stats.correct = False
        stats.note("trace", "exact counts differ between rounds")
    metrics = {}
    for li, layer in enumerate(LAYERS):
        metrics[f"{layer}.self_s"] = (statistics.median(r[0][li] for r in per_round), "s")
        metrics[f"{layer}.calls"] = (first[1][li], "count")
    for name in COUNTERS:
        metrics[name] = (first[3][name], "bits" if name.endswith("bits") else "count")
    metrics["trace.spans"] = (first[2], "count")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls), "s")
    return stats, metrics


def main(argv=None):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cyclocover", "__init__.py")):
        print(f"bench: no cyclocover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _alarm)

    ref = None if args.trace else Reference()
    setup_s = None if args.trace else measure_setup(ref)
    lib = Library()
    ops = workloads.build(args.workload, args.seed, lib, SRC)
    if args.trace:
        stats, metrics = traced(ops, args.seconds)
    else:
        stats, metrics = end_to_end(ops, args.seconds, ref)
        metrics["setup_s"] = (setup_s, "s")
        print(f"bench: reference computation median {statistics.median(ref.samples):.4f}s "
              f"(scale {ref.scale():.3f})", file=sys.stderr)
    rounds = stats.attempted // len(ops)
    print(f"bench: {args.workload} seed={args.seed}: {rounds} rounds of {len(ops)} "
          f"operations, {stats.failed} failed, correct={stats.correct}", file=sys.stderr)
    print(json.dumps({"correct": stats.correct, "attempted": stats.attempted,
                      "failed": stats.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
