"""ordalab benchmark: closed-loop runs of seeded op lists, timed from outside.

Usage (from the root of a checkout; nothing to build, the package is
imported from ``src/``):

    python3 perfbench/run.py --workload ratfunc-series --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

(``all`` runs the three workloads in turn in one process, so its later
``peak_rss_mb`` figures include the earlier workloads.)

One client in one process, no threads: each op starts when the previous one
has finished (the timer's signal handler runs in that same thread).  A run repeats the seeded round of ops (see workloads.py) and
starts another round only while the last round's time still fits in
``--seconds``; at least one whole round always runs, so every op of the
round is measured.

``--trace 0`` prints the end-to-end metrics.  ``ops_per_s`` counts every op
run over the time spent in ops.  The other timings are taken over the
distinct ops of the round, each represented by the median of its runs; the
tail is the highest percentile with at least ten distinct ops beyond it.
Every op's duration is scaled by the speed factor of the moment it ran,
from reference slices that a timer takes during the loop (``Clock``); the
raw wall-clock values are printed beside the scaled ones.  ``setup_s`` is
the median time, scaled by slices taken around each probe, of importing
ordalab and building its registry in fresh interpreters; ``peak_rss_mb`` is
the peak resident size of this process, which runs the loop.

``--trace 1`` runs each distinct op of the round once untraced and once with
the layer tracer installed (layers.py), prints the per-layer totals of the
traced pass and ``trace.overhead_ratio``, and writes the spans and the per-op
layer self times to ``perfbench/out/``.  Counts repeat exactly for a given
seed.

Every op's output is checked (check.py); the last line printed is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from check import check_op, load_pins
from layers import Tracer, snapshot
from workloads import LIB_OPS, WORKLOADS, round_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15
# Median time of reference_slice() on the baseline machine; see Clock.
REFERENCE_S = 0.0018
# Time between two reference slices while the closed loop runs.
SLICE_EVERY_S = 0.02
# Slices on each side of an op that join the slices inside it in its speed
# factor.
SLICE_NEIGHBOURS = 3
_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import ordalab\n"
    "t1 = time.perf_counter()\n"
    "ordalab.registry()\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)


def reference_slice() -> float:
    """Time a fixed slice of pure-Python exact arithmetic that calls no
    ordalab code, with garbage collection off so that the program's heap
    does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for k in range(1, 240):
            acc += Fraction(1, k * (k + 1))
        p = (3, 1, 4, 1, 5, 9, 2, 6)
        for _ in range(60):
            q = [0] * 15
            for i, a in enumerate(p):
                for j, b in enumerate(p):
                    q[i + j] += a * b
            p = tuple(c % 101 for c in q[:8])
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Reference slices taken while timed code runs, and the speed factor of
    each timed interval.

    The shared virtual machines this runs on change single-core speed from
    moment to moment: the slice takes either about 0.9 ms or about 1.5 ms,
    flipping within a tenth of a second, and the share of slow slices drifts
    over tens of seconds (one op's 20-run medians went from 84 ms to 162 ms
    within a minute in one process).  That would swamp the differences
    between two versions of the program.  So while the loop runs, a timer
    (SIGALRM, in this one thread) takes a slice every SLICE_EVERY_S, inside
    ops as well as between them; each op's duration is net of the slices
    taken inside it, and is scaled by REFERENCE_S over the mean of those
    slices and the SLICE_NEIGHBOURS slices on either side: to the speed at
    which the baseline machine ran the slice.  The mean, not the median,
    because an op's time follows its mix of fast and slow moments.  One
    factor for a whole run, or slices only between ops, followed the drift
    much worse; perfbench/baseline.json gives the spreads of ten runs with
    and without the scaling.  The slice runs no ordalab code, so a change to
    the program cannot move it."""

    def __init__(self):
        self.slices: list[float] = []
        self.breaks: list[tuple[float, float]] = []  # (start, end) of timer slices

    def take(self) -> int:
        """Take a slice now; return its index."""
        self.slices.append(reference_slice())
        return len(self.slices) - 1

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.slices.append(reference_slice())
        self.breaks.append((t0, perf_counter()))

    @contextmanager
    def sampling(self):
        """Take a slice every SLICE_EVERY_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def paused(self, t0: float, t1: float) -> float:
        """Time spent in timer slices between t0 and t1."""
        total = 0.0
        for start, end in reversed(self.breaks):
            if start < t0:
                break
            if end <= t1:
                total += end - start
        return total

    def factor(self, before: int, after: int) -> float:
        """Speed factor of an interval that ran between slice ``before`` and
        slice ``after`` (the first one taken once it had ended)."""
        lo = max(0, before - SLICE_NEIGHBOURS + 1)
        return REFERENCE_S / statistics.fmean(self.slices[lo:after + SLICE_NEIGHBOURS])

    def median_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.slices)


def measure_setup() -> tuple[float, float]:
    """Medians of (import + registry, registry alone) in fresh interpreters,
    each scaled by the speed factor of the moment it ran."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    clock = Clock()
    samples = []
    for _ in range(SETUP_SAMPLES):
        index = clock.take()
        out = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append((index, *(float(x) for x in out.stdout.split())))
    clock.take()
    totals = [(imp + reg) * clock.factor(i, i + 1) for i, imp, reg in samples]
    registry = [reg * clock.factor(i, i + 1) for i, imp, reg in samples]
    return statistics.median(totals), statistics.median(registry)


class Runner:
    """Runs ops in a closed loop and checks their outputs."""

    def __init__(self, ops, workdir: Path, pins: dict):
        import ordalab.cli

        # looked up on every call, so a traced run calls the tracer's wrapper
        self.cli_main = lambda argv: ordalab.cli.main(argv)
        self.lib_ops = LIB_OPS
        self.pins = pins
        self.ops = ops
        self.argv = [self._argv(op, i, workdir) for i, op in enumerate(ops)]
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0

    @staticmethod
    def _argv(op, index: int, workdir: Path):
        if op.kind != "cli":
            return None
        argv = list(op.args)
        if argv[0] == "algebra":
            table = workdir / f"table-{index}.json"
            table.write_text(argv[1], encoding="utf-8")
            argv[1] = str(table)
        return argv

    def call(self, index: int) -> tuple[int, bytes]:
        """One op: exit code and report bytes; raises whatever the op raises."""
        op = self.ops[index]
        if op.kind == "lib":
            lines = self.lib_ops[op.args[0]]()
            return 0, ("\n".join(lines) + "\n").encode("utf-8")
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            try:
                rc = self.cli_main(self.argv[index])
            except SystemExit as exc:  # argparse rejects bad input this way
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, buf.getvalue().encode("utf-8")

    def run_op(self, index: int, before=None, after=None, clock=None) -> float:
        """Time one op, check its output, and return its duration (net of
        the ``clock``'s slices inside it)."""
        op = self.ops[index]
        self.attempted += 1
        error = None
        if before is not None:
            before(op.label)
        t0 = perf_counter()
        try:
            rc, out = self.call(index)
        except Exception as exc:  # a failed op is counted, the loop goes on
            rc, out, error = None, b"", f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if after is not None:
            after()
        if clock is not None:
            t1 -= clock.paused(t0, t1)
        if error is None:
            error = check_op(op, rc, out, self.pins)
        if error is not None:
            self.failures.append((op.label, error))
        return t1 - t0

    def rounds(self, seconds: float) -> tuple[dict[str, list[float]], dict[str, list[float]],
                                              Clock]:
        """Whole rounds until the next one would overrun.  Returns the
        scaled and the raw op durations by label, and the clock."""
        clock = Clock()
        timed: list[tuple[str, float, int, int]] = []  # label, duration, slices around
        clock.take()
        start = perf_counter()
        with clock.sampling():
            while True:
                round_start = perf_counter()
                for i, op in enumerate(self.ops):
                    before = len(clock.slices) - 1
                    duration = self.run_op(i, clock=clock)
                    timed.append((op.label, duration, before, len(clock.slices)))
                now = perf_counter()
                if now - start + (now - round_start) > seconds:
                    break
        clock.take()
        scaled: dict[str, list[float]] = {op.label: [] for op in self.ops}
        raw: dict[str, list[float]] = {op.label: [] for op in self.ops}
        for label, duration, before, after in timed:
            scaled[label].append(duration * clock.factor(before, after))
            raw[label].append(duration)
        return scaled, raw, clock


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a round of {n} ops has no percentile with 10 ops beyond it")
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(workload: str, runner: Runner, seconds: float) -> dict:
    scaled, raw, clock = runner.rounds(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s, _ = measure_setup()
    count = runner.attempted

    def timings(durations):
        per_op = [statistics.median(d) for d in durations.values()]
        pct, tail_s = tail(per_op)
        return (count / sum(map(sum, durations.values())),
                1000 * statistics.median(per_op), 1000 * tail_s, pct, per_op)

    ops_per_s, p50_ms, tail_ms, pct, per_op = timings(scaled)
    raw_ops_per_s, raw_p50_ms, raw_tail_ms, _, _ = timings(raw)
    n = len(per_op)
    failed = len(runner.failures)
    print(f"workload {workload}: {count // len(runner.ops)} round(s) of "
          f"{len(runner.ops)} runs of {n} distinct ops, {count} ops, closed loop, 1 client")
    print(f"  each op scaled by the speed factor around it (median {clock.median_factor():.4f} "
          f"over {len(clock.slices)} reference slices); raw wall-clock values in brackets")
    print(f"  ops_per_s    {ops_per_s:.4f} 1/s  [{raw_ops_per_s:.4f}]")
    print(f"  op_p50_ms    {p50_ms:.3f} ms  [{raw_p50_ms:.3f}]")
    print(f"  op_tail_ms   {tail_ms:.3f} ms  [{raw_tail_ms:.3f}]  (p{pct:.1f} of {n} "
          f"per-op medians, 10 ops beyond it)")
    print(f"  fail_ratio   {failed / count:.4f}  ({failed} of {count} ops)")
    print(f"  peak_rss_mb  {peak_rss_mb:.2f} MB")
    print(f"  setup_s      {setup_s:.5f} s  (median of {SETUP_SAMPLES} fresh interpreters)")
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def traced(workload: str, seed: int, runner: Runner) -> tuple[dict, bool]:
    first: dict[str, int] = {}
    for i, op in enumerate(runner.ops):
        first.setdefault(op.label, i)
    distinct = list(first.values())
    untraced_s = sum(runner.run_op(i) for i in distinct)
    tracer = Tracer()
    before = snapshot()
    try:
        tracer.install()
        for i in distinct:
            runner.run_op(i, tracer.begin_op, tracer.end_op)
    finally:
        tracer.restore()
    restored = snapshot() == before
    traced_s = sum(op["duration_s"] for op in tracer.ops)
    gap = max(op["self_sum_gap_s"] for op in tracer.ops)
    _, registry_s = measure_setup()
    metrics = tracer.layer_metrics()
    metrics["instances.registry_s"] = (registry_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload}-{seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"ops": [runner.ops[i].label for i in distinct], "per_op": tracer.ops,
                   "spans": tracer.spans}, fh)
    print(f"workload {workload}: {len(distinct)} distinct ops traced, spans and per-op "
          f"layer self times in {trace_file.relative_to(ROOT)}")
    print(f"  untraced {untraced_s:.3f} s, traced {traced_s:.3f} s; largest per-op gap "
          f"between summed layer self times and op duration {gap:.2e} s; "
          f"wrapped attributes restored: {restored}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:.6g} {unit}")
    return metrics, restored and gap < 1e-6


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = round_ops(workload, seed)
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as workdir:
        runner = Runner(ops, Path(workdir), load_pins())
        if trace:
            metrics, sound = traced(workload, seed, runner)
        else:
            metrics, sound = end_to_end(workload, runner, seconds), True
    for label, error in runner.failures[:20]:
        print(f"  FAILED {label}: {error}")
    return {
        "correct": sound and not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ordalab" / "__init__.py").is_file():
        print(f"error: no ordalab sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ordalab

    ordalab.registry()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
