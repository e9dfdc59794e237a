"""The benchmark's own tests.

    python3 -m pytest -q perfbench/tests

The smoke tests run one whole round of every workload (about a minute in
all on a 2-CPU machine).
"""

import json
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer, snapshot  # noqa: E402
from run import REFERENCE_S, SLICE_NEIGHBOURS, Clock, Runner  # noqa: E402


def _shape(ops):
    return [(op.kind, op.args[:1]) for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_lists_are_a_pure_function_of_the_seed(workload):
    for seed in (0, 1, 7, 123456):
        assert workloads.round_ops(workload, seed) == workloads.round_ops(workload, seed)
    rounds = [workloads.round_ops(workload, seed) for seed in range(6)]
    assert len({tuple(r) for r in rounds}) > 1, "the seed changes nothing"
    assert all(sorted(_shape(r)) == sorted(_shape(rounds[0])) for r in rounds), \
        "every seed gives a round of the same shape"
    for ops in rounds:
        assert len({op.label for op in ops}) == len(ops), "labels must be unique"
        assert len(ops) >= 30, "a round needs ops beyond its tail percentile"


def test_rounds_leave_out_the_unbounded_condensation_run():
    for seed in range(20):
        for op in workloads.round_ops("ratfunc-series", seed):
            if op.args[:1] == ("series",) and "condensation" in op.args:
                assert int(op.args[op.args.index("--horizon") + 1]) <= 5, op.label


def _cheap_runner(tmp_path):
    ops = [op for op in workloads.round_ops("suite-matrix", 3)
           if op.args[1] in ("Z(X)", "Q", "Q^2") or op.args[0] == "algebra"][:12]
    ops += [workloads.Op("lib:q_apart", "lib", ("q_apart",)),
            workloads.Op("bad", "cli", ("check", "Q", "--suite", "nope"))]
    return Runner(ops, tmp_path, {})


def test_every_wrapped_attribute_is_restored(tmp_path):
    runner = _cheap_runner(tmp_path)
    before = snapshot()
    tracer = Tracer()
    try:
        tracer.install()
        assert snapshot() != before, "nothing was wrapped"
        for i in range(len(runner.ops)):
            runner.run_op(i, tracer.begin_op, tracer.end_op)
    finally:
        tracer.restore()
    assert snapshot() == before
    # the op with a bad suite name fails; the others pass
    assert [label for label, _ in runner.failures] == ["bad"]
    for op, spec in zip(tracer.ops, runner.ops):
        assert op["self_sum_gap_s"] < 1e-9
        assert set(op["self_s"]) >= ({"bench", "cli"} if spec.kind == "cli" else {"bench"})
    metrics = tracer.layer_metrics()
    assert metrics["poly.ratfunc_new_calls"][0] > 0
    assert metrics["order.cmp_calls"][0] > 0
    spans = tracer.spans
    assert all(s[4] is not None and s[4] >= s[3] for s in spans)
    assert all(s[2] is None or spans[s[2]][0] == s[0] for s in spans), "parents cross ops"


def test_rounds_scale_ops_and_put_the_alarm_back(tmp_path):
    runner = _cheap_runner(tmp_path)
    handler = signal.getsignal(signal.SIGALRM)
    scaled, raw, clock = runner.rounds(0.3)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.breaks, "the timer took no slice"
    assert len(clock.slices) == len(clock.breaks) + 2
    assert set(scaled) == set(raw) == {op.label for op in runner.ops}
    assert all(v > 0 for d in list(scaled.values()) + list(raw.values()) for v in d)


def test_clock_factor_and_pauses():
    clock = Clock()
    clock.slices = [0.001 * k for k in range(1, 11)]
    # an op between slices 4 and 6 (one slice inside it) and its neighbours
    window = clock.slices[4 - SLICE_NEIGHBOURS + 1:6 + SLICE_NEIGHBOURS]
    assert clock.factor(4, 6) == REFERENCE_S / (sum(window) / len(window))
    assert clock.factor(0, 1) == REFERENCE_S / (sum(clock.slices[:4]) / 4)
    clock.breaks = [(1.0, 1.1), (2.0, 2.5), (3.0, 3.2)]
    assert abs(clock.paused(0.5, 3.1) - 0.6) < 1e-12  # the last one ends after t1
    assert abs(clock.paused(1.5, 4.0) - 0.7) < 1e-12
    assert clock.paused(2.6, 2.9) == 0.0


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        runner = _cheap_runner(tmp_path)
        tracer = Tracer()
        try:
            tracer.install()
            for i in range(len(runner.ops)):
                runner.run_op(i, tracer.begin_op, tracer.end_op)
        finally:
            tracer.restore()
        counts.append({k: v for k, (v, unit) in tracer.layer_metrics().items()
                       if unit != "s"})
    assert counts[0] == counts[1]


def _op(*argv):
    return workloads.Op(" ".join(argv), "cli", tuple(argv))


REC = {"check_id": "a.b", "paper_anchor": "x", "status": "pass", "structure": "Q",
       "suite": "a", "witness_values": ["1/2"]}


def _report(*records):
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()


def test_the_report_contract_catches_bad_reports():
    op = _op("check", "Q", "--suite", "a")
    good = _report(REC, dict(REC, check_id="a.c", status="violation"))
    assert check.check_op(op, 1, good, {}) is None
    assert "imply" in check.check_op(op, 0, good, {})
    assert "sorted" in check.check_op(op, 1, _report(dict(REC, check_id="b"), REC), {})
    assert "float" in check.check_op(op, 0, _report(dict(REC, witness_values=["0.5"])), {})
    assert "status" in check.check_op(op, 0, _report(dict(REC, status="ok")), {})
    assert "keys" in check.check_op(op, 0, _report({"check_id": "a"}), {})
    assert "exit code 2" in check.check_op(op, 2, b"", {})
    assert check.check_op(op, 3, b"", {}) is None
    pins = {op.label: [1, check.digest(good)]}
    assert check.check_op(op, 1, good, pins) is None
    assert "pinned" in check.check_op(op, 1, good + b"\n", pins)
    text_op = _op("check", "Q", "--format", "text")
    text = b"        pass  Q  a.b  [1/2]\ncheck: 1\n"
    assert "tally" in check.check_op(text_op, 0, text, {})
    text = b"        pass  Q  a.b  [1/2]\nchecks: 1  pass: 1  violations: 0  unverifiable: 0\n"
    assert check.check_op(text_op, 0, text, {}) is None


def _bench(cwd, *args, timeout=600):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_failed_ops(workload):
    done = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode == 0, done.stderr
    assert "fail_ratio   0.0000" in done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 30
    assert set(result["metrics"]) == {"ops_per_s", "op_p50_ms", "op_tail_ms",
                                      "peak_rss_mb", "setup_s"}


def test_traced_smoke_run_reports_every_layer_metric():
    done = _bench(ROOT, "--workload", "fraction-certs", "--seed", "5", "--seconds", "1",
                  "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert result["metrics"]["poly.ratfunc_new_calls"]["value"] == 0


def test_refuses_to_run_without_the_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(BENCH, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "out", "work-*"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        done = _bench(tmp, "--workload", "suite-matrix", "--seed", "1", "--seconds", "1",
                      "--trace", "0", timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
