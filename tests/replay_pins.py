"""Replay every op pinned in ``perfbench/pins.json`` and print the mismatches.

Each op of the pinned seeds' rounds runs once, through the benchmark's own
runner, and ``perfbench/check.check_op`` compares its exit code and report
digest with the pin.  Nothing is written under ``perfbench/``: the algebra
tables the runner writes go to a temporary directory.  Exits 1 when any op
mismatches or raises.

Run from the repository root (about 20 seconds):

    python tests/replay_pins.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def load_pins() -> dict:
    """The pinned seeds and ops of ``perfbench/pins.json``."""
    import check

    with open(check.PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pinned_ops(pinned: dict):
    """Yield (op, call) for every op of the pinned seeds' rounds, once per
    label; call() runs the op through the benchmark's runner and returns
    its exit code and report bytes."""
    from run import Runner
    from workloads import WORKLOADS, round_ops

    seen: set[str] = set()
    for workload in WORKLOADS:
        for seed in pinned["seeds"]:
            ops = round_ops(workload, seed)
            with tempfile.TemporaryDirectory(prefix="ordalab-replay-") as workdir:
                runner = Runner(ops, Path(workdir), pinned["ops"])
                for i, op in enumerate(ops):
                    if op.label in seen:  # shared by an earlier round
                        continue
                    seen.add(op.label)
                    yield op, partial(runner.call, i)


def main() -> int:
    import check

    pinned = load_pins()
    pins = pinned["ops"]
    seen: set[str] = set()
    mismatches = 0
    for op, call in pinned_ops(pinned):
        seen.add(op.label)
        try:
            rc, out = call()
        except Exception as exc:  # report the op, go on with the rest
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            error = check.check_op(op, rc, out, pins)
        if error is not None:
            mismatches += 1
            print(f"{op.label}: {error}")
    unreplayed = sorted(set(pins) - seen)
    for label in unreplayed:
        print(f"{label}: pinned but in no round of the pinned seeds")
    print(f"{len(seen)} ops replayed, {mismatches + len(unreplayed)} mismatches")
    return 1 if mismatches or unreplayed else 0


if __name__ == "__main__":
    sys.exit(main())
