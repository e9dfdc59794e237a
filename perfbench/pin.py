"""Record pins.json: the exit code and report sha256 of every op in the
rounds of the given seeds, as the current sources produce them.

    python3 perfbench/pin.py 0 1 2 3

Run it only on the commit whose outputs are the reference.  Every op must
satisfy the report contract; otherwise nothing is written.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    import check
    from run import Runner
    from workloads import WORKLOADS, round_ops

    seeds = sorted({int(s) for s in argv})
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    pins: dict[str, list] = {}
    for workload in WORKLOADS:
        for seed in seeds:
            ops = round_ops(workload, seed)
            with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as workdir:
                runner = Runner(ops, Path(workdir), {})
                for i, op in enumerate(ops):
                    if op.label in pins:  # shared by an earlier round
                        continue
                    rc, out = runner.call(i)
                    error = check.check_op(op, rc, out, {})
                    if error is not None:
                        raise SystemExit(f"{op.label}: {error}")
                    pins[op.label] = [rc, check.digest(out)]
            print(f"{workload} seed {seed}: {len(ops)} ops", flush=True)
    with open(check.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seeds": seeds, "ops": dict(sorted(pins.items()))}, fh, indent=0)
        fh.write("\n")
    print(f"{len(pins)} ops pinned in {check.PINS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
