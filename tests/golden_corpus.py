"""The golden corpus: exit code, stdout and stderr of fixed CLI invocations.

Each case runs ``ordalab.cli.main(argv)`` in-process and records what a
shell would see.  ``tests/test_golden.py`` compares every case byte for byte
with the files under ``tests/golden/``.  Regenerate them only on purpose,
from the code whose output is the reference, and log the change:

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
INDEX = GOLDEN / "cases.json"

# registry key -> file-name stem
_STRUCTURES = {
    "Q": "Q", "Z": "Z", "Z[1/2]": "Z12", "Z[1/3]": "Z13", "Z(X)": "ZX",
    "trop": "trop", "lex": "lex", "Q(i)": "Qi", "Id(Z)": "IdZ", "Q^2": "Q2",
    "G0": "G0",
}


def _series(expr: str, structure: str, test: str, *extra: str) -> list[str]:
    return ["series", expr, "--structure", structure, "--test", test, *extra]


def _cases() -> list[tuple[str, list[str]]]:
    out = []
    for key, stem in _STRUCTURES.items():
        out.append((f"check-{stem}-all", ["check", key, "--suite", "all", "--seed", "0"]))
        out.append((f"check-{stem}-all-text",
                    ["check", key, "--suite", "all", "--seed", "0", "--format", "text"]))
    out += [
        # the documented invocations
        ("readme-check-Q-density", ["check", "Q", "--suite", "density", "--seed", "0"]),
        ("readme-series-Q-condensation", _series("1/2^n", "Q", "condensation")),
        ("readme-check-Z-density", ["check", "Z", "--suite", "density", "--seed", "0"]),
        # one passing run per series test
        ("series-Q-zero-limit", _series("1/n", "Q", "zero-limit")),
        ("series-Q-condensation", _series("1/3^n", "Q", "condensation")),
        ("series-Q-alternating", _series("1/n", "Q", "alternating")),
        ("series-Q-geometric", _series("1/2^n", "Q", "geometric")),
        ("series-ZX-zero-limit", _series("1/X^n", "Z(X)", "zero-limit")),
        ("series-Q-geometric-text", _series("1/2^n", "Q", "geometric", "--format", "text")),
        # a coarse grid and a short horizon (exit 0 for Q, 3 for the rest)
        *((f"check-{_STRUCTURES[key]}-all-grid",
           ["check", key, "--suite", "all", "--grid", "1/3,1/9", "--horizon", "8",
            "--seed", "1"])
          for key in ("Q", "Z[1/3]", "Z(X)", "Q(i)")),
        # violating runs (exit 1); the shifted harmonic has no term at n=1
        # and exits 2 since term-evaluation errors count as bad input
        ("violation-Q-shifted-harmonic", _series("1/(n-1)", "Q", "zero-limit")),
        ("violation-Q-harmonic-fine-grid",
         _series("1/n", "Q", "zero-limit", "--grid", "1/2,1/10000")),
        ("violation-Q-squares-condensation", _series("1/n^2", "Q", "condensation")),
        # a term whose size falls below 1/4096 before n = 1000 and climbs back
        # to 1/4000 at n = 2000
        ("series-Q-rising-tail-zero-limit", _series("(1000-n)/n^2", "Q", "zero-limit")),
        # a term with no value in the carrier: 2 has no inverse in Z
        ("series-Z-no-inverse-zero-limit", _series("1/2^n", "Z", "zero-limit")),
        # a structure-constant table (README's mini-i)
        ("algebra-mini-i", ["algebra", "{golden}/mini-i.json"]),
        ("algebra-mini-i-text", ["algebra", "{golden}/mini-i.json", "--format", "text"]),
        # a table name that would put float text in the check id (exit 2)
        ("algebra-float-name", ["algebra", "{golden}/float-name.json"]),
        # bad input (exit 2)
        ("error-Q-not-geometric", _series("1/n", "Q", "geometric")),
        ("error-Z-no-inverse", _series("1/2^n", "Z", "geometric")),
        # parentheses nested one past the parser's bound
        ("error-Q-parentheses-too-deep", _series("(" * 101 + "1/n" + ")" * 101, "Q", "zero-limit")),
        # a ratio of 1 has no geometric limit
        ("error-Q-ratio-one", _series("pow(1,n)", "Q", "geometric")),
        # the powers of 1/2 up to index 6, then a term that leaves them
        ("error-Q-geometric-late-mismatch",
         _series("pow(1/2,n)+(n-1)*(n-2)*(n-3)*(n-4)*(n-5)*(n-6)/(1000000000000*n^8)",
                 "Q", "geometric")),
        # a missing capability (exit 3) and terms that do not decrease (exit 2)
        ("unverifiable-Qi-alternating", _series("1/2^n", "Q(i)", "alternating")),
        ("error-Q-increasing-condensation", _series("n", "Q", "condensation")),
        ("unverifiable-trop-condensation", _series("1/2^n", "trop", "condensation")),
        # Z has no density witness: the decrease is checked before the split
        ("error-Z-increasing-condensation", _series("n", "Z", "condensation")),
        # terms that fall until index 8 and then rise
        ("error-Q-alternating-rises-at-8", _series("1/n+n^2/1000", "Q", "alternating")),
        # the three certificate tests over Z(X) at a short horizon
        ("series-ZX-alternating", _series("1/(X+1)^n", "Z(X)", "alternating", "--horizon", "3")),
        ("series-ZX-condensation", _series("1/X^n", "Z(X)", "condensation", "--horizon", "3")),
        ("series-ZX-geometric", _series("1/X^n", "Z(X)", "geometric", "--horizon", "3")),
        # a negative horizon is bad input (exit 2), not an empty window that passes
        ("series-Q-negative-horizon",
         _series("n", "Q", "zero-limit", "--horizon=-5", "--grid", "1/2")),
        # grid entries are constants: one that mentions n, one with no value
        ("check-Q-density-grid-index",
         ["check", "Q", "--suite", "density", "--grid", "n,1/n", "--seed", "0"]),
        ("check-Q-density-grid-zero",
         ["check", "Q", "--suite", "density", "--grid", "1/0", "--seed", "0"]),
        # a grid entry that does not parse
        ("check-Q-density-grid-parse",
         ["check", "Q", "--suite", "density", "--grid", "1/2,1/+", "--seed", "0"]),
        ("series-Q-grid-index", _series("1/2^n", "Q", "zero-limit", "--grid", "1/2,1/n")),
        ("series-Q-grid-zero", _series("1/2^n", "Q", "zero-limit", "--grid", "1/(2-2)")),
        # grid entries must strictly decrease (exit 2): a repeated one, a rising one
        ("check-Q-density-grid-repeated",
         ["check", "Q", "--suite", "density", "--grid", "1/2,2/4", "--seed", "0"]),
        ("series-Q-grid-increasing",
         _series("1/2^n", "Q", "zero-limit", "--grid", "1/4,1/2,1/4")),
        # a --grid value with no entries
        ("check-Q-density-grid-empty",
         ["check", "Q", "--suite", "density", "--grid", ",", "--seed", "0"]),
        # the registry listing, and a config file whose structure key the
        # argument overrides
        ("list", ["list"]),
        ("check-Q-config", ["check", "Q", "--config", "{golden}/config-Q.json"]),
        # a config file whose grid list has no entries
        ("check-Q-config-grid-empty",
         ["check", "Q", "--suite", "density", "--config", "{golden}/config-grid-empty.json"]),
    ]
    return out


CASES = _cases()


def run_case(argv: list[str]) -> tuple[int, bytes, bytes]:
    """(exit code, stdout bytes, stderr bytes) of one in-process CLI call."""
    from ordalab.cli import main

    argv = [a.replace("{golden}", str(GOLDEN)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def regenerate() -> None:
    index = []
    for name, argv in CASES:
        code, out, err = run_case(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(out)
        (GOLDEN / f"{name}.stderr").write_bytes(err)
        index.append({"name": name, "argv": argv, "exit": code})
        print(f"{code}  {name}", flush=True)
    INDEX.write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    regenerate()
