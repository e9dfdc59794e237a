"""Command-line workbench.

Subcommands: `list` (registered structures), `check` (run a property suite),
`series` (certificate tests for a term expression), `algebra` (pseudonorm
laws for a structure-constant table).  Exit codes: 0 all checks pass, 1 at
least one violation, 2 usage/parse/value error, 3 a required capability is
missing, so the question could not be posed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields as dataclass_fields
from typing import Sequence

from .instances import registry
from .order import CapabilityError
from .report import CheckRecord, exit_code, render_json_lines, render_text
from .suites import RunConfig, SERIES_TESTS, SUITE_NAMES, run_algebra, run_series, run_suite

_CONFIG_KEYS = ("structure", "suite", "grid", "horizon", "seed")


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "structure" in data and not isinstance(data["structure"], str):
        raise ValueError("config key 'structure' must be a string")
    if "suite" in data and not isinstance(data["suite"], str):
        raise ValueError("config key 'suite' must be a string")
    if "grid" in data:
        grid = data["grid"]
        if not (isinstance(grid, list) and all(isinstance(g, str) for g in grid)):
            raise ValueError("config key 'grid' must be a list of strings")
        if not grid:
            raise ValueError("config key 'grid' has no entries")
    for key in ("horizon", "seed"):
        if key in data and (isinstance(data[key], bool) or not isinstance(data[key], int)):
            raise ValueError(f"config key {key!r} must be an integer")
    return data


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was
    parser = argparse.ArgumentParser(
        prog="ordalab",
        description="exact-arithmetic workbench for ordered structures, "
                    "certificates, and series tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered structures")

    check = sub.add_parser("check", help="run a property suite")
    check.add_argument("structure", nargs="?", default=None,
                       help="structure key (see `ordalab list`)")
    check.add_argument("--suite", default=None,
                       choices=("all",) + SUITE_NAMES)
    check.add_argument("--grid", default=None,
                       help="comma-separated epsilon expressions, e.g. 1/2,1/4")
    check.add_argument("--horizon", type=int, default=None)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--format", default="json", choices=("json", "text"))
    check.add_argument("--config", default=None,
                       help="JSON config file with keys "
                            "{structure, suite, grid, horizon, seed}")

    series = sub.add_parser("series", help="run a certificate test on a term expression")
    series.add_argument("expr", help="term expression, e.g. \"1/2^n\"")
    series.add_argument("--structure", required=True)
    series.add_argument("--test", required=True, choices=SERIES_TESTS)
    series.add_argument("--grid", default=None)
    series.add_argument("--horizon", type=int, default=64)
    series.add_argument("--format", default="json", choices=("json", "text"))

    algebra = sub.add_parser("algebra", help="check a structure-constant table")
    algebra.add_argument("table", help="JSON file {name, n, gamma (flat n^3), basis?}")
    algebra.add_argument("--seed", type=int, default=0)
    algebra.add_argument("--format", default="json", choices=("json", "text"))

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_list() -> int:
    reg = registry()
    for key in sorted(reg):
        h = reg[key]
        flags = ",".join(
            f.name for f in dataclass_fields(h.flags) if getattr(h.flags, f.name)
        )
        aliases = ",".join(h.aliases) if h.aliases else "-"
        sys.stdout.write(
            f"{key}\tflags={flags or '-'}\taliases={aliases}"
            f"\tmetrics={len(h.metrics)} norms={len(h.norms)}"
            f" pnorms={len(h.pnorms)}\n"
        )
    return 0


def _grid_arg(raw: str | None) -> tuple[str, ...]:
    """The epsilon expressions of a comma-separated --grid value."""
    if raw is None:
        return ()
    grid = tuple(g.strip() for g in raw.split(",") if g.strip())
    if not grid:
        raise ValueError("--grid has no entries")
    return grid


def _cmd_check(args) -> list[CheckRecord]:
    config = _load_config(args.config) if args.config else {}
    structure = args.structure if args.structure is not None else config.get("structure")
    if structure is None:
        raise ValueError("a structure key is required (argument or config)")
    suite = args.suite if args.suite is not None else config.get("suite", "all")
    grid = _grid_arg(args.grid) if args.grid is not None else tuple(config.get("grid", ()))
    horizon = args.horizon if args.horizon is not None else config.get("horizon", 64)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    return run_suite(RunConfig(structure=structure, suite=suite, grid=grid,
                               horizon=horizon, seed=seed))


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "check":
            records = _cmd_check(args)
        elif args.command == "series":
            records = run_series(args.structure, args.expr, args.test,
                                 _grid_arg(args.grid), args.horizon)
        else:
            records = run_algebra(args.table, args.seed)
    except CapabilityError as exc:
        print(f"unverifiable: {exc}", file=sys.stderr)
        return 3
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # term syntax and evaluation errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = render_json_lines(records) if args.format == "json" else render_text(records)
    sys.stdout.write(out)
    return exit_code(records)


if __name__ == "__main__":
    sys.exit(main())
