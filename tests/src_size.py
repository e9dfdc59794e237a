"""The size of ``src/ordalab``, counted one way for every change.

Prints four numbers:

* the lines of each module and their total;
* the public names: the attributes of ``ordalab`` after import whose names
  do not start with an underscore;
* the defaulted parameters: over every ``def``, the positional defaults
  plus the keyword-only defaults that are not ``None``;
* the private cross-module imports: the names starting with an underscore
  that a module imports from another ``ordalab`` module.

Run from the repository root:

    python tests/src_size.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "ordalab"


def module_lines() -> dict[str, int]:
    return {
        p.name: len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted(PACKAGE.glob("*.py"))
    }


def public_names() -> int:
    sys.path.insert(0, str(SRC))
    import ordalab

    return sum(1 for name in dir(ordalab) if not name.startswith("_"))


def defaulted_parameters() -> int:
    count = 0
    for p in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults)
                count += sum(1 for d in node.args.kw_defaults if d is not None)
    return count


def private_imports() -> list[tuple[str, str]]:
    """(importing module, name) for every underscore name imported from
    another ordalab module."""
    out = []
    for p in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("ordalab")):
                out.extend((p.name, a.name) for a in node.names if a.name.startswith("_"))
    return out


def main() -> None:
    lines = module_lines()
    width = max(map(len, lines))
    for name, n in lines.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(lines.values()):>5}")
    print(f"public names: {public_names()}")
    print(f"defaulted parameters: {defaulted_parameters()}")
    print(f"private cross-module imports: {len(private_imports())}")


if __name__ == "__main__":
    main()
