"""The Python blocks of README.md run as written, and its JSON blocks match
what the program reads and prints."""

import json
import re
from pathlib import Path

from ordalab import load_algebra_table
from ordalab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.DOTALL | re.MULTILINE)
REPORT_LINE, TABLE = re.findall(r"^```json\n(.*?)^```$", TEXT, re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_in_order():
    # later blocks use names that earlier ones define, as a reader would
    assert BLOCKS
    namespace = {}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_sample_report_line_is_printed(capsys):
    assert main(["check", "Q", "--suite", "density", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    [line] = [x for x in lines if json.loads(x)["check_id"] == "density.between"]
    assert REPORT_LINE.strip() == line


def test_readme_sample_table_loads():
    alg = load_algebra_table(json.loads(TABLE))
    assert (alg.name, alg.n, alg.basis) == ("mini-i", 2, ("1", "i"))
