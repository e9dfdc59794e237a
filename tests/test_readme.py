"""The Python blocks of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_in_order():
    # later blocks use names that earlier ones define, as a reader would
    assert BLOCKS
    namespace = {}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
