import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_quick_start_blocks_run():
    # the library quick start's two blocks, single-user and multi-user, run
    # as written, each in a fresh namespace
    blocks = python_blocks()
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
