"""The README's library examples run: its ```python blocks, executed in
order in one namespace, as a reader pasting them into one session would."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace: dict = {"__name__": "readme"}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md, python block {i}", "exec"), namespace)
    # each block prints a combination
    assert capsys.readouterr().out.count("\n") >= 2
