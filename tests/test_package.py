"""The package surface: every export resolves, and the README example runs."""

import re
from pathlib import Path

import jkoflow

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves():
    assert [name for name in jkoflow.__all__ if not hasattr(jkoflow, name)] == []


def test_readme_python_example_runs_as_written(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "True\n"
