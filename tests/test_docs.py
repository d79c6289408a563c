from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from fairshare.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:## Library", "exec"), {})


def test_readme_cli_lines_parse():
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    lines = [line for line in blocks[0].splitlines() if line.startswith("fairshare ")]
    assert lines
    for line in lines:
        try:
            _build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
