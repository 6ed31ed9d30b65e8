"""The README's library example runs as written against the current API."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _section_python_block(text: str, heading: str) -> str:
    """The first ```python block under the given '## ' heading."""
    section = text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


@pytest.mark.filterwarnings("ignore:ground-state tail")  # the documented L=32 advisory
def test_library_example_runs_verbatim(capsys):
    code = _section_python_block(README.read_text(encoding="utf-8"), "## Library")
    exec(compile(code, f"{README.name} ## Library", "exec"), {"__name__": "readme_library"})
    roundtrip, run = capsys.readouterr().out.splitlines()
    assert float(roundtrip) < 1e-13
    assert run.split()[0] == "Soliton"
