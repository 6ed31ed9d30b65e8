"""The README's library example runs as written against the current API, and
its config-key list names exactly the keys the config accepts."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

from fhartree.config import _DEFAULTS

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


def test_config_key_list_matches_defaults():
    # "Sections/keys: `physics.N/s/gamma`, `grid.n/L`, ..." up to the
    # sentence's end, against the keys a config file or override may set
    text = README.read_text(encoding="utf-8").split("Sections/keys:", 1)[1]
    sentence = re.split(r"\.\s", text, maxsplit=1)[0]
    listed = {}
    for item in re.findall(r"`([^`]*)`", sentence):
        section, keys = "".join(item.split()).split(".", 1)
        listed[section] = keys.split("/")
    assert listed == {section: list(keys) for section, keys in _DEFAULTS.items()}
