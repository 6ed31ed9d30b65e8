"""The README's library example runs as written against the current API,
its config-key list names exactly the keys the config accepts, and every
definition in the package is reached from a command, the public API or
that example."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import fhartree
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


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unreached(sources: dict[str, str], roots: set[tuple[str, str]]) -> list[str]:
    """"module.name" of each top-level function and class of the modules
    in sources (module name -> source; the package's own is "__init__")
    that no root (module, name) reaches.

    A reached function or class reaches every name its whole body, its
    decorators, defaults and annotations load, a class its methods too;
    a name resolves to a top-level def, class or assignment of its module,
    or through a relative import to the module it comes from."""
    defs, imports = {}, {}
    for mod, src in sources.items():
        for node in ast.parse(src).body:
            if isinstance(node, _DEFINITIONS):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.update({(mod, t.id): node for t in targets if isinstance(t, ast.Name)})
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[mod, alias.asname or alias.name] = (node.module or "__init__",
                                                                alias.name)

    def resolve(mod, name):
        key = (mod, name)
        while key not in defs and key in imports:
            key = imports[key]
        return key if key in defs else None

    reached = set()
    todo = [resolve(*root) for root in roots]
    while todo:
        key = todo.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                todo.append(resolve(key[0], node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:  # an import in a body
                todo += [resolve(node.module or "__init__", a.name) for a in node.names]
    return sorted(f"{mod}.{name}" for (mod, name), node in defs.items()
                  if (mod, name) not in reached and isinstance(node, _DEFINITIONS))


def _readme_imports() -> set[tuple[str, str]]:
    """(module, name) of each name the README's Library block imports from
    the package."""
    code = _section_python_block(README.read_text(encoding="utf-8"), "## Library")
    found = set()
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "fhartree":
            mod = node.module.partition(".")[2] or "__init__"
            found |= {(mod, alias.name) for alias in node.names}
    return found


def test_every_src_definition_is_reached():
    # roots: the command line, the public API and the README's example
    probe = {"__init__": "from .a import f\n__all__ = ['f']\n",
             "a": "def f():\n    return g()\ndef g():\n    from .b import k\n"
                  "class C:\n    def m(self):\n        return h()\ndef h():\n    pass\n",
             "b": "def k():\n    pass\ndef unused():\n    pass\n"}
    assert _unreached(probe, {("__init__", "f")}) == ["a.C", "a.h", "b.unused"]
    package = Path(fhartree.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    roots = {("cli", "main")} | {("__init__", name) for name in fhartree.__all__}
    readme = _readme_imports()
    assert ("spectral", "to_fourier") in readme
    assert _unreached(sources, roots | readme) == []
