"""Every name a kthin module imports is used in that module.

No linter runs on the package, so a helper's last use can go while its
import stays.  An import kept on purpose, such as the names
perfbench/spans.py wraps as module attributes, carries `# noqa` on its
first line.  The package's `__init__` re-exports what it imports and is
not checked.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "kthin"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the module imports, outside `# noqa` lines and
    `__future__`, that no other node of it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa" in lines[node.lineno - 1]:
            continue
        if getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport sys  # noqa\nfrom math import pi, tau\ntau\n") == [
        "os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
