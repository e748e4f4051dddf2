"""tools/src_lines.py: each line of a module is counted once, as code,
docstring, comment or blank."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

MODULES = sorted((ROOT / "src" / "kthin").glob("*.py"))


def test_counts_each_kind():
    source = ('"""Module.\n'
              '\n'
              'More."""\n'
              '\n'
              '# a comment\n'
              'def f():  # trailing\n'
              '    """One line."""\n'
              '    text = """not a\n'
              '    docstring"""\n'
              '    return text\n')
    assert src_lines.count(source) == {"code": 4, "docstring": 4, "comment": 1, "blank": 1}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_counts_add_up_to_the_file_length(path):
    source = path.read_text(encoding="utf-8")
    assert sum(src_lines.count(source).values()) == len(source.splitlines())
