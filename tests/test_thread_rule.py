"""Threads start in one place, `kernels._in_order`.

The package's thread rule (one thread per CPU the process may use and per
task, the calling thread alone inside a task; see the `kernels` module
docstring) lives in that one helper.  So in src/kthin, `threading.Thread`
(or a bare `Thread`), calls of `_cpu_count()` and uses of `_in_pool` occur
only inside `_in_order`, apart from the definitions of `_cpu_count` and
`_in_pool`.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "kthin"
MODULES = sorted(SRC.glob("*.py"))


def _called(func: ast.expr) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def thread_uses(source: str) -> list[tuple[str, int, str]]:
    """(what, line, the top-level function or class it is in, else
    "<module>") for each Thread, call of `_cpu_count` and use of `_in_pool`
    in source, the module-level assignment to `_in_pool` aside."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner == "<module>" and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name
            what = None
            if isinstance(child, ast.Attribute) and child.attr in ("Thread", "_in_pool"):
                what = child.attr
            elif isinstance(child, ast.Name) and child.id == "Thread":
                what = "Thread"
            elif isinstance(child, ast.Name) and child.id == "_in_pool" and not (
                    owner == "<module>" and isinstance(child.ctx, ast.Store)):
                what = "_in_pool"
            elif isinstance(child, ast.Call) and _called(child.func) == "_cpu_count":
                what = "_cpu_count()"
            if what:
                found.append((what, child.lineno, inner))
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_finds_every_kind_of_use():
    source = ("import threading\n"
              "_in_pool = threading.local()\n"
              "def _in_order():\n"
              "    threading.Thread(target=print)\n"
              "def f():\n"
              "    Thread()\n"
              "    _in_pool.busy = _cpu_count()\n"
              "class C:\n"
              "    def g(self):\n"
              "        kernels._in_pool\n")
    assert thread_uses(source) == [("Thread", 4, "_in_order"), ("Thread", 6, "f"),
                                   ("_in_pool", 7, "f"), ("_cpu_count()", 7, "f"),
                                   ("_in_pool", 10, "C")]


def test_the_rule_lives_in_in_order():
    uses = thread_uses((SRC / "kernels.py").read_text(encoding="utf-8"))
    assert {what for what, _, _ in uses} == {"Thread", "_in_pool", "_cpu_count()"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_threads_start_only_in_in_order(path):
    uses = thread_uses(path.read_text(encoding="utf-8"))
    assert [u for u in uses if path.name != "kernels.py" or u[2] != "_in_order"] == []
