"""Threads start in one place, `kernels._in_order`.

The package's thread rule (one thread per CPU the process may use and per
task, the calling thread alone inside a task; see its docstring) lives in
that one helper.  So in src/kthin, `threading.Thread`
(or a bare `Thread`), calls of `_cpu_count()` and uses of `_in_pool` occur
only inside `_in_order`, apart from the definitions of `_cpu_count` and
`_in_pool`.  The tasks `_in_order` may run on a helper thread form no
product with `@` or `np.matmul`, which hold the GIL.
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


# numpy 2.4's matmul holds the GIL through its BLAS call, np.dot releases it
GIL_NOTE = ("`@` and np.matmul hold the GIL through BLAS in numpy 2.4: while another thread "
            "looped g @ w on a 32 x 4096 strip, a pure-Python thread ran at 0.37-0.41x its "
            "speed, and at 0.88-1.03x with np.dot(g, w) (2-vCPU Xeon, two runs); so a task "
            "that `_in_order` may run on a helper "
            "thread forms its products with np.dot")


def helper_tasks(source: str) -> dict[str, list[int]]:
    """{name: lines of `@` or matmul in it} for each function passed to an
    `_in_order` call in source as its task, by name or called from a
    lambda, and defined in the same module."""
    tree = ast.parse(source)
    defs = {node.name: node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node.func) == "_in_order" and node.args:
            task = node.args[0]
            inner = task.body if isinstance(task, ast.Lambda) else task
            names |= {_called(c.func) if isinstance(c, ast.Call) else c.id
                      for c in ast.walk(inner) if isinstance(c, (ast.Call, ast.Name))}
    found = {}
    for name in sorted(names & defs.keys()):
        found[name] = [n.lineno for n in ast.walk(defs[name])
                       if isinstance(n, (ast.BinOp, ast.AugAssign))
                       and isinstance(n.op, ast.MatMult)
                       or isinstance(n, ast.Call) and _called(n.func) == "matmul"]
    return found


def test_finds_matmul_in_helper_tasks():
    source = ("def outer():\n"
              "    def strip(i, s):\n"
              "        return g @ w\n"
              "    def block(q, out):\n"
              "        out @= w\n"
              "        return np.matmul(w, g)\n"
              "    def fine(i, s):\n"
              "        return np.dot(g, w)\n"
              "    def caller_only():\n"
              "        return g @ w\n"
              "    _in_order(strip, 4, None, print)\n"
              "    _in_order(lambda q, own: block(q, own), 4, None, print)\n"
              "    _in_order(fine, 4, None, print)\n")
    assert helper_tasks(source) == {"strip": [3], "block": [5, 6], "fine": []}


def test_helper_tasks_form_no_matmul():
    found = {}
    for path in MODULES:
        found.update({f"{path.stem}.{name}": lines
                      for name, lines in helper_tasks(path.read_text(encoding="utf-8")).items()})
    assert found.keys() == {"discrepancy.strip", "kernels.chunk", "thinning.block"}
    assert {name: lines for name, lines in found.items() if lines} == {}, GIL_NOTE
