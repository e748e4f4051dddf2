"""Count the lines of each src/kthin module by kind: code, docstring,
comment and blank.

Usage, from the root of a kthin checkout:

    python3 tools/src_lines.py
    python3 tools/src_lines.py path/to/src/kthin

A docstring line is a line of a module, class or function docstring, as
`ast` finds them; a comment line holds nothing but a comment; a blank line
holds nothing but whitespace; every other line is code, a code line with a
trailing comment included.  The four counts of a file add up to its length.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "kthin"
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """{kind: lines} for one module's source."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if number in docs:
            kind = "docstring"
        elif not text:
            kind = "blank"
        elif text.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    src = pathlib.Path(argv[0]) if argv else SRC
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in (*KINDS, "total")))
    for path in sorted(src.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{v:>10}" for v in counts.values())
              + f"{sum(counts.values()):>10}")
    print(f"{'all':<16}" + "".join(f"{v:>10}" for v in total.values())
          + f"{sum(total.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
