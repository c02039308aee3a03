"""Count the lines of each module of ``src/cskit``: physical lines and code lines.

    python tools/code_lines.py [TREE]

Code lines are the lines that hold a token of code. Docstrings (the first
string statement of a module, class or function), comments and blank lines
are left out, so a trimmed docstring does not read as less code. TREE is a
source checkout, by default the one this script is in. It prints one CSV
row per module and a total. Standard library only; it is not part of the
test suite.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code: the rest of a line counts it.
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring of the module, its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tree = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    print("module,physical,code")
    total = [0, 0]
    for path in sorted((tree / "src" / "cskit").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        counts = (len(source.splitlines()), code_lines(source))
        total = [a + b for a, b in zip(total, counts)]
        print(f"{path.name},{counts[0]},{counts[1]}")
    print(f"total,{total[0]},{total[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
