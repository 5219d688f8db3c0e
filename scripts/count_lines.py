"""Print two line counts for the ``sparsevcd`` package.

The first is the ``wc -l`` total over ``src/sparsevcd/*.py``. The second
counts the lines that are not blank, not comments and not part of a
docstring (a module, class or function's leading string, found with
``ast``). Run from anywhere: ``python3 scripts/count_lines.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparsevcd"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def counts(package: Path = PACKAGE) -> tuple[int, int]:
    """``(wc -l total, code lines)`` over the package's ``.py`` files."""
    total = code = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        total += text.count("\n")
        docs = docstring_lines(ast.parse(text))
        code += sum(1 for i, line in enumerate(lines, 1)
                    if line.strip() and not line.strip().startswith("#") and i not in docs)
    return total, code


if __name__ == "__main__":
    total, code = counts(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE)
    print(f"wc -l: {total}")
    print(f"code lines: {code}")
