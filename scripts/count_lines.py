"""Print two line counts and the number of config values for the
``sparsevcd`` package.

The first is the ``wc -l`` total over ``src/sparsevcd/*.py``. The second
counts the lines that are not blank, not comments and not part of a
docstring (a module, class or function's leading string, found with
``ast``). The third counts the settings a config document can hold: the
fields of ``ModelConfig``, ``SparsifyConfig`` and ``DecodeConfig``, and
``ExperimentConfig``'s own run fields, read from ``config.py``. Run from
anywhere: ``python3 scripts/count_lines.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparsevcd"
SECTIONS = ("ModelConfig", "SparsifyConfig", "DecodeConfig")


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


def config_values(package: Path = PACKAGE) -> int:
    """The fields of the three config sections, plus those of
    ``ExperimentConfig`` that are not a section."""
    tree = ast.parse((package / "config.py").read_text())
    count = 0
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in SECTIONS + ("ExperimentConfig",):
            count += sum(1 for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                         and ast.unparse(stmt.annotation) not in SECTIONS)
    return count


if __name__ == "__main__":
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE
    total, code = counts(package)
    print(f"wc -l: {total}")
    print(f"code lines: {code}")
    print(f"config values: {config_values(package)}")
