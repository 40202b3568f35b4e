"""Count the code lines of fmlsim's modules: docstrings, comments and blank lines excluded.

    python3 tools/code_lines.py [DIR]

Prints one line per module of DIR (default: the ``src/fmlsim`` beside this
script) and the total.  A docstring is the first statement of a module,
class or function when it is a string literal; ``ast`` gives its lines.  A
comment line is one whose first non-blank character is ``#``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fmlsim"


def code_lines(text: str) -> int:
    """The lines of Python source ``text`` that are neither blank, comment nor docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else SRC
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
