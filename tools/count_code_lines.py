"""Count the code lines of Python files: no blanks, comments or docstrings.

A line counts when it holds at least one token of code.  Every line a
multi-line token spans counts, so a multi-line string literal counts in
full, unless it is a docstring: the first statement of a module, class or
function when that statement is a string literal.

Run from the repo root:

    python tools/count_code_lines.py src/repro/experiments src/repro/server

Each argument is a ``.py`` file or a directory searched recursively.  The
output is one ``count  path`` line per file, then one total line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set

#: Tokens that hold no code.
_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> Set[int]:
    """The 1-based line numbers of every docstring in ``tree``."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCSTRING_OWNERS) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def python_files(paths: Iterable[str]) -> List[Path]:
    """Every ``.py`` file named, or found under a named directory, sorted."""
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: count_code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
