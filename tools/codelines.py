"""Count the lines of each module of a Python package, and in total.

Three counts per module:

- lines: every line of the file;
- code lines: lines that hold a token other than a comment, outside the
  docstrings of the module, its classes and its functions;
- statement lines: lines where a statement starts, outside those
  docstrings.

Usage: ``python tools/codelines.py [PACKAGE_DIR]``, by default the
``src/facedct`` beside this script.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that hold no code: comments, line breaks, indentation and the
#: stream's own markers
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of the docstrings of the module, its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """(lines, code lines, statement lines) of a module's source."""
    tree = ast.parse(source)
    docstrings = docstring_lines(tree)
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    statements = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    return len(source.splitlines()), len(code - docstrings), len(statements - docstrings)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "facedct"
    rows = [(path.name, *count(path.read_text())) for path in sorted(package.glob("*.py"))]
    rows.append(("total", *(sum(column) for column in zip(*(row[1:] for row in rows)))))
    print(f"{'module':<20} {'lines':>6} {'code':>6} {'statements':>10}")
    for name, lines, code, statements in rows:
        print(f"{name:<20} {lines:>6} {code:>6} {statements:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
