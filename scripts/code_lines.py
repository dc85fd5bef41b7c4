#!/usr/bin/env python3
"""Code-line count of `src/`: the measure of the ROADMAP's design aim,
"the same behaviour from the least code".

    python3 scripts/code_lines.py [ROOT]

A code line is a non-blank line that is not only a comment or part of a
docstring. A docstring is the string that opens a module, class or
function body; a line that holds code beside a comment counts. Prints
each module under ROOT (default: this checkout's `src/`) with its code
lines and total lines, then the totals.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Tokens that never make a line a code line on their own.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else SRC
    total_code = total_lines = 0
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, lines = code_lines(source), len(source.splitlines())
        total_code += code
        total_lines += lines
        print(f"{path.relative_to(root)!s:<28} {code:>6,} {lines:>6,}")
    print(f"{'total':<28} {total_code:>6,} {total_lines:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
