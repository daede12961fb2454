"""The code lines of src/ymwaves, per module and in total.

Run from a checkout:

    python -B tests/code_lines.py

A code line is one that holds a tokenize token other than a comment, a
newline, an indent or a dedent, or a string that is a statement of its
own (a docstring, or a string standing alone as one). Blank lines,
comments and docstrings are not code; a line inside a string that is
part of an expression is. It prints one line per module, by file name,
then the total. pytest does not collect it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold a code token."""
    strings = {(node.lineno, node.col_offset) for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
               and isinstance(node.value.value, str)}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED and token.start not in strings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted((ROOT / "src" / "ymwaves").glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.stem:12} {n:6,}")
    print(f"{'total':12} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
