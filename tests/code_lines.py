"""The code lines of src/ymwaves, per module and in total, or per definition.

Run from a checkout:

    python -B tests/code_lines.py
    python -B tests/code_lines.py defs

A code line is one that holds a tokenize token other than a comment, a
newline, an indent or a dedent, or a string that is a statement of its
own (a docstring, or a string standing alone as one). Blank lines,
comments and docstrings are not code; a line inside a string that is
part of an expression is. By default it prints one line per module, by
file name, then the total. With defs it prints each top-level function
and class, as module.name with its decorators and body, by its code
lines, largest first. pytest does not collect it.
"""

import ast
import io
import signal
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _line_numbers(source: str, tree: ast.Module) -> set[int]:
    """The numbers of the lines of source that hold a code token."""
    strings = {(node.lineno, node.col_offset) for node in ast.walk(tree)
               if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
               and isinstance(node.value.value, str)}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED and token.start not in strings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold a code token."""
    return len(_line_numbers(source, ast.parse(source)))


def definition_lines(module: str, source: str) -> list[tuple[str, int]]:
    """(module.name, code lines) of each top-level function and class of
    source, decorators included."""
    tree = ast.parse(source)
    lines = _line_numbers(source, tree)
    return [(f"{module}.{node.name}",
             len(lines.intersection(range(min(d.lineno for d in [node, *node.decorator_list]),
                                          node.end_lineno + 1))))
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a closed reader ends it quietly
    paths = sorted((ROOT / "src" / "ymwaves").glob("*.py"))
    if argv == ["defs"]:
        rows = [row for path in paths for row in definition_lines(path.stem, path.read_text())]
        for name, n in sorted(rows, key=lambda row: -row[1]):
            print(f"{name:40} {n:6,}")
        return 0
    if argv:
        print("usage: python -B tests/code_lines.py [defs]", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        n = code_lines(path.read_text())
        total += n
        print(f"{path.stem:12} {n:6,}")
    print(f"{'total':12} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
