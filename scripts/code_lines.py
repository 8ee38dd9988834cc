#!/usr/bin/env python3
"""Count code lines in Python files: lines that carry a code token.

Comments, blank lines and docstrings (the leading string literal of a
module, class or function, as ast finds it) carry no code token; every
other token marks each line it spans, so a multi-line expression counts
all of its lines and a multi-line string that is not a docstring counts
all of its lines too. This is the rule ROADMAP.md uses for the size of
src/cpwalls.

Usage:
    python scripts/code_lines.py PATH...

Prints "<count> <path>" per file and "<total> total" last.
"""

import ast
import io
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of every docstring literal in the tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(path: str) -> int:
    """Number of lines of the file at path that carry a code token."""
    with open(path, "rb") as f:
        source = f.read()
    docstrings = _docstring_starts(ast.parse(source, path))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    if not paths:
        sys.stderr.write("usage: code_lines.py PATH...\n")
        return 1
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
