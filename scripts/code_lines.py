#!/usr/bin/env python3
"""Count the code lines of Python files: lines without docstrings, comments
or blank lines.

    python3 scripts/code_lines.py [FILE ...]

With no FILE it counts `src/tautint/*.py`, run from the root of a checkout.
It prints one "count path" line per file and a "count total" line, as
`wc -l` does.  A line counts if it holds a token other than a comment, a
newline or an indent; the lines of a module, class or function docstring do
not count.  `wc -l` measures the source with its prose; this count measures
the code alone, so that trimming prose does not read as less code.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    code: set[int] = set()
    for tok in tokens:
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(Path("src/tautint").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:7d} {path}")
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
