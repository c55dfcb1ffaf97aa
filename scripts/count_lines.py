#!/usr/bin/env python3
"""Count the lines of each ``src/kakeya`` module and of the package.

Prints one row per module and a total row: all lines, and code lines,
which are the lines that hold a token other than a comment, a docstring or
a bare string statement (blank lines hold none).  A multi-line token, such
as a string argument, makes code of every line it spans.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "kakeya"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    strings = set()  # the lines of docstrings and other bare strings
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            strings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - strings)


def main() -> int:
    rows = [(p.name, *count(p.read_text()))
            for p in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, lines, code in rows:
        print(f"{name:<16}{lines:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
