"""Count the code lines of a package: lines that are not blank, not comment-only and not docstring.

    python3 tools/code_lines.py [DIR]

Prints one ``<lines> <module>`` row per ``*.py`` file of DIR (default
``src/capflow``), sorted by name, then ``<lines> total``.  A line counts when
a token other than a comment or a newline covers it, so each line of a
multi-line expression or string counts; the lines of a docstring (the
first statement of a module, class or function, when it is a string) do
not.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = argv[0] if argv else os.path.join("src", "capflow")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as handle:
                count = code_lines(handle.read())
            total += count
            print(f"{count:5d} {name}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
