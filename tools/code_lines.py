"""Code lines of each module of the blaq package, and their total.

Usage:

    python3 tools/code_lines.py [SRC_DIR]

A code line is a line that holds part of a token other than a comment,
and that is not part of a docstring (the leading string of a module,
class or function body).  Blank lines, comments and docstrings do not
count, so rewording or deleting prose cannot move the number.  SRC_DIR
is the directory that holds the `blaq` package (default `src`).  Uses
only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import glob
import io
import os
import tokenize

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers covered by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of one Python file."""
    with open(path, "rb") as fh:
        source = fh.read()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir", nargs="?", default="src",
                        help="directory that holds the blaq package (default src)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(glob.glob(os.path.join(args.src_dir, "blaq", "*.py"))):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {os.path.basename(path)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
