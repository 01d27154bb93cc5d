"""Count code lines per module: lines that are not blank, not comments and
not docstrings.

    python3 tools/loc.py [DIR]

DIR defaults to src/privgauss.  Prints one "lines path" row per module,
then the total.  A line counts when it holds a token other than a comment
and does not lie within a module, class or function docstring.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that leave a line uncounted on their own
SKIP = {
    tokenize.COMMENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
    tokenize.INDENT,
    tokenize.NEWLINE,
    tokenize.NL,
}


def docstring_lines(tree):
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    source = path.read_text()
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/privgauss")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv)
