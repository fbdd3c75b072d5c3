"""Per-module line counts of a directory of Python files.

    python tools/linecount.py DIR

Prints, for each ``*.py`` file under DIR and for their sum, the total
lines and how many of them are code, docstring, comment and blank.  A
docstring line is a line of a string literal that stands alone as a
statement; a comment line holds nothing but a comment; a code line is
any other non-blank line, so a code line with a trailing comment counts
as code.  Deleting comments or docstrings lowers the total but not the
code count, which is why both are printed.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

COLUMNS = ("total", "code", "docstring", "comment", "blank")


def count(path: Path) -> dict:
    """The COLUMNS counts of one file."""
    text = path.read_text()
    lines = text.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(text, str(path))):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            docstring.update(range(node.lineno, node.end_lineno + 1))
    comment = set()
    with path.open() as src:
        for tok in tokenize.generate_tokens(src.readline):
            row = tok.start[0]
            if tok.type == tokenize.COMMENT \
                    and not lines[row - 1][:tok.start[1]].strip():
                comment.add(row)
    blank = {k for k, line in enumerate(lines, 1) if not line.strip()}
    blank -= docstring  # a blank line inside a docstring is docstring
    total = len(lines)
    return {"total": total, "docstring": len(docstring),
            "comment": len(comment), "blank": len(blank),
            "code": total - len(docstring) - len(comment) - len(blank)}


def main(argv: list) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: python tools/linecount.py DIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    rows = [(str(p.relative_to(root)), count(p))
            for p in sorted(root.rglob("*.py"))]
    rows.append(("all", {k: sum(r[k] for _, r in rows) for k in COLUMNS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{k:>10}" for k in COLUMNS))
    for name, r in rows:
        print(f"{name:<{width}}" + "".join(f"{r[k]:>10}" for k in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
