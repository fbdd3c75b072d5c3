"""Statement lines of src/physedit that the test suite never runs.

    python tools/linecov.py [PYTEST ARGS...]

Runs pytest in this process (default arguments: ``tests -q``) under a
``sys.settrace`` line tracer, then prints, per module, the statement
lines that never ran, and the total.  It needs nothing beyond the
standard library and pytest.  Tests that start a subprocess are not
traced, so lines only such a process runs are listed as unrun.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "physedit"


def statement_lines(path: Path) -> set:
    """First lines of the statements in ``path``, docstrings left out:
    they compile to no code a tracer could see run."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        lines.add(node.lineno)
    return lines


def trace_run(pytest_args) -> tuple[int, dict]:
    """Run pytest; returns its exit code and {file name: lines run}."""
    import pytest

    prefix = str(PACKAGE) + "/"
    run = {}

    def local(frame, event, arg):
        if event == "line":
            run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        run.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), run


def spans(lines):
    """'3, 7-9, 12' for [3, 7, 8, 9, 12]."""
    out, start = [], None
    for k, line in enumerate(lines):
        if start is None:
            start = line
        if k + 1 == len(lines) or lines[k + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or \
        [str(ROOT / "tests"), "-q"]
    code, run = trace_run(args)
    total = unrun_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        stmts = statement_lines(path)
        unrun = sorted(stmts - run.get(str(path), set()))
        total += len(stmts)
        unrun_total += len(unrun)
        if unrun:
            print(f"{path.name}: {len(unrun)} unrun: {spans(unrun)}")
    print(f"unrun {unrun_total} of {total} statement lines "
          f"(pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
