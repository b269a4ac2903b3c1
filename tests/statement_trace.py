"""List the statements of src/catgeo that the Tier-1 suite never runs.

    python tests/statement_trace.py

Runs the suite in this process under sys.settrace, with a fixed
hypothesis seed, and records every line of src/catgeo that runs.  A
statement is a line where `ast` starts a statement and the compiler put
code (so a function's docstring is not one).  Exits 0 when every
statement ran.  Otherwise it exits 1 and names each file:line that never
ran; a statement that only a subprocess runs counts as unrun.  It exits
1 as well when a test fails.  The name keeps pytest from collecting it.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "catgeo"


def statements(path):
    text = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)}
    code, coded = [compile(text, str(path), "exec")], set()
    while code:
        co = code.pop()
        coded.update(line for _, _, line in co.co_lines() if line is not None)
        code += [c for c in co.co_consts if hasattr(c, "co_lines")]
    return starts & coded


def main():
    sys.path.insert(0, str(SOURCE.parent))
    prefix = str(SOURCE) + "/"
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(TESTS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print("statement trace: the suite failed (pytest status %d)" % status)
        return 1
    unrun = []
    for path in sorted(SOURCE.glob("*.py")):
        unrun += ["%s:%d" % (path.relative_to(TESTS.parent), line)
                  for line in sorted(statements(path)) if (str(path), line) not in ran]
    for where in unrun:
        print("never ran: %s" % where)
    print("statement trace: %d unrun statement%s in src/catgeo" % (len(unrun), "" if len(unrun) == 1 else "s"))
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
