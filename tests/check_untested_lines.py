"""List the statements of `tilecohom` that no tier-1 test executes.

The script runs the tier-1 suite in this process under `sys.settrace`,
tracing only frames whose code lives in `src/tilecohom`, and prints each
statement of the package that never ran: its file, line and first source
line.  A compound statement (def, class, if, for, while, try, with) counts
as run when its header ran; docstrings are not statements here.  Code that
a test runs in a child process (the `python -m tilecohom.cli` runs) is not
traced, so a line that only such a run reaches is listed too.

The list is a report, not a check: the script exits 0 whatever the suite
or the list shows.  It writes nothing under the tree: no bytecode, no
pytest cache, and the suite runs from a scratch working directory, where
hypothesis and pytest-benchmark keep their files.  CI does not run it
because it is slow: about 2.7x the plain suite on a 2-core machine
(405 s against 152 s for 2088 tests).

Usage:
    python tests/check_untested_lines.py

It runs the suite of the tree it lives in, `tests` beside this file's
directory, whatever the working directory.
"""
import ast
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tilecohom"


def statements(tree):
    """{first line: last header line} of each statement but docstrings."""
    out = {}
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(body, list):
            continue
        children = [child for field in ("body", "orelse", "finalbody",
                                        "handlers")
                    for child in getattr(node, field, ())]
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            children.remove(body[0])
        for child in children:
            inner = getattr(child, "body", None)
            last = (inner[0].lineno - 1 if isinstance(inner, list)
                    else child.end_lineno)
            out[child.lineno] = max(child.lineno, last)
    return out


def untested(ran):
    """(path, line, source) of each statement with no line in `ran`."""
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        hit = ran.get(str(path), set())
        for first, last in sorted(statements(ast.parse(text)).items()):
            if not hit.intersection(range(first, last + 1)):
                yield path.relative_to(ROOT), first, lines[first - 1].strip()


def main():
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    # pytest, hypothesis and pytest-benchmark keep their files in the
    # working directory: a scratch one, removed afterwards
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        import pytest
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider",
                                  str(ROOT / "tests")])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(cwd)
    found = list(untested(ran))
    print(f"\npytest exit status {int(status)}; "
          f"{len(found)} statements no test executes:")
    for path, line, source in found:
        print(f"{path}:{line}: {source}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
