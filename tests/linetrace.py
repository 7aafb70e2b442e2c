"""Statement and branch trace of src/hypermatch over a pytest run, without coverage.py.

Run from the repository root, with any pytest arguments after the script:

    PYTHONPATH=src python tests/linetrace.py -q -p no:cacheprovider --hypothesis-seed=0

A sys.settrace hook records, in this process only (subprocesses are not
traced), every line of src/hypermatch that runs and every line-to-line
step.  After the run it prints one MISS line per statement that never
ran (a `nonlocal` or `global` line, which compiles to nothing, counts as
never run) and one ONEWAY line per `if` or `while` test that only ever
went one way: every step out of its test went to the same line.

The fixed Hypothesis seed makes the trace repeatable in a checkout with
no `.hypothesis` example database (the database replays old examples
first).  tests/linetrace_expected.txt holds the MISS and ONEWAY lines of
that run under CPython 3.11, line numbers stripped; CI diffs against it.
Rewrite it after a change to what the suite runs:

    PYTHONPATH=src python tests/linetrace.py -q -p no:cacheprovider --hypothesis-seed=0 \
        | sed -nE 's/^(MISS|ONEWAY) ([^:]+):[0-9]+:/\1 \2:/p' > tests/linetrace_expected.txt
"""

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1] / "src" / "hypermatch"
_ran = defaultdict(set)
_steps = defaultdict(set)
_RETURN = 0  # the step out of a frame that returns or yields


def _trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(str(ROOT)):
        return None
    ran, steps = _ran[path], _steps[path]
    last = -frame.f_code.co_firstlineno

    def local(frame, event, arg):
        nonlocal last
        if event == "line":
            ran.add(frame.f_lineno)
            steps.add((last, frame.f_lineno))
            last = frame.f_lineno
        elif event == "return":
            steps.add((last, _RETURN))
        return local

    return local


def _code_lines(code) -> set:
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def _header(node) -> range:
    """The lines that run when a statement does: a compound statement's header, a simple one whole."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return range(min([node.lineno] + [d.lineno for d in node.decorator_list]), node.lineno + 1)
    if hasattr(node, "body") and isinstance(node.body, list):
        return range(node.lineno, max(node.lineno + 1, node.body[0].lineno))
    return range(node.lineno, node.end_lineno + 1)


def report() -> None:
    for path in sorted(ROOT.glob("*.py")):
        src = path.read_text()
        lines = src.splitlines()
        tree = ast.parse(src)
        code = _code_lines(compile(src, str(path), "exec"))
        ran = _ran.get(str(path), set())
        after = defaultdict(set)
        for a, b in _steps.get(str(path), ()):
            after[a].add(b)
        found = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.stmt):
                continue
            span = [line for line in _header(node) if line in code]
            if (span and ran.isdisjoint(span)) or isinstance(node, (ast.Nonlocal, ast.Global)):
                found.add((node.lineno, "MISS"))
            if isinstance(node, (ast.If, ast.While)) and node.lineno in ran:
                # steps to a continuation line of the test itself are not a way out of it
                ways = {b for b in after[node.lineno] if not node.lineno < b <= node.test.end_lineno}
                if len(ways) == 1 and not isinstance(node.test, ast.Constant):
                    found.add((node.lineno, "ONEWAY"))
        for line, kind in sorted(found):
            print(f"{kind} {path.name}:{line}: {lines[line - 1].strip()}")


if __name__ == "__main__":
    sys.settrace(_trace)
    threading.settrace(_trace)
    import pytest

    rc = pytest.main(sys.argv[1:])
    sys.settrace(None)
    threading.settrace(None)
    report()
    sys.exit(rc)
