"""Tier-1 under a line tracer: fails naming every line of src/fashsim/ that
no test runs.

    python tests/line_coverage.py [extra pytest arguments]

A stdlib sys.settrace tracer, set for every thread, records the lines run
in src/fashsim/. A module's executable lines are the lines its compiled
code objects map instructions to (co_lines). Lines that run only in a
subprocess are listed in SUBPROCESS_ONLY with the test that runs them.
Exits with pytest's status if a test fails, else 1 if a line is
unexecuted or a listed line is stale, else 0.
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fashsim"
SUBPROCESS_ONLY = {  # file: (lines, the test that runs them)
    "__main__.py": ({1, 3, 5, 6}, "tests/test_cli.py::TestEntryPoint::"
                                  "test_module_invocation_reports_the_version"),
}
PREFIX = str(SRC) + os.sep
executed = set()  # (file name, line)


def trace_lines(frame, event, arg):
    executed.add((frame.f_code.co_filename, frame.f_lineno))
    return trace_lines


def trace_calls(frame, event, arg):
    if frame.f_code.co_filename.startswith(PREFIX):
        return trace_lines(frame, event, arg)
    return None


def code_lines(code: types.CodeType) -> set:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def main() -> int:
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    status = pytest.main(["-q", "--continue-on-collection-errors", *sys.argv[1:]])
    sys.settrace(None)
    threading.settrace(None)
    if status != 0:
        return status
    problems = []
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed = {n for n in code_lines(code) if (str(path), n) not in executed}
        listed, test = SUBPROCESS_ONLY.get(path.name, (set(), None))
        problems += ["%s:%d: no test runs this line" % (path, n) for n in sorted(missed - listed)]
        problems += ["%s:%d: listed as run only by %s, but runs in process or is no line"
                     % (path, n, test) for n in sorted(listed - missed)]
    print("\n".join(problems) or "line coverage: every line of %s runs" % SRC)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
