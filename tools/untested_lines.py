"""List the statements of the freqlab package that no test runs.

Usage:

    python tools/untested_lines.py [pytest arguments ...]

It runs pytest in this process (by default on `tests`, quietly, without
the cache) under a line tracer, `sys.settrace` for this thread and
`threading.settrace` for threads started later, that records only lines of
files under src/freqlab, which it puts first on sys.path.  It then prints,
module by module, each statement none of whose lines ran: its first line
number and text.  A statement is every `ast` statement but a lone string
(a docstring); a compound statement (def, if, for, try, ...) counts by its
header lines only, so a body that never ran does not hide its header.

Code that runs only in a subprocess (a test that starts `python -m
freqlab`) is not traced, and tracing slows the tests several times over,
so tests that time themselves can fail under it.  The exit status is
pytest's.
"""

import ast
import os
import sys
import threading

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_PACKAGE = os.path.realpath(os.path.join(_ROOT, "src", "freqlab"))


class LineTracer:
    """Records (real path, line) of every line run in a file under `root`
    while the tracer is entered."""

    def __init__(self, root):
        self.root = os.path.realpath(root) + os.sep
        self.ran = set()
        self._paths = {}  # co_filename -> its real path, or None outside root

    def _path(self, filename):
        if filename not in self._paths:
            path = os.path.realpath(filename)
            self._paths[filename] = path if path.startswith(self.root) else None
        return self._paths[filename]

    def _call(self, frame, event, arg):
        # frames outside root get no local tracer, so they pay no line events
        return self._line if self._path(frame.f_code.co_filename) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran.add((self._path(frame.f_code.co_filename), frame.f_lineno))
        return self._line

    def __enter__(self):
        # a tracer entered under another hands it back on exit
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])


def _header_lines(node):
    """The lines of a statement that its own code sits on: all of a simple
    statement's, a compound statement's up to its first body statement."""
    body = getattr(node, "body", None)
    last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
    return range(node.lineno, last + 1)


def statements(source):
    """(first line, lines) of each statement of source but a lone string
    and a global or nonlocal declaration, which compile to no code."""
    return sorted(((node.lineno, _header_lines(node))
                   for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.stmt)
                   and not isinstance(node, (ast.Global, ast.Nonlocal))
                   and not (isinstance(node, ast.Expr)
                            and isinstance(node.value, ast.Constant)
                            and isinstance(node.value.value, str))),
                  key=lambda stmt: stmt[0])


def report(paths, ran):
    """Text lines: per module, the count of statements no traced line
    touches and each such statement's first line and text."""
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        real = os.path.realpath(path)
        stmts = statements(source)
        missed = [first for first, lines in stmts
                  if not any((real, line) in ran for line in lines)]
        out.append(f"{os.path.basename(path)}: {len(missed)} of {len(stmts)} "
                   f"statements untested")
        out += [f"{first:6d}  {text[first - 1].strip()}" for first in missed]
    return out


def main(argv=None):
    import pytest

    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    with LineTracer(_PACKAGE) as tracer:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                      os.path.join(_ROOT, "tests")])
    paths = sorted(os.path.join(_PACKAGE, name) for name in os.listdir(_PACKAGE)
                   if name.endswith(".py"))
    print("\n".join(report(paths, tracer.ran)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
