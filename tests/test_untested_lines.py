"""tools/untested_lines.py on a two-branch snippet: the tracer sees the
lines run in this thread and in a thread started under it, and the report
names the statement of the branch not taken.

The tool itself runs the whole suite under the tracer.  The timing
criteria in test_acceptance.py can fail there: on a 2-CPU host with
Python 3.11, tier-1 took 244 s traced against 44 s untraced.
"""

import importlib.util
import os
import sys
import threading

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "untested_lines.py")
_spec = importlib.util.spec_from_file_location("untested_lines", _PATH)
untested_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(untested_lines)

SNIPPET = '''def sign(x):
    """Docstring, not a statement."""
    if x < 0:
        return -1
    return 1
'''


def _traced(tmp_path, run):
    """The report on the snippet after run(module) under the tracer."""
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    spec = importlib.util.spec_from_file_location("snippet", path)
    module = importlib.util.module_from_spec(spec)
    with untested_lines.LineTracer(tmp_path) as tracer:
        spec.loader.exec_module(module)
        run(module)
    return untested_lines.report([str(path)], tracer.ran)


def test_names_the_branch_not_taken(tmp_path):
    out = _traced(tmp_path, lambda module: module.sign(2))
    assert out == ["snippet.py: 1 of 4 statements untested",
                   "     4  return -1"]


def test_traces_a_thread_started_under_it(tmp_path):
    def run(module):
        worker = threading.Thread(target=module.sign, args=(-1,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    out = _traced(tmp_path, run)
    assert out == ["snippet.py: 1 of 4 statements untested",
                   "     5  return 1"]


def test_lines_outside_the_root_are_not_recorded(tmp_path):
    (tmp_path / "inside").mkdir()
    with untested_lines.LineTracer(tmp_path / "inside") as tracer:
        untested_lines.statements(SNIPPET)
    assert tracer.ran == set()


def test_hands_back_the_tracer_it_replaced(tmp_path):
    # so the suite's own test of the tool leaves the tool's tracer running
    before = sys.gettrace(), threading.gettrace()
    outer = untested_lines.LineTracer(tmp_path)
    with outer:
        with untested_lines.LineTracer(tmp_path / "inner"):
            pass
        assert sys.gettrace() == outer._call
        assert threading.gettrace() == outer._call
    assert (sys.gettrace(), threading.gettrace()) == before
