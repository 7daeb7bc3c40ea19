"""The tokenize count of tools/code_lines.py on a snippet of every kind of
line it drops or keeps."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""
import os  # a trailing comment keeps its line

# a comment line


def f(a,
      b):
    """Function docstring."""
    "a string-only statement"
    x = os.path.join(a,
                     b)
    return """a string
argument"""
'''


def test_counts_code_lines_only():
    # kept: import, def (2 lines), x = ... (2 lines), return (2 lines)
    assert code_lines.code_lines(SNIPPET) == 7


def test_prints_each_module_and_the_totals(tmp_path, capsys):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    assert code_lines.main([str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["snippet.py", "7", "15"]
    assert out[2].split() == ["total", "7", "15"]
