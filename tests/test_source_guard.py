"""Outside input reaches the program only through checked paths.

Config text reaches only the expression whitelist: no module under
src/freqlab may call (or even name) the builtins eval, exec or compile.
Attribute calls such as re.compile are unaffected.

Field files are read without pickle: no module imports pickle, and every
np.load call passes allow_pickle=False, so a field file cannot run code.
"""

import ast
import pathlib

import freqlab

_FORBIDDEN = {"eval", "exec", "compile"}


def _forbidden_uses(source, filename):
    return [f"{filename}:{node.lineno}: {node.id}"
            for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Name) and node.id in _FORBIDDEN]


def _unpickling_uses(source, filename):
    """Imports of pickle, and np.load calls without allow_pickle=False."""
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "load" and isinstance(node.func.value, ast.Name)
              and node.func.value.id in ("np", "numpy")):
            if not any(kw.arg == "allow_pickle" and isinstance(kw.value, ast.Constant)
                       and kw.value.value is False for kw in node.keywords):
                hits.append(f"{filename}:{node.lineno}: np.load without "
                            f"allow_pickle=False")
            continue
        else:
            continue
        hits += [f"{filename}:{node.lineno}: import {name}" for name in names
                 if name.split(".")[0] in ("pickle", "_pickle", "cPickle")]
    return hits


def _modules():
    root = pathlib.Path(freqlab.__file__).parent
    modules = sorted(root.glob("*.py"))
    assert len(modules) >= 10
    return [(path.read_text(encoding="utf-8"), path.name) for path in modules]


def test_guard_flags_builtin_uses():
    snippet = "import re\nre.compile('x')\nf = eval\nexec('1')\ncompile('1', 'f', 'eval')\n"
    assert len(_forbidden_uses(snippet, "snippet.py")) == 3


def test_no_module_uses_eval_exec_or_compile():
    hits = [hit for source, name in _modules() for hit in _forbidden_uses(source, name)]
    assert hits == []


def test_guard_flags_unpickling():
    snippet = ("import pickle\nfrom pickle import loads\nimport numpy as np\n"
               "np.load('f')\nnp.load('f', allow_pickle=True)\n"
               "numpy.load('f', allow_pickle=flag)\n"
               "np.load('f', allow_pickle=False)\njson.load(fh)\n")
    hits = _unpickling_uses(snippet, "snippet.py")
    assert [hit.split(":")[1] for hit in hits] == ["1", "2", "4", "5", "6"]


def test_no_module_unpickles():
    hits = [hit for source, name in _modules() for hit in _unpickling_uses(source, name)]
    assert hits == []
