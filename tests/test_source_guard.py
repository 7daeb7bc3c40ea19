"""Outside input reaches the program only through checked paths.

Config text reaches only the expression whitelist: no module under
src/freqlab may call (or even name) the builtins eval, exec or compile.
Attribute calls such as re.compile are unaffected.

Field files are read without pickle: no module imports pickle, and every
np.load call passes allow_pickle=False, so a field file cannot run code.

Archives are written in one place: every np.savez sits in io.write_npz,
which fixes the header, the handle and allow_pickle=False for all of them.

A config file is read in one place: only config.py imports configparser,
and cli.py calls no builtin open, so the command line parses --config once
and hands the parsed file to the config parsers.

The 2-D tensor fields are contracted plane by plane: fields.py,
frequency.py and CoefficientField.geometry name no einsum, whose inner loop
runs over trailing axes of length 2.  check_A1 and the
normalize_coordinates pullback run on a few dozen points and keep theirs.

Node rows are finite by one rule: np.nan_to_num appears only in
frequency._NodeData.__init__, which zeroes the residual's unformed rows
and rejects every other row that is not finite, so no later pass masks a
NaN that a config expression let through.

The ring-block rule and the 2-D stencil live in fields.py, which imports
nothing from frequency.py: the package has no import cycle.

Exports are live: every name in a module's __all__ exists in that module,
so a deleted function cannot leave a stale export behind.

The package runs on numpy alone: no module under src/freqlab imports
scipy, in any form, so a run never pays for loading it.  The tests use
scipy as an oracle only.

Central differences stand in only where no formula exists: model.py's
_central_gradient has three callers, check_A1 (the reference that the
entry gradients are checked against), PowerTerm.coef_grad (an API
coefficient given without its gradient) and grad1_F (a tabulated f).
Config expressions are differentiated from their tree, so a new caller
is a second gradient path.

The environment sets one thing: the only read of it is cli.py's
os.environ.get("FREQ_LAB_OUT", ...), so no solver constant or tolerance can
become a knob that a run record does not show.
"""

import ast
import importlib
import pathlib
import types

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


_ARCHIVE_WRITER = ("io.py", "write_npz")


def _archive_writes(source, filename):
    """Each np.savez / numpy.savez (savez_compressed too) and the function
    it sits in, and imports of them from numpy."""
    hits = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr.startswith("savez")
                    and isinstance(child.value, ast.Name)
                    and child.value.id in ("np", "numpy")):
                hits.append((f"{filename}:{child.lineno}: np.{child.attr}", func))
            elif (isinstance(child, ast.ImportFrom) and child.module == "numpy"
                  and any(a.name.startswith("savez") for a in child.names)):
                hits.append((f"{filename}:{child.lineno}: from numpy import savez",
                             func))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(ast.parse(source, filename), None)
    return hits


def _stray_archive_writes(source, filename):
    return [hit for hit, func in _archive_writes(source, filename)
            if (filename, func) != _ARCHIVE_WRITER]


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


def test_guard_flags_stray_archive_writes():
    snippet = ("import numpy as np\nfrom numpy import savez\n"
               "def write_npz(fh):\n    np.savez(fh)\n"
               "def other(fh):\n    numpy.savez_compressed(fh)\n"
               "save = np.savez\nnp.save(fh, x)\n")
    hits = _stray_archive_writes(snippet, "snippet.py")
    assert [hit.split(":")[1] for hit in hits] == ["2", "4", "6", "7"]
    # the same helper in io.py is the one allowed writer
    hits = _stray_archive_writes(snippet, "io.py")
    assert [hit.split(":")[1] for hit in hits] == ["2", "6", "7"]


def test_one_archive_writer():
    writes = [(name, func) for source, name in _modules()
              for _, func in _archive_writes(source, name)]
    assert writes == [_ARCHIVE_WRITER]


_CONFIG_READER = "config.py"


def _stray_config_reads(source, filename):
    """Imports of configparser outside config.py, and builtin open calls
    in cli.py."""
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif (filename == "cli.py" and isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "open"):
            hits.append(f"{filename}:{node.lineno}: open")
            continue
        else:
            continue
        if filename != _CONFIG_READER:
            hits += [f"{filename}:{node.lineno}: import {name}" for name in names
                     if name.split(".")[0] == "configparser"]
    return hits


def test_guard_flags_stray_config_reads():
    snippet = ("import configparser\nfrom configparser import ConfigParser\n"
               "import os\nwith open(path) as fh:\n    pass\n"
               "os.open(path, 0)\nfh = io.open(path)\n")
    hits = _stray_config_reads(snippet, "cli.py")
    assert [hit.split(":")[1] for hit in hits] == ["1", "2", "4"]
    assert [hit.split(":")[1] for hit in _stray_config_reads(
        snippet, "audit.py")] == ["1", "2"]
    # config.py is the one reader: it may import configparser and open files
    assert _stray_config_reads(snippet, _CONFIG_READER) == []


def test_one_config_reader():
    hits = [hit for source, name in _modules()
            for hit in _stray_config_reads(source, name)]
    assert hits == []


_PLANE_MODULES = ("fields.py", "frequency.py")
_PLANE_FUNCTION = ("model.py", "CoefficientField.geometry")


def _einsum_uses(source, filename):
    """Each use of einsum (np.einsum, a bare einsum, an import of it) and
    the dotted name of the class or function it sits in."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if ((isinstance(child, ast.Attribute) and child.attr == "einsum")
                    or (isinstance(child, ast.Name) and child.id == "einsum")
                    or (isinstance(child, ast.ImportFrom)
                        and any(a.name == "einsum" for a in child.names))):
                hits.append((f"{filename}:{child.lineno}: einsum", scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source, filename), "")
    return hits


def _stray_einsums(source, filename):
    """einsum anywhere in fields.py and frequency.py, and in
    CoefficientField.geometry with the functions nested in it."""
    module, func = _PLANE_FUNCTION
    return [hit for hit, scope in _einsum_uses(source, filename)
            if filename in _PLANE_MODULES
            or (filename == module
                and (scope == func or scope.startswith(func + ".")))]


def test_guard_flags_einsum_in_plane_contractions():
    snippet = ("import numpy as np\nfrom numpy import einsum\n"
               "class CoefficientField:\n"
               "    def geometry(self, x):\n"
               "        return np.einsum('...i,...i->...', x, x)\n"
               "    def other(self, x):\n"
               "        return numpy.einsum('ii', x)\n"
               "def check_A1(x):\n    f = einsum\n")
    hits = _stray_einsums(snippet, "frequency.py")
    assert [hit.split(":")[1] for hit in hits] == ["2", "5", "7", "9"]
    # in model.py only geometry's body is held to planes
    hits = _stray_einsums(snippet, "model.py")
    assert [hit.split(":")[1] for hit in hits] == ["5"]
    assert _stray_einsums(snippet, "audit.py") == []


def test_no_einsum_in_plane_contractions():
    hits = [hit for source, name in _modules()
            for hit in _stray_einsums(source, name)]
    assert hits == []


def _stale_exports(module):
    return [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]


def test_guard_flags_stale_exports():
    module = types.ModuleType("snippet")
    module.__all__ = ["kept", "deleted"]
    module.kept = None
    assert _stale_exports(module) == ["deleted"]


def test_every_export_exists():
    root = pathlib.Path(freqlab.__file__).parent
    modules = [freqlab] + [importlib.import_module(f"freqlab.{path.stem}")
                           for path in sorted(root.glob("*.py"))
                           if path.stem not in ("__init__", "__main__")]
    assert len(modules) >= 10
    assert [(m.__name__, name) for m in modules for name in _stale_exports(m)] == []


_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}
_ENV_READ = ("cli.py", "FREQ_LAB_OUT")


def _environment_reads(source, filename):
    """Each use of os.environ / os.getenv (or an import of them) other than
    cli.py's os.environ.get("FREQ_LAB_OUT", ...)."""
    tree = ast.parse(source, filename)
    allowed = set()
    if filename == _ENV_READ[0]:
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == "get"
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "environ"
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id == "os" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == _ENV_READ[1]):
                allowed.add(id(func.value))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES:
            if id(node) not in allowed:
                hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in _ENV_NAMES:
            hits.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            hits += [(node.lineno, f"from os import {a.name}")
                     for a in node.names if a.name in _ENV_NAMES]
    return [f"{filename}:{line}: {what}" for line, what in sorted(hits)]


def test_guard_flags_stray_environment_reads():
    snippet = ("import os\nout = os.environ.get('FREQ_LAB_OUT', out)\n"
               "tol = float(os.environ.get('FREQ_LAB_TOL', 1e-10))\n"
               "w = os.getenv('FREQ_LAB_WINDOW')\nx = os.environ['X']\n"
               "from os import environ\ny = environ.get('FREQ_LAB_OUT')\n")
    hits = _environment_reads(snippet, "cli.py")
    assert [hit.split(":")[1] for hit in hits] == ["3", "4", "5", "6", "7"]
    # the output directory is read in cli.py only
    hits = _environment_reads(snippet, "fields.py")
    assert [hit.split(":")[1] for hit in hits] == ["2", "3", "4", "5", "6", "7"]


def test_the_environment_sets_only_the_output_directory():
    hits = [hit for source, name in _modules()
            for hit in _environment_reads(source, name)]
    assert hits == []


_NAN_TO_NUM = ("frequency.py", "_NodeData.__init__")


def _nan_to_num_uses(source, filename):
    """Each use of nan_to_num (np.nan_to_num, a bare name, an import of it)
    and the dotted name of the class or function it sits in."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if ((isinstance(child, ast.Attribute) and child.attr == "nan_to_num")
                    or (isinstance(child, ast.Name) and child.id == "nan_to_num")
                    or (isinstance(child, ast.ImportFrom)
                        and any(a.name == "nan_to_num" for a in child.names))):
                hits.append((f"{filename}:{child.lineno}: nan_to_num", scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source, filename), "")
    return [hit for hit, scope in hits if (filename, scope) != _NAN_TO_NUM]


def test_guard_flags_stray_nan_to_num():
    snippet = ("import numpy as np\nfrom numpy import nan_to_num\n"
               "class _NodeData:\n"
               "    def __init__(self):\n"
               "        np.nan_to_num(self.rho0, nan=0.0, copy=False)\n"
               "    def ball(self, g):\n"
               "        return np.nan_to_num(g)\n"
               "def _residual_epsilon(g):\n    numpy.nan_to_num(g, copy=False)\n")
    hits = _nan_to_num_uses(snippet, "frequency.py")
    assert [hit.split(":")[1] for hit in hits] == ["2", "7", "9"]
    # the constructor's one use is allowed in frequency.py only
    hits = _nan_to_num_uses(snippet, "audit.py")
    assert [hit.split(":")[1] for hit in hits] == ["2", "5", "7", "9"]


def test_nan_to_num_only_in_the_node_data_constructor():
    hits = [hit for source, name in _modules()
            for hit in _nan_to_num_uses(source, name)]
    assert hits == []


def _imports_of_frequency(source, filename):
    """Each import in fields.py of the frequency module or from it,
    relative or absolute, at module level or inside a function."""
    if filename != "fields.py":
        return []
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [a.name for a in node.names]
            if (module.split(".")[-1] == "frequency"
                    or (module in ("", "freqlab") and "frequency" in names)):
                hits.append((node.lineno, f"from {module} import "
                                          f"{', '.join(names)}"))
        elif isinstance(node, ast.Import):
            hits += [(node.lineno, f"import {a.name}") for a in node.names
                     if a.name.split(".")[-1] == "frequency"]
    return [f"{filename}:{line}: {what}" for line, what in sorted(hits)]


def test_guard_flags_imports_of_frequency_in_fields():
    snippet = ("from .model import eval_f\n"
               "def f():\n    from .frequency import _ring_blocks\n"
               "from . import frequency\nimport freqlab.frequency\n"
               "from freqlab.frequency import _NodeData\n"
               "from .frequency_tools import x\n")
    hits = _imports_of_frequency(snippet, "fields.py")
    assert [hit.split(":")[1] for hit in hits] == ["3", "4", "5", "6"]
    # other modules may import frequency
    assert _imports_of_frequency(snippet, "audit.py") == []


def test_fields_imports_nothing_from_frequency():
    hits = [hit for source, name in _modules()
            for hit in _imports_of_frequency(source, name)]
    assert hits == []


def _scipy_imports(source, filename):
    """Each import of scipy or of a scipy module (import, from-import, and
    importlib.import_module or __import__ of a literal name)."""
    def scipy_name(name):
        return name.split(".")[0] == "scipy"

    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            hits += [(node.lineno, f"import {a.name}") for a in node.names
                     if scipy_name(a.name)]
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and scipy_name(node.module or "")):
            hits.append((node.lineno, f"from {node.module} import ..."))
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and scipy_name(node.args[0].value)
              and ((isinstance(node.func, ast.Attribute)
                    and node.func.attr == "import_module")
                   or (isinstance(node.func, ast.Name)
                       and node.func.id in ("import_module", "__import__")))):
            hits.append((node.lineno, f"import_module({node.args[0].value!r})"))
    return [f"{filename}:{line}: {what}" for line, what in sorted(hits)]


def test_guard_flags_scipy_imports():
    snippet = ("import numpy as np\nimport scipy\n"
               "from scipy.linalg import lapack\n"
               "def f():\n    import os, scipy.sparse as sp\n"
               "from scipy import integrate\n"
               "m = importlib.import_module('scipy.linalg')\n"
               "n = __import__('scipy')\n"
               "import scipy_tools\nfrom .scipy import x\n"
               "importlib.import_module('numpy')\n")
    hits = _scipy_imports(snippet, "fields.py")
    assert [hit.split(":")[1] for hit in hits] == ["2", "3", "5", "6", "7", "8"]


def test_no_module_imports_scipy():
    hits = [hit for source, name in _modules()
            for hit in _scipy_imports(source, name)]
    assert hits == []


_CENTRAL_GRADIENT = "_central_gradient"
_CENTRAL_GRADIENT_CALLERS = {("model.py", "check_A1"),
                             ("model.py", "PowerTerm.coef_grad"),
                             ("model.py", "grad1_F")}


def _central_gradient_uses(source, filename):
    """Each use of _central_gradient (a name, an attribute, an import of
    it) outside its three allowed callers."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if ((isinstance(child, ast.Attribute) and child.attr == _CENTRAL_GRADIENT)
                    or (isinstance(child, ast.Name) and child.id == _CENTRAL_GRADIENT)
                    or (isinstance(child, ast.ImportFrom)
                        and any(a.name == _CENTRAL_GRADIENT for a in child.names))):
                if (filename, scope) not in _CENTRAL_GRADIENT_CALLERS:
                    hits.append(f"{filename}:{child.lineno}: {_CENTRAL_GRADIENT} "
                                f"in {scope or 'the module'}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source, filename), "")
    return hits


def test_guard_flags_new_central_gradient_callers():
    snippet = ("from .model import _central_gradient\n"
               "def _central_gradient(fn, x, step):\n    return fn(x)\n"
               "class PowerTerm:\n"
               "    def coef_grad(self, x):\n"
               "        return _central_gradient(self.coef, x, 1e-5)\n"
               "def grad1_F(spec, x, s):\n"
               "    return _central_gradient(lambda y: y, x, 1e-5)\n"
               "def check_A1(coeff, points):\n"
               "    return _central_gradient(coeff.entries, points, 1e-6)\n"
               "class CoefficientField:\n"
               "    def from_expressions(cls, dim):\n"
               "        def grads(x):\n"
               "            return _central_gradient(entries, x, 1e-6)\n"
               "step = model._central_gradient\n")
    hits = _central_gradient_uses(snippet, "model.py")
    assert [hit.split(":")[1] for hit in hits] == ["1", "14", "15"]
    # the three callers are allowed in model.py only
    hits = _central_gradient_uses(snippet, "frequency.py")
    assert [hit.split(":")[1] for hit in hits] == ["1", "6", "8", "10", "14", "15"]


def test_central_differences_have_three_callers():
    hits = [hit for source, name in _modules()
            for hit in _central_gradient_uses(source, name)]
    assert hits == []
