"""Config files: problem specifications and run configurations.

Problem specs are human-readable INI with sections [domain], [coefficients],
[potential], [nonlinearity].  Coefficient and potential fields are either
named built-ins (identity, diagonal(d1, .., dN), rotation_perturbed(eps)) or
expression strings over x1..xN in the small arithmetic grammar.  Run
configurations live in section [run].
"""

import configparser
import dataclasses
import math
import re
from dataclasses import dataclass

from .expressions import compile_expression
from .model import CoefficientField, NonlinearitySpec, PowerTerm, ProblemSpec

__all__ = ["ConfigError", "RunConfig", "read_ini", "parse_problem_spec",
           "parse_run_config"]


class ConfigError(ValueError):
    """Malformed configuration input."""


_BUILTIN_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(([^)]*)\))?\s*$")


def read_ini(source):
    """The parsed INI of text, a path, or an already parsed file (as is);
    every parse function takes any of the three."""
    if isinstance(source, configparser.ConfigParser):
        return source
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep case
    text = str(source)
    try:
        # INI text spans lines or opens with a section header; a path does
        # neither, whatever characters ('=' included) its name holds
        if "\n" in text or text.lstrip().startswith("["):
            cp.read_string(text)
        else:
            with open(source, encoding="utf-8") as fh:
                cp.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return cp


def _converted(convert, raw, where):
    """convert(raw), with a failure reported as a ConfigError naming `where`."""
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _value(sec, key, convert=float, fallback=None):
    if key not in sec:
        return fallback
    return _converted(convert, sec[key], f"[{sec.name}] {key}")


def parse_problem_spec(source):
    cp = read_ini(source)
    for section in ("domain", "nonlinearity"):
        if section not in cp:
            raise ConfigError(f"missing [{section}] section")
    dom = cp["domain"]
    dim = _value(dom, "dimension", int)
    radius = _value(dom, "outer_radius")
    if dim is None or radius is None:
        raise ConfigError("[domain] needs dimension and outer_radius")

    coeff = _parse_coefficients(cp, dim, radius)
    potential, source = _parse_potential(cp, dim)
    nl = _parse_nonlinearity(cp["nonlinearity"], dim)
    try:
        return ProblemSpec(dim, radius, coeff, nl, potential, source)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_coefficients(cp, dim, radius):
    if "coefficients" not in cp:
        return CoefficientField.identity(dim)
    sec = cp["coefficients"]
    kind = sec.get("field", "identity")
    m = _BUILTIN_RE.match(kind)
    if m is None:
        raise ConfigError(f"bad coefficient field {kind!r}")
    name, args = m.group(1), m.group(2)
    if name == "identity":
        return CoefficientField.identity(dim)
    if name == "diagonal":
        vals = [_converted(float, v, "[coefficients] field")
                for v in (args or "").split(",") if v.strip()]
        if len(vals) != dim:
            raise ConfigError(f"diagonal() needs {dim} entries")
        return CoefficientField.diagonal(vals)
    if name == "rotation_perturbed":
        eps = _converted(float, args, "[coefficients] field") if args else 0.1
        # ellipticity sized for the domain, |x| <= outer_radius
        return CoefficientField.rotation_perturbed(eps, dim, radius=radius)
    if name == "expr":
        keys = {f"a{i}{j}" for i in range(1, dim + 1) for j in range(1, dim + 1)}
        unknown = [key for key in sec if key not in keys | {"field", "ellipticity"}]
        if unknown:
            raise ConfigError(f"unknown [coefficients] key {unknown[0]!r}; with "
                              f"field = expr the keys are field, ellipticity "
                              f"and a11..a{dim}{dim}")
        entries = {k: v for k, v in sec.items() if k in keys}
        ell = _value(sec, "ellipticity", fallback=0.5)
        try:
            return CoefficientField.from_expressions(dim, entries, ell)
        except ValueError as exc:  # names the entry at fault, e.g. "a12: ..."
            raise ConfigError(f"[coefficients] {exc}") from exc
    raise ConfigError(f"unknown coefficient field {name!r}")


def _parse_potential(cp, dim):
    src = cp["potential"].get("field", "0").strip() if "potential" in cp else "0"
    if src == "0":
        return None, "0"
    return _converted(lambda t: compile_expression(t, dim), src, "[potential] field"), src


def _parse_nonlinearity(sec, dim):
    kind = sec.get("kind", "homogeneous")
    q = _value(sec, "q")
    # only the keys the section sets: the constructors own the defaults
    given = {key: _value(sec, key) for key in ("eps0", "kappa1", "kappa2")
             if key in sec}
    if kind == "homogeneous":
        if q is None:
            raise ConfigError("homogeneous nonlinearity needs q")
        if not 1.0 <= q < 2.0:
            raise ConfigError("q must lie in [1, 2)")
        return NonlinearitySpec.homogeneous(q, **given)
    if kind == "sum_of_powers":
        terms_text = sec.get("terms")
        if not terms_text:
            raise ConfigError("sum_of_powers needs terms = q1: expr | q2: expr")
        terms = []
        for k, part in enumerate(terms_text.split("|")):
            where = f"[nonlinearity] terms, term {k + 1} ({part.strip()!r})"
            expo_text, _, coef_text = part.partition(":")
            expo = _converted(float, expo_text, where)
            if not 1.0 <= expo < 2.0:
                raise ConfigError(f"{where}: every exponent must lie in [1, 2)")
            coef_text = coef_text.strip()
            try:
                coef = float(coef_text)
            except ValueError:
                coef = _converted(lambda t: compile_expression(t, dim), coef_text, where)
            terms.append(PowerTerm(expo, coef))
        return NonlinearitySpec.sum_of_powers(tuple(terms), **given)
    raise ConfigError(f"unknown nonlinearity kind {kind!r} "
                      "(tabulated kinds are API-only)")


# --------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    command: str = "ode"
    dimension: int = 2
    q: float = 1.5
    outer_radius: float = 1.0
    amplitude: float = 0.5
    radial_step: float = 1e-3
    t0: float = 0.0
    t_max: float = 10.0
    rings: int = 64
    angles: int = 128
    n_radii: int = 800
    boundary: str = "radial-trace"
    mode: str = "radial"
    ode_task: str = "counterexample"
    residual_gate: float = None
    h_floor_rel: float = 1e-14
    damping: float = 0.0
    fp_tol: float = 1e-10
    max_iters: int = 400
    out_dir: str = "freq-lab-out"
    field_file: str = None
    config_path: str = None  # the file this run config was read from, if any

    def validate(self):
        if self.command not in ("ode", "solve", "frequency", "audit", "check"):
            raise ConfigError(f"unknown command {self.command!r}")
        # a key set to `none` holds None, and NaN fails every comparison
        for name in ("radial_step", "outer_radius", "fp_tol", "h_floor_rel"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        for name in ("amplitude", "t0", "t_max"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite, got {value}")
        # none is the audit's default gate, inf turns the gate off; a NaN or
        # non-positive gate would veto every field
        if self.residual_gate is not None and not (
                _is_real(self.residual_gate) and self.residual_gate > 0):
            raise ConfigError(f"residual_gate must be positive or none, got "
                              f"{self.residual_gate}")
        # at damping 1 every fixed-point step is zero: a false convergence
        if not (_is_real(self.damping) and 0.0 <= self.damping < 1.0):
            raise ConfigError(f"damping must lie in [0, 1), got {self.damping}")
        for name in ("dimension", "rings", "angles", "n_radii", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, int) and value > 0):
                raise ConfigError(f"{name} must be a positive integer, got {value}")
        # of the numeric keys, only those that default to None may be None
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if _is_real(f.default) and not _is_real(value):
                raise ConfigError(f"{f.name} must be a number, got {value}")
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")
        if self.command == "ode" and self.ode_task in ("counterexample", "pme"):
            if not 1.0 < self.q < 2.0:
                raise ConfigError("q must lie in (1, 2)")
        elif not 1.0 <= self.q < 2.0:
            raise ConfigError("q must lie in [1, 2)")
        return self


def _is_real(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_RUN_TYPES = {int: int, float: float}


def parse_run_config(source):
    cp = read_ini(source)
    cfg = RunConfig()
    if "run" in cp:
        sec = cp["run"]
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = [key for key in sec if key not in known]
        if unknown:
            raise ConfigError(f"unknown [run] key {unknown[0]!r}")
        for f in dataclasses.fields(RunConfig):
            if f.name in sec:
                convert = _RUN_TYPES.get(f.type, str)
                setattr(cfg, f.name, None if sec[f.name] == "none"
                        else _value(sec, f.name, convert))
    return cfg
