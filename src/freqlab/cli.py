"""Command-line front end: freq-lab <ode|solve|frequency|audit|check>.

Exit codes: 0 success (audit: genuine), 2 configuration or validation
error, 3 solver non-convergence, 4 contradiction certified, 5 residual
veto, 6 inconclusive audit, 7 failed check (an identity in `frequency`, a
bound in `ode`, an assumption in `check`).  The FREQ_LAB_OUT environment
variable overrides the output directory.
"""

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .audit import AuditControls, audit
from .config import (ConfigError, RunConfig, parse_problem_spec,
                     parse_run_config, read_ini)
from .fields import (SolverError, load_field, save_field, solve_grid_2d,
                     solve_radial, solver_summary)
from .frequency import (ProfileControls, frequency_profile,
                        run_all_identity_checks, write_identity_reports)
from .io import RunRecord, jsonable, profile_to_csv, write_csv, write_json
from .model import ProblemSpec, ball_grid, check_A1, check_A2, check_A3
from .odes import (PmeField, conserved_energy, counterexample_profile,
                   integrate_plane, integrate_radial, zero_audit)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CONTRADICTION = 4
EXIT_VETO = 5
EXIT_INCONCLUSIVE = 6
EXIT_CHECK_FAILED = 7

_CLASSIFICATION_EXIT = {
    "genuine_nonvanishing": EXIT_OK,
    "contradiction_certified": EXIT_CONTRADICTION,
    "residual_veto": EXIT_VETO,
    "inconclusive": EXIT_INCONCLUSIVE,
}


def _build_parser():
    p = argparse.ArgumentParser(prog="freq-lab",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, problem=True):
        sp.add_argument("--config", help="run/problem config file (INI)")
        sp.add_argument("--out", dest="out_dir", help="output directory")
        # frequency and audit read the problem from --config or the field
        # file, so they take no --q or --N
        if problem:
            sp.add_argument("--q", type=str,
                            help="exponent (ode accepts a comma list)")
            sp.add_argument("--N", dest="dimension", type=int)

    sp = sub.add_parser("ode", help="counterexample / energy / shooting / pme demos")
    common(sp)
    sp.add_argument("--counterexample", action="store_const", dest="ode_task",
                    const="counterexample")
    sp.add_argument("--energy", action="store_const", dest="ode_task", const="energy")
    sp.add_argument("--shoot", action="store_const", dest="ode_task", const="shoot")
    sp.add_argument("--pme", action="store_const", dest="ode_task", const="pme")
    sp.add_argument("--amplitude", type=float)
    sp.add_argument("--step", dest="radial_step", type=float)
    sp.add_argument("--tmax", dest="t_max", type=float)
    sp.add_argument("--t0", type=float)
    sp.add_argument("--radius", dest="outer_radius", type=float)

    sp = sub.add_parser("solve", help="produce and serialize a solution field")
    common(sp)
    sp.add_argument("--mode", choices=("radial", "grid2d"))
    sp.add_argument("--amplitude", type=float)
    sp.add_argument("--step", dest="radial_step", type=float)
    sp.add_argument("--radius", dest="outer_radius", type=float)
    sp.add_argument("--rings", type=int)
    sp.add_argument("--angles", type=int)
    sp.add_argument("--boundary", type=str,
                    help="harmonic | radial-trace | cos:<k>:<eps> "
                         "(integer k, finite eps)")

    sp = sub.add_parser("frequency", help="frequency profile and identity reports")
    common(sp, problem=False)
    sp.add_argument("field_file", metavar="field", help="field file to analyze")
    sp.add_argument("--radii", dest="n_radii", type=int,
                    help="the fewest radii to list (a whole-node stride "
                         "lists up to about twice as many, or every node "
                         "radius if fewer); derivatives use the node step")

    sp = sub.add_parser("audit", help="vanishing-contradiction audit")
    common(sp, problem=False)
    sp.add_argument("field_file", metavar="field", help="field file to audit")
    sp.add_argument("--residual-gate", dest="residual_gate", type=float)
    sp.add_argument("--h-floor", dest="h_floor_rel", type=float)

    sp = sub.add_parser("check", help="assumption audit of a problem spec")
    common(sp)
    return p


_PROBLEM_SECTIONS = ("domain", "coefficients", "potential", "nonlinearity")
_PROBLEM_FLAGS = {"dimension": "--N", "q": "--q", "outer_radius": "--radius"}
# the ode tasks that integrate ODEs in t, on no ball
_ODE_IN_T = ("counterexample", "energy")


def _resolve(args):
    """(cfg, spec, fld, q_list), from one read of the config; spec is None
    for ode, fld is None outside frequency and audit, and cfg holds the
    spec's dimension, q and outer_radius."""
    cp = read_ini(args.config) if args.config else None
    sections = cp.sections() if cp is not None else []
    unknown = [s for s in sections if s not in ("run",) + _PROBLEM_SECTIONS]
    if unknown:
        raise ConfigError(f"unknown section [{unknown[0]}] in {args.config}; "
                          f"the sections are run, {', '.join(_PROBLEM_SECTIONS)}")
    problem = [s for s in sections if s in _PROBLEM_SECTIONS]
    if problem and args.command == "ode":
        raise ConfigError(f"ode takes no problem section: [{problem[0]}] "
                          f"in {args.config}")
    cfg = parse_run_config(cp) if cp is not None else RunConfig()
    cfg.config_path = args.config
    # one source: the problem sections, else the field header, else the
    # flags and the [run] keys; a value given twice is an error
    flags = {k: flag for k, flag in _PROBLEM_FLAGS.items()
             if getattr(args, k, None) is not None}
    keys = {k: f"[run] {k}" for k in _PROBLEM_FLAGS
            if "run" in sections and k in cp["run"]}
    if problem or args.command in ("frequency", "audit"):
        twice = [*flags.values(), *keys.values()]
        source = (f"[{'], ['.join(problem)}] in {args.config}" if problem
                  else f"the header of {args.field_file}")
    else:
        twice = [flags[k] for k in flags if k in keys]
        source = (f"{', '.join(keys[k] for k in flags if k in keys)} "
                  f"in {args.config}")
    if twice:
        raise ConfigError(f"{', '.join(twice)}: the problem is already given "
                          f"by {source}; give each problem value once")
    q_list = None
    if getattr(args, "q", None) is not None:
        q_list = [float(v) for v in args.q.split(",") if v.strip()]
        if not q_list:
            raise ConfigError("empty --q")
        if len(q_list) > 1 and args.command != "ode":
            raise ConfigError(f"--q {args.q}: only ode takes a list of exponents")
        cfg.q = q_list[0]
    # every other flag is stored under the name of the RunConfig field it sets
    for f in dataclasses.fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None and f.name != "q":
            setattr(cfg, f.name, val)
    cfg.out_dir = os.environ.get("FREQ_LAB_OUT", cfg.out_dir)
    if args.command == "ode" and cfg.ode_task in _ODE_IN_T:
        unread = [flag for k, flag in flags.items() if k != "q"]
        if unread:
            raise ConfigError(f"{', '.join(unread)}: ode --{cfg.ode_task} "
                              f"integrates in t on no ball and reads no "
                              f"--N or --radius")
    cfg.validate()
    for q in (q_list or ()):
        RunConfig(command=cfg.command, ode_task=cfg.ode_task, q=q).validate()

    spec = parse_problem_spec(cp) if problem else None
    fld = None
    if args.command in ("frequency", "audit"):
        if not os.path.exists(cfg.field_file):
            raise ConfigError(f"field file not found: {cfg.field_file}")
        fld = load_field(cfg.field_file)
    if spec is None and args.command != "ode":
        dim, q, radius = ((fld.dim, fld.q, fld.outer_radius) if fld is not None
                          else (cfg.dimension, cfg.q, cfg.outer_radius))
        spec = ProblemSpec.model(dim, q, outer_radius=radius)
    if spec is not None:
        cfg.dimension, cfg.q = spec.dim, spec.nonlinearity.q
        cfg.outer_radius = spec.outer_radius
    if args.command in ("solve", "frequency", "audit"):
        # a non-elliptic A is bad input for every command that solves or
        # analyses a field: it exits 2 before any output
        rep = check_A1(spec.coefficients, _check_points(spec),
                       radius=spec.outer_radius)
        for name in ("A1.symmetric", "A1.ellipticity"):
            clause = rep.clauses[name]
            if not clause.passed:
                raise ConfigError(f"the coefficients fail {name} (margin "
                                  f"{clause.margin:.6g}); see freq-lab check")
    return cfg, spec, fld, q_list or [cfg.q]


class _Clock:
    """Seconds per stage of one command: `lap(name)` closes the stage that
    began at the last lap (or at creation).  The record's summary carries
    them as `timings`; `content_hash` reads only the manifest."""

    def __init__(self):
        self.timings = {}
        self._start = time.perf_counter()

    def lap(self, name):
        now = time.perf_counter()
        self.timings[name] = now - self._start
        self._start = now


def _record(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    snap = dataclasses.asdict(cfg)
    return RunRecord(cfg.command, snap, cfg.out_dir, __version__).start()


# --------------------------------------------------------------------------
# commands


def cmd_ode(cfg, q_list):
    # each runner returns ((file name, columns, arrays, schema comment),
    # per-q summary, passed); every q is computed before the output
    # directory is made, so a run that exits 2 leaves nothing behind
    def one_counterexample(q):
        t_branch = np.linspace(-1.0, 1.0, 2001) + cfg.t0
        u, upp = counterexample_profile(q, cfg.t0, t_branch)
        fvals = np.sign(u) * np.abs(u) ** (q - 1.0)
        res = float(np.max(np.abs(upp - fvals) / np.maximum(1.0, np.abs(upp))))
        return ((f"counterexample_q{q!r}.csv", ["t", "u", "upp"],
                 [t_branch, u, upp], "freqlab-counterexample 1"),
                {"q": q, "max_relative_residual": res}, res <= 1e-12)

    def one_energy(q):
        traj = integrate_plane(q, 1.0, 0.0, cfg.radial_step, cfg.t_max)
        E = conserved_energy(traj)
        drift = float(np.max(np.abs(E - E[0])))
        bound = 1e-8 * max(1.0, (cfg.radial_step / 1e-2) ** 4)
        return ((f"energy_q{q!r}.csv", ["t", "u", "du", "E"],
                 [traj.t, traj.u, traj.du, E], "freqlab-energy 1"),
                {"q": q, "E0": float(E[0]), "max_drift": drift}, drift <= bound)

    def one_shoot(q):
        traj = integrate_radial(cfg.dimension, q, cfg.amplitude,
                                cfg.outer_radius, cfg.radial_step)
        zeros = zero_audit(traj)
        E = conserved_energy(traj)
        incr = float(np.max(np.diff(E))) if len(E) > 1 else 0.0
        return ((f"trajectory_N{cfg.dimension}_q{q!r}.csv", ["t", "u", "du"],
                 [traj.t, traj.u, traj.du], "freqlab-trajectory 1"),
                {"q": q, "zeros": [
                    {"location": z.location, "slope": z.slope,
                     "degenerate": z.degenerate} for z in zeros],
                 "max_energy_increase": incr}, incr <= 1e-5)

    def one_pme(q):
        from .odes import pme_residual_grid

        base = integrate_radial(cfg.dimension, q, cfg.amplitude,
                                cfg.outer_radius, cfg.radial_step)
        pme = PmeField(base, t0=cfg.t0)
        n = len(base.u)
        r_idx = np.arange(max(4, n // 16), n - 4, max(1, n // 64))
        r_idx, t_vals, resgrid = pme_residual_grid(pme, r_idx)
        res = float(np.max(np.abs(resgrid)))
        w = pme.w(r_idx, t_vals)
        wsup = float(np.max(np.abs(w)))
        rr, tt = np.meshgrid(base.t[r_idx], t_vals, indexing="ij")
        rel = res / wsup if wsup else 0.0
        return ((f"pme_grid_N{cfg.dimension}_q{q!r}.csv",
                 ["x", "t", "w", "residual"],
                 [rr.ravel(), tt.ravel(), w.T.ravel(), resgrid.T.ravel()],
                 "freqlab-pme 1"),
                {"q": q, "max_residual": res, "w_sup": wsup,
                 "relative_residual": rel}, rel <= 1e-6)

    runner = {"counterexample": one_counterexample, "energy": one_energy,
              "shoot": one_shoot, "pme": one_pme}[cfg.ode_task]
    results = [runner(q) for q in q_list]
    rec = _record(cfg)
    rec.config["q"] = q_list  # every exponent the run used
    if cfg.ode_task in _ODE_IN_T:
        del rec.config["dimension"], rec.config["outer_radius"]
    out = cfg.out_dir
    for (name, *csv), _, _ in results:
        rec.add(write_csv(os.path.join(out, name), *csv))
    ok = all(passed for _, _, passed in results)
    summary = {"schema_version": 1, "task": cfg.ode_task,
               "results": [info for _, info, _ in results], "passed": ok}
    rec.add(write_json(os.path.join(out, "ode_summary.json"), jsonable(summary)))
    rec.finish({"passed": ok})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_solve(cfg, spec):
    # the solve comes first, so a bad input (a step too coarse for the
    # amplitude, an odd angular count) exits 2 before any output; only a
    # solve that does not converge leaves a record of its failure, and
    # either record carries the solver's report as it stands
    clock = _Clock()
    try:
        if cfg.mode == "radial":
            fld = solve_radial(spec, cfg.amplitude, h=cfg.radial_step)
        else:
            fld = solve_grid_2d(spec, _boundary_factory(cfg, spec),
                                n_r=cfg.rings, n_theta=cfg.angles,
                                damping=cfg.damping, tol=cfg.fp_tol,
                                max_iters=cfg.max_iters)
    except SolverError as exc:
        sys.stderr.write(f"solver failed: {exc}\n")
        clock.lap("solve")
        _record(cfg).finish({"error": str(exc),
                             "solver": solver_summary(exc.report),
                             "timings": clock.timings})
        return EXIT_SOLVER
    clock.lap("solve")
    rec = _record(cfg)
    fpath = os.path.join(cfg.out_dir, "field.npz")
    save_field(fld, fpath)
    rec.add(fpath)
    clock.lap("write")
    rec.finish({"mode": cfg.mode, "solver": solver_summary(fld.meta["solver"]),
                "timings": clock.timings})
    return EXIT_OK


def _boundary_factory(cfg, spec):
    kind = cfg.boundary
    if kind == "harmonic":
        return lambda th: spec.outer_radius * np.cos(th)
    if kind == "radial-trace":
        rfld = solve_radial(spec, cfg.amplitude, h=cfg.radial_step)
        trace = float(rfld.u[-1])
        return lambda th: np.full_like(th, trace)
    if kind.startswith("cos:"):
        try:
            k_text, eps_text = kind.split(":")[1:]
            k, eps = int(k_text), float(eps_text)
        except ValueError:  # not exactly two fields, or not numbers
            eps = math.nan
        if not math.isfinite(eps):
            raise ConfigError(f"--boundary {kind!r}: expected cos:<k>:<eps> with "
                              f"an integer k and a finite eps")
        return lambda th: eps * np.cos(k * th)
    raise ConfigError(f"--boundary {kind!r}: unknown boundary kind (expected "
                      f"harmonic, radial-trace or cos:<k>:<eps>)")


def cmd_frequency(cfg, spec, fld):
    clock = _Clock()
    prof = frequency_profile(spec, fld, ProfileControls(
        n_radii=cfg.n_radii, h_floor_rel=cfg.h_floor_rel))
    clock.lap("profile")
    reports = run_all_identity_checks(spec, fld, prof)
    clock.lap("identities")
    rec = _record(cfg)
    out = cfg.out_dir
    rec.add(profile_to_csv(prof, os.path.join(out, "profile.csv")))
    for path in write_identity_reports(reports, out):
        rec.add(path)
    all_ok = all(rep.passed for rep in reports.values())
    clock.lap("write")
    rec.finish({"identities_passed": all_ok,
                "n_radii": int(len(prof.r)), "timings": clock.timings})
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_audit(cfg, spec, fld):
    n_radii = max(cfg.n_radii, AuditControls().profile.n_radii)
    controls = AuditControls(
        residual_gate=cfg.residual_gate,
        profile=ProfileControls(n_radii=n_radii, h_floor_rel=cfg.h_floor_rel))
    clock = _Clock()
    chain = audit(spec, fld, controls)
    clock.lap("audit")
    rec = _record(cfg)
    rec.add(write_json(os.path.join(cfg.out_dir, "certificate.json"),
                       chain.to_dict()))
    clock.lap("write")
    rec.finish({"classification": chain.classification,
                "timings": clock.timings})
    sys.stdout.write(chain.classification + "\n")
    return _CLASSIFICATION_EXIT[chain.classification]


def _check_points(spec):
    """The sample points of `check`: the ball's tensor grid, seeded extra
    interior samples, so the audit is not blind to structure that happens
    to dodge the tensor grid, and the origin with four points each way
    along every coordinate axis, where a coordinate is exactly 0 (the
    tensor grid's even count per axis and the random draws never are)."""
    dim, radius = spec.dim, spec.outer_radius
    rng = np.random.default_rng(0)
    extra = rng.uniform(-radius, radius, size=(32, dim))
    extra = extra[np.sum(extra ** 2, axis=1) <= radius ** 2]
    steps = 0.97 * radius * np.arange(1, 5) / 4.0
    on_axes = (np.concatenate([steps, -steps])[:, None, None]
               * np.eye(dim)).reshape(-1, dim)
    return np.vstack([ball_grid(dim, radius), extra, np.zeros((1, dim)),
                      on_axes])


def cmd_check(cfg, spec):
    rec = _record(cfg)
    pts = _check_points(spec)
    radius = spec.outer_radius
    reports = {"A1": check_A1(spec.coefficients, pts, radius=radius),
               "A3": check_A3(spec.nonlinearity, pts, radius=radius)}
    blob = {"schema_version": 1}
    if spec.potential is None:
        blob["A2_note"] = "potential sampled finite"
    else:
        reports["A2"] = check_A2(spec, pts)
    blob.update((name, rep.to_dict()) for name, rep in reports.items())
    ok = all(rep.passed for rep in reports.values())
    rec.add(write_json(os.path.join(cfg.out_dir, "assumptions.json"), blob))
    rec.finish({"passed": bool(ok)})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, spec, fld, q_list = _resolve(args)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    handler = {"ode": lambda: cmd_ode(cfg, q_list),
               "solve": lambda: cmd_solve(cfg, spec),
               "frequency": lambda: cmd_frequency(cfg, spec, fld),
               "audit": lambda: cmd_audit(cfg, spec, fld),
               "check": lambda: cmd_check(cfg, spec)}[cfg.command]
    try:
        return handler()
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
