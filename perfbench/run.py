"""freqlab benchmark: time to verdict on the radial, grid2d and tabulated workloads.

    python3 perfbench/run.py --workload grid2d --seed 1 --seconds 20 --trace 0

Imports freqlab from the ``src/`` directory next to this one, so it measures
the checkout it sits in; it exits 2 without a result when that is missing.
One run is a single process and a closed loop: the workload's fixed item
list is taken from inputs to verdicts once per pass, one item at a time.

``--trace 0``: set-up time is measured in fresh child interpreters, then one
coarse warm-up pass runs, then full passes repeat until ``--seconds`` have
passed.  ``--trace 1``: after the warm-up, untraced and traced passes
alternate; the traced passes' spans give the per-layer metrics.  Times are
rescaled to a reference host speed by the probe in ``speed.py``; the
measured times are printed and recorded beside them.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics, where metrics are the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) entries of
BENCHMARK.json.  A full record (environment, per-item times, checks, spans)
goes to ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 7
SETUP_SENSITIVITY = 0.8
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import freqlab, "
              "workloads; workloads.build_inputs(sys.argv[3], int(sys.argv[4]))")

# units of the metrics that are printed but not declared in BENCHMARK.json
PRINTED_UNITS = {"failed_frac": "fraction", "mms_error": "abs",
                 "energy_drift": "abs", "host_slowdown": "ratio",
                 "odes.us_per_step": "us", "fields.per_iteration_ms": "ms"}


def units_of(declared):
    """Metric name -> unit: BENCHMARK.json's, else the printed-only table;
    the rest of the printed metrics are seconds (``_s``) or counts."""
    units = dict(PRINTED_UNITS)
    units.update((m["name"], m["unit"])
                 for m in declared["end_to_end"] + declared["per_layer"])
    return lambda name: units.get(name, "s" if name.endswith("_s")
                                  else "count")


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def measure_setup(workload, seed, probe):
    """Median time, at reference speed, of fresh interpreters importing
    freqlab and building the workload's inputs; one unmeasured run first
    fills the bytecode cache.  Also returns the measured times.

    The probe samples just before and after each child, not while it runs,
    when it would compete with it.  Interpreter start-up and imports slow
    as the probe's kernel to the power SETUP_SENSITIVITY, fitted on the
    reference machine: with another process streaming through memory, the
    measured median rose from 0.42 to 0.55 s and the rescaled one read
    0.36 and 0.37 s."""
    argv = [sys.executable, "-c", SETUP_CODE, SRC, BENCH, workload, str(seed)]
    samples, rescaled = [], []
    for k in range(SETUP_REPEATS + 1):
        probe.sample()
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        t1 = time.perf_counter()
        probe.sample()
        if k:
            samples.append(t1 - t0)
            rescaled.append(probe.rescale(t0, t1, SETUP_SENSITIVITY))
    return statistics.median(rescaled), samples


LAYERS = ("odes", "fields", "model", "frequency", "audit", "io", "bench")


def layer_metrics(tracer, own, p, warm_iterations):
    """Per-layer metrics of one traced pass `p`; `own` are its self times."""
    tot = tracer.totals()
    m = {}
    for name in ("odes.integrate_radial", "odes.integrate_plane",
                 "odes.zero_audit", "fields.solve_radial",
                 "fields.residual_field", "fields.solve_grid_2d",
                 "fields.solve_grid_2d_warm", "fields.save_field",
                 "fields.load_field", "model.eval_F", "model.grad1_F",
                 "model.coeff_eval", "frequency.profile",
                 "frequency.identities", "audit.audit", "io.write"):
        m[name + "_s"] = tot[name]
    steps = tracer.counts["odes.steps"]
    m["odes.steps"] = steps
    m["odes.crossings"] = tracer.counts["odes.crossings"]
    ode_s = tot["odes.integrate_radial"] + tot["odes.integrate_plane"]
    m["odes.us_per_step"] = 1e6 * ode_s / steps if steps else 0.0
    cold_iterations = p.counts["fields.fp_iterations"]
    m["fields.fp_iterations"] = cold_iterations
    iterate_s = tot["fields.solve_grid_2d"] - tot["fields.solve_grid_2d_warm"]
    extra = cold_iterations - warm_iterations
    m["fields.iterate_s"] = iterate_s
    m["fields.per_iteration_ms"] = 1e3 * iterate_s / extra if extra else 0.0
    m["fields.field_bytes"] = p.counts["fields.field_bytes"]
    m["model.f_calls"] = p.counts["model.f_calls"]
    m["frequency.identity_failures"] = p.counts["frequency.identity_failures"]
    for verdict, key in (("genuine_nonvanishing", "genuine"),
                         ("contradiction_certified", "contradiction"),
                         ("residual_veto", "veto"),
                         ("inconclusive", "inconclusive")):
        m["audit." + key] = p.counts["audit." + verdict]
    m["io.bytes"] = p.counts["io.bytes"]
    for layer in LAYERS:
        m[layer + ".self_s"] = own[layer]
    return m


EXACT_COUNTS = ("odes.steps", "odes.crossings", "fields.fp_iterations",
                "model.f_calls", "fields.field_bytes",
                "frequency.identity_failures", "io.bytes", "audit.genuine",
                "audit.contradiction", "audit.veto", "audit.inconclusive")


def measure(args, items, run_dir, probe):
    """Warm-up, then untraced passes, alternating with traced passes under
    --trace 1 so that both sample the same stretch of host speed.

    Returns (untraced, traced, per-layer metrics of each traced pass, peak
    RSS in MB, spans of the last traced pass)."""
    import spans
    import workloads

    workloads.run_pass(items, workloads.WARM, run_dir, probe)
    untraced, traced, layers, last_spans = [], [], [], []
    specs = [s for it in items for s in it.specs]
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(workloads.run_pass(items, workloads.FULL, run_dir,
                                           probe))
        untraced[-1][0].grid_solves.clear()
        if len(untraced) == 1:
            # one warm-up and one full pass, as one CLI process would see;
            # later passes add allocator drift, not program memory
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            continue
        tracer = spans.Tracer()
        with tracer.active(specs):
            traced.append(workloads.run_pass(items, workloads.FULL, run_dir,
                                             probe, tracer))
        p = traced[-1][0]
        own = tracer.self_times()  # of the pass, not of the restarts
        layers.append(layer_metrics(tracer, own, p,
                                    workloads.warm_restarts(p, tracer)))
        last_spans = tracer.dump()
    return untraced, traced, layers, peak_rss_mb, last_spans


def wall(item_s, k):
    """Pass wall time: k = 0 measured, k = 1 at reference speed."""
    return sum(t[k] for t in item_s.values())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("radial", "grid2d", "tabulated"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "freqlab", "__init__.py")):
        sys.stderr.write(f"no freqlab sources under {SRC}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    # one BLAS thread: SuperLU's BLAS calls are too small to gain from a
    # second (the bowl takes the same time with two), and a second thread
    # would run where the speed probe does not look
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")

    import speed  # loads numpy, after the BLAS thread variables are set

    probe = speed.SpeedProbe()
    # set-up first, before the periodic samples start
    setup = (None if args.trace
             else measure_setup(args.workload, args.seed, probe))
    with probe.running():
        return report(args, declared, probe, setup)


def report(args, declared, probe, setup):
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, BENCH]
    import freqlab
    import_s = time.perf_counter() - t0
    if not os.path.abspath(freqlab.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"imported freqlab from {freqlab.__file__}, "
                         f"not from {SRC}\n")
        return 2
    import workloads

    env = environment()
    items = workloads.build_inputs(args.workload, args.seed)
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        untraced, traced, layers, peak_rss_mb, last_spans = measure(
            args, items, run_dir, probe)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = untraced + traced
    failed = sum(len(p.failed_items()) for p, _ in passes)
    attempted = len(items) * len(passes)
    counts_repeat = all(
        p.counts == passes[0][0].counts for p, _ in passes)
    counts_repeat &= all(
        all(m[k] == layers[0][k] for k in EXACT_COUNTS) for m in layers)
    walls = [wall(t, 1) for _, t in untraced]
    values = passes[0][0].values
    e2e = {
        "setup_s": setup and setup[0],
        "wall_s": statistics.median(walls),
        "slowest_verdict_s": max(
            statistics.median(t[item.name][1] for _, t in untraced)
            for item in items),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted,
        "mms_error": values.get("mms_error"),
        "energy_drift": values.get("energy_drift"),
        "measured_setup_s": setup and statistics.median(setup[1]),
        "measured_wall_s": statistics.median(wall(t, 0) for _, t in untraced),
        "host_slowdown": probe.slowdown(0.0, time.perf_counter()),
    }
    if args.trace:
        shown = {k: layers[0][k] if k in EXACT_COUNTS
                 else statistics.median(m[k] for m in layers)
                 for k in layers[0]}
        shown["import_s"] = import_s
        shown["trace_overhead_s"] = (
            statistics.median(wall(t, 1) for _, t in traced) - e2e["wall_s"])
        wanted = declared["per_layer"]
    else:
        shown, wanted = e2e, declared["end_to_end"]
    unit_of = units_of(declared)
    failed_checks = [c for p, _ in passes for c in p.checks if not c[2]]
    identity_failures = passes[0][0].identity_failures

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(items)} items, {len(untraced)} untraced and {len(traced)} "
          f"traced passes")
    print("env " + json.dumps(env, sort_keys=True))
    for item, failures in sorted(identity_failures.items()):
        print(f"identity failures (recorded) {item}: " + ", ".join(
            f"{k} {v:.2e}" for k, v in sorted(failures.items())))
    for item, label, _, detail in failed_checks:
        print(f"FAILED {item}: {label} ({detail})")
    if not counts_repeat:
        print("FAILED exact counts differ between passes")
    for name, value in shown.items():
        text = "n/a (not in this workload)" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {text:>28s} {unit_of(name)}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "items": [i.name for i in items],
        "setup_s_samples": setup and setup[1],
        "pass_wall_s": walls,
        "traced_wall_s": [wall(t, 1) for _, t in traced],
        "measured_pass_wall_s": [wall(t, 0) for _, t in untraced],
        "item_s": [t for _, t in passes], "probe_s": probe.durations,
        "checks": passes[0][0].checks,
        "failed_checks": failed_checks, "identity_failures": identity_failures,
        "counts_repeat": counts_repeat, "metrics": shown, "spans": last_spans}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    correct = failed == 0 and counts_repeat
    metrics = {m["name"]: {"value": shown[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
