"""Spans around the public calls into each freqlab layer.

The tracer wraps functions from outside the program: while `Tracer.active()`
is entered, every binding of a traced function in a loaded ``freqlab``
module (the defining module and every module that imported the name) is
replaced by a wrapper that records a span, so calls the library makes to
itself are seen as well as the benchmark's own calls.  Instance attributes
(a coefficient field's entries, a potential) are wrapped the same way.
Everything is restored on exit.

Spans are kept in memory as (name, start, end, parent) and written out when
the benchmark ends.
"""

import contextlib
import sys
import time
from collections import Counter

# (module, function) -> span name.  Span names are "<layer>.<call>".
TRACED_CALLS = {
    ("freqlab.odes", "integrate_radial"): "odes.integrate_radial",
    ("freqlab.odes", "integrate_plane"): "odes.integrate_plane",
    ("freqlab.odes", "zero_audit"): "odes.zero_audit",
    ("freqlab.fields", "solve_radial"): "fields.solve_radial",
    ("freqlab.fields", "solve_grid_2d"): "fields.solve_grid_2d",
    ("freqlab.fields", "residual_field"): "fields.residual_field",
    ("freqlab.fields", "save_field"): "fields.save_field",
    ("freqlab.fields", "load_field"): "fields.load_field",
    ("freqlab.fields", "sample_grid2d"): "fields.sample_grid2d",
    ("freqlab.model", "eval_F"): "model.eval_F",
    ("freqlab.model", "grad1_F"): "model.grad1_F",
    ("freqlab.frequency", "frequency_profile"): "frequency.profile",
    ("freqlab.frequency", "run_all_identity_checks"): "frequency.identities",
    ("freqlab.audit", "audit"): "audit.audit",
    ("freqlab.io", "write_json"): "io.write",
    ("freqlab.io", "write_csv"): "io.write",
}


class Tracer:
    """In-memory span recorder with the counts taken at the same boundaries."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, result):
        if name in ("odes.integrate_radial", "odes.integrate_plane"):
            self.counts["odes.steps"] += len(result.t) - 1
            self.counts["odes.crossings"] += len(result.crossings)

    @contextlib.contextmanager
    def active(self, specs=()):
        """Install the wrappers; `specs` are ProblemSpecs whose coefficient
        and potential callables get wrapped too."""
        undo = []
        try:
            modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "freqlab"
                                             or n.startswith("freqlab."))]
            for (mod_name, attr), name in TRACED_CALLS.items():
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            wrapped = set()  # specs may share a coefficient field
            for spec in specs:
                coeff = spec.coefficients
                for obj, attr in ((coeff, "entries"),
                                  (coeff, "entry_gradients"),
                                  (spec, "potential")):
                    original = getattr(obj, attr)
                    if original is None or (id(obj), attr) in wrapped:
                        continue
                    wrapped.add((id(obj), attr))
                    setattr(obj, attr, self.wrap("model.coeff_eval", original))
                    undo.append((obj, attr, original))
            yield self
        finally:
            for obj, key, original in reversed(undo):
                setattr(obj, key, original)

    def totals(self):
        """Inclusive seconds per span name."""
        out = Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self):
        """Self seconds per layer: span time not covered by child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out = Counter()
        for (name, _, _, _), value in zip(self.spans, own):
            out[name.split(".")[0]] += value
        return out

    def dump(self):
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
                for n, s, e, p in self.spans]
