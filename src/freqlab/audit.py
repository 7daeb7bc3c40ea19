"""Replay of the quantitative vanishing-contradiction argument.

Given a candidate field on a ball, the audit measures its integrated
equation residual (`_residual_epsilon`), finds the radius r0 up to which the
nonlinearity mass d vanishes, and then walks the proof chain that a genuine
solution with r0 > 0 would have to satisfy: an energy lower bound
D >= C2 d just outside the core, boundedness of the frequency through the
monotonicity of N(r) e^{C3 r}, and finally the impossibility of the sphere
mass H vanishing at r3 > 0 while the log-slope of H/r^{N-1} stays bounded.
A field that passes the residual gate with r0 > 0 must trip one of these
steps; "genuine" is only ever reported when r0 = 0 (or the field is
negligible outright).

The chain's constants are closed forms in (r0, N, q), so it runs only where
the field's problem is the model equation (`frequency._is_model_problem`,
route "model").  Elsewhere (route "general") a field that passes the gate
with r0 > 0 is classed inconclusive and gets no chain steps.
"""

import hashlib
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import c_constant
from .frequency import (ProfileControls, _is_model_problem, _node_data,
                        frequency_profile)
from .io import jsonable
from .quadrature import cumulative_uniform

__all__ = [
    "AuditControls",
    "StepVerdict",
    "CertificateChain",
    "vanishing_radius",
    "lower_bound_certificate",
    "frequency_bound_certificate",
    "logH_contradiction",
    "audit",
]

GENUINE = "genuine_nonvanishing"
CONTRADICTION = "contradiction_certified"
VETO = "residual_veto"
INCONCLUSIVE = "inconclusive"


_TOL_D_REL = 1e-10  # d vanishing threshold, relative to d(R)
_GATE_REL = 1e-2  # default residual gate on _residual_epsilon
_GATE_SECTORS = 8  # angular sectors of the residual gate (at most n_theta)
_MONO_SLACK_REL = 1e-8  # slack for the monotonicity ratios
_BACKWARD_MARGIN = 0.5  # H < margin * backward bound => fired


@dataclass
class AuditControls:
    residual_gate: float = None       # gate on _residual_epsilon; None: _GATE_REL
    # audits want the finest radius grid the field affords: the proof windows
    # near r0 can span only a few cells
    profile: ProfileControls = field(
        default_factory=lambda: ProfileControls(n_radii=2000))

    def to_dict(self):
        return jsonable({
            "tol_d_rel": _TOL_D_REL,
            "gate_rel": _GATE_REL,
            "residual_gate": self.residual_gate,
            "mono_slack_rel": _MONO_SLACK_REL,
            "backward_margin": _BACKWARD_MARGIN,
            "profile": asdict(self.profile),
        })


@dataclass
class StepVerdict:
    name: str
    status: str                  # pass | fail | veto | inconclusive | skipped
    margin: float = math.nan
    note: str = ""
    data: dict = field(default_factory=dict)

    def to_dict(self):
        out = {"status": self.status, "note": self.note}
        if math.isfinite(self.margin):
            out["margin"] = self.margin
        out.update(self.data)
        return jsonable(out)


@dataclass
class CertificateChain:
    classification: str
    route: str
    r0: float = None
    r1: float = None
    r2: float = None
    r3: float = None
    constants: dict = field(default_factory=dict)
    steps: dict = field(default_factory=dict)
    input_hash: str = ""
    controls: dict = field(default_factory=dict)
    tool_version: str = ""
    notes: list = field(default_factory=list)

    def to_dict(self):
        return jsonable({
            "schema_version": 1,
            "classification": self.classification,
            "route": self.route,
            "r0": self.r0, "r1": self.r1, "r2": self.r2, "r3": self.r3,
            "constants": self.constants,
            "steps": {k: v.to_dict() for k, v in self.steps.items()},
            "input_hash": self.input_hash,
            "controls": self.controls,
            "tool_version": self.tool_version,
            "notes": self.notes,
        })


# --------------------------------------------------------------------------
# individual steps


def _residual_epsilon(data):
    """The gate's step data: epsilon, the largest |int rho| over the balls
    B_r and their min(_GATE_SECTORS, n_theta) sectors of whole cells, over
    max_r (|int_{B_r} div(A grad u)| + int_{B_r} |V u + f|), or 0 if that
    is 0, and the radius and sector ("disc" or an index) of the peak.  The
    size holds a flux, which a fast ripple raises no faster than int rho.
    """
    rho, vu_f = data.rho0, data.V * data.u + data.fvals
    n_sec = min(_GATE_SECTORS, rho.shape[1])
    # rows: sphere integrals of rho per sector, of div(A grad u), of |V u + f|
    g = np.concatenate([
        np.add.reduceat(rho.T, np.arange(n_sec) * rho.shape[1] // n_sec, axis=0),
        np.sum(rho - vu_f, axis=1)[None], np.sum(np.abs(vu_f), axis=1)[None]])
    g *= data.ring * data.dtheta
    g[:, 0] = 0.0
    # ball integrals by one prefix pass down the contiguous rows
    balls = cumulative_uniform(g.T, data.h).T
    size = float(np.max(np.abs(balls[-2]) + balls[-1]))
    # the disc first, so that it wins ties (a radial field's one sector)
    mass = np.abs(np.vstack([balls[:n_sec].sum(axis=0), balls[:n_sec]]))
    s, k = np.unravel_index(np.argmax(mass), mass.shape)
    return {"epsilon": float(mass[s, k]) / size if size > 0.0 else 0.0,
            "radius": float(data.r[k]), "sector": "disc" if s == 0 else int(s) - 1,
            "sectors": n_sec}


def vanishing_radius(prof):
    """Largest audited radius with d(r) below _TOL_D_REL * d(R); 0.0 if none.

    Returns None when d is negligible over the whole grid (the field itself
    is numerically zero).
    """
    d = prof.d
    dmax = float(d[-1])
    if dmax <= 0.0 or not np.isfinite(dmax):
        return None
    mask = d <= _TOL_D_REL * dmax
    if not mask.any():
        return 0.0
    if mask.all():
        return None
    return float(prof.r[np.nonzero(mask)[0][-1]])


def lower_bound_certificate(prof, r0, dim, q):
    """Check D(r) >= C2 d(r) on the window (r0, r1) the argument prescribes.

    C1 = C_{N,q}/r0^{N-1}, C2 = (2-q)/2 r0^{N-2}, and r1 caps C1 (r1 - r0)
    at (2-q)/2.  Returns (r1, verdict, constants).
    """
    constants = {}
    if r0 is None or r0 <= 0.0:
        return None, StepVerdict("lower_bound_D", "skipped",
                                 note="needs r0 > 0"), constants
    dmax = float(prof.d[-1])
    k0 = int(np.searchsorted(prof.r, r0 + 1e-15))
    if k0 > 0 and prof.d[k0 - 1] > _TOL_D_REL * dmax * 4.0:
        return None, StepVerdict(
            "lower_bound_D", "veto",
            note="field is not negligible on B_r0; claimed core rejected"), constants

    CNq = c_constant(dim, q)
    C1 = CNq / r0 ** (dim - 1)
    C2 = 0.5 * (2.0 - q) * r0 ** (dim - 2)
    constants.update({"CNq": CNq, "C1": C1, "C2": C2})
    r1 = min(r0 + 0.5 * (2.0 - q) / C1, prof.outer_radius)

    window = (prof.r > r0) & (prof.r <= r1 * (1 + 1e-12))
    if not window.any():
        return r1, StepVerdict("lower_bound_D", "inconclusive",
                               note="no audited radii inside (r0, r1)"), constants
    margins = prof.D[window] - C2 * prof.d[window]
    scale = max(float(np.max(np.abs(prof.D[window]))), 1e-300)
    worst = float(np.min(margins))
    ok = worst >= -1e-12 * scale
    verdict = StepVerdict(
        "lower_bound_D", "pass" if ok else "fail", worst / scale,
        note=f"D >= C2 d on ({r0:.6g}, {r1:.6g})",
        data={"worst_margin": worst,
              "fail_radius": float(prof.r[window][int(np.argmin(margins))])
              if not ok else None})
    return r1, verdict, constants


def frequency_bound_certificate(prof, r0, r1, dim, q, constants):
    """Monotonicity of N(r) e^{C3 r} on (r3, r2] and the bound N <= C4,
    with C3 = C_{N,q}/(r0 C2).

    r2 is the largest audited radius in (r0, r1) with H above the floor
    (maximising the audited interval), r3 the lower edge of its positive-H
    run.  Returns (r2, r3, verdict).
    """
    if r0 is None or r0 <= 0.0 or r1 is None:
        return None, None, StepVerdict("frequency_bounded", "skipped",
                                       note="needs the lower-bound window")
    candidates = np.nonzero((prof.r > r0) & (prof.r <= r1 * (1 + 1e-12))
                            & (prof.H > prof.h_floor))[0]
    if len(candidates) == 0:
        return None, None, StepVerdict(
            "frequency_bounded", "inconclusive",
            note="no audited radius in (r0, r1) carries positive sphere mass")
    k2 = int(candidates[-1])
    r2 = float(prof.r[k2])
    # the positive-mass run below r2 extends as far as the data carries it,
    # even below the detected r0 (threshold smearing biases r0 upward)
    k = k2
    while k > 0 and prof.H[k - 1] > prof.h_floor:
        k -= 1
    k3 = max(k - 1, 0)
    r3 = float(prof.r[k3])

    CNq = constants.get("CNq", c_constant(dim, q))
    C3 = constants["C3"] = CNq / (r0 * constants["C2"])

    run = np.arange(k, k2 + 1)
    Nvals = prof.N[run]
    finite = np.isfinite(Nvals)
    if finite.sum() < 2:
        verdict = StepVerdict(
            "frequency_bounded", "inconclusive",
            note="fewer than two audited radii with defined frequency",
            data={"n_radii": int(finite.sum())})
        constants["C4"] = (float(Nvals[finite][-1] * math.exp(C3 * r2))
                           if finite.any() else math.nan)
        return r2, r3, verdict
    prod = Nvals[finite] * np.exp(C3 * prof.r[run][finite])
    scale = float(np.max(np.abs(prod)))
    drops = np.diff(prod)
    worst = float(np.min(drops)) if len(drops) else 0.0
    ok = worst >= -_MONO_SLACK_REL * scale
    C4 = constants["C4"] = float(prof.N[k2] * math.exp(C3 * r2))
    verdict = StepVerdict(
        "frequency_bounded", "pass" if ok else "fail",
        worst / scale if scale > 0 else math.nan,
        note="N(r) exp(C3 r) must be non-decreasing on (r3, r2]",
        data={"worst_drop": worst, "n_radii": int(finite.sum()),
              "frequency_cap": C4,
              "fail_radius": float(prof.r[run][finite][1:][int(np.argmin(drops))])
              if not ok and len(drops) else None})
    return r2, r3, verdict


def logH_contradiction(prof, r3, r2, C4, r0, dim):
    """Backward integration of the bounded log-slope against H(r3) ~ 0.

    With the frequency capped at C4, integrating d/dr log(H/r^{N-1}) =
    2 N / r <= 2 C4 / r0 backward from r2 forces
    H(r) >= H(r2) (r/r2)^{N-1} exp(-2 C4 (r2 - r)/r0) > 0 down to r3.  The
    check evaluates this floor one audit cell above r3 (discrete-infimum
    uncertainty) and fires when the measured H falls below it.
    """
    if r3 is None or r2 is None or not math.isfinite(C4):
        return StepVerdict("logH_contradiction", "skipped",
                           note="needs the frequency-bound step")
    # 2 N / r <= 2 C4 / r0 on r >= r0 needs C4 > 0 (a cap of -1e10 overflows)
    if C4 <= 0.0:
        return StepVerdict("logH_contradiction", "skipped",
                           note=f"needs a positive frequency cap, got {C4:.6g}")
    k3 = int(np.searchsorted(prof.r, r3 + 1e-15)) - 1
    k3 = max(k3, 0)
    if prof.H[k3] > prof.h_floor and prof.r[k3] > 0:
        return StepVerdict(
            "logH_contradiction", "pass",
            note="no vanishing at r3: the sphere mass stays positive",
            data={"H_r3": float(prof.H[k3])})
    k_star = k3 + 1
    k2 = int(np.searchsorted(prof.r, r2 - 1e-15))
    while k_star < k2 and prof.H[k_star] <= prof.h_floor:
        k_star += 1
    r_star = float(prof.r[k_star])
    H2 = float(prof.H[k2])

    def backward_floor(r):
        return H2 * (r / prof.r[k2]) ** (dim - 1) \
            * math.exp(-2.0 * C4 * (prof.r[k2] - r) / r0)

    # two evaluation points: one audit cell above r3 (discrete-infimum
    # uncertainty) and the r3 limit itself, where the measured mass sits at
    # the floor by construction
    predicted = backward_floor(r_star)
    measured = float(prof.H[k_star])
    fired = measured < _BACKWARD_MARGIN * predicted
    at_r3 = backward_floor(float(prof.r[k3])) if prof.r[k3] > 0 else 0.0
    fired = fired or (max(float(prof.H[k3]), prof.h_floor)
                      < _BACKWARD_MARGIN * at_r3)
    # bounded-slope bookkeeping on the run above r_star
    run = np.arange(k_star, k2 + 1)
    Hrun = prof.H[run]
    ok = Hrun > prof.h_floor
    slopes = np.diff(np.log(Hrun[ok]) - (dim - 1) * np.log(prof.r[run][ok])) \
        / np.diff(prof.r[run][ok])
    bound = 2.0 * C4 / r0
    return StepVerdict(
        "logH_contradiction", "fail" if fired else "pass",
        note=("sphere mass vanishes at r3 yet the frequency stays capped: "
              "backward integration forbids it" if fired else
              "backward floor not violated at this resolution"),
        data={"r_star": r_star, "H_measured": measured,
              "H_backward_floor": predicted, "slope_bound": bound,
              "max_slope": float(np.max(slopes)) if len(slopes) else math.nan,
              "fired": bool(fired)})


# --------------------------------------------------------------------------
# the full pipeline


def audit(spec, fld, controls=None):
    """Full certificate chain for a candidate field."""
    from . import __version__

    controls = controls or AuditControls()
    route = "model" if _is_model_problem(spec, fld) else "general"
    prof = frequency_profile(spec, fld, controls.profile)
    chain = CertificateChain(INCONCLUSIVE, route,
                             controls=controls.to_dict(),
                             tool_version=__version__,
                             input_hash=_field_hash(fld))

    # residual gate, on the node data the profile has cached
    measured = _residual_epsilon(_node_data(spec, fld))
    gate = _GATE_REL if controls.residual_gate is None else controls.residual_gate
    gate_ok = measured["epsilon"] <= gate
    chain.steps["residual_gate"] = StepVerdict(
        "residual_gate", "pass" if gate_ok else "veto",
        note=f"integrated residual {measured['epsilon']:.3e} vs gate {gate:.3e}",
        data={**measured, "gate": float(gate)})

    # vanishing radius
    r0 = vanishing_radius(prof)
    if r0 is None:
        chain.steps["vanishing_detected"] = StepVerdict(
            "vanishing_detected", "pass",
            note="nonlinearity mass negligible on the whole grid")
        chain.classification = GENUINE if gate_ok else VETO
        chain.notes.append("whole-grid zero field")
        return chain
    chain.r0 = r0
    chain.steps["vanishing_detected"] = StepVerdict(
        "vanishing_detected", "pass" if r0 > 0 else "skipped",
        note=f"r0 = {r0:.6g}" + ("" if r0 > 0 else " (no vanishing core)"))

    if not gate_ok:
        chain.classification = VETO
        return chain
    if r0 == 0.0:
        chain.classification = GENUINE
        return chain
    if route != "model":
        chain.notes.append("the general route has no chain constants from the "
                           "problem (its ellipticity and the Lipschitz bound "
                           "of A) yet; no certificate either way")
        return chain

    q = spec.nonlinearity.q
    dim = fld.dim
    r1, v1, consts = lower_bound_certificate(prof, r0, dim, q)
    chain.r1 = r1
    chain.constants.update(consts)
    chain.steps["lower_bound_D"] = v1
    if v1.status == "veto":
        chain.classification = VETO
        return chain

    r2, r3, v2 = frequency_bound_certificate(prof, r0, r1, dim, q,
                                             chain.constants)
    chain.r2, chain.r3 = r2, r3
    chain.steps["frequency_bounded"] = v2

    v3 = logH_contradiction(prof, r3, r2, chain.constants.get("C4", math.nan),
                            r0, dim)
    chain.steps["logH_contradiction"] = v3

    failed = [v.name for v in (v1, v2, v3) if v.status == "fail"]
    if failed:
        chain.classification = CONTRADICTION
        chain.notes.append(f"failing step: {failed[0]}")
    else:
        chain.classification = INCONCLUSIVE
        chain.notes.append("every audited step is consistent at this "
                           "resolution; no certificate either way")
    return chain


def _field_hash(fld):
    hsh = hashlib.sha256()
    hsh.update(fld.representation.encode())
    hsh.update(np.int64(fld.dim).tobytes())
    hsh.update(np.float64(fld.q).tobytes())
    hsh.update(fld.r.tobytes())
    hsh.update(fld.u.tobytes())
    if fld.du is not None:
        hsh.update(fld.du.tobytes())
    return hsh.hexdigest()
