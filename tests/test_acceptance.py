"""Acceptance gate: every shipped capability at its pinned tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to watch them) and
asserts the same condition, so the suite is green exactly when every
criterion holds.
"""

import math
import time

import numpy as np

from freqlab.audit import AuditControls, audit
from freqlab.cli import main
from freqlab.fields import sample_grid2d
from freqlab.frequency import (ProfileControls, frequency_profile,
                               verify_H_prime, verify_N_prime_bound,
                               verify_pohozaev_model, verify_rellich_general)
from freqlab.io import content_hash_of_dir
from freqlab.model import (NonlinearitySpec, PowerTerm, ProblemSpec,
                           ball_grid, check_A3, s_grid)
from freqlab.odes import (conserved_energy, counterexample_profile,
                          integrate_plane, integrate_radial, PmeField,
                          pme_residual_grid, zero_audit)


def _verdict(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


def test_criterion_1_counterexample_exactness():
    t_start = time.perf_counter()
    worst = 0.0
    for q in (1.2, 1.5, 1.8):
        t = np.concatenate([np.linspace(-1.0, 0.0, 1000),
                            np.linspace(1e-9, 1.0, 1000)])
        u, upp = counterexample_profile(q, 0.0, t)
        f = np.sign(u) * np.abs(u) ** (q - 1.0)
        worst = max(worst, float(np.max(np.abs(upp - f)
                                        / np.maximum(1.0, np.abs(upp)))))
    elapsed = time.perf_counter() - t_start
    _verdict(1, "counterexample residual <= 1e-12 per branch",
             worst <= 1e-12 and elapsed < 1.0,
             f"residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_energy_conservation():
    t_start = time.perf_counter()
    traj = integrate_plane(1.5, 1.0, 0.0, 1e-3, 10.0)
    E = conserved_energy(traj)
    drift = float(np.max(np.abs(E - E[0])))
    hs = (1e-2, 5e-3, 2.5e-3)
    drifts = []
    for h in hs:
        tr = integrate_plane(1.5, 1.0, 0.0, h, 10.0)
        Eh = conserved_energy(tr)
        drifts.append(float(np.max(np.abs(Eh - Eh[0]))))
    order = float(np.polyfit(np.log(hs), np.log(drifts), 1)[0])
    elapsed = time.perf_counter() - t_start
    _verdict(2, "drift <= 1e-8 at h=1e-3 and measured order 4 +- 0.2",
             drift <= 1e-8 and 3.8 <= order <= 4.2 and elapsed < 5.0,
             f"drift {drift:.2e}, order {order:.2f}, {elapsed:.2f}s")


def test_criterion_3_classical_frequency_oracle(linear_mode_spec):
    t_start = time.perf_counter()
    fld1 = sample_grid2d(lambda x: x[..., 0], 1.0, 128, 512, 1.5)
    p1 = frequency_profile(linear_mode_spec, fld1)
    err1 = float(np.nanmax(np.abs(p1.N - 1.0)))
    fld2 = sample_grid2d(lambda x: x[..., 0] * x[..., 1], 1.0, 128, 512, 1.5)
    p2 = frequency_profile(linear_mode_spec, fld2)
    err2 = float(np.nanmax(np.abs(p2.N - 2.0)))
    elapsed = time.perf_counter() - t_start
    _verdict(3, "N == degree for degree-1 and degree-2 harmonics (1e-6)",
             err1 <= 1e-6 and err2 <= 1e-6 and elapsed < 10.0,
             f"errors {err1:.2e}, {err2:.2e}, {elapsed:.2f}s")


def test_criterion_4_H_prime_identity(model_specs, radial_solutions, bowl):
    t_start = time.perf_counter()
    worst_radial = 0.0
    for key in ((2, 1.5), (3, 1.5), (2, 1.0), (3, 1.0)):
        spec, fld = model_specs[key], radial_solutions[key]
        prof = frequency_profile(spec, fld)
        rep = verify_H_prime(spec, fld, prof, tolerance=1e-6)
        worst_radial = max(worst_radial, rep.rel_residual)
    fld2 = bowl.to_field(n_r=256, n_theta=256)
    prof2 = frequency_profile(bowl.spec, fld2)
    rep2 = verify_H_prime(bowl.spec, fld2, prof2, tolerance=5e-5)
    elapsed = time.perf_counter() - t_start
    _verdict(4, "H' identity: 1e-6 radial, 5e-5 on 256^2 variable A",
             worst_radial <= 1e-6 and rep2.rel_residual <= 5e-5
             and elapsed < 30.0,
             f"radial {worst_radial:.2e}, grid {rep2.rel_residual:.2e}, "
             f"{elapsed:.2f}s")


def test_criterion_5_pohozaev_identity(model_specs, radial_solutions,
                                       glued_trio):
    worst = 0.0
    for key in ((2, 1.0), (3, 1.0), (2, 1.5), (3, 1.5)):
        spec, fld = model_specs[key], radial_solutions[key]
        prof = frequency_profile(spec, fld)
        rep = verify_pohozaev_model(spec, fld, prof, tolerance=1e-6)
        worst = max(worst, rep.rel_residual)
    ok_radial = worst <= 1e-6

    spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
    fld = glued_trio[(2, 1.5, 0.3)]
    prof = frequency_profile(spec, fld)
    rep = verify_pohozaev_model(spec, fld, prof, tolerance=1e-4)
    defect = np.asarray(rep.details["uncorrected_defect"])
    corr = np.asarray(rep.details["correction_term"])
    big = np.abs(defect) > 1e-3 * np.max(np.abs(defect))
    gap = float(np.max(np.abs(defect[big] - corr[big])
                       / np.abs(defect[big])))
    _verdict(5, "derivative identity 1e-6 on radial; glued defect matches "
                "correction to 1e-4",
             ok_radial and rep.passed and gap <= 1e-4,
             f"radial {worst:.2e}, glued corrected {rep.rel_residual:.2e}, "
             f"defect gap {gap:.2e}")


def test_criterion_6_appendix_identities(bowl):
    t_start = time.perf_counter()
    rels = {}
    for M in (128, 256):
        fld = bowl.to_field(n_r=M, n_theta=256)
        prof = frequency_profile(bowl.spec, fld)
        rep9, rep10 = verify_rellich_general(bowl.spec, fld, prof,
                                             tolerance=5e-6)
        rels[M] = (rep9.rel_residual, rep10.rel_residual)
    ok_tol = rels[256][0] <= 5e-6 and rels[256][1] <= 5e-6
    ratios = (rels[128][0] / rels[256][0], rels[128][1] / rels[256][1])
    ok_rate = all(8.0 <= r <= 40.0 for r in ratios)  # fourth-order machinery
    elapsed = time.perf_counter() - t_start
    _verdict(6, "vector-calculus identities <= 5e-6 at 256^2, halving rate "
                "consistent with scheme order",
             ok_tol and ok_rate,
             f"rel {rels[256][0]:.2e}/{rels[256][1]:.2e}, "
             f"ratios {ratios[0]:.1f}/{ratios[1]:.1f}, {elapsed:.1f}s")


def test_criterion_7_frequency_bound_and_gap(model_specs, radial_solutions,
                                             bowl):
    ok = True
    detail = []
    for key, spec in model_specs.items():
        fld = radial_solutions[key]
        prof = frequency_profile(spec, fld)
        rep = verify_N_prime_bound(spec, fld, prof)
        ok &= rep.details["inequality_ok"]
        ok &= float(np.nanmin(rep.details["cs_gap"])) >= -1e-10
        detail.append(f"{key}: gap>={np.nanmin(rep.details['cs_gap']):.1e}")
    _verdict(7, "N' lower bound at every audited radius and cs_gap >= -1e-10",
             bool(ok), "; ".join(detail[:2]) + " ...")


def test_criterion_8_audit_soundness(model_specs, radial_solutions,
                                     glued_trio):
    t_start = time.perf_counter()
    genuine_ok = True
    for key, spec in model_specs.items():
        chain = audit(spec, radial_solutions[key])
        genuine_ok &= (chain.classification == "genuine_nonvanishing"
                       and chain.r0 == 0.0)
    glued_ok = True
    never_bogus_genuine = True
    allowed = {"residual_veto", "contradiction_certified"}
    for (dim, q, r0), fld in glued_trio.items():
        spec = ProblemSpec.model(dim, q, outer_radius=fld.outer_radius)
        for controls in (AuditControls(),
                         AuditControls(residual_gate=math.inf,
                                       profile=ProfileControls(
                                           n_radii=10 ** 6,
                                           h_floor_rel=1e-24))):
            chain = audit(spec, fld, controls)
            if controls.residual_gate is None:
                glued_ok &= chain.classification in allowed
            else:
                glued_ok &= chain.classification == "contradiction_certified"
            never_bogus_genuine &= not (
                chain.classification == "genuine_nonvanishing"
                and chain.r0 and chain.r0 > 0)
    elapsed = time.perf_counter() - t_start
    _verdict(8, ">=5 genuine ok, >=3 glued in {veto, contradiction}, no "
                "false genuine, < 60 s",
             genuine_ok and glued_ok and never_bogus_genuine and elapsed < 60,
             f"{elapsed:.1f}s")


def test_criterion_9_assumption_checker():
    # homogeneous: clause i upper bound is an exact equality (to round-off;
    # q F and f s are computed along different floating-point paths)
    rep = check_A3(NonlinearitySpec.homogeneous(1.5))
    ok = rep.passed and abs(rep.clauses["A3.i.upper"].margin) <= 5e-16

    # the composite class: powers with smooth positive coefficients
    coef = lambda x: 1.0 + 0.5 * x[..., 0] ** 2
    grad = lambda x: np.stack([x[..., 0], np.zeros_like(x[..., 0])], axis=-1)
    nl = NonlinearitySpec.sum_of_powers(
        [PowerTerm(1.5, coef, grad), PowerTerm(1.0, 1.0)],
        kappa1=2.0, kappa2=0.5)
    ok &= check_A3(nl).passed

    pts, sv = ball_grid(2, 1.0, 16), s_grid(1.0, 32)
    # violator 1: sign flip -> clause i
    bad1 = NonlinearitySpec.tabulated(
        lambda x, s: -np.sign(s) * np.abs(s) ** 0.5, q=1.5, kappa2=0.5)
    r1 = check_A3(bad1, points=pts, s_values=sv).clauses["A3.i.lower"]
    ok &= (not r1.passed) and r1.witness is not None
    # violator 2: unbounded coefficient log-gradient -> clause iii
    # (needs the full sample density to reach the blow-up region |x1| -> 0)
    bad2 = NonlinearitySpec.sum_of_powers(
        [PowerTerm(1.5, lambda x: x[..., 0] ** 2 + 1e-8,
                   lambda x: np.stack([2 * x[..., 0],
                                       np.zeros_like(x[..., 0])], axis=-1))],
        kappa1=10.0, kappa2=1e-12)
    r2 = check_A3(bad2).clauses["A3.iii"]
    ok &= (not r2.passed) and r2.witness is not None
    # violator 3: floor collapses -> clause iv
    bad3 = NonlinearitySpec.tabulated(
        lambda x, s: x[..., 0] ** 2 * np.sign(s) * np.abs(s) ** 0.5,
        q=1.5, kappa2=0.5)
    pts0 = pts.copy()
    pts0[0] = 0.0
    r3 = check_A3(bad3, points=pts0, s_values=sv).clauses["A3.iv"]
    ok &= (not r3.passed) and r3.witness is not None
    _verdict(9, "equality margin on the power law; composite class passes; "
                "three violators fail their clauses with witnesses", ok)


def test_criterion_10_pme_separated_solution():
    # base profiles on balls inside the first sign change: |u|^{q-1} u has
    # unbounded third derivatives at a crossing, which would dominate the
    # spatial stencils rather than the ansatz being tested
    ok = True
    details = []
    for dim, r_max in ((2, 1.2), (3, 2.0)):
        base = integrate_radial(dim, 1.5, 0.5, r_max, 5e-4)
        assert not zero_audit(base), "base profile must be crossing-free"
        pme = PmeField(base, t0=0.0)
        idx, t_values, res = pme_residual_grid(pme)
        wsup = float(np.max(np.abs(pme.w(idx, t_values))))
        rel = float(np.max(np.abs(res))) / wsup
        ok &= rel <= 1e-6
        details.append(f"N={dim}: {rel:.2e}")
    _verdict(10, "separated porous-medium residual <= 1e-6 ||w||", ok,
             "; ".join(details))


# content_hash_of_dir of each criterion-11 directory.  A change that moves
# an artifact's bytes must say why and record the new hashes here.  They
# were recorded with Python 3.11 and numpy 2.4; another numpy's FFT or
# libm may move a last bit of the 2-D artifacts.
CRITERION_11_HASHES = {
    "au": "fa5b97783d05bfaffa7d2a73d73fe70b59f735fa8335b89206dafd6a3a0ba6a1",
    "au2": "fc8f3e5afbf18c7eb11a3e30c44c3ef812f8ab4135cb453bb6f501fea313d9e6",
    "ce": "3772e695c29184975c31cb8659c091bf38537ef9d991986125cfc348076553c5",
    "ck": "edd16ae9f067c14f31dce25b400f25f6e7746816e968a7ff5642d19a75c7591d",
    "en": "ad01e4d7ad9f7d0d5e23f61d7752df5f45b2e03c3dad817590f69e79784bea60",
    "fr": "63ec7c0ccd37b05300ecaf1db633e89ab58e59e9a2374d63f7b99ac33d97b27c",
    "fr2": "9b291ba4106a55126d90d4448735fce4e7c0b0ee15b3e9f5772546fa40e56b8b",
    "pm": "67e688460f55216773fba60b05e45956120af526b9b15495d3e7b0cfa90a542c",
    "sh": "9c77df20ff1d8a2863bc448ce787a3809877a2b3cb3467893cae9a7b47d458cb",
    "so": "49c20e7699f151940c82cd6be8b7e5ac6129e7f6e98aee922eb57a9f1d6230e1",
    "so2": "efc54a399cd0ef98ff666e34e009f4dbb255016b3100dc9f34d32fc9a35dbba0",
}


def test_criterion_11_determinism(tmp_path):
    def regression(base):
        runs = [
            ["ode", "--counterexample", "--q", "1.2,1.5", "--out",
             str(base / "ce")],
            ["ode", "--energy", "--q", "1.5", "--step", "2e-3", "--tmax",
             "4", "--out", str(base / "en")],
            ["ode", "--shoot", "--q", "1.5", "--N", "3", "--amplitude",
             "0.5", "--radius", "1.2", "--out", str(base / "sh")],
            ["ode", "--pme", "--q", "1.5", "--N", "2", "--amplitude", "0.5",
             "--radius", "1.5", "--out", str(base / "pm")],
            ["solve", "--mode", "radial", "--q", "1.5", "--N", "2",
             "--amplitude", "0.5", "--radius", "1.0",
             "--out", str(base / "so")],
            ["frequency", str(base / "so" / "field.npz"), "--out",
             str(base / "fr")],
            ["audit", str(base / "so" / "field.npz"), "--out",
             str(base / "au")],
            ["check", "--q", "1.5", "--out", str(base / "ck")],
            # the 2-D path; A = id takes the Fourier inner solve
            ["solve", "--mode", "grid2d", "--rings", "48", "--angles", "96",
             "--boundary", "cos:1:0.2", "--out", str(base / "so2")],
            ["frequency", str(base / "so2" / "field.npz"), "--out",
             str(base / "fr2")],
            ["audit", str(base / "so2" / "field.npz"), "--out",
             str(base / "au2")],
        ]
        for argv in runs:
            assert main(argv) == 0
        return {d.name: content_hash_of_dir(d) for d in sorted(base.iterdir())}

    h1 = regression(tmp_path / "run1")
    h2 = regression(tmp_path / "run2")
    moved = sorted(name for name, digest in CRITERION_11_HASHES.items()
                   if h1.get(name) != digest)
    _verdict(11, "byte-identical regression outputs across two runs and "
                 "against the pinned hashes",
             h1 == h2 and h1.keys() == CRITERION_11_HASHES.keys() and not moved,
             f"{len(h1)} artifact directories compared; moved: {moved}")
