import json
import math

import numpy as np
import pytest

from freqlab.audit import (AuditControls, audit, frequency_bound_certificate,
                           logH_contradiction, lower_bound_certificate,
                           vanishing_radius)
from freqlab.fields import SolutionField, sample_grid2d
from freqlab.frequency import FrequencyProfile, ProfileControls, frequency_profile
from freqlab.model import CoefficientField, NonlinearitySpec, ProblemSpec


def synthetic_profile(r, H, D, d, dprime=None, D1=None):
    """Assemble a bare profile from prescribed arrays (synthetic fixtures)."""
    r = np.asarray(r, dtype=float)
    H = np.asarray(H, dtype=float)
    D = np.asarray(D, dtype=float)
    d = np.asarray(d, dtype=float)
    floor = 1e-14 * max(float(np.max(H)), 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        N = np.where(H > floor, r * D / H, np.nan)
    return FrequencyProfile(
        r=r, H=H, D=D, D1=D if D1 is None else np.asarray(D1, float), d=d,
        dprime=np.gradient(d, r) if dprime is None else np.asarray(dprime, float),
        N=N, surfaceD=D.copy(), ball_sup=np.maximum.accumulate(np.sqrt(H / r)),
        sphere_sup=np.sqrt(H / r), h_floor=floor, indices=np.arange(len(r)),
        outer_radius=float(r[-1]))


class TestVanishingRadius:
    def test_zero_field_is_negligible(self):
        r = np.linspace(0.01, 1.0, 100)
        prof = synthetic_profile(r, np.ones_like(r), np.zeros_like(r),
                                 np.zeros_like(r))
        assert vanishing_radius(prof) is None

    def test_immediately_positive_mass(self, model_specs, radial_solutions):
        spec = model_specs[(2, 1.5)]
        prof = frequency_profile(spec, radial_solutions[(2, 1.5)])
        assert vanishing_radius(prof) == 0.0

    def test_glued_core_detected_with_threshold_bias(self, glued_trio):
        spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
        prof = frequency_profile(spec, glued_trio[(2, 1.5, 0.3)],
                                 ProfileControls(n_radii=10 ** 6))
        r0 = vanishing_radius(prof)
        # d grows like (r - 0.3)^7 here, so the 1e-10 threshold biases the
        # detected radius upward by window * 1e-10^{1/7} ~ 0.019
        assert 0.3 <= r0 <= 0.325


class TestLowerBound:
    def test_skipped_without_core(self):
        r = np.linspace(0.01, 1.0, 50)
        prof = synthetic_profile(r, r, r, r)
        r1, verdict, consts = lower_bound_certificate(prof, 0.0, 2, 1.5)
        assert verdict.status == "skipped"

    def test_vetoes_bogus_core_claim(self, model_specs, radial_solutions):
        spec = model_specs[(2, 1.5)]
        prof = frequency_profile(spec, radial_solutions[(2, 1.5)])
        r1, verdict, _ = lower_bound_certificate(prof, 0.4, 2, 1.5)
        assert verdict.status == "veto"

    def test_exact_boundary_case_passes(self):
        # synthetic D = C2 d exactly: zero margin must still pass
        r = np.linspace(0.2, 1.0, 200)
        q, dim, r0 = 1.5, 2, 0.4
        C2 = 0.5 * (2 - q) * r0 ** (dim - 2)
        d = np.maximum(r - r0, 0.0) ** 3
        D = C2 * d
        prof = synthetic_profile(r, np.maximum(r - r0, 0) ** 2, D, d)
        r1, verdict, consts = lower_bound_certificate(prof, r0, dim, q)
        assert verdict.status == "pass"
        assert verdict.data["worst_margin"] == pytest.approx(0.0, abs=1e-15)

    def test_constants_satisfy_exact_relations(self, glued_trio):
        spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
        fld = glued_trio[(2, 1.5, 0.3)]
        chain = audit(spec, fld, AuditControls(residual_gate=math.inf))
        C = chain.constants
        r0, dim, q = chain.r0, 2, 1.5
        assert C["C1"] * r0 ** (dim - 1) == pytest.approx(C["CNq"], rel=1e-12)
        assert 2 * C["C2"] == pytest.approx((2 - q) * r0 ** (dim - 2), rel=1e-12)
        assert C["C3"] * r0 * C["C2"] == pytest.approx(C["CNq"], rel=1e-12)
        assert all(v > 0 for v in C.values())


class TestFrequencyBoundStep:
    def test_constant_product_passes_with_equality(self):
        # N(r) = exp(-C3 r) makes N exp(C3 r) constant
        r = np.linspace(0.3, 0.5, 60)
        q, dim, r0 = 1.5, 2, 0.29
        from freqlab.model import c_constant

        CNq = c_constant(dim, q)
        C2 = 0.5 * (2 - q) * r0 ** (dim - 2)
        C3 = CNq / (r0 * C2)
        d = np.maximum(r - r0, 0) ** 2
        H = np.ones_like(r)
        N_target = np.exp(-C3 * r)
        D = N_target * H / r
        prof = synthetic_profile(r, H, D, d)
        consts = {"CNq": CNq, "C2": C2}
        r2, r3, verdict = frequency_bound_certificate(
            prof, r0, 0.51, dim, q, consts)
        assert verdict.status == "pass"
        assert consts["C4"] == pytest.approx(N_target[-1] * math.exp(C3 * r[-1]))

    def test_decreasing_product_fails(self):
        r = np.linspace(0.3, 0.5, 60)
        from freqlab.model import c_constant

        q, dim, r0 = 1.5, 2, 0.29
        CNq = c_constant(dim, q)
        C2 = 0.5 * (2 - q) * r0 ** (dim - 2)
        C3 = CNq / (r0 * C2)
        H = np.ones_like(r)
        N_target = np.exp(-2.0 * C3 * r)  # decays faster than the cap allows
        D = N_target * H / r
        prof = synthetic_profile(r, H, D, np.maximum(r - r0, 0) ** 2)
        r2, r3, verdict = frequency_bound_certificate(
            prof, r0, 0.51, dim, q, {"CNq": CNq, "C2": C2})
        assert verdict.status == "fail"


class TestLogHContradiction:
    def test_power_law_mass_no_vanishing(self):
        r = np.linspace(0.05, 1.0, 200)
        prof = synthetic_profile(r, r, 0.5 * np.ones_like(r), r ** 2)
        verdict = logH_contradiction(prof, float(r[0]), 0.9, 1.0, 0.05, 2)
        assert verdict.status == "pass"
        assert "no vanishing" in verdict.note

    def test_constructed_vanishing_with_bounded_slope_fires(self):
        r = np.linspace(0.2, 0.6, 200)
        r3 = 0.3
        H = np.where(r <= r3, 0.0, 1e-3 * r)  # jump to a bounded-slope branch
        D = 0.25 * np.ones_like(r)
        d = np.maximum(r - 0.28, 0) ** 2
        prof = synthetic_profile(r, H, D, d)
        verdict = logH_contradiction(prof, r3, 0.55, 2.0, 0.28, 2)
        assert verdict.status == "fail"
        assert verdict.data["fired"]

    def test_skipped_without_prerequisites(self):
        r = np.linspace(0.2, 0.6, 50)
        prof = synthetic_profile(r, r, r, r)
        verdict = logH_contradiction(prof, None, None, math.nan, 0.3, 2)
        assert verdict.status == "skipped"

    @pytest.mark.parametrize("scale", [0.1, 1e-2, 1e-4])
    def test_scaled_glued_field_certified_on_lower_bound(self, tmp_path,
                                                        glued_trio, scale):
        # scaled down, the glued candidate fails lower_bound_D with a
        # frequency cap C4 far below 0; the backward floor's exponential
        # overflowed (OverflowError, and `freq-lab audit` exited 1)
        import dataclasses

        from freqlab.cli import main
        from freqlab.fields import save_field

        base = glued_trio[(2, 1.5, 0.3)]
        fld = dataclasses.replace(base, u=scale * base.u, du=scale * base.du)
        spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
        chain = audit(spec, fld, AuditControls(residual_gate=math.inf))
        assert chain.constants["C4"] < 0
        assert chain.steps["logH_contradiction"].status == "skipped"
        assert chain.classification == "contradiction_certified"
        assert chain.notes == ["failing step: lower_bound_D"]
        path = tmp_path / "scaled.npz"
        save_field(fld, path)
        out = tmp_path / "au"
        assert main(["audit", str(path), "--residual-gate", "inf",
                     "--out", str(out)]) == 4
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["steps"]["logH_contradiction"]["status"] == "skipped"


class TestFullAudit:
    def test_genuine_solutions(self, model_specs, radial_solutions):
        for key, spec in model_specs.items():
            chain = audit(spec, radial_solutions[key])
            assert chain.classification == "genuine_nonvanishing", key
            assert chain.r0 == 0.0
            assert not chain.constants  # no chain constants for r0 = 0

    def test_zero_field_trivially_genuine(self):
        spec = ProblemSpec.model(2, 1.5, outer_radius=1.0)
        r = np.arange(0, 1.0 + 1e-9, 1e-3)
        fld = SolutionField.radial_from_arrays(
            r, np.zeros_like(r), np.zeros_like(r), 2, 1.5)
        chain = audit(spec, fld)
        assert chain.classification == "genuine_nonvanishing"
        assert "whole-grid zero field" in chain.notes

    def test_glued_fields_veto_on_default_gate(self, glued_trio):
        for (dim, q, r0), fld in glued_trio.items():
            spec = ProblemSpec.model(dim, q, outer_radius=fld.outer_radius)
            chain = audit(spec, fld)
            assert chain.classification == "residual_veto", (dim, q)
            assert chain.r0 is not None and chain.r0 > 0

    def test_glued_field_contradiction_when_gate_released(self, glued_trio):
        spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
        chain = audit(spec, glued_trio[(2, 1.5, 0.3)],
                      AuditControls(residual_gate=math.inf))
        assert chain.classification == "contradiction_certified"
        assert chain.steps["frequency_bounded"].status == "fail"
        assert "failing step" in chain.notes[0]

    def test_glued_contradictions_other_shapes(self, glued_trio):
        # flatter vanishing needs a deeper sphere-mass floor to resolve the
        # steep frequency zone next to the core
        cases = {(3, 1.5, 0.25): 1e-24, (2, 1.6, 0.35): 1e-24}
        for key, floor in cases.items():
            dim, q, _ = key
            fld = glued_trio[key]
            spec = ProblemSpec.model(dim, q, outer_radius=fld.outer_radius)
            chain = audit(spec, fld, AuditControls(
                residual_gate=math.inf,
                profile=ProfileControls(n_radii=10 ** 6, h_floor_rel=floor)))
            assert chain.classification == "contradiction_certified", key

    def test_general_route_glued(self, glued_trio):
        fld = glued_trio[(2, 1.5, 0.3)]
        spec = ProblemSpec(2, 0.8,
                           CoefficientField.rotation_perturbed(0.2, 2),
                           NonlinearitySpec.homogeneous(1.5))
        chain = audit(spec, fld, AuditControls(residual_gate=math.inf))
        assert chain.route == "general"
        assert chain.classification == "contradiction_certified"
        assert "C0" in chain.constants and "C5" in chain.constants

    def test_general_route_genuine_2d(self, bowl):
        from freqlab.fields import solve_grid_2d

        fld = solve_grid_2d(bowl.spec, lambda th: 0.2 + 0.05 * np.cos(3 * th),
                            n_r=48, n_theta=96, tol=1e-12, max_iters=300)
        chain = audit(bowl.spec, fld)
        assert chain.route == "general"
        assert chain.classification == "genuine_nonvanishing"

    def test_never_genuine_with_positive_core(self, glued_trio):
        for controls in (AuditControls(),
                         AuditControls(residual_gate=math.inf),
                         AuditControls(residual_gate=math.inf,
                                       profile=ProfileControls(
                                           n_radii=10 ** 6,
                                           h_floor_rel=1e-24))):
            for (dim, q, r0), fld in glued_trio.items():
                spec = ProblemSpec.model(dim, q, outer_radius=fld.outer_radius)
                chain = audit(spec, fld, controls)
                assert not (chain.classification == "genuine_nonvanishing"
                            and chain.r0 and chain.r0 > 0)

    def test_deterministic_chains(self, glued_trio):
        spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
        fld = glued_trio[(2, 1.5, 0.3)]
        a = audit(spec, fld, AuditControls(residual_gate=math.inf))
        b = audit(spec, fld, AuditControls(residual_gate=math.inf))
        assert json.dumps(a.to_dict(), sort_keys=True) == \
            json.dumps(b.to_dict(), sort_keys=True)

    def test_chain_radii_ordering(self, glued_trio):
        spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
        chain = audit(spec, glued_trio[(2, 1.5, 0.3)],
                      AuditControls(residual_gate=math.inf))
        assert chain.r0 < chain.r1 <= 0.8
        assert chain.r3 < chain.r2 <= chain.r1


class TestGrid2dGluedCandidate:
    def test_zero_core_grid_field_is_never_genuine(self):
        # the same glued construction revolved onto the polar grid: the
        # pipeline must reject it through either gate or chain
        from freqlab.fields import sample_grid2d
        from freqlab.odes import counterexample_profile

        q, r0, R = 1.5, 0.3, 0.8

        def u(x):
            r = np.sqrt(np.sum(np.asarray(x) ** 2, axis=-1))
            return counterexample_profile(q, r0, r)[0]

        fld = sample_grid2d(u, R, 256, 128, q)
        spec = ProblemSpec.model(2, q, outer_radius=R)
        chain = audit(spec, fld)
        assert chain.classification == "residual_veto"
        assert chain.r0 > 0.25

        loose = audit(spec, fld, AuditControls(
            residual_gate=math.inf,
            profile=ProfileControls(n_radii=10 ** 6)))
        assert loose.classification == "contradiction_certified"
        assert loose.steps["frequency_bounded"].status == "fail"


class TestCertificateEncoding:
    def test_to_dict_is_what_write_json_writes(self, tmp_path, glued_trio):
        from freqlab.audit import CertificateChain, StepVerdict
        from freqlab.io import write_json

        chain = CertificateChain(
            "inconclusive", "model", r0=0.3, r1=np.float64(0.4),
            constants={"C4": math.nan, "C1": np.float64(2.0)},
            steps={"step": StepVerdict(
                "step", "fail", np.float64(-0.5), "note",
                {"radii": np.array([0.1, np.inf]), "n": np.int64(2),
                 "worst": np.float64(np.nan), "fired": np.bool_(True)})},
            controls=AuditControls(residual_gate=1e9).to_dict(),
            notes=["one note"])
        real = audit(ProblemSpec.model(2, 1.5, outer_radius=0.8),
                     glued_trio[(2, 1.5, 0.3)], AuditControls(residual_gate=1e9))
        for c in (chain, real):
            path = write_json(tmp_path / "certificate.json", c.to_dict())
            assert c.to_dict() == json.loads(path.read_text())
