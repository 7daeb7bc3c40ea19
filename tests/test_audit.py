import json
import math
import os

import numpy as np
import pytest

from freqlab.audit import (AuditControls, audit, frequency_bound_certificate,
                           lower_bound_certificate, vanishing_radius)
from freqlab.fields import SolutionField, glued_field, sample_grid2d
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
        N=N, surfaceD=D.copy(), sphere_sup=np.sqrt(H / r), h_floor=floor,
        indices=np.arange(len(r)), outer_radius=float(r[-1]))


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

    def test_no_audited_radius_inside_the_window(self):
        # r1 = r0 + (2-q)/2 r0^{N-1} / C_{N,q} = 0.31875 falls between the
        # audited radii 0.3 and 0.4
        r = np.arange(1, 11) / 10.0
        r0 = 0.3
        prof = synthetic_profile(r, r, r, np.maximum(r - r0, 0.0) ** 2)
        r1, verdict, consts = lower_bound_certificate(prof, r0, 2, 1.5)
        assert r1 == pytest.approx(0.31875, rel=1e-12)
        assert verdict.status == "inconclusive"
        assert verdict.note == "no audited radii inside (r0, r1)"
        assert consts["C2"] == pytest.approx(0.25)

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

    @pytest.mark.parametrize("scale", [0.1, 1e-2, 1e-4])
    def test_scaled_glued_field_certified_on_lower_bound(self, tmp_path,
                                                        glued_trio, scale):
        # scaled down, the glued candidate fails lower_bound_D with a
        # frequency cap C4 far below 0
        import dataclasses

        from freqlab.cli import main
        from freqlab.fields import save_field

        base = glued_trio[(2, 1.5, 0.3)]
        fld = dataclasses.replace(base, u=scale * base.u, du=scale * base.du)
        spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
        chain = audit(spec, fld, AuditControls(residual_gate=math.inf))
        assert chain.constants["C4"] < 0
        assert chain.classification == "contradiction_certified"
        assert chain.notes == ["failing step: lower_bound_D"]
        path = tmp_path / "scaled.npz"
        save_field(fld, path)
        out = tmp_path / "au"
        assert main(["audit", str(path), "--residual-gate", "inf",
                     "--out", str(out)]) == 4
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["notes"] == ["failing step: lower_bound_D"]


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

    def test_skipped_without_the_lower_bound_window(self):
        r = np.linspace(0.2, 1.0, 50)
        prof = synthetic_profile(r, r, r, r)
        r2, r3, verdict = frequency_bound_certificate(prof, 0.3, None, 2, 1.5, {})
        assert (r2, r3) == (None, None)
        assert verdict.status == "skipped"
        assert verdict.note == "needs the lower-bound window"

    def test_no_sphere_mass_inside_the_window(self):
        r = np.linspace(0.2, 1.0, 200)
        H = np.where(r <= 0.6, 0.0, r)  # the mass starts beyond r1 = 0.5
        prof = synthetic_profile(r, H, r, np.maximum(r - 0.3, 0.0) ** 2)
        r2, r3, verdict = frequency_bound_certificate(
            prof, 0.3, 0.5, 2, 1.5, {"C2": 0.25})
        assert (r2, r3) == (None, None)
        assert verdict.status == "inconclusive"
        assert verdict.note == ("no audited radius in (r0, r1) carries "
                                "positive sphere mass")

    def test_one_radius_with_defined_frequency(self):
        # a single radius with positive mass: N is defined there only, and
        # the cap C4 is still recorded from it
        r = np.linspace(0.2, 1.0, 81)
        k = 20  # r = 0.4
        H = np.zeros_like(r)
        H[k] = 1.0
        prof = synthetic_profile(r, H, 0.5 * np.ones_like(r),
                                 np.maximum(r - 0.3, 0.0) ** 2)
        consts = {"C2": 0.25}
        r2, r3, verdict = frequency_bound_certificate(
            prof, 0.3, 0.5, 2, 1.5, consts)
        assert r2 == r[k] and r3 == r[k - 1]
        assert verdict.status == "inconclusive"
        assert verdict.note == "fewer than two audited radii with defined frequency"
        assert verdict.data["n_radii"] == 1
        assert consts["C3"] == pytest.approx(4.0 / (0.3 * 0.25))
        assert consts["C4"] == pytest.approx(prof.N[k] * math.exp(consts["C3"] * r[k]))

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

    @pytest.mark.parametrize("dim, core", [(4, 0.1), (5, 0.2)])
    def test_a_cap_past_the_float_range_reads_null(self, tmp_path, dim, core):
        # the window (r0, r1] has width 1/C3, so C3 r2 passes 709 once 10^6
        # radii resolve it: e^{C3 r} overflowed (OverflowError, and
        # `freq-lab audit` exited 1)
        from freqlab.cli import main
        from freqlab.fields import save_field

        fld = glued_field(dim, 1.5, core, 0.8, h=1e-4)
        spec = ProblemSpec.model(dim, 1.5, outer_radius=0.8)
        chain = audit(spec, fld, AuditControls(
            residual_gate=math.inf, profile=ProfileControls(n_radii=10 ** 6)))
        assert chain.constants["C3"] * chain.r2 > 709.8
        assert chain.classification == "inconclusive"
        assert chain.steps["frequency_bounded"].status == "pass"
        assert chain.to_dict()["constants"]["C4"] is None
        path = tmp_path / "glued.npz"
        save_field(fld, path)
        config = tmp_path / "fine.ini"
        config.write_text("[run]\nn_radii = 1000000\n")
        out = tmp_path / "au"
        assert main(["audit", str(path), "--config", str(config),
                     "--residual-gate", "inf", "--out", str(out)]) == 6
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["steps"]["frequency_bounded"]["frequency_cap"] is None


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

    def test_general_route_glued(self, tmp_path, variable_coefficients_spec):
        # the glued construction on the polar grid, under variable A, a
        # potential and an x-dependent f: the chain has no constants from
        # this problem, so the audit certifies nothing either way
        from freqlab.cli import main
        from freqlab.fields import save_field
        from freqlab.odes import counterexample_profile

        q, r0, R = 1.5, 0.3, 0.8
        fld = sample_grid2d(lambda x: counterexample_profile(
            q, r0, np.sqrt(np.sum(x * x, axis=-1)))[0], R, 256, 128, q)
        chain = audit(variable_coefficients_spec, fld,
                      AuditControls(residual_gate=math.inf))
        assert chain.route == "general"
        assert chain.classification == "inconclusive"
        assert chain.r0 > 0.25
        assert list(chain.steps) == ["residual_gate", "vanishing_detected"]
        assert not chain.constants
        assert chain.r1 is chain.r2 is chain.r3 is None
        assert "no chain constants from the problem" in chain.notes[0]
        path = tmp_path / "glued.npz"
        save_field(fld, path)
        config = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                              "configs", "variable_coefficients.ini")
        assert main(["audit", str(path), "--config", config,
                     "--residual-gate", "inf", "--out", str(tmp_path / "au")]) == 6

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    def test_radial_fields_take_the_model_chain(self, h):
        # A nu = nu on radial gradients, so under rotation_perturbed a radial
        # field poses the model equation and gets the model spec's certificate
        for dim, q, core, R in ((2, 1.5, 0.3, 0.8), (3, 1.5, 0.25, 0.9),
                                (2, 1.6, 0.35, 0.9)):
            fld = glued_field(dim, q, core, R, h=h)
            model = ProblemSpec.model(dim, q, outer_radius=R)
            for controls in (AuditControls(residual_gate=math.inf),
                             AuditControls(residual_gate=math.inf,
                                           profile=ProfileControls(
                                               n_radii=10 ** 6,
                                               h_floor_rel=1e-24))):
                want = audit(model, fld, controls).to_dict()
                assert want["route"] == "model"
                for eps in (0.0, 0.2):
                    spec = ProblemSpec(dim, R,
                                       CoefficientField.rotation_perturbed(eps, dim),
                                       NonlinearitySpec.homogeneous(q))
                    assert audit(spec, fld, controls).to_dict() == want, \
                        (dim, q, core, controls.profile, eps)

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


def _archive_claiming_a_scale(fld, path):
    """A field file whose header claims residual_scale = 1e3, the entry that
    once set the audit's gate."""
    from freqlab.io import write_npz

    header = {"format": "freqlab-field 2", "representation": fld.representation,
              "N": fld.dim, "q": fld.q, "residual_scale": 1e3}
    if fld.representation == "grid2d":
        header.update(n_r=len(fld.r) - 1, n_theta=len(fld.theta),
                      r_max=fld.outer_radius)
        arrays = {"u": fld.u}
    else:
        arrays = {"r": fld.r, "u": fld.u, "du": fld.du}
    return write_npz(path, header, arrays)


class TestResidualGate:
    """One gate rule for every field: the integrated residual epsilon of its
    values under the problem, whatever made or wrote the field."""

    @pytest.fixture(scope="class")
    def cos1_96(self):
        from freqlab.fields import solve_grid_2d

        spec = ProblemSpec.model(2, 1.5)
        return spec, solve_grid_2d(spec, lambda th: 0.2 * np.cos(th),
                                   n_r=96, n_theta=192)

    @pytest.mark.parametrize("case", ["sampled", "glued"])
    def test_a_header_cannot_vouch_for_a_non_solution(self, tmp_path, capsys,
                                                      case):
        # a header claiming a large residual_scale passed the sampled field
        # as genuine_nonvanishing and certified the glued one (exit 4)
        from freqlab.cli import main
        from freqlab.fields import load_field

        if case == "sampled":
            fld = sample_grid2d(lambda x: 0.3 + 0.1 * x[..., 0] + 0.2 * x[..., 1] ** 2,
                                1.0, 64, 128, 1.5)
        else:
            fld = glued_field(2, 1.5, 0.3, 0.8, h=1e-3)
        path = _archive_claiming_a_scale(fld, tmp_path / "field.npz")
        np.testing.assert_array_equal(load_field(path).u, fld.u)
        out = tmp_path / "audit"
        assert main(["audit", str(path), "--out", str(out)]) == 5
        assert capsys.readouterr().out == "residual_veto\n"
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["steps"]["residual_gate"]["epsilon"] > 0.9

    @pytest.mark.parametrize("case", ["grid2d", "radial"])
    def test_rebuilt_arrays_get_the_solver_output_verdict(self, case):
        # the same values once read genuine from the solver and residual_veto
        # when rebuilt from their arrays
        from freqlab.fields import solve_grid_2d, solve_radial

        if case == "grid2d":
            spec = ProblemSpec.model(2, 1.5)
            fld = solve_grid_2d(spec, lambda th: 0.2 * np.cos(th),
                                n_r=48, n_theta=96)
            rebuilt = SolutionField.grid2d_from_values(
                fld.r, np.array(fld.u), fld.q)
        else:  # two zeros on the ball
            spec = ProblemSpec.model(2, 1.5, outer_radius=5.0)
            fld = solve_radial(spec, 0.6, h=1e-3)
            rebuilt = SolutionField.radial_from_arrays(
                np.array(fld.r), np.array(fld.u), np.array(fld.du), 2, 1.5)
        solved, again = audit(spec, fld), audit(spec, rebuilt)
        assert solved.classification == again.classification == \
            "genuine_nonvanishing"
        assert solved.steps["residual_gate"].to_dict() == \
            again.steps["residual_gate"].to_dict()

    def test_sectors_see_a_defect_the_disc_cancels(self, cos1_96):
        # cos(theta) integrates to zero over every disc, so only the
        # sectors see this perturbation of a genuine solution
        from freqlab.frequency import _node_data

        spec, fld = cos1_96
        x = fld.points()
        r = np.hypot(x[..., 0], x[..., 1])
        bumped = SolutionField.grid2d_from_values(
            fld.r, fld.u + 0.05 * r * (1.0 - r) * x[..., 0], fld.q)
        assert audit(spec, fld).classification == "genuine_nonvanishing"
        chain = audit(spec, bumped)
        assert chain.classification == "residual_veto"
        step = chain.steps["residual_gate"].to_dict()
        assert step["sector"] != "disc" and step["sectors"] == 8
        # the disc alone: |int rho| over the gate's size (V = 0 here)
        data = _node_data(spec, bumped)
        size = np.max(np.abs(data.ball(data.rho0 - data.fvals))
                      + data.ball(np.abs(data.fvals)))
        assert np.max(np.abs(data.ball(data.rho0))) / size < 1e-6 < step["epsilon"]

    def test_the_gate_compares_its_threshold_with_epsilon(self, cos1_96):
        from freqlab.audit import _GATE_REL

        spec, fld = cos1_96
        chain = audit(spec, fld)
        step = chain.steps["residual_gate"].to_dict()
        eps = step["epsilon"]
        assert 0.0 < eps < _GATE_REL and step["gate"] == _GATE_REL
        assert 0.0 < step["radius"] <= 1.0
        assert chain.controls["gate_rel"] == _GATE_REL
        assert audit(spec, fld, AuditControls(residual_gate=1.01 * eps)) \
            .classification == "genuine_nonvanishing"
        assert audit(spec, fld, AuditControls(residual_gate=0.99 * eps)) \
            .classification == "residual_veto"

    def test_a_zero_field_reads_epsilon_zero(self):
        fld = sample_grid2d(lambda x: 0.0 * x[..., 0], 1.0, 32, 64, 1.5)
        chain = audit(ProblemSpec.model(2, 1.5), fld)
        assert chain.steps["residual_gate"].data["epsilon"] == 0.0
        assert chain.classification == "genuine_nonvanishing"

    @pytest.mark.parametrize("amp", [0.01, 0.1, 0.5])
    def test_a_fast_ripple_cannot_raise_the_size(self, amp):
        # delta sin(k r) adds about delta k^2 to |div(A grad u)| at every
        # node but only its flux, about delta k, to int rho; a size built
        # from the pointwise |div(A grad u)| let epsilon fall like 1/k
        from freqlab.fields import solve_radial

        spec = ProblemSpec.model(2, 1.5, outer_radius=5.0)
        fld = solve_radial(spec, 0.6, h=1e-3)
        k = 200.0
        rippled = SolutionField.radial_from_arrays(
            fld.r, fld.u + amp * np.sin(k * fld.r),
            fld.du + amp * k * np.cos(k * fld.r), 2, 1.5)
        chain = audit(spec, rippled)
        assert chain.classification == "residual_veto"
        assert chain.steps["residual_gate"].data["epsilon"] > 0.3


# ROADMAP item 15's negative control: -Delta u = -|u|^{1/2} sgn u on the
# disc of radius 0.8, the absorption sign the theorem excludes.  u =
# K (x1 - 0.2)_+^4 solves it exactly and vanishes on the half-disc x1 < 0.2.
_ABSORPTION = """[domain]
dimension = 2
outer_radius = 0.8
[nonlinearity]
kind = sum_of_powers
terms = 1.5: -1
"""


def _planar_dead_core(rings):
    from freqlab.config import parse_problem_spec
    from freqlab.odes import counterexample_profile

    spec = parse_problem_spec(_ABSORPTION)
    fld = sample_grid2d(
        lambda x: counterexample_profile(1.5, 0.2, x[..., 0])[0],
        spec.outer_radius, rings, 2 * rings, spec.nonlinearity.q)
    return spec, fld


class TestAbsorptionDeadCore:
    def test_the_problem_fails_A3(self):
        from freqlab.model import check_A3

        spec, _ = _planar_dead_core(16)
        assert not check_A3(spec.nonlinearity,
                            radius=spec.outer_radius).passed

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 15: the audit does "
                       "not check (A3), and reads d = int F <= 0 as a "
                       "negligible field")
    @pytest.mark.parametrize("rings", [64, 128, 256])
    def test_is_never_genuine_nor_certified(self, rings):
        spec, fld = _planar_dead_core(rings)
        assert audit(spec, fld).classification not in (
            "genuine_nonvanishing", "contradiction_certified")
