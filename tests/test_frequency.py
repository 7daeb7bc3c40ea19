import dataclasses
import inspect
import os

import numpy as np
import pytest

from freqlab.audit import audit
from freqlab.fields import (SolutionField, cartesian_gradient, load_field,
                            sample_grid2d, solve_grid_2d, solve_radial)
from freqlab.frequency import (ProfileControls, _grid_tolerance_factor,
                               _node_data, frequency_profile,
                               run_all_identity_checks, verify_H_prime,
                               verify_N_prime_bound, verify_f_transport,
                               verify_pohozaev_model, verify_rellich_general,
                               verify_surface_volume_D, verify_u2_bounds)
from freqlab.model import CoefficientField, NonlinearitySpec, ProblemSpec


class TestIntegrals:
    def test_constant_on_circle(self, linear_mode_spec):
        fld = sample_grid2d(lambda x: np.ones(x.shape[:-1]), 1.0, 64, 128, 1.5)
        vals = _node_data(linear_mode_spec, fld).sphere(fld.u ** 2)
        k = np.argmin(np.abs(fld.r - 1.0))
        assert vals[k] == pytest.approx(2 * np.pi, rel=1e-13)

    def test_linear_field_surface_mass(self, linear_mode_spec):
        fld = sample_grid2d(lambda x: x[..., 0], 1.0, 64, 128, 1.5)
        vals = _node_data(linear_mode_spec, fld).sphere(fld.u ** 2)
        np.testing.assert_allclose(vals[1:], np.pi * fld.r[1:] ** 3, rtol=1e-12)

    def test_linear_field_dirichlet_energy(self, linear_mode_spec):
        fld = sample_grid2d(lambda x: x[..., 0], 1.0, 64, 128, 1.5)
        gx, gy = cartesian_gradient(fld.u, fld.r, fld.theta)
        e = gx ** 2 + gy ** 2
        e[0] = 1.0  # pole row: |grad x1|^2 = 1
        vals = _node_data(linear_mode_spec, fld).ball(e)
        np.testing.assert_allclose(vals[4:], np.pi * fld.r[4:] ** 2, rtol=1e-10)


class TestClassicalFrequency:
    def test_degree_one(self, linear_mode_spec):
        fld = sample_grid2d(lambda x: x[..., 0], 1.0, 128, 512, 1.5)
        prof = frequency_profile(linear_mode_spec, fld)
        assert np.nanmax(np.abs(prof.N - 1.0)) <= 1e-6

    def test_degree_two(self, linear_mode_spec):
        fld = sample_grid2d(lambda x: x[..., 0] * x[..., 1], 1.0, 128, 512, 1.5)
        prof = frequency_profile(linear_mode_spec, fld)
        assert np.nanmax(np.abs(prof.N - 2.0)) <= 1e-6

    def test_scaling_leaves_frequency_unchanged(self, linear_mode_spec):
        fld1 = sample_grid2d(lambda x: x[..., 0], 1.0, 64, 128, 1.5)
        fld3 = sample_grid2d(lambda x: 3.0 * x[..., 0], 1.0, 64, 128, 1.5)
        p1 = frequency_profile(linear_mode_spec, fld1)
        p3 = frequency_profile(linear_mode_spec, fld3)
        np.testing.assert_allclose(p3.N, p1.N, atol=1e-12)
        np.testing.assert_allclose(p3.H, 9.0 * p1.H, rtol=1e-12)

    def test_nonvanishing_solution_frequency_tends_to_zero(self, model_specs,
                                                           radial_solutions):
        spec = model_specs[(3, 1.5)]
        prof = frequency_profile(spec, radial_solutions[(3, 1.5)])
        assert abs(prof.N[0]) < 5e-3
        assert abs(prof.N[0]) < abs(prof.N[-1])

    def test_log_derivative_relation(self, linear_mode_spec):
        # d/dr log(H / r^{N-1}) = H'/H - 1/r = 2 N(r) / r in the
        # plain-Laplacian case, asserted within H''s own error estimate
        fld = sample_grid2d(lambda x: x[..., 0], 1.0, 128, 256, 1.5)
        prof = frequency_profile(linear_mode_spec, fld)
        dH, est = prof.derivatives["H"]
        gap = np.abs(dH / prof.H - 1 / prof.r - 2 * prof.N / prof.r)
        assert np.all(gap <= 20 * est / prof.H)


class TestHPrime:
    def test_linear_field_closed_form(self, linear_mode_spec):
        fld = sample_grid2d(lambda x: x[..., 0], 1.0, 128, 256, 1.5)
        prof = frequency_profile(linear_mode_spec, fld)
        rep = verify_H_prime(linear_mode_spec, fld, prof, tolerance=1e-10)
        assert rep.passed

    def test_radial_solutions(self, model_specs, radial_solutions):
        for key in ((2, 1.5), (3, 1.5)):
            prof = frequency_profile(model_specs[key], radial_solutions[key])
            rep = verify_H_prime(model_specs[key], radial_solutions[key], prof,
                                 tolerance=1e-6)
            assert rep.passed, f"{key}: {rep.rel_residual}"

    def test_general_form_matches_model_form_for_identity(self, model_specs,
                                                          radial_solutions):
        key = (3, 1.5)
        prof = frequency_profile(model_specs[key], radial_solutions[key])
        rep = verify_H_prime(model_specs[key], radial_solutions[key], prof)
        model_rhs = 2.0 * prof.surfaceD + (3 - 1) / prof.r * prof.H
        np.testing.assert_allclose(rep.rhs, model_rhs, rtol=1e-12)


class TestNodeStepDerivatives:
    # the profile is differentiated at the field's node step: n_radii picks
    # the reported radii and decides no verdict

    def test_h_prime_independent_of_n_radii(self):
        spec = ProblemSpec.model(3, 1.5, outer_radius=6.0)
        fld = solve_radial(spec, 0.5, h=1e-4)
        verdicts = []
        for n_radii in (200, 800, 2000):
            prof = frequency_profile(spec, fld, ProfileControls(n_radii=n_radii))
            reports = run_all_identity_checks(spec, fld, prof)
            assert reports["H_prime"].rel_residual < 1e-10, n_radii
            verdicts.append({name: rep.passed for name, rep in reports.items()})
        assert verdicts[0] == verdicts[1] == verdicts[2]

    def test_every_radius_has_a_derivative(self):
        for _, spec, fld in _pinned_fields():
            prof = frequency_profile(spec, fld)
            reports = run_all_identity_checks(spec, fld, prof)
            for name in ("H_prime", "pohozaev_model",
                         "frequency_derivative_bound"):
                assert len(reports[name].radii) == len(prof.r), name


class TestPohozaev:
    def test_rellich_for_linear_field(self, linear_mode_spec):
        # with f = 0 the identity is the classical one; u = x1 satisfies it
        fld = sample_grid2d(lambda x: x[..., 0], 1.0, 128, 256, 1.5)
        prof = frequency_profile(linear_mode_spec, fld)
        rep = verify_pohozaev_model(linear_mode_spec, fld, prof, tolerance=1e-8)
        assert rep.passed

    def test_radial_solutions_all_pairs(self, model_specs, radial_solutions):
        for key in ((2, 1.0), (3, 1.0), (2, 1.5), (3, 1.5)):
            spec, fld = model_specs[key], radial_solutions[key]
            prof = frequency_profile(spec, fld)
            rep = verify_pohozaev_model(spec, fld, prof, tolerance=1e-6)
            assert rep.passed, f"{key}: {rep.rel_residual}"

    def test_glued_field_defect_equals_correction(self, glued_trio):
        spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
        fld = glued_trio[(2, 1.5, 0.3)]
        prof = frequency_profile(spec, fld)
        rep = verify_pohozaev_model(spec, fld, prof, tolerance=1e-4)
        assert rep.passed
        defect = np.asarray(rep.details["uncorrected_defect"])
        corr = np.asarray(rep.details["correction_term"])
        big = np.abs(defect) > 1e-3 * np.max(np.abs(defect))
        assert big.any()
        np.testing.assert_allclose(defect[big], corr[big], rtol=1e-4)


class TestRellichGeneral:
    def test_manufactured_256(self, bowl, bowl_field_256):
        prof = frequency_profile(bowl.spec, bowl_field_256)
        rep9, rep10 = verify_rellich_general(bowl.spec, bowl_field_256, prof,
                                             tolerance=5e-6)
        assert rep9.passed and rep10.passed

    def test_gradient_transport_fourth_order_through_the_pole(
            self, variable_coefficients_spec):
        # grad u(0) != 0 puts an angular k = 1 mode across the pole; the
        # pole row's gradient is that mode, where zeroing its angular part
        # left the identity second order and failing at 256 rings
        spec = variable_coefficients_spec
        errs = []
        for M in (32, 64, 128, 256):
            fld = sample_grid2d(lambda x: 1.0 + 0.3 * x[..., 0] + 0.2 * x[..., 1] ** 2,
                                spec.outer_radius, M, 2 * M, 1.5)
            rep = run_all_identity_checks(spec, fld, frequency_profile(spec, fld))[
                "gradient_energy_transport"]
            errs.append(rep.rel_residual)
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((3.5 <= orders) & (orders <= 4.7)), orders
        assert rep.passed

    def test_identity_coefficients_reduce_to_model(self, linear_mode_spec):
        fld = sample_grid2d(lambda x: x[..., 0] * x[..., 1], 1.0, 96, 192, 1.5)
        prof = frequency_profile(linear_mode_spec, fld)
        rep9, rep10 = verify_rellich_general(linear_mode_spec, fld, prof,
                                             tolerance=1e-8)
        assert rep9.passed and rep10.passed
        # with A = id the z-jacobian term is -2 D1 exactly
        t4 = np.asarray(rep9.details["terms.z_jacobian"])
        np.testing.assert_allclose(t4, -2.0 * prof.D1, rtol=1e-10)

    def test_constant_field_everything_vanishes(self, bowl):
        fld = sample_grid2d(lambda x: np.full(x.shape[:-1], 0.25), 1.0,
                            64, 128, 1.5)
        prof = frequency_profile(bowl.spec, fld)
        rep9, _ = verify_rellich_general(bowl.spec, fld, prof)
        assert np.max(np.abs(rep9.lhs)) < 1e-12


class TestNPrimeBound:
    def test_radial_solutions(self, model_specs, radial_solutions):
        for key, spec in model_specs.items():
            fld = radial_solutions[key]
            prof = frequency_profile(spec, fld)
            rep = verify_N_prime_bound(spec, fld, prof)
            assert rep.details["inequality_ok"], key
            assert np.nanmin(rep.details["cs_gap"]) >= -1e-10, key

    def test_radial_case_is_equality(self, model_specs, radial_solutions):
        # cs_gap = 0 for radial fields, so the corrected bound is an equality
        key = (3, 1.5)
        prof = frequency_profile(model_specs[key], radial_solutions[key])
        rep = verify_N_prime_bound(model_specs[key], radial_solutions[key], prof)
        eq = np.asarray(rep.details["equality_residual"])
        scale = np.nanmax(np.abs(rep.lhs))
        assert np.nanmax(np.abs(eq)) <= 1e-6 * scale
        assert np.nanmax(np.abs(rep.details["cs_gap"])) <= 1e-10

    def test_lowered_derivative_fails_on_a_field_with_zeros(self):
        # the slack is taken at each radius: the large error estimate beside
        # a zero of u, where N has a pole, excuses no other radius
        spec = ProblemSpec.model(3, 1.5, outer_radius=6.0)
        fld = solve_radial(spec, 0.5, h=1e-4)
        prof = frequency_profile(spec, fld, ProfileControls(n_radii=800))
        assert verify_N_prime_bound(spec, fld, prof).details["inequality_ok"]
        dN, est = prof.derivatives["N"]
        prof.derivatives["N"] = (dN - 1e-3, est)
        assert not verify_N_prime_bound(spec, fld, prof).details["inequality_ok"]

    def test_genuine_solution_at_a_fine_step(self):
        # at h = 3e-6 (2 M nodes) the round-off of N, formed from cumulative
        # sums and differentiated at step h, outgrows the error estimate at
        # 15 of 800 radii; the slack's round-off term covers it, and is far
        # too small to excuse an N' lowered by 1%
        spec = ProblemSpec.model(3, 1.5, outer_radius=6.0)
        fld = solve_radial(spec, 0.5, h=3e-6)
        prof = frequency_profile(spec, fld, ProfileControls(n_radii=800))
        assert verify_N_prime_bound(spec, fld, prof).details["inequality_ok"]
        dN, est = prof.derivatives["N"]
        prof.derivatives["N"] = (dN - 0.01 * np.abs(dN), est)
        assert not verify_N_prime_bound(spec, fld, prof).details["inequality_ok"]

    def test_worst_radius_violates_the_lowered_bound(self):
        # the report names the radius of the smallest margin; the largest
        # |N' - rhs| sits beside a zero, where the slack excuses it
        spec = ProblemSpec.model(3, 1.5, outer_radius=6.0)
        fld = solve_radial(spec, 0.5, h=1e-4)
        prof = frequency_profile(spec, fld, ProfileControls(n_radii=800))
        dN, est = prof.derivatives["N"]
        prof.derivatives["N"] = (dN - 1e-3, est)
        rep = verify_N_prime_bound(spec, fld, prof)
        blob = rep.to_dict()
        k = int(np.flatnonzero(prof.r == blob["worst_radius"])[0])
        assert rep.lhs[k] - rep.rhs[k] + rep.details["slack"][k] < 0.0
        assert blob["worst_abs_residual"] == abs(rep.lhs[k] - rep.rhs[k])
        margins = rep.details["inequality_margins"]
        assert rep.lhs[k] - rep.rhs[k] + rep.details["slack"][k] == \
            np.nanmin(margins)

    def test_2d_gap_nonnegative(self, linear_mode_spec):
        fld = sample_grid2d(lambda x: x[..., 0] + 0.3 * x[..., 1] ** 2,
                            1.0, 96, 192, 1.5)
        prof = frequency_profile(linear_mode_spec, fld)
        rep = verify_N_prime_bound(linear_mode_spec, fld, prof)
        assert np.nanmin(rep.details["cs_gap"]) >= -1e-10

    @pytest.mark.parametrize("n_r", [64, 128])
    def test_round_off_in_the_gap_fails_no_report(self, tmp_path, n_r):
        # under A = I the gap is nonnegative in exact arithmetic; on this
        # large field its round-off reads -5.6e-9, and no verdict reads it
        from freqlab.cli import main
        from freqlab.fields import save_field

        spec = ProblemSpec.model(2, 1.5)
        fld = sample_grid2d(lambda x: 1e3 * (1.0 - np.sum(x * x, axis=-1)),
                            spec.outer_radius, n_r, 2 * n_r, 1.5)
        reports = run_all_identity_checks(spec, fld, frequency_profile(spec, fld))
        assert np.nanmin(reports["frequency_derivative_bound"].details["cs_gap"]) < 0
        assert [name for name, rep in reports.items() if not rep.passed] == []
        save_field(fld, tmp_path / "field.npz")
        assert main(["frequency", str(tmp_path / "field.npz"),
                     "--out", str(tmp_path / "fr")]) == 0


class TestOtherChecks:
    def test_u2_bound_constant_ratio(self, model_specs, radial_solutions):
        for key, spec in model_specs.items():
            prof = frequency_profile(spec, radial_solutions[key])
            rep = verify_u2_bounds(spec, radial_solutions[key], prof)
            assert rep.details["inequality_ok"], key
            ceiling = rep.details["ceiling"]
            assert np.max(rep.details["effective_constant"]) <= ceiling * (1 + 1e-9)

    def test_f_transport_radial_and_grid(self, model_specs, radial_solutions,
                                         bowl, bowl_field_128):
        key = (3, 1.5)
        prof = frequency_profile(model_specs[key], radial_solutions[key])
        rep = verify_f_transport(model_specs[key], radial_solutions[key], prof,
                                 tolerance=1e-8)
        assert rep.passed
        assert rep.details["surface_convexity_ok"]
        prof2 = frequency_profile(bowl.spec, bowl_field_128)
        rep2 = verify_f_transport(bowl.spec, bowl_field_128, prof2,
                                  tolerance=5e-5)
        assert rep2.passed and rep2.details["surface_convexity_ok"]

    def test_surface_volume_energy_agreement(self, model_specs,
                                             radial_solutions):
        for key, spec in model_specs.items():
            prof = frequency_profile(spec, radial_solutions[key])
            rep = verify_surface_volume_D(spec, radial_solutions[key], prof,
                                          tolerance=1e-8)
            assert rep.passed, f"{key}: {rep.rel_residual}"

    def test_d_monotone_and_nonnegative(self, model_specs, radial_solutions):
        for key, spec in model_specs.items():
            prof = frequency_profile(spec, radial_solutions[key])
            assert np.all(prof.d >= -1e-300)
            assert np.all(np.diff(prof.d) >= -1e-15 * prof.d[-1])
            assert np.all(prof.dprime >= 0)


class TestSharedNodeVocabulary:
    def test_radial_and_polar_node_data_agree(self):
        # u = (1 - r^2)^2 with u' exact, as a radial profile and as a polar
        # grid on the same radii: one vocabulary, the same numbers
        spec = ProblemSpec.model(2, 1.5, outer_radius=1.0)
        r = np.linspace(0.0, 1.0, 129)
        rad = SolutionField.radial_from_arrays(r, (1 - r ** 2) ** 2,
                                               -4 * r * (1 - r ** 2), 2, 1.5)
        grid = sample_grid2d(lambda x: (1 - np.sum(x * x, axis=-1)) ** 2,
                             1.0, 128, 256, 1.5)
        one, two = _node_data(spec, rad), _node_data(spec, grid)
        assert one.u.shape == (129, 1) and two.u.shape == (129, 256)
        for name in ("flux_r", "e_density", "z_grad_u", "divz", "mu"):
            # the pole row is a convention (divz, mu), not a value
            b = getattr(two, name)[1:]
            np.testing.assert_allclose(
                np.broadcast_to(getattr(one, name)[1:], b.shape), b,
                rtol=0, atol=1e-8, err_msg=name)
        np.testing.assert_allclose(one.sphere(one.u ** 2),
                                   two.sphere(two.u ** 2), rtol=0, atol=1e-8)
        np.testing.assert_allclose(one.ball(one.e_density),
                                   two.ball(two.e_density), rtol=0, atol=1e-8)


class TestRadial2dAgreement:
    def test_frequency_profiles_match(self):
        # radial step commensurate with the ring spacing: shared radii exist
        spec = ProblemSpec.model(2, 1.5, outer_radius=1.0)
        rad = solve_radial(spec, 0.5, h=1.0 / 6400)
        trace = float(rad.u[-1])
        fld = solve_grid_2d(spec, lambda th: np.full_like(th, trace),
                            n_r=64, n_theta=64, tol=1e-12, max_iters=300)
        p2 = frequency_profile(spec, fld, ProfileControls(n_radii=40))
        # full-resolution radial profile: every ring radius is a node
        p1 = frequency_profile(spec, rad,
                               ProfileControls(n_radii=10 ** 6))
        i1 = np.searchsorted(np.round(p1.r, 10), np.round(p2.r, 10))
        assert np.allclose(p1.r[i1], p2.r, atol=1e-12)
        assert len(p2.r) >= 10
        np.testing.assert_allclose(p2.N, p1.N[i1], atol=2e-3)

    def test_verdicts_stable_under_refinement(self, bowl, bowl_field_128,
                                              bowl_field_256):
        p1 = frequency_profile(bowl.spec, bowl_field_128)
        p2 = frequency_profile(bowl.spec, bowl_field_256)
        r1 = run_all_identity_checks(bowl.spec, bowl_field_128, p1)
        r2 = run_all_identity_checks(bowl.spec, bowl_field_256, p2)
        for name in r1:
            assert r1[name].passed == r2[name].passed == True  # noqa: E712


class TestReferenceTolerances:
    def test_each_report_carries_its_verify_default(self, model_specs,
                                                    radial_solutions, bowl,
                                                    bowl_field_256):
        # at grid factor 1 (radial step 1e-3 R, 256 rings) a report is
        # judged at the tolerance its verify_* function defaults to
        verify = {"H_prime": verify_H_prime,
                  "pohozaev_model": verify_pohozaev_model,
                  "gradient_energy_transport": verify_rellich_general,
                  "surface_energy_scaling": verify_rellich_general,
                  "nonlinearity_transport": verify_f_transport,
                  "surface_vs_volume_energy": verify_surface_volume_D}
        seen = set()
        for spec, fld in ((model_specs[(3, 1.5)], radial_solutions[(3, 1.5)]),
                          (bowl.spec, bowl_field_256)):
            assert _grid_tolerance_factor(fld) == 1.0
            reports = run_all_identity_checks(spec, fld,
                                              frequency_profile(spec, fld))
            for name, rep in reports.items():
                if np.isfinite(rep.tolerance):  # the bounds carry inf
                    default = inspect.signature(verify[name]).parameters[
                        "tolerance"].default
                    assert rep.tolerance == default, name
                    seen.add(name)
        assert seen == set(verify)


class TestIntegralRadiusArgument:
    def test_scalar_at_radius(self, linear_mode_spec):
        fld = sample_grid2d(lambda x: np.ones(x.shape[:-1]), 1.0, 64, 128, 1.5)
        data = _node_data(linear_mode_spec, fld)
        assert fld.r[64] == pytest.approx(1.0) and fld.r[32] == pytest.approx(0.5)
        assert data.sphere(fld.u ** 2)[64] == pytest.approx(2 * np.pi, rel=1e-13)
        area = data.ball(np.ones_like(fld.u))[32]
        assert area == pytest.approx(np.pi * 0.25, rel=1e-10)


class TestNPrimeDegenerateEquality:
    def test_linear_degree_one_all_zero(self, linear_mode_spec):
        # N == 1, N' == 0, bound RHS == 0, quadratic-form gap == 0
        fld = sample_grid2d(lambda x: x[..., 0], 1.0, 96, 192, 1.5)
        prof = frequency_profile(linear_mode_spec, fld)
        rep = verify_N_prime_bound(linear_mode_spec, fld, prof)
        assert np.nanmax(np.abs(rep.lhs)) <= 1e-7       # N' == 0
        assert np.nanmax(np.abs(rep.rhs)) <= 1e-12      # RHS == 0
        assert np.nanmax(np.abs(rep.details["cs_gap"])) <= 1e-12
        assert rep.details["inequality_ok"]


class TestU2BoundEquality:
    def test_homogeneous_default_floor_attains_ceiling(self, model_specs,
                                                       radial_solutions):
        # radial fields are constant on spheres: the bound is an equality
        # when kappa2 takes its canonical value eps0^q / q
        key = (3, 1.5)
        spec, fld = model_specs[key], radial_solutions[key]
        prof = frequency_profile(spec, fld)
        rep = verify_u2_bounds(spec, fld, prof)
        ceff = np.asarray(rep.details["effective_constant"])
        pos = prof.dprime > 1e-30
        np.testing.assert_allclose(ceff[pos], rep.details["ceiling"],
                                   rtol=1e-12)


class TestTransportWithVariableCoefficientF:
    def test_explicit_grad1F_term(self):
        # x-dependent primitive: the transport identity needs the explicit
        # <grad_x F, Z> volume term, exact for any smooth field
        from freqlab.model import PowerTerm

        coef = lambda x: 1.0 + 0.5 * x[..., 0] ** 2
        cgrad = lambda x: np.stack([x[..., 0], np.zeros_like(x[..., 0])],
                                   axis=-1)
        nl = NonlinearitySpec.sum_of_powers([PowerTerm(1.5, coef, cgrad)],
                                            eps0=2.0, kappa1=2.0, kappa2=0.5)
        bowlA = CoefficientField.from_expressions(
            2, {"a11": "1 + x1^2/4", "a12": "0", "a22": "1"}, 0.7)
        spec = ProblemSpec(2, 1.0, bowlA, nl)
        fld = sample_grid2d(lambda x: (1 - x[..., 0] ** 2 - x[..., 1] ** 2) ** 2,
                            1.0, 128, 256, q=1.5)
        prof = frequency_profile(spec, fld)
        rep = verify_f_transport(spec, fld, prof, tolerance=5e-6)
        assert rep.passed, rep.rel_residual
        g1 = np.asarray(rep.details["grad1F_term"])
        # the term genuinely participates: dropping it would break the
        # identity by orders of magnitude more than the verified residual
        assert np.max(np.abs(g1)) > 1e-4
        assert np.max(np.abs(g1)) > 100 * np.max(rep.abs_residual)


class TestCacheSafety:
    def test_distinct_specs_never_alias(self, linear_mode_spec):
        import gc

        fld = sample_grid2d(lambda x: x[..., 0], 1.0, 32, 64, 1.5)
        prof1 = frequency_profile(linear_mode_spec, fld)
        # churn through many short-lived specs to invite id() reuse
        for _ in range(50):
            tmp = ProblemSpec.model(2, 1.5, outer_radius=1.0)
            frequency_profile(tmp, fld)
            del tmp
            gc.collect()
        prof2 = frequency_profile(linear_mode_spec, fld)
        np.testing.assert_array_equal(prof1.N, prof2.N)

    def test_a_second_spec_releases_the_first_specs_node_data(self):
        # a field keeps the node data of its last spec only: six specs once
        # kept six node data sets alive on one field
        import gc
        import weakref

        fld = sample_grid2d(lambda x: 0.5 + x[..., 0], 1.0, 32, 64, 1.5)
        first, second = (ProblemSpec.model(2, 1.5) for _ in range(2))
        frequency_profile(first, fld)
        released = weakref.ref(_node_data(first, fld))
        gc.collect()
        assert released() is not None  # the field holds it
        frequency_profile(second, fld)
        gc.collect()
        assert released() is None
        assert _node_data(second, fld) is _node_data(second, fld)


class TestConcurrentAudits:
    def test_threaded_audits_match_serial(self, model_specs, radial_solutions):
        import concurrent.futures
        import json

        from freqlab.audit import audit

        keys = list(model_specs)

        def run(key):
            # fresh field object per task: no shared caches between threads
            from freqlab.fields import SolutionField

            src = radial_solutions[key]
            fld = SolutionField.radial_from_arrays(src.r, src.u, src.du,
                                                   src.dim, src.q)
            return json.dumps(audit(model_specs[key], fld).to_dict(),
                              sort_keys=True)

        serial = [run(k) for k in keys]
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(run, keys))
        assert serial == threaded


class TestGeneralRouteRadialHPrime:
    def test_rotation_perturbed_reduces_exactly(self, radial_solutions):
        # A nu = nu on radial gradients for this family, so the general
        # divergence term must coincide with (N-1)/r H exactly
        src = radial_solutions[(2, 1.5)]
        from freqlab.fields import SolutionField

        fld = SolutionField.radial_from_arrays(src.r, src.u, src.du, 2, 1.5)
        spec = ProblemSpec(2, 1.5, CoefficientField.rotation_perturbed(0.2, 2),
                           NonlinearitySpec.homogeneous(1.5))
        prof = frequency_profile(spec, fld)
        rep = verify_H_prime(spec, fld, prof, tolerance=1e-6)
        assert rep.passed, rep.rel_residual
        model_rhs = 2.0 * prof.surfaceD + (2 - 1) / prof.r * prof.H
        np.testing.assert_allclose(rep.rhs, model_rhs, rtol=1e-10)

    def test_identities_match_the_model_spec(self, tmp_path):
        # a radial field under rotation_perturbed poses the model equation,
        # so it gets the model identities too, with the same bytes
        from freqlab.frequency import write_identity_reports

        model = ProblemSpec.model(3, 1.5, outer_radius=1.5)
        fld = solve_radial(model, 0.5, h=1e-3)
        rotated = ProblemSpec(3, 1.5, CoefficientField.rotation_perturbed(0.2, 3),
                              NonlinearitySpec.homogeneous(1.5))
        written = []
        for name, spec in (("model", model), ("rotated", rotated)):
            reports = run_all_identity_checks(spec, fld, frequency_profile(spec, fld))
            assert "pohozaev_model" in reports
            assert "frequency_derivative_bound" in reports
            (tmp_path / name).mkdir()
            json_path, _ = write_identity_reports(reports, tmp_path / name)
            with open(json_path, "rb") as fh:
                written.append(fh.read())
        assert written[0] == written[1]


class TestCoarseGridGuard:
    def test_too_few_radii_raises_clearly(self, linear_mode_spec):
        fld = sample_grid2d(lambda x: x[..., 0], 1.0, 8, 16, 1.5)
        with pytest.raises(ValueError, match="too coarse"):
            frequency_profile(linear_mode_spec, fld)


class TestRouteGuards:
    # the model identities need the model problem, the general ones a grid
    @pytest.mark.parametrize("verify, message", [
        (verify_pohozaev_model, "model derivative identity needs the model"),
        (verify_N_prime_bound, "frequency derivative bound needs the model"),
    ])
    def test_model_identities_refuse_variable_coefficients(
            self, variable_coefficients_spec, verify, message):
        spec = variable_coefficients_spec
        fld = sample_grid2d(lambda x: 1.0 + 0.3 * x[..., 0], spec.outer_radius,
                            32, 64, spec.nonlinearity.q)
        with pytest.raises(ValueError, match=message):
            verify(spec, fld, frequency_profile(spec, fld))

    def test_general_identities_refuse_a_radial_field(self, model_specs,
                                                      radial_solutions):
        spec, fld = model_specs[(2, 1.5)], radial_solutions[(2, 1.5)]
        with pytest.raises(ValueError, match="need a grid2d field"):
            verify_rellich_general(spec, fld, frequency_profile(spec, fld))


class TestCorrectedEqualityOnNonSolution:
    def test_glued_field_satisfies_the_corrected_derivative_equality(self):
        # the corrected frequency-derivative equality holds for ANY smooth
        # field once the residual terms are kept; on the glued candidate
        # N' spans three orders of magnitude and the equality tracks it
        # within the differentiation budget
        from freqlab.fields import glued_field

        spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
        fld = glued_field(2, 1.5, 0.3, 0.8, h=1e-3)
        prof = frequency_profile(spec, fld, ProfileControls(n_radii=10 ** 6))
        rep = verify_N_prime_bound(spec, fld, prof)
        eq = np.asarray(rep.details["equality_residual"])
        ok = np.isfinite(eq) & np.isfinite(rep.lhs)
        assert ok.sum() > 100
        rel = np.abs(eq[ok]) / np.maximum(np.abs(rep.lhs[ok]), 1.0)
        assert np.max(rel) <= 0.01


class TestSurfaceConvexityGate:
    def test_f_breaking_A3_i_fails_nonlinearity_transport(self):
        # surface_convexity_ok gates the report like any *_ok detail.  With
        # f s = |s|^p = p F, A3.i (f s <= q F) holds for p = q = 1.5 and
        # breaks for p = 1.9; the transport identity holds either way, so
        # the flag alone fails the report
        fld = sample_grid2d(lambda x: 1.0 + 0.3 * x[..., 0], 1.0, 32, 64, 1.5)
        reps = {}
        for p in (1.5, 1.9):
            nl = NonlinearitySpec.tabulated(
                lambda x, s, p=p: np.sign(s) * np.abs(s) ** (p - 1.0), 1.5)
            spec = ProblemSpec(2, 1.0, CoefficientField.identity(2), nl)
            reps[p] = run_all_identity_checks(
                spec, fld, frequency_profile(spec, fld))["nonlinearity_transport"]
            assert reps[p].rel_residual <= reps[p].tolerance
        assert reps[1.5].details["surface_convexity_ok"] and reps[1.5].passed
        assert not reps[1.9].details["surface_convexity_ok"]
        assert not reps[1.9].passed


class TestDivAGradAbsx:
    """The node field div(A grad |x|) that H' reads, against closed forms."""

    @pytest.mark.parametrize("kind", ["identity", "rotation_perturbed",
                                      "diagonal", "bowl"])
    def test_grid_closed_form(self, kind):
        from freqlab.fields import manufactured_bowl

        fld = sample_grid2d(lambda x: 1.0 + x[..., 0], 1.0, 32, 64, 1.5)
        x1, x2 = np.moveaxis(fld.points()[1:], -1, 0)
        r = np.hypot(x1, x2)
        a11 = 1.0 + x1 ** 2 / 4.0  # the bowl's A = diag(a11, 1)
        coeff, want = {
            # A x = x for the first two
            "identity": (CoefficientField.identity(2), 1.0 / r),
            "rotation_perturbed": (CoefficientField.rotation_perturbed(0.3, 2),
                                   1.0 / r),
            "diagonal": (CoefficientField.diagonal([2.0, 0.5]),
                         2.5 / r - (2.0 * x1 ** 2 + 0.5 * x2 ** 2) / r ** 3),
            "bowl": (manufactured_bowl().spec.coefficients,
                     x1 ** 2 / (2.0 * r) + a11 * x2 ** 2 / r ** 3 + x1 ** 2 / r ** 3),
        }[kind]
        spec = ProblemSpec(2, 1.0, coeff, NonlinearitySpec.homogeneous(1.5))
        got = _node_data(spec, fld).div_a_grad_absx[1:]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_radial_closed_form(self):
        r = np.linspace(0.0, 1.0, 65)
        fld = SolutionField.radial_from_arrays(r, 1.0 - r ** 2, -2.0 * r, 3, 1.5)
        got = _node_data(ProblemSpec.model(3, 1.5, outer_radius=1.0),
                         fld).div_a_grad_absx
        assert got.shape == (65, 1)
        np.testing.assert_allclose(got[1:, 0], 2.0 / r[1:], rtol=1e-15, atol=0)


class TestCoefficientEvaluations:
    def test_one_polar_analysis(self, variable_coefficients_spec, monkeypatch):
        # A and its gradients, V and f are evaluated once per ring block,
        # for the node data: the residual, div(A grad |x|) and the audit
        # all read it
        from collections import Counter

        import freqlab.fields
        import freqlab.frequency
        from freqlab.audit import audit

        spec = variable_coefficients_spec
        coeff = spec.coefficients
        calls = Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for name in ("entries", "entry_gradients"):
            monkeypatch.setattr(coeff, name, counting(name, getattr(coeff, name)))
        monkeypatch.setattr(spec, "potential", counting("potential", spec.potential))
        eval_f = counting("eval_f", freqlab.frequency.eval_f)
        for module in (freqlab.frequency, freqlab.fields):
            monkeypatch.setattr(module, "eval_f", eval_f)
        fld = sample_grid2d(lambda x: 1.0 + 0.3 * x[..., 0] + 0.2 * x[..., 1] ** 2,
                            spec.outer_radius, 32, 64, spec.nonlinearity.q)
        prof = frequency_profile(spec, fld)
        run_all_identity_checks(spec, fld, prof)
        audit(spec, fld)
        blocks = len(freqlab.fields._ring_blocks(*fld.u.shape,
                                                 freqlab.fields._MIN_BLOCKS))
        assert blocks == 8
        assert calls == {"entries": blocks, "entry_gradients": blocks,
                         "potential": blocks, "eval_f": blocks}

    def test_one_f_evaluation_per_radial_pass(self, model_specs, monkeypatch):
        # the radial rows and the residual read one evaluation of f, and the
        # residual keeps the bits of residual_field's
        import freqlab.fields
        import freqlab.frequency
        from freqlab.fields import residual_field

        spec = model_specs[(2, 1.5)]
        fld = solve_radial(spec, 0.5, h=1e-2)
        want = np.nan_to_num(residual_field(spec, fld), nan=0.0)
        calls = []

        def counted(*args, eval_f=freqlab.frequency.eval_f):
            calls.append(args)
            return eval_f(*args)

        for module in (freqlab.frequency, freqlab.fields):
            monkeypatch.setattr(module, "eval_f", counted)
        data = _node_data(spec, fld)
        assert len(calls) == 1
        assert data.rho0[:, 0].tobytes() == want.tobytes()

    def test_residual_from_node_values_is_bit_identical(self, variable_coefficients_spec):
        # the analysis's rho, built from the node data's A grad u, V and f,
        # is residual_field's, with its unformed (NaN) rows as 0
        from freqlab.fields import residual_field

        spec = variable_coefficients_spec
        fld = sample_grid2d(lambda x: 1.0 + 0.3 * x[..., 0] + 0.2 * x[..., 1] ** 2,
                            spec.outer_radius, 32, 64, spec.nonlinearity.q)
        want = residual_field(spec, fld)
        assert _node_data(spec, fld).rho0.tobytes() == \
            np.nan_to_num(want, nan=0.0).tobytes()


class TestNodeDataMemory:
    def test_the_residual_builds_no_points(self, variable_coefficients_spec,
                                           monkeypatch):
        # the node data hands the residual A grad u, V and f, so neither it
        # nor the block pass asks the field for its points
        spec = variable_coefficients_spec
        fld = sample_grid2d(lambda x: 1.0 + 0.3 * x[..., 0] + 0.2 * x[..., 1] ** 2,
                            spec.outer_radius, 64, 128, spec.nonlinearity.q)

        def refuse(self):
            raise AssertionError("points() called")

        monkeypatch.setattr(SolutionField, "points", refuse)
        prof = frequency_profile(spec, fld)
        run_all_identity_checks(spec, fld, prof)
        audit(spec, fld)

    def test_the_analysis_peaks_below_the_solve(self):
        # profile + identities + audit of the bowl hold less at their peak
        # than the solve that made the field (tracemalloc, after a small
        # run has made every import)
        import gc
        import tracemalloc

        from freqlab.fields import manufactured_bowl

        mp = manufactured_bowl(amplitude=1.0, v0=0.25)

        def solve(n_r, n_theta):
            return solve_grid_2d(mp.spec, mp.boundary, n_r=n_r,
                                 n_theta=n_theta, source=mp.source)

        def analyse(fld):
            run_all_identity_checks(mp.spec, fld, frequency_profile(mp.spec, fld))
            audit(mp.spec, fld)

        analyse(solve(32, 64))
        gc.collect()
        tracemalloc.start()
        try:
            fld = solve(64, 128)
            solve_peak = tracemalloc.get_traced_memory()[1]
            gc.collect()
            tracemalloc.reset_peak()
            analyse(fld)
            analysis_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert analysis_peak <= solve_peak


class TestReportEncoding:
    def test_to_dict_is_what_write_json_writes(self, tmp_path):
        import json

        from freqlab.frequency import IdentityReport
        from freqlab.io import write_json

        rep = IdentityReport(
            "encoded", np.array([0.1, 0.2]), np.array([1.0, np.nan]),
            np.array([1.0, np.inf]), np.inf,
            {"margins": np.array([np.nan, -np.inf, 1.5]),
             "count": np.int64(3), "flag_ok": np.bool_(True),
             "worst": np.float64(-np.inf),
             "terms": {"t": np.array([2.0, np.nan])}})
        path = write_json(tmp_path / "report.json", rep.to_dict())
        assert rep.to_dict() == json.loads(path.read_text())

    def test_write_json_takes_json_ready_input(self, tmp_path):
        # reports are encoded once, by to_dict(); write_json encodes no
        # further and refuses what strict JSON cannot hold
        from freqlab.io import write_json

        path = write_json(tmp_path / "ok.json", {"b": [1.5, None], "a": True})
        assert path.read_text() == '{\n "a": true,\n "b": [\n  1.5,\n  null\n ]\n}\n'
        with pytest.raises(ValueError):
            write_json(tmp_path / "nan.json", {"x": float("nan")})
        with pytest.raises(ValueError):
            write_json(tmp_path / "inf.json", {"x": np.float64(np.inf)})
        with pytest.raises(TypeError):
            write_json(tmp_path / "array.json", {"x": np.array([1.0])})

    def test_text_holds_the_verdict_and_the_archive_the_arrays(self, tmp_path):
        import json

        from freqlab.frequency import IdentityReport, write_identity_reports

        rep = IdentityReport(
            "encoded", np.array([0.1, 0.2, 0.3, 0.4]),
            np.array([1.0, np.nan, 2.0, -np.inf]),
            np.array([1.5, 1.0, 2.25, 1.0]), 1e-3,
            {"margins": np.array([np.nan, -np.inf, np.inf, 1.5]),
             "flag_ok": np.bool_(False), "worst": np.float64(-np.inf),
             "terms.t": np.array([2.0, np.nan]), "terms.note": "kept"})
        blob = rep.to_dict()
        assert blob == {
            "schema_version": 2, "name": "encoded", "verdict": "fail",
            "rel_residual": 0.5 / 2.25, "tolerance": 1e-3,
            "worst_radius": 0.1, "worst_abs_residual": 0.5,
            "details": {"nan_radii": 2, "flag_ok": False, "worst": None,
                        "terms.note": "kept"}}
        arrays = rep.arrays()
        assert list(arrays) == ["radii", "lhs", "rhs", "margins", "terms.t"]

        paths = write_identity_reports({"b": rep, "a": rep}, tmp_path)
        text, archive = tmp_path / "identities.json", tmp_path / "identities.npz"
        assert list(paths) == [str(text), str(archive)]
        assert json.loads(text.read_text()) == {"schema_version": 2,
                                                "a": blob, "b": blob}
        with np.load(archive, allow_pickle=False) as data:
            assert json.loads(str(data["header"])) == {
                "format": "freqlab-identities 2"}
            stored = {key: data[key] for key in data.files if key != "header"}
        assert list(stored) == [f"{name}.{key}" for name in "ab" for key in arrays]
        for key, value in stored.items():
            want = arrays[key.split(".", 1)[1]]
            assert value.dtype == want.dtype and value.tobytes() == want.tobytes()

    def test_no_finite_radius_has_no_worst_radius(self):
        from freqlab.frequency import IdentityReport

        rep = IdentityReport("nan", np.array([0.1, 0.2]), np.array([np.nan, 1.0]),
                             np.array([1.0, np.inf]), 1e-3)
        blob = rep.to_dict()
        assert blob["worst_radius"] is None and blob["worst_abs_residual"] is None
        assert blob["rel_residual"] == 0.0 and blob["verdict"] == "fail"

    @pytest.mark.parametrize("tolerance", [1e-3, np.inf])
    def test_nan_radius_does_not_hide_the_residual(self, tolerance):
        from freqlab.frequency import IdentityReport

        rep = IdentityReport("nan", np.array([0.1, 0.2, 0.3, 0.4]),
                             np.array([1.0, np.nan, 2.0, np.inf]),
                             np.array([1.5, 1.0, np.nan, 1.0]), tolerance)
        # only radius 0.1 has both sides finite: residual 0.5 on scale 1.5
        assert rep.scale == 1.5
        assert rep.rel_residual == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert rep.details["nan_radii"] == 3
        assert rep.to_dict()["rel_residual"] == rep.rel_residual
        assert not rep.passed  # a NaN radius still fails the report

    def test_finite_report_counts_no_nan_radii(self):
        from freqlab.frequency import IdentityReport

        rep = IdentityReport("finite", np.array([0.1, 0.2]), np.array([1.0, 2.0]),
                             np.array([1.0, 2.0 + 1e-9]), 1e-6)
        assert rep.details == {"nan_radii": 0}
        assert rep.passed


# the grid field of the schema-1 pin: the solve of _pinned_grid_problem,
# stored as written, so solver round-off cannot move the pinned verdicts
_PINNED_GRID_FIELD = os.path.join(os.path.dirname(__file__), "data",
                                  "schema1_grid2d_field.npz")


def _pinned_grid_problem():
    spec = ProblemSpec.model(2, 1.5, outer_radius=1.0)
    return spec, lambda th: 0.2 * np.cos(th), 32, 64


def _pinned_fields():
    spec = ProblemSpec.model(3, 1.5, outer_radius=6.0)
    yield "radial", spec, solve_radial(spec, 0.5, h=1e-4)
    yield "grid2d", _pinned_grid_problem()[0], load_field(_PINNED_GRID_FIELD)


def test_the_pinned_grid_field_is_the_solve_of_its_problem():
    spec, boundary, n_r, n_t = _pinned_grid_problem()
    fld = solve_grid_2d(spec, boundary, n_r=n_r, n_theta=n_t)
    assert np.max(np.abs(fld.u - load_field(_PINNED_GRID_FIELD).u)) <= 1e-9


def _longest_list(obj):
    if isinstance(obj, dict):
        return max(map(_longest_list, obj.values()), default=0)
    if isinstance(obj, list):
        return max([len(obj), *map(_longest_list, obj)])
    return 0


def test_split_reports_keep_the_schema_1_verdicts(tmp_path):
    # tests/data/identity_verdicts_schema1.json holds the verdict,
    # rel_residual, tolerance and scalar details of each report for these
    # two fields (the grid one read from its archive, so these are the
    # writer's bits, not the solver's), in the key layout of the schema-1
    # writer (per-radius
    # arrays in the JSON); the values are those of the profile derivatives
    # taken at the node step, where the radial H_prime and pohozaev_model
    # pass; frequency_derivative_bound's slack is per radius, an array
    import json
    import pathlib

    from freqlab.frequency import write_identity_reports

    pinned = json.loads((pathlib.Path(__file__).parent / "data"
                         / "identity_verdicts_schema1.json").read_text())
    for item, spec, fld in _pinned_fields():
        prof = frequency_profile(spec, fld, ProfileControls(n_radii=800))
        reports = run_all_identity_checks(spec, fld, prof)
        out = tmp_path / item
        out.mkdir()
        write_identity_reports(reports, out)
        blob = json.loads((out / "identities.json").read_text())
        assert _longest_list(blob) <= 8
        assert sorted(blob) == sorted([*pinned[item], "schema_version"])
        for name, want in pinned[item].items():
            got = blob[name]
            assert {key: got[key] for key in want} == want, (item, name)
            assert got["rel_residual"] == reports[name].rel_residual
        with np.load(out / "identities.npz", allow_pickle=False) as data:
            stored = {key: data[key] for key in data.files if key != "header"}
        want = {f"{name}.{key}": value for name, rep in reports.items()
                for key, value in rep.arrays().items()}
        assert sorted(stored) == sorted(want)
        for key, value in want.items():
            assert stored[key].tobytes() == value.tobytes(), key


class TestReassignedArrays:
    # a field cannot change after it is built: its arrays are read-only and
    # its attributes frozen, and a changed field is a new one, made with
    # dataclasses.replace, which gets fresh node data

    def test_arrays_and_attributes_are_read_only(self):
        fld = sample_grid2d(lambda x: x[..., 0], 1.0, 32, 64, 1.5)
        for name in ("r", "u", "theta"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(fld, name)[1] *= 2
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(fld, name, 2 * getattr(fld, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            fld.q = 1.2

    def test_owned_arrays_are_kept_and_views_of_writable_memory_copied(self):
        r, u = 0.1 * np.arange(11), np.ones(11)
        fld = SolutionField.radial_from_arrays(r, u, np.zeros(11), 2, 1.5)
        assert fld.r is r and fld.u is u
        block = np.stack([np.linspace(0.0, 1.0, 11), np.ones(11), np.zeros(11)])
        fld = SolutionField.radial_from_arrays(block[0], block[1], block[2], 2, 1.5)
        block[1] = 2.0
        np.testing.assert_array_equal(fld.u, np.ones(11))

    def test_radial_profile_follows_doubled_u(self):
        spec = ProblemSpec.model(2, 1.5, outer_radius=1.5)
        fld = solve_radial(spec, 0.5, h=1e-3)
        with pytest.raises(ValueError, match="read-only"):
            fld.u *= 2
        with pytest.raises(ValueError, match="read-only"):
            fld.du[3] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            fld.u = 2 * fld.u
        before = frequency_profile(spec, fld).H
        doubled = dataclasses.replace(fld, u=2 * fld.u, du=2 * fld.du)
        after = frequency_profile(spec, doubled).H
        fresh = solve_radial(spec, 0.5, h=1e-3)
        fresh = dataclasses.replace(fresh, u=2 * fresh.u, du=2 * fresh.du)
        np.testing.assert_allclose(after[1:], 4 * before[1:], rtol=1e-12)
        np.testing.assert_array_equal(after, frequency_profile(spec, fresh).H)
        np.testing.assert_array_equal(frequency_profile(spec, fld).H, before)

    def test_grid_profile_and_gradient_follow_doubled_u(self, linear_mode_spec):
        fld = sample_grid2d(lambda x: x[..., 0], 1.0, 32, 64, 1.5)
        gx, _ = cartesian_gradient(fld.u, fld.r, fld.theta)
        before = frequency_profile(linear_mode_spec, fld).D
        with pytest.raises(ValueError, match="read-only"):
            fld.u *= 2
        doubled = dataclasses.replace(fld, u=2 * fld.u)
        np.testing.assert_allclose(
            cartesian_gradient(doubled.u, doubled.r, doubled.theta)[0], 2 * gx,
            rtol=1e-12)
        after = frequency_profile(linear_mode_spec, doubled).D
        np.testing.assert_allclose(after[1:], 4 * before[1:], rtol=1e-12)


class TestBallCheck:
    def test_half_integer_radius_over_step_is_the_solvers_ball(self, model_specs):
        # R / h = 187.5: the solver takes round(187.5) = 188 steps and ends
        # at 1.504, more than h/2 from R by a few ulps
        spec = model_specs[(3, 1.5)]
        fld = solve_radial(spec, 0.5, h=8e-3)
        assert len(fld.r) == 189
        assert np.all(np.isfinite(frequency_profile(spec, fld).H[1:]))
        assert audit(spec, fld).classification == "genuine_nonvanishing"

    @pytest.mark.parametrize("dim, radius", [(2, 1.5), (3, 1.496), (3, 1.512)])
    def test_another_ball_raises(self, model_specs, dim, radius):
        fld = solve_radial(model_specs[(3, 1.5)], 0.5, h=8e-3)
        with pytest.raises(ValueError, match="is not the field's"):
            frequency_profile(ProblemSpec.model(dim, 1.5, outer_radius=radius),
                              fld)
