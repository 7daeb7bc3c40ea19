import math
import os
import subprocess
import sys

import numpy as np
import pytest

import freqlab
from freqlab.fields import (SolutionField, SolverError, glued_field, load_field,
                            residual_field, sample_grid2d, save_field,
                            solve_grid_2d, solve_radial)
from freqlab.fields import (_FourierFactor, _nodes, _polar_frame_entries,
                            _Stencil, _stencil_terms, glued_residual_exact)
from freqlab.model import (CoefficientField, NonlinearitySpec, ProblemSpec,
                           eval_f)


class TestRadialSolve:
    def test_residual_scale_is_fourth_order(self, model_specs):
        # steps chosen above the finite-difference round-off floor eps/h^2
        spec = model_specs[(3, 1.5)]
        coarse = solve_radial(spec, 0.5, h=8e-3)
        fine = solve_radial(spec, 0.5, h=4e-3)
        ratio = coarse.residual_scale / fine.residual_scale
        assert 8.0 <= ratio <= 40.0  # ~16 for a fourth-order scheme

    def test_q1_small_amplitude_residual(self):
        spec = ProblemSpec.model(3, 1.0, outer_radius=0.5)
        fld = solve_radial(spec, 0.1, h=1e-3)
        assert fld.residual_scale <= 1e-8

    def test_amplitude_controls_sup(self, model_specs):
        spec = model_specs[(2, 1.5)]
        a_full = solve_radial(spec, 0.5, h=2e-3)
        a_half = solve_radial(spec, 0.25, h=2e-3)
        assert np.max(np.abs(a_full.u)) == pytest.approx(0.5, rel=1e-12)
        assert np.max(np.abs(a_half.u)) == pytest.approx(0.25, rel=1e-12)

    def test_rejects_amplitude_outside_open_interval(self, model_specs):
        with pytest.raises(ValueError):
            solve_radial(model_specs[(2, 1.5)], 0.0)
        with pytest.raises(ValueError):
            solve_radial(model_specs[(2, 1.5)], 1.5)  # eps0 = 1


class TestGrid2dSolve:
    def test_harmonic_polynomials_second_order(self, linear_mode_spec):
        errs = []
        for M in (16, 32, 64):
            fld = solve_grid_2d(linear_mode_spec, lambda th: np.cos(th),
                                n_r=M, n_theta=2 * M, tol=1e-12, max_iters=60)
            exact = fld.r[:, None] * np.cos(fld.theta)[None, :]
            errs.append(np.max(np.abs(fld.u - exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((1.8 <= orders) & (orders <= 2.2))

    def test_degree_two_harmonic(self, linear_mode_spec):
        fld = solve_grid_2d(linear_mode_spec, lambda th: np.cos(2 * th),
                            n_r=48, n_theta=96, tol=1e-12, max_iters=60)
        exact = fld.r[:, None] ** 2 * np.cos(2 * fld.theta)[None, :]
        assert np.max(np.abs(fld.u - exact)) < 2e-3

    def test_manufactured_recovery_second_order(self, bowl):
        errs = []
        for M in (24, 48):
            fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=M, n_theta=2 * M,
                                source=bowl.source, tol=1e-12, max_iters=200)
            errs.append(np.max(np.abs(fld.u - bowl.u(fld.points()))))
        order = math.log2(errs[0] / errs[1])
        assert 1.8 <= order <= 2.2

    def test_matches_radial_solution_through_trace(self, model_specs):
        spec = ProblemSpec.model(2, 1.5, outer_radius=1.0)
        rad = solve_radial(spec, 0.5, h=1e-3)
        trace = float(rad.u[-1])
        fld = solve_grid_2d(spec, lambda th: np.full_like(th, trace),
                            n_r=64, n_theta=64, tol=1e-12, max_iters=300)
        # compare on common radii
        idx = (fld.r / rad.h).round().astype(int)
        exact = rad.u[idx]
        err = np.max(np.abs(fld.u - exact[:, None]))
        assert err <= 10.0 * 2e-4  # 10x the measured discretization error

    def test_iteration_distances_monotone_after_five(self, bowl):
        fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=32, n_theta=64,
                            source=bowl.source, tol=1e-12, max_iters=200)
        d = fld.meta["solver"]["distances"]
        assert all(b <= a for a, b in zip(d[5:], d[6:]))

    def test_nonconvergence_raises_with_last_iterate(self, bowl):
        with pytest.raises(SolverError) as err:
            solve_grid_2d(bowl.spec, bowl.boundary, n_r=16, n_theta=32,
                          source=bowl.source, tol=1e-14, max_iters=2)
        assert err.value.distance is not None
        assert err.value.last is not None

    @pytest.mark.parametrize("n_r, n_theta, message", [
        (3, 16, "at least 4 rings"), (8, 0, "even angular count"),
        (8, 15, "even angular count")])
    def test_rejects_grid_too_small_or_odd(self, bowl, n_r, n_theta, message):
        with pytest.raises(ValueError, match=message):
            solve_grid_2d(bowl.spec, bowl.boundary, n_r=n_r, n_theta=n_theta,
                          source=bowl.source)

    def test_rejects_max_iters_below_one(self, bowl):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            solve_grid_2d(bowl.spec, bowl.boundary, n_r=8, n_theta=16,
                          source=bowl.source, max_iters=0)

    def test_rejects_initial_of_wrong_length(self, bowl):
        with pytest.raises(ValueError, match=r"n_theta = 113\b"):
            solve_grid_2d(bowl.spec, bowl.boundary, n_r=8, n_theta=16,
                          source=bowl.source, initial=np.zeros(4))

    def test_rejects_non_finite_initial(self, bowl):
        initial = np.zeros(1 + 7 * 16)
        initial[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            solve_grid_2d(bowl.spec, bowl.boundary, n_r=8, n_theta=16,
                          source=bowl.source, initial=initial)

    def test_bowl_takes_one_inner_step_per_iteration(self, bowl):
        # the theta-mean of L is about 1% off L on the bowl, well inside
        # the inner tolerance; the preconditioner stores gttrf's four bands
        fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=64, n_theta=128,
                            source=bowl.source)
        solver = fld.meta["solver"]
        assert solver["inner_iterations"] == solver["iterations"]
        assert solver["preconditioner_entries"] == 4 * (1 + 63 * 65) - 4


def _loop_assembly(spec, r_nodes, theta):
    """Ring-by-ring assembly of (L, B): the reference for the broadcast
    version in freqlab.fields."""
    import scipy.sparse as sp

    M = len(r_nodes) - 1
    n_t = len(theta)
    dr = float(r_nodes[1] - r_nodes[0])
    dth = float(theta[1] - theta[0])
    n_unknown = 1 + (M - 1) * n_t

    def unk(i, j):
        if i == 0:
            return np.zeros_like(np.asarray(j)) if np.ndim(j) else 0
        return 1 + (i - 1) * n_t + (np.asarray(j) % n_t)

    rows, cols, vals = [], [], []
    brows, bcols, bvals = [], [], []

    def add(r_idx, i, j, val):
        if i == M:
            brows.append(r_idx)
            bcols.append(np.asarray(j) % n_t)
            bvals.append(val)
        else:
            rows.append(r_idx)
            cols.append(unk(i, j))
            vals.append(val)

    j = np.arange(n_t)
    half_r = r_nodes[:-1] + 0.5 * dr
    arr_f, art_f, _ = _polar_frame_entries(spec.coefficients, half_r, theta)
    _, art_t, att_t = _polar_frame_entries(spec.coefficients, r_nodes[1:M], theta + 0.5 * dth)

    for i in range(1, M):
        r_i = r_nodes[i]
        row = unk(i, j)
        scale_out = half_r[i] / (r_i * dr)
        scale_in = half_r[i - 1] / (r_i * dr)

        c = arr_f[i] * scale_out / dr
        add(row, i + 1, j, c)
        add(row, i, j, -c)
        cx = art_f[i] * scale_out / (half_r[i] * 4.0 * dth)
        for di, dj, s in ((0, 1, 1.0), (0, -1, -1.0), (1, 1, 1.0), (1, -1, -1.0)):
            add(row, i + di, j + dj, s * cx)

        c = arr_f[i - 1] * scale_in / dr
        add(row, i, j, -c)
        add(row, i - 1, j, c)
        cx = art_f[i - 1] * scale_in / (half_r[i - 1] * 4.0 * dth)
        if i - 1 == 0:
            for dj, s in ((1, 1.0), (-1, -1.0)):
                add(row, i, j + dj, -s * cx)
        else:
            for di, dj, s in ((0, 1, 1.0), (0, -1, -1.0), (-1, 1, 1.0), (-1, -1, -1.0)):
                add(row, i + di, j + dj, -s * cx)

        scale_t = 1.0 / (r_i * dth)
        ct = att_t[i - 1] * scale_t / (r_i * dth)
        add(row, i, j + 1, ct)
        add(row, i, j, -ct)
        ctm = np.roll(att_t[i - 1], 1) * scale_t / (r_i * dth)
        add(row, i, j, -ctm)
        add(row, i, j - 1, ctm)
        cxp = art_t[i - 1] * scale_t / (4.0 * dr)
        cxm = np.roll(art_t[i - 1], 1) * scale_t / (4.0 * dr)
        for dj_face, coefs in ((0, cxp), (-1, cxm)):
            s = 1.0 if dj_face == 0 else -1.0
            for di, dj2, s2 in ((1, 0, 1.0), (-1, 0, -1.0), (1, 1, 1.0), (-1, 1, -1.0)):
                add(row, i + di, j + dj_face + dj2, s * s2 * coefs)

    pole_row = np.zeros(n_t, dtype=int)
    disk_scale = dth / (math.pi * half_r[0])
    c = arr_f[0] * disk_scale / dr
    add(pole_row, 1, j, c)
    add(pole_row, 0, j, -c)
    cx = art_f[0] * disk_scale / (half_r[0] * 4.0 * dth)
    for dj, s in ((1, 1.0), (-1, -1.0)):
        add(pole_row, 1, j + dj, s * cx)

    rows = np.concatenate([np.ravel(x) for x in rows])
    cols = np.concatenate([np.ravel(x) for x in cols])
    vals = np.concatenate([np.broadcast_to(v, (n_t,)).ravel() for v in vals])
    L = sp.coo_matrix((-vals, (rows, cols)), shape=(n_unknown, n_unknown)).tocsc()
    br = np.concatenate([np.ravel(x) for x in brows])
    bc = np.concatenate([np.ravel(x) for x in bcols])
    bv = np.concatenate([np.broadcast_to(v, (n_t,)).ravel() for v in bvals])
    B = sp.coo_matrix((bv, (br, bc)), shape=(n_unknown, n_t)).tocsc()
    return L, B


class TestOperatorAssembly:
    @pytest.mark.parametrize("n_r, n_t", [(8, 16), (16, 32)])
    @pytest.mark.parametrize("coeff", ["bowl", "identity", "spiral"])
    def test_broadcast_matches_ring_loop(self, bowl, linear_mode_spec, coeff,
                                         n_r, n_t):
        # the matrix-free stencil gives B g - L x for the ring-loop (L, B)
        spec = {"bowl": bowl.spec, "identity": linear_mode_spec,
                "spiral": ProblemSpec(2, 1.0, _spiral(0.4),
                                      NonlinearitySpec.zero())}[coeff]
        r_nodes, theta = _grid(spec, n_r, n_t)
        if coeff == "bowl":  # θ-dependent entries, cross terms included
            _, art, _ = _polar_frame_entries(spec.coefficients, r_nodes, theta)
            assert np.max(np.abs(art)) > 1e-2
        stencil = _Stencil(_stencil_terms(spec, r_nodes, theta), n_r, n_t)
        L, B = _loop_assembly(spec, r_nodes, theta)
        rng = np.random.default_rng(n_r)
        x = rng.standard_normal(L.shape[0])
        g = rng.standard_normal(n_t)
        for got, ref in ((stencil.apply(_nodes(x, g)), B @ g - L @ x),
                         (stencil.apply(_nodes(x, 0.0 * g)), -(L @ x)),
                         (stencil.apply(_nodes(0.0 * x, g)), B @ g)):
            np.testing.assert_allclose(got, ref, rtol=1e-14,
                                       atol=1e-14 * np.max(np.abs(ref)))


def _spiral(c):
    """A = I + c (x x_perp^T + x_perp x^T): theta-invariant in the polar
    frame with a_rr = a_tt = 1 and a_rt = c |x|^2, so every cross term of
    the stencil is non-zero."""
    def entries(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 - 2.0 * c * x1 * x2
        out[..., 1, 1] = 1.0 + 2.0 * c * x1 * x2
        out[..., 0, 1] = out[..., 1, 0] = c * (x1 ** 2 - x2 ** 2)
        return out

    return CoefficientField(2, entries, None, None, "spiral")


def _grid(spec, n_r, n_t):
    return (np.linspace(0.0, spec.outer_radius, n_r + 1),
            np.arange(n_t) * (2.0 * math.pi / n_t))


def _superlu(spec, n_r, n_t):
    """SuperLU factor of the ring-loop L, and its B: the direct oracle."""
    import scipy.sparse.linalg as spla

    L, B = _loop_assembly(spec, *_grid(spec, n_r, n_t))
    return spla.splu(L, permc_spec="MMD_AT_PLUS_A"), B


def _superlu_fixed_point(spec, boundary, n_r, n_t, source=None,
                         damping=0.5, tol=1e-10, max_iters=400):
    """u <- damping u + (1-damping) L^{-1}(rhs(u) + B g) with L factored
    directly: the damped Picard iteration the solver's inner GMRES must
    reproduce.  Returns the node values and the iteration count."""
    r_nodes, theta = _grid(spec, n_r, n_t)
    lu, B = _superlu(spec, n_r, n_t)
    g = boundary(theta)
    bc = B @ g
    pts = np.stack([r_nodes[:n_r, None] * np.cos(theta),
                    r_nodes[:n_r, None] * np.sin(theta)], axis=-1)
    src = np.zeros(pts.shape[:-1]) if source is None else source(pts)
    V = spec.V(pts)
    u = np.zeros(1 + (n_r - 1) * n_t)
    for it in range(1, max_iters + 1):
        nodes = np.vstack([np.full(n_t, u[0]), u[1:].reshape(n_r - 1, n_t)])
        rows = V * nodes + eval_f(spec.nonlinearity, pts, nodes) + src
        rhs = np.concatenate([rows[0, :1], rows[1:].ravel()])
        step = damping * u + (1.0 - damping) * lu.solve(rhs + bc)
        dist = np.max(np.abs(step - u))
        u = step
        if dist < tol:
            break
    values = np.vstack([np.full(n_t, u[0]), u[1:].reshape(n_r - 1, n_t), g])
    return values, it


def _rel_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestFourierSolve:
    @pytest.fixture(params=["identity", "rotation_perturbed", "linear_mode",
                            "spiral"])
    def invariant_spec(self, request, linear_mode_spec):
        if request.param == "linear_mode":
            return linear_mode_spec
        coeff = {"identity": CoefficientField.identity(2),
                 "rotation_perturbed": CoefficientField.rotation_perturbed(0.3),
                 "spiral": _spiral(0.4)}[request.param]
        return ProblemSpec(2, 1.0, coeff, NonlinearitySpec.homogeneous(1.5))

    @pytest.mark.parametrize("n_r, n_t", [(16, 32), (64, 128)])
    def test_matches_superlu(self, invariant_spec, n_r, n_t):
        terms = _stencil_terms(invariant_spec, *_grid(invariant_spec, n_r, n_t))
        lu, _ = _superlu(invariant_spec, n_r, n_t)
        fourier = _FourierFactor(terms, n_r, n_t)
        b = np.random.default_rng(n_r).standard_normal(1 + (n_r - 1) * n_t)
        assert _rel_gap(fourier.solve(b), lu.solve(b)) <= 1e-12

    def test_every_term_reaches_the_symbol(self):
        # a symbol that drops any one stencil term no longer reproduces L
        spec = ProblemSpec(2, 1.0, _spiral(0.4), NonlinearitySpec.zero())
        terms = _stencil_terms(spec, *_grid(spec, 16, 32))
        lu, _ = _superlu(spec, 16, 32)
        b = np.random.default_rng(1).standard_normal(1 + 15 * 32)
        ref = lu.solve(b)
        assert _rel_gap(_FourierFactor(terms, 16, 32).solve(b), ref) <= 1e-12
        for k in range(len(terms)):
            mutant = _FourierFactor(terms[:k] + terms[k + 1:], 16, 32)
            assert _rel_gap(mutant.solve(b), ref) > 1e-6, f"term {k}"

    def test_invariant_coefficients_take_the_fourier_path(self, invariant_spec):
        # the preconditioner is L itself: one inner step solves
        fld = solve_grid_2d(invariant_spec, lambda th: 0.3 + 0.1 * np.cos(th),
                            n_r=16, n_theta=32)
        solver = fld.meta["solver"]
        assert solver["inner_iterations"] == solver["iterations"]
        # gttrf's four bands
        assert solver["preconditioner_entries"] == 4 * (1 + 15 * 17) - 4

    @pytest.mark.parametrize("coeff", [
        "bowl", pytest.param([5, 1], id="diagonal5"),
        pytest.param([20, 1], id="diagonal20"), "variable_coefficients"])
    def test_theta_dependent_coefficients_match_superlu(
            self, bowl, variable_coefficients_spec, coeff):
        # constant diagonal A still has a_rr = d1 cos^2 + d2 sin^2 varying
        # with theta; at 20:1 the theta-mean is far enough from L that GMRES
        # takes several inner steps per iteration
        boundary, source = (lambda th: 0.3 + 0.1 * np.cos(th)), None
        if coeff == "bowl":
            spec, boundary, source = bowl.spec, bowl.boundary, bowl.source
        elif coeff == "variable_coefficients":
            spec = variable_coefficients_spec
        else:
            spec = ProblemSpec(2, 1.0, CoefficientField.diagonal(coeff),
                               NonlinearitySpec.homogeneous(1.5))
        ref, ref_iterations = _superlu_fixed_point(spec, boundary, 64, 128,
                                                   source=source)
        fld = solve_grid_2d(spec, boundary, n_r=64, n_theta=128, source=source)
        assert np.max(np.abs(fld.u - ref)) <= 1e-9
        assert fld.meta["solver"]["iterations"] <= ref_iterations + 3

    def test_cos1_lands_on_the_superlu_fixed_point_or_its_mirror(self):
        # the boundary 0.05 cos(theta - phi) is odd under x -> -x, and so is
        # f, so u and -u(-x) are both fixed points; round-off picks one
        spec = ProblemSpec.model(2, 1.5, outer_radius=1.0)
        n_r, n_t = 32, 64
        phase = _grid(spec, n_r, n_t)[1][5]  # a whole number of cells
        ref, _ = _superlu_fixed_point(
            spec, lambda th: 0.05 * np.cos(th - phase), n_r, n_t)
        mirror = -np.roll(ref, n_t // 2, axis=1)
        assert np.max(np.abs(ref - mirror)) > 1e-4  # two distinct fixed points

        fld = solve_grid_2d(spec, lambda th: 0.05 * np.cos(th - phase),
                            n_r=n_r, n_theta=n_t)
        solver = fld.meta["solver"]
        assert solver["inner_iterations"] == solver["iterations"]
        gap = min(np.max(np.abs(fld.u - ref)), np.max(np.abs(fld.u - mirror)))
        assert gap <= 1e-8


def _scipy_modules_after(code, prefix):
    """The loaded modules in package `prefix` after running `code` afresh."""
    src = os.path.dirname(os.path.dirname(freqlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += (f"; print(sorted(m for m in sys.modules "
             f"if (m + '.').startswith({prefix + '.'!r})))")
    out = subprocess.run([sys.executable, "-c", "import sys; " + code], env=env,
                         check=True, capture_output=True, text=True, timeout=60)
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    # scipy is only needed by the 2-D solver, which imports it on first use
    assert _scipy_modules_after("import freqlab, freqlab.cli", "scipy") == "[]"


def test_grid_solve_leaves_scipy_sparse_unloaded():
    # the solver is matrix-free; scipy.linalg.lapack does not load sparse
    code = ("from freqlab.fields import manufactured_bowl, solve_grid_2d; "
            "b = manufactured_bowl(); "
            "solve_grid_2d(b.spec, b.boundary, n_r=16, n_theta=32, source=b.source)")
    assert _scipy_modules_after(code, "scipy.sparse") == "[]"


class TestResidualField:
    def test_linear_field_zero_residual(self, linear_mode_spec):
        fld = sample_grid2d(lambda x: x[..., 0], 1.0, 64, 128, q=1.5)
        rho = residual_field(linear_mode_spec, fld)
        assert np.nanmax(np.abs(rho)) < 1e-10

    def test_sampled_exact_solution_fourth_order(self, bowl):
        norms = []
        for M in (64, 128):
            fld = bowl.to_field(n_r=M, n_theta=2 * M)
            rho = residual_field(bowl.spec, fld, source=bowl.source)
            norms.append(np.nanmax(np.abs(rho)))
        assert 8.0 <= norms[0] / norms[1] <= 40.0

    def test_glued_field_matches_closed_form(self):
        # rho = 2 w'' + (N-1)/r w' for the zero-core glued candidate
        g = glued_field(2, 1.5, 0.3, 0.8, h=1e-3)
        spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
        rho = residual_field(spec, g)
        exact = glued_residual_exact(g)
        mask = ~np.isnan(rho)
        assert np.max(np.abs(rho[mask] - exact[mask])) <= 1e-7
        assert np.nanmax(np.abs(rho)) > 1e-2  # detectably not a solution

    def test_solver_output_truncation_order(self, bowl):
        norms = []
        for M in (24, 48):
            fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=M, n_theta=2 * M,
                                source=bowl.source, tol=1e-12, max_iters=200)
            norms.append(fld.residual_scale)
        order = math.log2(norms[0] / norms[1])
        assert 1.6 <= order <= 2.4


class TestGradientConsistency:
    def test_machinery_vs_plain_differences(self, bowl_field_128):
        # spectral/five-point gradients agree with plain second-order
        # differences at the level of the coarser scheme
        fld = bowl_field_128
        gx, gy = fld.gradient_cartesian()
        u = fld.u
        h = fld.h
        ur_plain = np.empty_like(u)
        ur_plain[1:-1] = (u[2:] - u[:-2]) / (2 * h)
        ur_plain[0] = ur_plain[-1] = np.nan
        dth = fld.theta[1] - fld.theta[0]
        ut_plain = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2 * dth)
        with np.errstate(divide="ignore", invalid="ignore"):
            ut_plain = ut_plain / fld.r[:, None]
        ct, st = np.cos(fld.theta)[None, :], np.sin(fld.theta)[None, :]
        gx_plain = ur_plain * ct - ut_plain * st
        err = np.nanmax(np.abs(gx - gx_plain)[1:-1])
        assert err <= 5e-3  # second-order cross-check tolerance at 128 rings


class TestSerialization:
    def test_radial_round_trip(self, tmp_path, radial_solutions):
        fld = radial_solutions[(2, 1.5)]
        path = tmp_path / "radial.txt"
        save_field(fld, path)
        back = load_field(path)
        assert back.representation == "radial"
        assert back.dim == fld.dim and back.q == fld.q
        np.testing.assert_array_equal(back.r, fld.r)
        np.testing.assert_array_equal(back.u, fld.u)
        np.testing.assert_array_equal(back.du, fld.du)
        assert back.residual_scale == fld.residual_scale

    def test_grid_round_trip(self, tmp_path, bowl_field_128):
        path = tmp_path / "grid.txt"
        save_field(bowl_field_128, path)
        back = load_field(path)
        assert back.representation == "grid2d"
        np.testing.assert_array_equal(back.u, bowl_field_128.u)
        np.testing.assert_array_equal(back.theta, bowl_field_128.theta)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a field\n")
        with pytest.raises(ValueError):
            load_field(path)

    @staticmethod
    def _cut(path, n_rows):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-n_rows]))

    def test_rejects_truncated_radial_file(self, tmp_path):
        r = np.linspace(0.0, 1.0, 101)
        fld = SolutionField.radial_from_arrays(r, 1.0 - r ** 2, -2.0 * r, 2, 1.5)
        path = tmp_path / "radial.txt"
        save_field(fld, path)
        self._cut(path, 5)
        with pytest.raises(ValueError, match="count=101"):
            load_field(path)

    @pytest.mark.filterwarnings("ignore:loadtxt:UserWarning")  # empty data section
    @pytest.mark.parametrize("rows", ["", "0.0,1.0\n0.1,1.0\n"])
    def test_rejects_radial_rows_without_three_columns(self, tmp_path, rows):
        path = tmp_path / "radial.txt"
        path.write_text("# freqlab-field 1\nrepresentation=radial\nN=2\nq=1.5\n"
                        "r,u,du\n" + rows)
        with pytest.raises(ValueError, match="3 comma-separated values"):
            load_field(path)

    def test_rejects_truncated_grid_file(self, tmp_path):
        fld = sample_grid2d(lambda x: 2.0 - np.sum(x * x, axis=-1), 1.0, 16, 32, 1.5)
        path = tmp_path / "grid.txt"
        save_field(fld, path)
        self._cut(path, 40)
        with pytest.raises(ValueError, match="17 x 32"):
            load_field(path)

    def test_rejects_grid_file_with_repeated_node(self, tmp_path):
        fld = sample_grid2d(lambda x: 2.0 - np.sum(x * x, axis=-1), 1.0, 16, 32, 1.5)
        path = tmp_path / "grid.txt"
        save_field(fld, path)
        text = path.read_text()
        path.write_text(text.replace("\n16,31,", "\n16,30,"))
        with pytest.raises(ValueError, match="once each"):
            load_field(path)

    @staticmethod
    def _radial_file(tmp_path, r):
        fld = SolutionField.radial_from_arrays(r, 1.0 - r ** 2, -2.0 * r, 2, 1.5)
        path = tmp_path / "radial.txt"
        save_field(fld, path)
        return path

    @pytest.mark.parametrize("r, message", [
        (np.linspace(0.01, 1.0, 101), "must start at 0"),
        (np.linspace(0.0, 1.0, 101) ** 1.01, "uniform step"),
        (np.concatenate([np.linspace(0.0, 0.5, 51), np.linspace(0.52, 1.0, 25)]),
         "uniform step"),
        (np.linspace(0.0, 1.0, 101)[::-1], "must start at 0"),
        (np.zeros(1), "uniform step"),
    ])
    def test_rejects_radial_grid_that_is_not_uniform_from_zero(
            self, tmp_path, r, message):
        with pytest.raises(ValueError, match=message):
            load_field(self._radial_file(tmp_path, r))

    def test_accepts_radial_grid_uniform_to_round_off(self, tmp_path):
        # r = k h with h = 1e-4 out to 6: steps spread by about 1e-11 of h
        r = 1e-4 * np.arange(60001)
        steps = np.diff(r)
        assert np.ptp(steps) > 0
        back = load_field(self._radial_file(tmp_path, r))
        np.testing.assert_array_equal(back.r, r)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("rep", ["radial", "grid2d"])
    def test_rejects_non_finite_values(self, tmp_path, rep, bad):
        if rep == "radial":
            path = self._radial_file(tmp_path, np.linspace(0.0, 1.0, 101))
        else:
            path = tmp_path / "grid.txt"
            save_field(sample_grid2d(lambda x: 2.0 - np.sum(x * x, axis=-1),
                                     1.0, 16, 32, 1.5), path)
        lines = path.read_text().splitlines(keepends=True)
        first = next(k for k, line in enumerate(lines) if line[0].isdigit())
        cells = lines[first + 50].rstrip("\n").split(",")
        cells[1 if rep == "radial" else 2] = bad  # the value u
        lines[first + 50] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="non-finite value in data row 51"):
            load_field(path)

    @pytest.mark.parametrize("line, message", [
        ("r_max=nan", "r_max must be finite"), ("r_max=inf", "r_max must be finite"),
        ("r_max=-1.0", "r_max must be finite and positive"),
        ("residual_scale=nan", "non-finite residual_scale")])
    def test_rejects_bad_grid_header_values(self, tmp_path, line, message):
        fld = sample_grid2d(lambda x: 2.0 - np.sum(x * x, axis=-1), 1.0, 16, 32, 1.5)
        fld.residual_scale = 1e-3
        path = tmp_path / "grid.txt"
        save_field(fld, path)
        key = line.split("=")[0] + "="
        path.write_text("".join(line + "\n" if text.startswith(key) else text
                                for text in path.read_text().splitlines(keepends=True)))
        with pytest.raises(ValueError, match=message):
            load_field(path)

    @pytest.mark.parametrize("fault", ["offset", "nonuniform", "nan"])
    def test_cli_exits_2_on_bad_radial_field(self, tmp_path, capsys, fault):
        from freqlab.cli import main

        spec = ProblemSpec.model(2, 1.5, outer_radius=1.0)
        fld = solve_radial(spec, 0.5, h=1e-2)
        if fault == "offset":
            fld.r = fld.r + 1e-3
        elif fault == "nonuniform":
            fld.r = fld.r * (1.0 + 1e-3 * fld.r)
        else:
            fld.u[40] = np.nan
        path = tmp_path / "field.txt"
        save_field(fld, path)
        for command in ("frequency", "audit"):
            out = tmp_path / command
            assert main([command, str(path), "--out", str(out)]) == 2
            assert "error:" in capsys.readouterr().err
            assert not out.exists() or not any(out.iterdir())

    def test_cli_exits_2_on_truncated_field(self, tmp_path, capsys):
        from freqlab.cli import main

        fld = sample_grid2d(lambda x: 2.0 - np.sum(x * x, axis=-1), 1.0, 16, 32, 1.5)
        path = tmp_path / "grid.txt"
        save_field(fld, path)
        self._cut(path, 40)
        out = tmp_path / "o"
        assert main(["frequency", str(path), "--out", str(out)]) == 2
        assert "header says 17 x 32 nodes" in capsys.readouterr().err
        assert not (out / "profile.csv").exists()

    def test_rejects_grid_file_with_multi_valued_pole(self, tmp_path):
        fld = sample_grid2d(lambda x: 2.0 - np.sum(x * x, axis=-1), 1.0, 16, 32, 1.5)
        fld.u[0, 7] = np.nextafter(fld.u[0, 7], 3.0)  # one ulp is another field
        path = tmp_path / "grid.txt"
        save_field(fld, path)
        with pytest.raises(ValueError, match="pole row"):
            load_field(path)

    def test_cli_exits_2_on_multi_valued_pole(self, tmp_path, capsys):
        # a solved field whose pole row carries 1e-3 cos(theta): before the
        # check, frequency exited 0 on it and audit 5 (residual veto)
        from freqlab.cli import main

        solved = tmp_path / "solve"
        assert main(["solve", "--mode", "grid2d", "--rings", "32", "--angles",
                     "64", "--out", str(solved)]) == 0
        fld = load_field(solved / "field.txt")
        fld.u[0] += 1e-3 * np.cos(fld.theta)
        path = tmp_path / "field.txt"
        save_field(fld, path)
        for command in ("frequency", "audit"):
            out = tmp_path / command
            assert main([command, str(path), "--out", str(out)]) == 2
            assert "pole row" in capsys.readouterr().err
            assert not out.exists() or not any(out.iterdir())


class TestSignChangingRadial:
    def test_nodal_circles_of_a_wide_solution(self):
        # on a large enough ball the q = 3/2 profile changes sign: the nodal
        # set of the revolved field is the finite family of circles at the
        # profile's simple zeros
        from freqlab.odes import zero_audit

        spec = ProblemSpec(2, 12.0, CoefficientField.identity(2),
                           NonlinearitySpec.homogeneous(1.5))
        fld = solve_radial(spec, 0.5, h=1e-3)
        from freqlab.odes import OdeTrajectory

        traj = OdeTrajectory(fld.r, fld.u, fld.du, 1.5, 2, (0.5, 0.0), fld.h)
        zeros = [z for z in zero_audit(traj) if not z.degenerate]
        assert 1 <= len(zeros) <= 6
        assert all(z.slope > 1e-3 for z in zeros)


class TestHessianSymmetry:
    def test_mixed_partials_commute_to_truncation(self, bowl_field_128):
        # the discrete Hessian is as-good-as symmetric: mixed partials from
        # the two orderings agree at the machinery's truncation level
        from freqlab.fields import cartesian_gradient

        fld = bowl_field_128
        gx, gy = fld.gradient_cartesian()
        dxy = cartesian_gradient(gx, fld.r, fld.theta)[1]  # d_y (d_x u)
        dyx = cartesian_gradient(gy, fld.r, fld.theta)[0]  # d_x (d_y u)
        interior = slice(2, -3)
        defect = np.max(np.abs((dxy - dyx)[interior]))
        scale = np.max(np.abs(dxy[interior]))
        assert defect <= 1e-5 * scale
