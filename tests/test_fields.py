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
from freqlab.fields import (_assemble_operator, _polar_frame_entries,
                            glued_residual_exact)
from freqlab.model import (CoefficientField, NonlinearitySpec, ProblemSpec)


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

    def test_factor_fill_stays_near_the_stencil(self, bowl):
        # minimum-degree ordering on L^T + L: 7.3x nnz(L) at 64x128, where
        # the default column ordering gives 14.2x
        fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=64, n_theta=128,
                            source=bowl.source)
        r_nodes = np.linspace(0.0, bowl.spec.outer_radius, 65)
        theta = np.arange(128) * (2.0 * math.pi / 128)
        L, _ = _assemble_operator(bowl.spec, r_nodes, theta)
        assert fld.meta["solver"]["factor_fill"] <= 10 * L.nnz


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
    @pytest.mark.parametrize("coeff", ["bowl", "identity"])
    def test_broadcast_matches_ring_loop(self, bowl, linear_mode_spec, coeff,
                                         n_r, n_t):
        spec = bowl.spec if coeff == "bowl" else linear_mode_spec
        r_nodes = np.linspace(0.0, spec.outer_radius, n_r + 1)
        theta = np.arange(n_t) * (2.0 * math.pi / n_t)
        if coeff == "bowl":  # θ-dependent entries, cross terms included
            _, art, _ = _polar_frame_entries(spec.coefficients, r_nodes, theta)
            assert np.max(np.abs(art)) > 1e-2
        for got, ref in zip(_assemble_operator(spec, r_nodes, theta),
                            _loop_assembly(spec, r_nodes, theta)):
            assert got.shape == ref.shape
            got, ref = got.toarray(), ref.toarray()
            np.testing.assert_allclose(got, ref, rtol=1e-14,
                                       atol=1e-14 * np.max(np.abs(ref)))


def test_import_leaves_scipy_unloaded():
    # scipy is only needed by the 2-D solver, which imports it on first use
    src = os.path.dirname(os.path.dirname(freqlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, freqlab, freqlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


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
        from freqlab.frequency import _grid_scalar_gradient

        fld = bowl_field_128
        gx, gy = fld.gradient_cartesian()
        dxy = _grid_scalar_gradient(fld, gx)[..., 1]  # d_y (d_x u)
        dyx = _grid_scalar_gradient(fld, gy)[..., 0]  # d_x (d_y u)
        interior = slice(2, -3)
        defect = np.max(np.abs((dxy - dyx)[interior]))
        scale = np.max(np.abs(dxy[interior]))
        assert defect <= 1e-5 * scale
