import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import freqlab
from freqlab.fields import (SolutionField, SolverError, cartesian_gradient,
                            glued_field, load_field, residual_field,
                            sample_grid2d, save_field, solve_grid_2d,
                            solve_radial)
from freqlab.fields import (_FourierFactor, _nodes, _polar_frame_entries,
                            _ring_blocks, _Stencil, glued_residual_exact)
from freqlab.model import (CoefficientField, NonlinearitySpec, PowerTerm,
                           ProblemSpec, eval_f)


def _sup_residual(spec, fld, source=None):
    """sup |rho| over the nodes where it is formed, rho taken with the
    manufactured source added when one is given."""
    rho = residual_field(spec, fld)
    if source is not None:
        rho = rho + source(fld.points())
    return float(np.nanmax(np.abs(rho)))


class TestRadialSolve:
    def test_residual_scale_is_fourth_order(self, model_specs):
        # steps chosen above the finite-difference round-off floor eps/h^2
        spec = model_specs[(3, 1.5)]
        coarse = solve_radial(spec, 0.5, h=8e-3)
        fine = solve_radial(spec, 0.5, h=4e-3)
        ratio = _sup_residual(spec, coarse) / _sup_residual(spec, fine)
        assert 8.0 <= ratio <= 40.0  # ~16 for a fourth-order scheme

    def test_residual_scale_has_no_start_up_seam(self, model_specs):
        # the origin's Taylor step leaves no seam where a start-up series
        # met the integrator (5.2e-8 at r = 9h), and the last four rows,
        # which read one-sided differences, are left out
        spec = model_specs[(3, 1.5)]
        fld = solve_radial(spec, 0.5, h=8e-3)
        assert _sup_residual(spec, fld) < 1e-9

    def test_q1_small_amplitude_residual(self):
        spec = ProblemSpec.model(3, 1.0, outer_radius=0.5)
        fld = solve_radial(spec, 0.1, h=1e-3)
        assert _sup_residual(spec, fld) <= 1e-8

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
        assert err.value.report["final_distance"] is not None
        assert err.value.last is not None

    def test_nonconvergence_says_how_far_it_had_to_go(self):
        # the contraction estimate, and no prediction from the transient:
        # after five steps the ratios read 0.19-0.31, and the slow mode
        # (rho ~ 0.84) shows only from step 20 on; the solve takes 50
        spec = ProblemSpec.model(2, 1.5, outer_radius=1.0)
        with pytest.raises(SolverError) as err:
            solve_grid_2d(spec, lambda th: 0.05 * np.cos(th), n_r=32,
                          n_theta=64, max_iters=5)
        assert 0.0 < err.value.report["contraction"] < 1.0
        assert err.value.report["predicted_iterations"] is None

    def test_a_steady_ratio_predicts(self):
        # at step 38 three ratios agree and the iteration jumps on them; the
        # prediction takes that ratio and the last step, and so counts the
        # steps the jump saves too: it errs long (the solve takes 50)
        spec = ProblemSpec.model(2, 1.5, outer_radius=1.0)
        with pytest.raises(SolverError) as err:
            solve_grid_2d(spec, lambda th: 0.05 * np.cos(th), n_r=32,
                          n_theta=64, max_iters=38)
        report = err.value.report
        rho, last = report["contraction"], report["final_distance"]
        assert report["predicted_iterations"] == 38 + math.ceil(
            math.log(1e-10 / last) / math.log(rho)) >= 50

    @pytest.mark.parametrize("distances, jumps, expected", [
        ([1.0, 0.5, 0.25, 0.125], [], 4 + 31),            # steady 0.5
        ([1.0, 0.5, 0.25, 0.125], [{"iteration": 4, "rho": 0.5}], 4 + 31),
        ([1.0, 0.5, 0.3, 0.125], [], None),                # transient
        ([1.0, 0.5, 0.25], [], None),                      # too few ratios
        ([1.0, 0.5, 0.25, 0.125, 0.0625],                  # reset by a jump
         [{"iteration": 4, "rho": 0.5}], None)])
    def test_prediction_reads_a_steady_ratio_only(self, distances, jumps,
                                                  expected):
        from freqlab.fields import _solver_error

        report = {"distances": distances, "extrapolations": jumps}
        err = _solver_error("x", np.ones(3), report, 1e-10)
        assert err.report["predicted_iterations"] == expected

    @pytest.mark.parametrize("rho, distances, stop, expected", [
        (None, [1.0, 0.5], 1e-10, None),
        (1.0, [1.0, 1.0], 1e-10, None),
        (0.5, [1.0, 0.5], 0.0, None),
        (0.5, [1.0, 0.5], 1.0, 2),
        (0.5, [1.0, 0.5], 0.5 ** 11 * 1.01, 12),
        (0.5, [1.0, 0.5], 0.5 ** 11 * 0.99, 13)])
    def test_predicted_iterations(self, rho, distances, stop, expected):
        from freqlab.fields import _predicted_iterations

        assert _predicted_iterations(rho, distances, stop) == expected

    @pytest.mark.parametrize("eps", [1e-10, 1e-12, 1e-20])
    def test_tiny_boundary_data_reach_a_solution(self, eps):
        # the first step is about eps, below the absolute tol: only the
        # step's size against the iterate keeps the solve going
        from freqlab.audit import audit

        spec = ProblemSpec.model(2, 1.5)
        fld = solve_grid_2d(spec, lambda th: eps * np.cos(th),
                            n_r=32, n_theta=64)
        assert fld.meta["solver"]["iterations"] > 1
        assert np.max(np.abs(fld.u)) > 0.04
        chain = audit(spec, fld)
        assert chain.classification == "genuine_nonvanishing"
        assert chain.steps["residual_gate"].data["epsilon"] < 1e-3

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

    @pytest.mark.parametrize("damping", [1.0, 1.5, -0.1, np.nan])
    def test_rejects_damping_outside_0_1(self, bowl, damping):
        # at damping 1 every step is zero, so the solve would "converge" at
        # once on its initial iterate
        with pytest.raises(ValueError, match=r"damping must lie in \[0, 1\)"):
            solve_grid_2d(bowl.spec, bowl.boundary, n_r=8, n_theta=16,
                          source=bowl.source, damping=damping)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
    def test_rejects_tol_not_finite_and_positive(self, bowl, tol):
        # a NaN tol never stops the iteration, and an infinite one stops it
        # after one step
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve_grid_2d(bowl.spec, bowl.boundary, n_r=8, n_theta=16,
                          source=bowl.source, tol=tol)

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

    def test_rejects_a_source_that_is_not_finite_naming_its_node(self, bowl):
        # NaN where x2 < 0: node (1, 9) is ring 1's first angle past pi
        def source(x):
            return np.where(x[..., 1] < 0.0, np.nan, bowl.source(x))

        with pytest.raises(ValueError, match=r"the source is not finite at "
                           r"node \(1, 9\), x = \(-0\.115485, -0\.0478354\)"):
            solve_grid_2d(bowl.spec, bowl.boundary, n_r=8, n_theta=16,
                          source=source)

    def test_rejects_a_potential_that_is_not_finite_before_assembly(
            self, bowl, monkeypatch):
        # V and the source are read before the stencil is built, so a NaN
        # among them costs no assembly
        def no_stencil(*args):
            raise AssertionError("the stencil was assembled")

        monkeypatch.setattr(freqlab.fields, "_Stencil", no_stencil)
        spec = dataclasses.replace(
            bowl.spec, potential=lambda x: np.where(x[..., 1] < 0.0, np.nan, 0.0))
        with pytest.raises(ValueError, match=r"V is not finite at node \(1, 9\)"):
            solve_grid_2d(spec, bowl.boundary, n_r=8, n_theta=16,
                          source=bowl.source)

    def test_bowl_takes_one_inner_step_per_iteration(self, bowl):
        # the theta-mean of L is about 1% off L on the bowl, well inside
        # the inner tolerance
        fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=64, n_theta=128,
                            source=bowl.source)
        solver = fld.meta["solver"]
        assert solver["inner_iterations"] == solver["iterations"]


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
        stencil = _Stencil(spec, r_nodes, theta)
        L, B = _loop_assembly(spec, r_nodes, theta)
        rng = np.random.default_rng(n_r)
        x = rng.standard_normal(L.shape[0])
        g = rng.standard_normal(n_t)
        for got, ref in ((stencil.apply(x, g), B @ g - L @ x),
                         (stencil.apply(x, 0.0 * g), -(L @ x)),
                         (stencil.apply(0.0 * x, g), B @ g)):
            np.testing.assert_allclose(got, ref, rtol=1e-14,
                                       atol=1e-14 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("block_rings, n_blocks", [(1, 10), (3, 4),
                                                       (None, 1)])
    @pytest.mark.parametrize("n_t", [2, 6, 64])
    @pytest.mark.parametrize("coeff", ["bowl", "spiral"])
    def test_blocking_keeps_the_bits(self, bowl, coeff, n_t, block_rings,
                                     n_blocks, monkeypatch):
        # 10 rings in blocks of at most 1 or 3 rings (2, 3, 2, 3: 10 is no
        # multiple of 3), or in one block; the pole row is a block of its
        # own, so a block edge always lies at ring 1, where it meets the pole
        spec = {"bowl": bowl.spec,
                "spiral": ProblemSpec(2, 1.0, _spiral(0.4),
                                      NonlinearitySpec.zero())}[coeff]
        if block_rings is not None:
            monkeypatch.setattr(freqlab.fields, "_BLOCK_NODES",
                                block_rings * n_t)
        stencil = _Stencil(spec, *_grid(spec, 11, n_t))
        assert len(stencil._blocks) == 1 + n_blocks
        rng = np.random.default_rng(n_t)
        u = rng.standard_normal(1 + 10 * n_t)
        g = rng.standard_normal(n_t)
        for x, b in ((u, g), (u, 0.0 * g), (0.0 * u, g)):
            assert stencil.apply(x, b).tobytes() == \
                _whole_grid_apply(stencil, x, b).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(shape=st.one_of(
        st.just((33, 64)),
        st.tuples(st.integers(2, 2049), st.sampled_from([1, 2, 64, 128, 2048]))),
        min_count=st.sampled_from([None, freqlab.fields._MIN_BLOCKS]))
    def test_one_ring_block_rule(self, shape, min_count):
        # the stencil's ring rows (no minimum) and the node pass's node rows
        # (at least _MIN_BLOCKS) share one rule: the blocks cover the rows
        # in order, there are min(rows, max(ceil(nodes / _BLOCK_NODES),
        # minimum)) of them, and their sizes differ by at most one ring
        n_rows, n_theta = shape
        blocks = (_ring_blocks(n_rows, n_theta) if min_count is None
                  else _ring_blocks(n_rows, n_theta, min_count))
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == n_rows
        want = max(-(-n_rows * n_theta // freqlab.fields._BLOCK_NODES),
                   min_count or 1)
        assert len(blocks) == min(n_rows, want)
        sizes = [b.stop - b.start for b in blocks]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    def test_nine_negative_zero_terms_sum_to_plus_zero(self, bowl):
        # sum() starts from 0, so a node whose nine products are all -0.0
        # reads +0.0; zero coefficients signed against the values they
        # multiply make every node such a node
        stencil = _Stencil(bowl.spec, *_grid(bowl.spec, 11, 6))
        M, n_t = stencil.shape
        rng = np.random.default_rng(3)
        u, g = rng.standard_normal(1 + 10 * n_t), rng.standard_normal(n_t)
        ext = _padded_nodes(stencil, u, g)
        for (di, dj), coef in stencil._coef.items():
            coef[...] = np.copysign(
                0.0, -ext[1 + di:1 + di + M, 1 + dj:1 + dj + n_t])
        ref = _whole_grid_apply(stencil, u, g)
        assert np.all(ref == 0.0) and not np.any(np.signbit(ref))
        assert stencil.apply(u, g).tobytes() == ref.tobytes()


def _padded_nodes(stencil, u, g):
    """The node array of u and g with a zero ghost row above the pole and
    one wrapped column on each side."""
    M, n_t = stencil.shape
    ext = np.zeros((M + 2, n_t + 2))
    ext[1:, 1:-1] = _nodes(u, g)
    ext[:, 0] = ext[:, -2]
    ext[:, -1] = ext[:, 1]
    return ext


def _whole_grid_apply(stencil, u, g):
    """The stencil as one sum() over whole-grid products, the pole's row
    summed over its angles: the unblocked formula that `_Stencil.apply`
    keeps bit for bit."""
    M, n_t = stencil.shape
    ext = _padded_nodes(stencil, u, g)
    rows = sum(coef * ext[1 + di:1 + di + M, 1 + dj:1 + dj + n_t]
               for (di, dj), coef in stencil._coef.items())
    return np.concatenate(([rows[0].sum()], rows[1:].ravel()))


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
                         damping=0.5, tol=1e-10, max_iters=400, initial=None):
    """u <- damping u + (1-damping) L^{-1}(rhs(u) + B g) with L factored
    directly, from u = 0 or from the node values `initial`: the damped
    Picard iteration the solver's inner GMRES must reproduce.  Returns the
    node values and the iteration count."""
    r_nodes, theta = _grid(spec, n_r, n_t)
    lu, B = _superlu(spec, n_r, n_t)
    g = boundary(theta)
    bc = B @ g
    pts = np.stack([r_nodes[:n_r, None] * np.cos(theta),
                    r_nodes[:n_r, None] * np.sin(theta)], axis=-1)
    src = np.zeros(pts.shape[:-1]) if source is None else source(pts)
    V = spec.V(pts)
    u = np.zeros(1 + (n_r - 1) * n_t)
    if initial is not None:
        u[0], u[1:] = initial[0, 0], initial[1:n_r].ravel()
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


def _stacked_mode_solve(stencil, b):
    """The theta-mean factor's solve by LAPACK: the mode systems stacked
    mode-major into one tridiagonal matrix, the pole first and ring 1's
    pole coupling n_theta times its mean, factored by zgttrf with row
    interchanges and solved by zgttrs.  The oracle for `_FourierFactor`'s
    numpy sweeps, which solve the same systems."""
    from scipy.linalg import lapack

    n_r, n_t = stencil._coef[0, 0].shape
    m, n_k = n_r - 1, n_t // 2 + 1
    phase = np.exp(2j * math.pi * np.arange(n_k)[:, None] / n_t)
    bands = {di: np.zeros((n_k, m), dtype=complex) for di in (-1, 0, 1)}
    pole = {0: 0.0, 1: 0.0}
    for (di, dj), coef in stencil._coef.items():
        mean = coef.mean(axis=1)
        bands[di] += mean[1:] * phase ** dj
        if di in pole:  # the pole equation sums its rows over the angles
            pole[di] += mean[0] * (n_t if di == 0 else 1.0)
    bands[-1][0, 0] *= n_t
    bands[-1][1:, 0] = 0.0
    bands[1][:, -1] = 0.0
    *factor, info = lapack.zgttrf(
        -bands[-1].ravel(), -np.concatenate(([pole[0]], bands[0].ravel())),
        -np.concatenate(([pole[1]], bands[1].ravel()[:-1])))
    assert info == 0
    rhs = np.fft.rfft(b[1:].reshape(m, n_t), axis=1).T.ravel()
    x, info = lapack.zgttrs(*factor, np.concatenate(([b[0]], rhs)))
    assert info == 0
    rings = np.fft.irfft(x[1:].reshape(n_k, m).T, n=n_t, axis=1)
    return np.concatenate(([x[0].real], rings.ravel()))


class TestModeSweeps:
    @pytest.fixture(params=["identity", "rotation_perturbed", "spiral",
                            "diagonal20", "bowl", "variable_coefficients"])
    def named_spec(self, request, bowl, variable_coefficients_spec):
        name = request.param
        if name == "bowl":
            return name, bowl.spec
        if name == "variable_coefficients":
            return name, variable_coefficients_spec
        coeff = {"identity": CoefficientField.identity(2),
                 "rotation_perturbed": CoefficientField.rotation_perturbed(0.3),
                 "spiral": _spiral(0.4),
                 "diagonal20": CoefficientField.diagonal([20, 1])}[name]
        return name, ProblemSpec(2, 1.0, coeff, NonlinearitySpec.homogeneous(1.5))

    @pytest.mark.parametrize("n_r, n_t", [(16, 32), (64, 128), (128, 256)])
    def test_matches_lapack_and_superlu(self, named_spec, n_r, n_t):
        # the same mode systems as LAPACK's pivoted gttrf/gttrs, to 1e-12;
        # where the theta-mean is L, L's SuperLU solve too.  Two solves of
        # L in double precision differ by about cond(L) eps: under the
        # spiral at 128x256 LAPACK and SuperLU differ by 1.5e-12, and there
        # the sweeps must come as close to both as they are to each other
        name, spec = named_spec
        stencil = _Stencil(spec, *_grid(spec, n_r, n_t))
        factor = _FourierFactor(stencil)
        b = np.random.default_rng(n_r).standard_normal(1 + (n_r - 1) * n_t)
        x = factor.solve(b)
        lapack = _stacked_mode_solve(stencil, b)
        tol = 1e-12
        assert factor.exact == (name in ("identity", "rotation_perturbed", "spiral"))
        if factor.exact:
            lu, _ = _superlu(spec, n_r, n_t)
            ref = lu.solve(b)
            tol = max(tol, _rel_gap(lapack, ref))
            assert _rel_gap(x, ref) <= tol
        assert _rel_gap(x, lapack) <= tol

    @pytest.mark.parametrize("n_r", [4, 5, 11, 17])
    def test_block_counts_keep_the_solve(self, bowl, n_r):
        # the last block padded with identity rows (5, 11 and 17 rows are
        # no square), or one row per block (4 rows in blocks of 2)
        stencil = _Stencil(bowl.spec, *_grid(bowl.spec, n_r, 8))
        b = np.random.default_rng(n_r).standard_normal(1 + (n_r - 1) * 8)
        got = _FourierFactor(stencil).solve(b)
        assert _rel_gap(got, _stacked_mode_solve(stencil, b)) <= 1e-13

    def test_a_zero_pivot_names_its_mode_and_ring(self, bowl):
        # ring 3 with no radial coupling and the angular symbol
        # 2 + 2 cos(2 pi k / 16), which is 0 exactly at the Nyquist mode 8
        stencil = _Stencil(bowl.spec, *_grid(bowl.spec, 8, 16))
        for offset, coef in stencil._coef.items():
            coef[3] = {(0, 0): 2.0, (0, 1): 1.0, (0, -1): 1.0}.get(offset, 0.0)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^mode 8 of the theta-mean factor has a zero "
                                 r"pivot at ring 3$"):
            _FourierFactor(stencil)

    def test_a_pole_without_coefficients_is_singular(self, bowl):
        stencil = _Stencil(bowl.spec, *_grid(bowl.spec, 8, 16))
        for coef in stencil._coef.values():
            coef[0] = 0.0
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^mode 0 .* zero pivot at the pole$"):
            _FourierFactor(stencil)

    def test_a_coefficient_that_is_not_finite_is_named(self, bowl):
        stencil = _Stencil(bowl.spec, *_grid(bowl.spec, 8, 16))
        # ring 5's mean turns every mode of its row NaN, mode 0 first
        stencil._coef[0, 1][5, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^mode 0 .* non-finite pivot at ring 5$"):
            _FourierFactor(stencil)

    def test_solves_repeat_after_a_solve_that_is_not_finite(self, bowl):
        # the factor's work array keeps nothing from one solve to the next
        stencil = _Stencil(bowl.spec, *_grid(bowl.spec, 11, 16))
        factor = _FourierFactor(stencil)
        b = np.random.default_rng(4).standard_normal(1 + 10 * 16)
        first = factor.solve(b)
        assert not np.all(np.isfinite(factor.solve(np.full_like(b, np.nan))))
        assert factor.solve(b).tobytes() == first.tobytes()


def test_combination_keeps_the_bits_of_sum():
    # GMRES forms c and L c in place, one product at a time; signed zeros
    # sum as sum() sums them, from 0
    rng = np.random.default_rng(2)
    vectors = [rng.standard_normal(64) for _ in range(4)]
    vectors[0][:4] = [0.0, -0.0, 0.0, -0.0]
    vectors[1][:4] = [0.0, 0.0, -0.0, -0.0]
    for coefs in ([-1.0, 2.0, 0.5, -3.0], [1.0, -0.0, 1e-300, 7.0]):
        for n in range(1, 5):
            ref = sum(c * v for c, v in zip(coefs[:n], vectors[:n]))
            got = freqlab.fields._combination(coefs[:n], vectors[:n])
            assert got.tobytes() == ref.tobytes()


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
        stencil = _Stencil(invariant_spec, *_grid(invariant_spec, n_r, n_t))
        lu, _ = _superlu(invariant_spec, n_r, n_t)
        fourier = _FourierFactor(stencil)
        b = np.random.default_rng(n_r).standard_normal(1 + (n_r - 1) * n_t)
        x = fourier.solve(b)
        assert _rel_gap(x, lu.solve(b)) <= 1e-12
        # the factor is L, so the solver takes it without GMRES
        assert fourier.exact
        Lx = -stencil.apply(x, np.zeros(n_t))
        assert np.linalg.norm(b - Lx) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("coeff", [
        "bowl", "variable_coefficients", pytest.param([5, 1], id="diagonal5"),
        pytest.param([1 + 1e-9, 1], id="near_identity")])
    def test_theta_dependent_coefficients_are_not_exact(
            self, bowl, variable_coefficients_spec, coeff):
        # near_identity's a_rr = 1 + 1e-9 cos^2(theta) spreads by about 1e7
        # ulps along each ring; at 64x128 the superlu comparison below
        # checks that these take GMRES
        if coeff == "bowl":
            spec = bowl.spec
        elif coeff == "variable_coefficients":
            spec = variable_coefficients_spec
        else:
            spec = ProblemSpec(2, 1.0, CoefficientField.diagonal(coeff),
                               NonlinearitySpec.homogeneous(1.5))
        assert not _FourierFactor(_Stencil(spec, *_grid(spec, 16, 32))).exact

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_invariant_solve_applies_the_stencil_once(
            self, invariant_spec, tol, monkeypatch):
        # B g, once: the loop solves L u+ = rhs(u) + B g with the factor
        calls = []
        apply = _Stencil.apply

        def counted(stencil, u, boundary):
            calls.append(u)
            return apply(stencil, u, boundary)

        monkeypatch.setattr(_Stencil, "apply", counted)
        fld = solve_grid_2d(invariant_spec, lambda th: 0.3 + 0.1 * np.cos(th),
                            n_r=16, n_theta=32, tol=tol)
        assert fld.meta["solver"]["inner_solve"] == "fourier"
        assert fld.meta["solver"]["iterations"] > 1
        assert len(calls) == 1

    def test_gmres_path_keeps_its_bits(self, bowl):
        # sha256 of u.tobytes(), recorded when the theta-mean factor's mode
        # systems became numpy sweeps without pivoting in place of LAPACK's
        # gttrf/gttrs (12 steps, one jump, as before): every theta-dependent
        # A takes GMRES, bit for bit
        fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=32, n_theta=64,
                            source=bowl.source)
        assert fld.meta["solver"]["inner_solve"] == "gmres"
        assert hashlib.sha256(fld.u.tobytes()).hexdigest() == (
            "5f23d37f7801ffe4b2d86d6adb909a66fafc53e1513a7f3b62ec42f1bf0121fe")
        ref, _ = _superlu_fixed_point(bowl.spec, bowl.boundary, 32, 64,
                                      source=bowl.source, tol=1e-13)
        assert np.max(np.abs(fld.u - ref)) <= 1e-10

    @pytest.mark.parametrize("path", ["fourier", "gmres"])
    def test_solves_leave_their_arguments_alone(self, bowl, path,
                                                monkeypatch):
        # GMRES hands the factor's solve and the stencil its basis and
        # search vectors, and the Fourier path hands the factor its
        # right-hand side: no call may write into what it is given
        calls = []

        def guarded(method):
            def call(self, *args):
                before = [a.tobytes() for a in args]
                out = method(self, *args)
                assert [a.tobytes() for a in args] == before
                calls.append(method.__name__)
                return out
            return call

        monkeypatch.setattr(_Stencil, "apply", guarded(_Stencil.apply))
        monkeypatch.setattr(_FourierFactor, "solve",
                            guarded(_FourierFactor.solve))
        if path == "fourier":
            fld = solve_grid_2d(_cos1_spec(), lambda th: 0.2 * np.cos(th),
                                n_r=32, n_theta=64)
        else:
            fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=32, n_theta=64,
                                source=bowl.source)
        assert fld.meta["solver"]["inner_solve"] == path
        assert {"apply", "solve"} <= set(calls)

    def test_gmres_solve_applies_the_stencil_once_per_inner_step(
            self, bowl, monkeypatch):
        # the defect is applied once before the loop and carried by GMRES's
        # L c; each inner step applies the stencil once, and the stop is
        # checked against one fresh application
        calls = []
        apply = _Stencil.apply

        def counted(stencil, u, boundary):
            calls.append(u)
            return apply(stencil, u, boundary)

        monkeypatch.setattr(_Stencil, "apply", counted)
        fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=32, n_theta=64,
                            source=bowl.source)
        solver = fld.meta["solver"]
        assert solver["inner_solve"] == "gmres"
        assert solver["extrapolations"]
        assert len(calls) == solver["inner_iterations"] + 2
        assert 0.0 <= solver["defect_gap"] <= 1e-11

    def test_an_uncarried_jump_is_replaced_or_raises(self, bowl, monkeypatch):
        # a jump that moves u but not the carried defect leaves the defect
        # of another iterate; the stop's fresh defect must catch it, so the
        # solve returns the true fixed point or none at all
        monkeypatch.setattr(freqlab.fields._CarriedDefect, "jump",
                            lambda self, L_step, factor: None)
        ref, _ = _superlu_fixed_point(bowl.spec, bowl.boundary, 32, 64,
                                      source=bowl.source, tol=1e-13)
        try:
            fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=32, n_theta=64,
                                source=bowl.source)
        except SolverError:
            return
        assert fld.meta["solver"]["extrapolations"]
        assert np.max(np.abs(fld.u - ref)) <= 1e-10

    def test_damped_gmres_steps_carry_their_damped_image(self, bowl):
        # damping scales the step and its image under L alike, so the
        # carried defect stays the iterate's; left undamped, L c drifts the
        # defect and the solve crawls (231 iterations against 28) to a
        # fixed point that still passes the stop
        fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=32, n_theta=64,
                            source=bowl.source, damping=0.5)
        plain = solve_grid_2d(bowl.spec, bowl.boundary, n_r=32, n_theta=64,
                              source=bowl.source)
        solver = fld.meta["solver"]
        assert solver["inner_solve"] == "gmres"
        assert solver["defect_gap"] <= 1e-11
        assert solver["iterations"] <= 35
        assert np.max(np.abs(fld.u - plain.u)) <= 1e-9

    def test_variable_coefficients_reach_the_superlu_fixed_point(
            self, variable_coefficients_spec):
        spec = variable_coefficients_spec
        boundary = lambda th: 0.3 + 0.1 * np.cos(th)  # noqa: E731
        fld = solve_grid_2d(spec, boundary, n_r=32, n_theta=64)
        ref, _ = _superlu_fixed_point(spec, boundary, 32, 64, tol=1e-13)
        assert fld.meta["solver"]["inner_solve"] == "gmres"
        assert fld.meta["solver"]["defect_gap"] <= 1e-11
        assert np.max(np.abs(fld.u - ref)) <= 1e-10

    def test_every_term_reaches_the_symbol(self):
        # a symbol that drops any one offset array, or the pole row of one,
        # no longer reproduces L
        spec = ProblemSpec(2, 1.0, _spiral(0.4), NonlinearitySpec.zero())
        stencil = _Stencil(spec, *_grid(spec, 16, 32))
        lu, _ = _superlu(spec, 16, 32)
        b = np.random.default_rng(1).standard_normal(1 + 15 * 32)
        ref = lu.solve(b)
        assert _rel_gap(_FourierFactor(stencil).solve(b), ref) <= 1e-12
        mutants = 0
        for offset, coef in stencil._coef.items():
            for rows, part in ((slice(None), "array"), (0, "pole row")):
                if not np.any(coef[rows]):
                    continue
                kept = coef.copy()
                coef[rows] = 0.0
                try:
                    gap = _rel_gap(_FourierFactor(stencil).solve(b), ref)
                except np.linalg.LinAlgError:  # a singular symbol is caught too
                    gap = math.inf
                coef[...] = kept
                assert gap > 1e-6, f"offset {offset}, {part}"
                mutants += 1
        assert mutants == 9 + 4  # every offset; the pole reads four of them

    def test_invariant_coefficients_take_the_fourier_path(self, invariant_spec):
        # the preconditioner is L itself: one inner step solves
        fld = solve_grid_2d(invariant_spec, lambda th: 0.3 + 0.1 * np.cos(th),
                            n_r=16, n_theta=32)
        solver = fld.meta["solver"]
        assert solver["inner_iterations"] == solver["iterations"]

    @pytest.mark.parametrize("coeff", [
        "bowl", pytest.param([5, 1], id="diagonal5"),
        pytest.param([20, 1], id="diagonal20"), "variable_coefficients",
        pytest.param([1 + 1e-9, 1], id="near_identity")])
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
        assert fld.meta["solver"]["inner_solve"] == "gmres"
        assert fld.meta["solver"]["defect_gap"] <= 1e-11
        assert np.max(np.abs(fld.u - ref)) <= 1e-9
        assert fld.meta["solver"]["iterations"] <= ref_iterations + 3

    def test_cos1_lands_on_the_superlu_fixed_point_or_its_mirror(self):
        # the boundary 0.05 cos(theta - phi) is odd under x -> -x, and so is
        # f, so u and -u(-x) are both fixed points; round-off picks one.
        # This holds at this phase only: other phases, and q = 1.2, have
        # more fixed points than the pair (see the test below)
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

    def test_cos1_at_q12_is_a_solution_off_the_superlu_fixed_point(self):
        # under q = 1.2 at phase 3 cells undamped Picard lands on a field
        # with pole value -3.0e-4, while damped SuperLU from u = 0 reaches
        # pole +-0.154: a third fixed point, which still passes the gate
        from freqlab.audit import audit

        spec = ProblemSpec.model(2, 1.2, outer_radius=1.0)
        n_r, n_t = 32, 64
        phase = _grid(spec, n_r, n_t)[1][3]
        boundary = lambda th: 0.05 * np.cos(th - phase)  # noqa: E731
        ref, _ = _superlu_fixed_point(spec, boundary, n_r, n_t)
        mirror = -np.roll(ref, n_t // 2, axis=1)
        fld = solve_grid_2d(spec, boundary, n_r=n_r, n_theta=n_t)
        gap = min(np.max(np.abs(fld.u - ref)), np.max(np.abs(fld.u - mirror)))
        assert gap > 0.1
        chain = audit(spec, fld)
        assert chain.steps["residual_gate"].status == "pass"
        assert chain.classification == "genuine_nonvanishing"

    def test_undamped_default_halves_the_damped_iterations(self, bowl):
        # damping d turns the contraction rho into d + (1 - d) rho
        ref, ref_iterations = _superlu_fixed_point(
            bowl.spec, bowl.boundary, 64, 128, source=bowl.source, damping=0.5)
        fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=64, n_theta=128,
                            source=bowl.source)
        solver = fld.meta["solver"]
        assert solver["damping"] == 0.0
        assert 2 * solver["iterations"] <= ref_iterations
        assert np.max(np.abs(fld.u - ref)) <= 1e-9
        # the recorded contraction is the ratio of successive steps since
        # the last jump, and never below the rho that jump used
        jumps = solver["extrapolations"]
        start, floor = ((jumps[-1]["iteration"], jumps[-1]["rho"]) if jumps
                        else (0, 0.0))
        d = solver["distances"][start:][-10:]
        late = (d[-1] / d[0]) ** (1.0 / (len(d) - 1)) if len(d) > 1 else 0.0
        assert solver["contraction"] == pytest.approx(max(late, floor))

    def test_small_cos1_boundary_converges_at_the_cli_defaults(self, tmp_path):
        # at damping 0.5 this problem needs about 700 iterations (late
        # contraction 0.977) and exited 3 at the default 400; undamped it
        # took 366 (0.955) before the iteration extrapolated along its slow
        # mode, and takes 124 with it
        from freqlab.cli import main

        out = tmp_path / "o"
        assert main(["solve", "--mode", "grid2d", "--boundary", "cos:1:0.03",
                     "--rings", "32", "--angles", "64", "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        assert record["summary"]["solver"]["iterations"] <= 183
        fld = load_field(str(out / "field.npz"))
        spec = ProblemSpec.model(2, 1.5, outer_radius=1.0)
        ref = solve_grid_2d(spec, lambda th: 0.03 * np.cos(th), n_r=32,
                            n_theta=64, damping=0.5, max_iters=1000).u
        mirror = -np.roll(ref, 32, axis=1)
        gap = min(np.max(np.abs(fld.u - ref)), np.max(np.abs(fld.u - mirror)))
        assert gap <= 1e-8
        assert abs(fld.u[0, 0]) == pytest.approx(3.527e-3, rel=1e-3)

    def test_records_the_error_bound(self):
        # rho/(1 - rho) times the last step, the distance to the fixed point
        # that stopping leaves; it is reported, and the stop does not read it
        spec = ProblemSpec.model(2, 1.5, outer_radius=1.0)
        fld = solve_grid_2d(spec, lambda th: 0.2 * np.cos(th), n_r=48, n_theta=96)
        solver = fld.meta["solver"]
        rho, last = solver["contraction"], solver["distances"][-1]
        assert 0.5 < rho < 1.0
        assert solver["error_bound"] == rho / (1.0 - rho) * last
        assert solver["error_bound"] >= last

    @pytest.mark.parametrize("rho", [None, 1.0, 1.2])
    def test_no_error_bound_without_a_contraction(self, rho):
        from freqlab.fields import _error_bound

        assert _error_bound(rho, 1e-11) is None


def _plain_picard(monkeypatch, *args, **kwargs):
    """solve_grid_2d with no extrapolation: every step a Picard step."""
    with monkeypatch.context() as m:
        m.setattr(freqlab.fields, "_steady_ratio", lambda d, j: None)
        return solve_grid_2d(*args, **kwargs)


def _cos1_spec(q=1.5):
    return ProblemSpec.model(2, q, outer_radius=1.0)


class TestExtrapolation:
    """One jump by rho/(1 - rho) times the step once three step ratios
    agree: the iteration's geometric tail, added in one move."""

    @pytest.mark.parametrize("ratios, expected", [
        ([0.9, 0.9, 0.9], 0.9),
        ([0.5, 0.9, 0.9, 0.9], 0.9),
        ([0.9, 0.9 * (1 + 9e-4), 0.9], 0.9),
        ([0.9, 0.9 * (1 + 2e-3), 0.9], None),  # not yet one mode
        ([0.9, 0.9], None),  # two ratios are not a window
        ([1.2, 1.2, 1.2], None),  # a climb, however steady
        ([1.0, 1.0, 1.0], None)])
    def test_steady_ratio(self, ratios, expected):
        from freqlab.fields import _steady_ratio

        d = list(np.cumprod([1.0] + ratios))
        got = _steady_ratio(d, [])
        assert got == (None if expected is None else pytest.approx(expected))

    def test_the_window_starts_after_the_last_jump(self):
        # the step after a jump is not a Picard ratio of the one before it,
        # even when the two happen to agree
        from freqlab.fields import _contraction, _steady_ratio

        d = list(0.9 ** np.arange(6.0))
        assert _steady_ratio(d, []) == pytest.approx(0.9)
        assert _steady_ratio(d, [{"iteration": 3, "rho": 0.9}]) is None
        # the contraction reads the steps since the jump, floored by its rho
        d = [1.0, 0.5, 0.25, 1e-3, 0.6e-3, 0.36e-3]
        assert _contraction(d, []) == pytest.approx(0.36e-3 ** 0.2)
        assert _contraction(d, [{"iteration": 3, "rho": 0.5}]) == pytest.approx(0.6)
        assert _contraction(d, [{"iteration": 3, "rho": 0.7}]) == 0.7
        assert _contraction(d, [{"iteration": 5, "rho": 0.7}]) == 0.7
        assert _contraction(d[:1], []) is None

    @pytest.mark.parametrize("amplitude, n_r, n_t", [(0.2, 48, 96),
                                                     (0.03, 32, 64)])
    def test_error_bound_covers_the_distance_to_the_fixed_point(
            self, amplitude, n_r, n_t):
        # the steps right after a jump do not show rho: on cos:1:0.03 the
        # last ten steps of all read 0.38 where rho is 0.955, and the bound
        # then read 4.0e-11 against a true error of 1.2e-9
        spec = _cos1_spec()
        boundary = lambda th: amplitude * np.cos(th)  # noqa: E731
        fld = solve_grid_2d(spec, boundary, n_r=n_r, n_theta=n_t)
        ref = solve_grid_2d(spec, boundary, n_r=n_r, n_theta=n_t, tol=1e-15,
                            max_iters=2000)
        solver = fld.meta["solver"]
        assert solver["extrapolations"]
        assert solver["contraction"] >= solver["extrapolations"][-1]["rho"]
        assert np.max(np.abs(fld.u - ref.u)) <= 2.0 * solver["error_bound"]

    def test_cos1_at_128x256_takes_at_most_60_steps(self):
        # 105 plain Picard steps at rho 0.8725
        fld = solve_grid_2d(_cos1_spec(), lambda th: 0.05 * np.cos(th),
                            n_r=128, n_theta=256)
        assert fld.meta["solver"]["iterations"] <= 60

    @pytest.mark.parametrize("q", [1.2, 1.5])
    @pytest.mark.parametrize("cells", [0, 5, 11, 17])
    def test_lands_on_the_fixed_point_of_plain_picard(self, monkeypatch, q,
                                                      cells):
        # u and -u(-x) are both fixed points and round-off picks one
        # (damped SuperLU from u = 0 picks the other at some of these
        # phases): the jumps must not change the pick, and the field must
        # be a fixed point of the directly factored L
        spec = _cos1_spec(q)
        n_r, n_t = 32, 64
        phase = _grid(spec, n_r, n_t)[1][cells]
        boundary = lambda th: 0.05 * np.cos(th - phase)  # noqa: E731
        fld = solve_grid_2d(spec, boundary, n_r=n_r, n_theta=n_t)
        plain = _plain_picard(monkeypatch, spec, boundary, n_r=n_r,
                              n_theta=n_t)
        assert fld.meta["solver"]["extrapolations"]
        assert not plain.meta["solver"]["extrapolations"]
        assert (fld.meta["solver"]["iterations"]
                < plain.meta["solver"]["iterations"])
        mirror = -np.roll(plain.u, n_t // 2, axis=1)
        assert np.max(np.abs(plain.u - mirror)) > 1e-4
        assert np.max(np.abs(fld.u - plain.u)) <= 2e-9
        ref, _ = _superlu_fixed_point(spec, boundary, n_r, n_t, damping=0.0,
                                      tol=1e-13, initial=fld.u)
        assert np.max(np.abs(fld.u - ref)) <= 2e-9

    @pytest.mark.parametrize("problem", ["bowl", "cos:1:0.2", "cos:1:0.03"])
    def test_the_last_step_is_a_plain_picard_step(self, bowl, problem):
        # the stop is tested before any jump, so the field returned is the
        # result of a Picard step that passed it; each jump's rho is the
        # ratio of the two steps before it
        if problem == "bowl":
            fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=32, n_theta=64,
                                source=bowl.source)
        else:
            amplitude = float(problem.split(":")[2])
            fld = solve_grid_2d(_cos1_spec(),
                                lambda th: amplitude * np.cos(th),
                                n_r=32, n_theta=64)
        solver = fld.meta["solver"]
        d = solver["distances"]
        assert solver["extrapolations"]
        for jump in solver["extrapolations"]:
            assert jump["iteration"] < solver["iterations"]
            it = jump["iteration"]
            assert jump["rho"] == d[it - 1] / d[it - 2]
        assert d[-1] < 1e-10

    def test_a_stop_on_a_steady_window_takes_no_jump(self, bowl):
        # stopped at the step whose ratios set off the first jump, the
        # solve returns that Picard step as it is
        kwargs = dict(n_r=32, n_theta=64, source=bowl.source)
        first = solve_grid_2d(bowl.spec, bowl.boundary, **kwargs)
        it = first.meta["solver"]["extrapolations"][0]["iteration"]
        tol = first.meta["solver"]["distances"][it - 1] * (1.0 + 1e-9)
        fld = solve_grid_2d(bowl.spec, bowl.boundary, tol=tol, **kwargs)
        solver = fld.meta["solver"]
        assert solver["iterations"] == it
        assert solver["extrapolations"] == []

    def test_no_jump_during_a_climb(self):
        # on cos(2 theta) the steps first shrink, then grow for about ten
        # steps (ratios up to 2.5), then converge: no jump may fall in the
        # climb, where ratios >= 1 say no single contracting mode is left
        fld = solve_grid_2d(_cos1_spec(), lambda th: 0.05 * np.cos(2 * th),
                            n_r=32, n_theta=64)
        solver = fld.meta["solver"]
        d = solver["distances"]
        ratios = [b / a for a, b in zip(d, d[1:])]
        climb = [i for i, r in enumerate(ratios) if r >= 1.0]
        assert max(ratios) > 2.0 and len(climb) >= 5
        jumps = [jump["iteration"] for jump in solver["extrapolations"]]
        assert jumps and min(jumps) > climb[-1] + 2
        for it in jumps:
            assert all(r < 1.0 for r in ratios[it - 4:it - 1])


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


def test_grid_solve_leaves_scipy_unloaded():
    # the solver is matrix-free and its mode systems are numpy sweeps: no
    # scipy module loads on either inner-solve path
    code = ("from freqlab.fields import manufactured_bowl, solve_grid_2d; "
            "from freqlab.model import ProblemSpec; import numpy as np; "
            "b = manufactured_bowl(); "
            "f = solve_grid_2d(b.spec, b.boundary, n_r=16, n_theta=32, source=b.source); "
            "g = solve_grid_2d(ProblemSpec.model(2, 1.5), lambda th: 0.2 * np.cos(th), "
            "n_r=16, n_theta=32); "
            "assert [f.meta['solver']['inner_solve'], g.meta['solver']['inner_solve']]"
            " == ['gmres', 'fourier']")
    assert _scipy_modules_after(code, "scipy") == "[]"


def test_the_bowl_solve_peaks_within_its_ceiling():
    # the tracemalloc peak of the bowl solve at 64x128, after a 32x64 solve
    # has made every import, in node fields of 65 x 128 float64s: 29.2
    # while the stencil summed whole-grid products, 28.1 while LAPACK's
    # gttrf factored the theta-mean, 27.95 with the numpy sweeps and GMRES
    # summing c and L c one product at a time
    import gc
    import tracemalloc

    from freqlab.fields import manufactured_bowl

    mp = manufactured_bowl(amplitude=1.0, v0=0.25)

    def solve(n_r, n_theta):
        return solve_grid_2d(mp.spec, mp.boundary, n_r=n_r, n_theta=n_theta,
                             source=mp.source)

    solve(32, 64)
    gc.collect()
    tracemalloc.start()
    try:
        solve(64, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28.0 * 65 * 128 * 8


class TestResidualField:
    def test_linear_field_zero_residual(self, linear_mode_spec):
        fld = sample_grid2d(lambda x: x[..., 0], 1.0, 64, 128, q=1.5)
        rho = residual_field(linear_mode_spec, fld)
        assert np.nanmax(np.abs(rho)) < 1e-10

    def test_sampled_exact_solution_fourth_order(self, bowl):
        norms = []
        for M in (64, 128):
            fld = bowl.to_field(n_r=M, n_theta=2 * M)
            norms.append(_sup_residual(bowl.spec, fld, bowl.source))
        assert 8.0 <= norms[0] / norms[1] <= 40.0

    def test_glued_field_matches_closed_form(self):
        # rho = 2 w'' + (N-1)/r w' for the zero-core glued candidate
        g = glued_field(2, 1.5, 0.3, 0.8, h=1e-3)
        spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
        rho = residual_field(spec, g)
        exact = glued_residual_exact(g, 0.3)
        mask = ~np.isnan(rho)
        assert np.max(np.abs(rho[mask] - exact[mask])) <= 1e-7
        assert np.nanmax(np.abs(rho)) > 1e-2  # detectably not a solution

    @pytest.mark.parametrize("change", ["potential", "nonlinearity",
                                        "coefficients"])
    def test_radial_residual_rejects_a_problem_the_route_does_not_admit(
            self, change):
        # each problem below differs from the model in one coefficient that
        # a radial profile cannot carry; an x-dependent f used to reach
        # numpy as "too many indices for array"
        fld = solve_radial(ProblemSpec.model(2, 1.5), 0.5, h=1e-2)
        value = {
            "potential": lambda x: np.ones(x.shape[:-1]),
            "nonlinearity": NonlinearitySpec.sum_of_powers(
                [PowerTerm(1.5, lambda x: 1.0 + x[..., 0] ** 2)]),
            "coefficients": CoefficientField.diagonal([2.0, 1.0]),
        }[change]
        spec = dataclasses.replace(ProblemSpec.model(2, 1.5), **{change: value})
        with pytest.raises(ValueError, match="the radial route needs"):
            residual_field(spec, fld)

    def test_solver_output_truncation_order(self, bowl):
        norms = []
        for M in (24, 48):
            fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=M, n_theta=2 * M,
                                source=bowl.source, tol=1e-12, max_iters=200)
            norms.append(_sup_residual(bowl.spec, fld, bowl.source))
        order = math.log2(norms[0] / norms[1])
        assert 1.6 <= order <= 2.4


class TestGradientConsistency:
    def test_machinery_vs_plain_differences(self, bowl_field_128):
        # spectral/five-point gradients agree with plain second-order
        # differences at the level of the coarser scheme
        fld = bowl_field_128
        gx, gy = cartesian_gradient(fld.u, fld.r, fld.theta)
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


def _bowl_grid(n_r=16, n_t=32):
    return sample_grid2d(lambda x: 2.0 - np.sum(x * x, axis=-1), 1.0, n_r, n_t, 1.5)


def _read_members(path):
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    return json.loads(str(arrays.pop("header"))), arrays


def _write_members(path, header, arrays, **savez):
    with open(path, "wb") as fh:
        np.savez(fh, **({} if header is None else
                        {"header": np.array(json.dumps(header))}),
                 **arrays, **savez)


def _edit_archive(path, edit):
    """Rewrite the field archive at path after edit(header, arrays)."""
    header, arrays = _read_members(path)
    edit(header, arrays)
    _write_members(path, header, arrays)
    return path


def _same_field(a, b):
    return (a.representation == b.representation and a.dim == b.dim
            and a.q == b.q
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for k in ("r", "u", "du", "theta")
                    if getattr(a, k) is not None))


class TestSerialization:
    def test_radial_round_trip(self, tmp_path, radial_solutions):
        fld = radial_solutions[(2, 1.5)]
        path = tmp_path / "radial.npz"
        save_field(fld, path)
        back = load_field(path)
        assert back.representation == "radial"
        assert back.dim == fld.dim and back.q == fld.q
        np.testing.assert_array_equal(back.r, fld.r)
        np.testing.assert_array_equal(back.u, fld.u)
        np.testing.assert_array_equal(back.du, fld.du)

    def test_grid_round_trip(self, tmp_path, bowl_field_128):
        path = tmp_path / "grid.npz"
        save_field(bowl_field_128, path)
        back = load_field(path)
        assert back.representation == "grid2d"
        np.testing.assert_array_equal(back.u, bowl_field_128.u)
        np.testing.assert_array_equal(back.theta, bowl_field_128.theta)
        np.testing.assert_array_equal(back.r, bowl_field_128.r)

    @pytest.mark.parametrize("name", ["field.txt", "field", "field.npz"])
    def test_writes_exactly_the_path_given_and_same_bytes(self, tmp_path, name):
        fld = _bowl_grid()
        save_field(fld, tmp_path / name)
        assert os.listdir(tmp_path) == [name]
        first = (tmp_path / name).read_bytes()
        save_field(fld, tmp_path / name)
        assert (tmp_path / name).read_bytes() == first
        assert _same_field(load_field(tmp_path / name), fld)

    def test_archive_layout(self, tmp_path):
        save_field(_bowl_grid(), tmp_path / "grid.npz")
        header, arrays = _read_members(tmp_path / "grid.npz")
        assert header == {"format": "freqlab-field 2", "representation": "grid2d",
                          "N": 2, "q": 1.5, "n_r": 16, "n_theta": 32,
                          "r_max": 1.0}
        assert list(arrays) == ["u"] and arrays["u"].shape == (17, 32)
        assert arrays["u"].dtype == np.float64

    @pytest.mark.parametrize("value", [1e3, "junk"])
    def test_a_residual_scale_entry_is_ignored(self, tmp_path, value):
        # older files carry the solver's residual_scale in the header; like
        # any other unknown key it loads and sets nothing
        path = tmp_path / "grid.npz"
        save_field(_bowl_grid(), path)
        _edit_archive(path, lambda header, arrays: header.update(
            residual_scale=value))
        fld = load_field(path)
        assert _same_field(fld, _bowl_grid())
        assert not hasattr(fld, "residual_scale")

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a field\n")
        with pytest.raises(ValueError):
            load_field(path)

    def test_rejects_truncated_radial_file(self, tmp_path):
        r = np.linspace(0.0, 1.0, 101)
        fld = SolutionField.radial_from_arrays(r, 1.0 - r ** 2, -2.0 * r, 2, 1.5)
        path = tmp_path / "radial.npz"
        save_field(fld, path)
        path.write_bytes(path.read_bytes()[:-200])
        with pytest.raises(ValueError, match="unreadable field archive"):
            load_field(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a.update(r=a["r"][:0], u=a["u"][:0], du=a["du"][:0]),
         "must start at 0"),
        (lambda a: a.pop("du"), "holds arrays r, u, du; this one holds r, u"),
    ], ids=["empty", "two-arrays"])
    def test_rejects_radial_file_without_three_arrays(self, tmp_path, edit, message):
        path = self._radial_file(tmp_path, np.linspace(0.0, 1.0, 101))
        _edit_archive(path, lambda header, arrays: edit(arrays))
        with pytest.raises(ValueError, match=message):
            load_field(path)

    def test_rejects_truncated_grid_file(self, tmp_path):
        path = tmp_path / "grid.npz"
        save_field(_bowl_grid(), path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(ValueError, match="unreadable field archive"):
            load_field(path)

    @pytest.mark.parametrize("shape", [(16, 32), (17, 31), (17 * 32,)],
                             ids=["row-missing", "column-missing", "flat"])
    def test_rejects_grid_file_with_wrong_shape(self, tmp_path, shape):
        # the text format's (i, j) rows could repeat or miss a node; a shaped
        # array can only disagree with the header's n_r and n_theta
        path = tmp_path / "grid.npz"
        save_field(_bowl_grid(), path)
        _edit_archive(path, lambda header, arrays: arrays.update(
            u=np.resize(arrays["u"], shape)))
        with pytest.raises(ValueError, match="header says 17 x 32 nodes"):
            load_field(path)

    @staticmethod
    def _radial_file(tmp_path, r):
        """A radial field file on nodes r, written without the constructor's
        checks, so that load_field has to make them."""
        path = tmp_path / "radial.npz"
        _write_members(path, {"format": "freqlab-field 2",
                              "representation": "radial", "N": 2, "q": 1.5},
                       {"r": r, "u": 1.0 - r ** 2, "du": -2.0 * r})
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
        with pytest.raises(ValueError, match=message):
            SolutionField.radial_from_arrays(r, 1.0 - r ** 2, -2.0 * r, 2, 1.5)

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
            where, index = 50, "50"
        else:
            path = tmp_path / "grid.npz"
            save_field(_bowl_grid(), path)
            where, index = (1, 18), "1, 18"

        def edit(header, arrays):
            arrays["u"][where] = float(bad)

        _edit_archive(path, edit)
        with pytest.raises(ValueError, match=f"non-finite value in u at index {index}"):
            load_field(path)

    @pytest.mark.parametrize("line, message", [
        ("r_max=nan", "r_max must be finite"), ("r_max=inf", "r_max must be finite"),
        ("r_max=-1.0", "r_max must be finite and positive")])
    def test_rejects_bad_grid_header_values(self, tmp_path, line, message):
        path = tmp_path / "grid.npz"
        save_field(_bowl_grid(), path)
        key, value = line.split("=")
        _edit_archive(path, lambda header, arrays: header.update({key: float(value)}))
        with pytest.raises(ValueError, match=message):
            load_field(path)

    @pytest.mark.parametrize("fault", ["offset", "nonuniform", "nan"])
    def test_cli_exits_2_on_bad_radial_field(self, tmp_path, capsys, fault):
        from freqlab.cli import main

        spec = ProblemSpec.model(2, 1.5, outer_radius=1.0)
        path = tmp_path / "field.npz"
        save_field(solve_radial(spec, 0.5, h=1e-2), path)

        def edit(header, arrays):
            r = arrays["r"]
            if fault == "offset":
                arrays["r"] = r + 1e-3
            elif fault == "nonuniform":
                arrays["r"] = r * (1.0 + 1e-3 * r)
            else:
                arrays["u"][40] = np.nan

        _edit_archive(path, edit)
        for command in ("frequency", "audit"):
            out = tmp_path / command
            assert main([command, str(path), "--out", str(out)]) == 2
            assert "error:" in capsys.readouterr().err
            assert not out.exists() or not any(out.iterdir())

    def test_cli_exits_2_on_truncated_field(self, tmp_path, capsys):
        from freqlab.cli import main

        path = tmp_path / "grid.npz"
        save_field(_bowl_grid(), path)
        _edit_archive(path, lambda header, arrays: arrays.update(u=arrays["u"][:-1]))
        out = tmp_path / "o"
        assert main(["frequency", str(path), "--out", str(out)]) == 2
        assert "header says 17 x 32 nodes" in capsys.readouterr().err
        assert not (out / "profile.csv").exists()

    def test_rejects_grid_file_with_multi_valued_pole(self, tmp_path):
        path = tmp_path / "grid.npz"
        save_field(_bowl_grid(), path)

        def edit(header, arrays):
            u = arrays["u"]
            u[0, 7] = np.nextafter(u[0, 7], 3.0)  # one ulp is another field

        _edit_archive(path, edit)
        with pytest.raises(ValueError, match="pole row"):
            load_field(path)

    def test_cli_exits_2_on_multi_valued_pole(self, tmp_path, capsys):
        # a solved field whose pole row carries 1e-3 cos(theta): before the
        # check, frequency exited 0 on it and audit 5 (residual veto)
        from freqlab.cli import main

        solved = tmp_path / "solve"
        assert main(["solve", "--mode", "grid2d", "--rings", "32", "--angles",
                     "64", "--out", str(solved)]) == 0
        path = solved / "field.npz"
        theta = load_field(path).theta

        def edit(header, arrays):
            arrays["u"][0] += 1e-3 * np.cos(theta)

        _edit_archive(path, edit)
        for command in ("frequency", "audit"):
            out = tmp_path / command
            assert main([command, str(path), "--out", str(out)]) == 2
            assert "pole row" in capsys.readouterr().err
            assert not out.exists() or not any(out.iterdir())


def _flip_member_byte(path):
    """Flip one byte of the data of the archive's u member."""
    import zipfile

    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("u.npy")
    raw = bytearray(path.read_bytes())
    # the local header: 30 bytes, then the name and the extra field
    name_len, extra_len = np.frombuffer(
        bytes(raw[info.header_offset + 26:info.header_offset + 30]), "<u2")
    start = info.header_offset + 30 + int(name_len) + int(extra_len)
    raw[start + info.file_size - 8] ^= 0x40
    path.write_bytes(bytes(raw))


def _malformed(case, path):
    """Write the malformed field file `case` at path."""
    r = np.linspace(0.0, 1.0, 101)
    radial = {"format": "freqlab-field 2", "representation": "radial",
              "N": 2, "q": 1.5}
    arrays = {"r": r, "u": 1.0 - r ** 2, "du": -2.0 * r}
    if case == "empty":
        path.write_bytes(b"")
    elif case == "random-bytes":
        path.write_bytes(np.random.default_rng(3).bytes(4096))
    elif case == "half":
        save_field(_bowl_grid(), path)
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    elif case == "crc":
        save_field(_bowl_grid(), path)
        _flip_member_byte(path)
    elif case == "bare-npy":
        with open(path, "wb") as fh:
            np.save(fh, arrays["u"])
    elif case == "no-header":
        _write_members(path, None, arrays)
    elif case == "missing-array":
        _write_members(path, radial, {"r": r, "u": arrays["u"]})
    elif case == "object-array":
        _write_members(path, radial, dict(arrays, u=np.array(list(arrays["u"]), dtype=object)),
                       allow_pickle=True)
    elif case == "float32":
        _write_members(path, radial, dict(arrays, u=arrays["u"].astype(np.float32)))
    elif case == "grid-shape":
        save_field(_bowl_grid(), path)
        _edit_archive(path, lambda header, a: header.update(n_theta=64))
    elif case == "unequal-lengths":
        _write_members(path, radial, dict(arrays, du=arrays["du"][:-1]))
    elif case == "deep-header":
        _write_members(path, None, dict(arrays, header=np.array("[" * 10 ** 5)))
    elif case == "huge-q":
        _write_members(path, dict(radial, q=10 ** 400), arrays)
    elif case == "nan-q":
        _write_members(path, dict(radial, q=math.nan), arrays)
    elif case == "text-format":
        path.write_text("# freqlab-field 1\nrepresentation=radial\nN=2\nq=1.5\n"
                        "count=2\nr,u,du\n0.0,1.0,0.0\n0.1,0.99,-0.2\n")
    return path


@pytest.mark.parametrize("case, message", [
    ("empty", "not a freqlab field file"),
    ("random-bytes", "not a freqlab field file"),
    ("half", "unreadable field archive"),
    ("crc", "unreadable field archive .BadZipFile: Bad CRC-32"),
    ("bare-npy", "not a freqlab field file"),
    ("no-header", "no header"),
    ("missing-array", "holds arrays r, u, du; this one holds r, u"),
    ("object-array", "unreadable field archive .ValueError: Object arrays"),
    ("float32", "array u is float32, not float64"),
    ("grid-shape", "header says 17 x 64 nodes"),
    ("unequal-lengths", "must be 1-D of one length"),
    ("deep-header", "nests too deeply"),
    ("huge-q", "header q is out of range"),
    ("nan-q", "non-finite q"),
    ("text-format", "text field format is retired"),
])
def test_malformed_field_file_exits_2_with_a_reason(tmp_path, capsys, case, message):
    from freqlab.cli import main

    path = _malformed(case, tmp_path / "field.npz")
    with pytest.raises(ValueError, match=message) as reason:
        load_field(path)
    out = tmp_path / "o"
    assert main(["frequency", str(path), "--out", str(out)]) == 2
    assert str(reason.value) in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def valid_field_files(tmp_path_factory):
    r = np.linspace(0.0, 1.0, 41)
    radial = SolutionField.radial_from_arrays(r, 1.0 - r ** 2, -2.0 * r, 2, 1.5)
    files = {}
    for fld in (radial, _bowl_grid(8, 16)):
        path = tmp_path_factory.mktemp("valid") / "field.npz"
        save_field(fld, path)
        files[fld.representation] = (fld, path.read_bytes())
    return files


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rep=st.sampled_from(["radial", "grid2d"]), cut=st.booleans(),
       where=st.floats(0.0, 1.0, exclude_max=True), mask=st.integers(1, 255))
def test_damaged_files_load_identically_or_raise_value_error(
        tmp_path, valid_field_files, rep, cut, where, mask):
    fld, raw = valid_field_files[rep]
    k = int(where * len(raw))
    if cut:
        damaged = raw[:k]
    else:
        damaged = bytearray(raw)
        damaged[k] ^= mask
    path = tmp_path / "damaged.npz"
    path.write_bytes(bytes(damaged))
    try:
        back = load_field(path)
    except ValueError:
        return
    assert _same_field(back, fld)


def _verdict_json(spec, fld):
    from freqlab.audit import audit
    from freqlab.frequency import frequency_profile, run_all_identity_checks
    from freqlab.io import jsonable

    prof = frequency_profile(spec, fld)
    reports = run_all_identity_checks(spec, fld, prof)
    return json.dumps(jsonable({
        "profile": dataclasses.asdict(prof),
        "identities": {name: rep.to_dict() for name, rep in reports.items()},
        "certificate": audit(spec, fld).to_dict()}), sort_keys=True)


@pytest.mark.parametrize("rep", ["radial", "grid2d"])
def test_verdicts_do_not_depend_on_the_field_file(tmp_path, rep):
    # the text loader returned radial columns as strided views of one
    # parsed block, and numpy sums strided data in another order: the
    # identities of a loaded field differed from the solver's in the last
    # bits
    spec = ProblemSpec.model(2, 1.5, outer_radius=1.5 if rep == "radial" else 1.0)
    fld = solve_radial(spec, 0.5, h=1e-3)
    if rep == "grid2d":
        trace = float(fld.u[-1])
        fld = solve_grid_2d(spec, lambda th: np.full_like(th, trace), n_r=32,
                            n_theta=64)
    path = tmp_path / "field.npz"
    save_field(fld, path)
    assert _verdict_json(spec, load_field(path)) == _verdict_json(spec, fld)


def _verdict_files(spec, fld, out):
    """The bytes of what `freq-lab frequency` and `freq-lab audit` write."""
    from freqlab.audit import audit
    from freqlab.frequency import (frequency_profile, run_all_identity_checks,
                                   write_identity_reports)
    from freqlab.io import profile_to_csv, write_json

    out.mkdir()
    prof = frequency_profile(spec, fld)
    profile_to_csv(prof, out / "profile.csv")
    write_identity_reports(run_all_identity_checks(spec, fld, prof), out)
    write_json(out / "certificate.json", audit(spec, fld).to_dict())
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_verdicts_do_not_depend_on_array_layout(tmp_path):
    # the constructor stores C-contiguous copies of strided arrays, so
    # strided views of the same bits give the same verdict bytes
    spec = ProblemSpec.model(3, 1.5, outer_radius=6.0)
    fld = solve_radial(spec, 0.5, h=1e-3)
    block = np.stack([fld.r, fld.u, fld.du], axis=1)
    assert not block[:, 1].flags.c_contiguous
    strided = SolutionField.radial_from_arrays(block[:, 0], block[:, 1],
                                               block[:, 2], fld.dim, fld.q)
    want = _verdict_files(spec, fld, tmp_path / "contiguous")
    assert sorted(want) == ["certificate.json", "identities.json",
                            "identities.npz", "profile.csv"]
    assert _verdict_files(spec, strided, tmp_path / "strided") == want


def test_write_csv_matches_the_per_cell_format(tmp_path):
    # every value is the repr of its float, and NaN and None are empty
    # fields; the per-cell form below is the reference
    from freqlab.io import write_csv

    cols = [np.array([0.1, np.nan, -0.0, np.inf]), [1, None, 3, 4],
            np.array([1e-300, 2.5, -np.inf, 7.0])]

    def cell(v):
        return "" if v is None or np.isnan(v) else repr(float(v))

    want = "# s 1\na,b,c\n" + "".join(
        ",".join(cell(c[k]) for c in cols) + "\n" for k in range(4))
    write_csv(tmp_path / "x.csv", ["a", "b", "c"], cols, "s 1")
    assert (tmp_path / "x.csv").read_text() == want


def test_constructors_store_contiguous_float64(tmp_path):
    block = np.stack([np.linspace(0.0, 1.0, 11), np.ones(11), np.zeros(11)], axis=1)
    fld = SolutionField.radial_from_arrays(block[:, 0], block[:, 1], block[:, 2],
                                           2, 1.5)
    for a in (fld.r, fld.u, fld.du):
        assert a.flags.c_contiguous and a.dtype == np.float64
        assert not a.flags.writeable
    grid = _bowl_grid()
    fld = SolutionField.grid2d_from_values(grid.r, np.asfortranarray(grid.u),
                                           1.5)
    for a in (fld.r, fld.u, fld.theta):
        assert a.flags.c_contiguous and not a.flags.writeable


def test_grid_angles_come_from_the_field():
    # theta is 2 pi j / n_theta of u's columns, and not an input
    grid = _bowl_grid()
    n_t = grid.u.shape[1]
    np.testing.assert_array_equal(grid.theta,
                                  np.arange(n_t) * (2.0 * math.pi / n_t))
    with pytest.raises(TypeError):
        SolutionField("grid2d", 2, 1.5, grid.r, grid.u, theta=grid.theta)
    half = dataclasses.replace(grid, u=grid.u[:, ::2], meta={})
    np.testing.assert_array_equal(half.theta, grid.theta[::2])


@pytest.mark.parametrize("build, message", [
    (lambda g: SolutionField.grid2d_from_values(g.r, g.u[:, :-1], 1.5),
     "even number of angular nodes"),
    (lambda g: SolutionField.grid2d_from_values(g.r, g.u[:, :0], 1.5),
     "angular nodes, got 0"),
    (lambda g: SolutionField.grid2d_from_values(g.r, g.u[:-1], 1.5),
     "expected .n_r_nodes, n_theta."),
    (lambda g: SolutionField.grid2d_from_values(g.r, g.u[:, 0], 1.5),
     "grid u has shape .17,.;"),
    (lambda g: SolutionField.grid2d_from_values(g.r, g.u + np.eye(17, 32), 1.5),
     "pole row"),
    (lambda g: SolutionField.grid2d_from_values(g.r * 1.0 + 0.1, g.u, 1.5),
     "must start at 0"),
])
def test_grid_constructor_validates(build, message):
    with pytest.raises(ValueError, match=message):
        build(_bowl_grid())


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


class TestPolarGradient:
    def test_pole_and_rim_rows_exact_on_a_quartic(self):
        # along every ray u is a quartic in r, so the five-point stencils,
        # centred, one-sided at the two rim rows and across the pole, are
        # exact; the angular modes are |k| <= 4, which the FFT resolves
        fld = sample_grid2d(lambda x: x[..., 0] ** 4 - 2 * x[..., 0] * x[..., 1] ** 3
                            + x[..., 1] ** 2, 1.0, 32, 64, 1.5)
        x, y = np.moveaxis(fld.points(), -1, 0)
        gx, gy = cartesian_gradient(fld.u, fld.r, fld.theta)
        for got, want in ((gx, 4 * x ** 3 - 2 * y ** 3),
                          (gy, -6 * x * y ** 2 + 2 * y)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestHessianSymmetry:
    def test_mixed_partials_commute_to_truncation(self, bowl_field_128):
        # the discrete Hessian is as-good-as symmetric: mixed partials from
        # the two orderings agree at the machinery's truncation level
        fld = bowl_field_128
        gx, gy = cartesian_gradient(fld.u, fld.r, fld.theta)
        dxy = cartesian_gradient(gx, fld.r, fld.theta)[1]  # d_y (d_x u)
        dyx = cartesian_gradient(gy, fld.r, fld.theta)[0]  # d_x (d_y u)
        interior = slice(2, -3)
        defect = np.max(np.abs((dxy - dyx)[interior]))
        scale = np.max(np.abs(dxy[interior]))
        assert defect <= 1e-5 * scale
