import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqlab import odes
from freqlab.fields import glued_field
from freqlab.odes import (OdeTrajectory, PmeField, ZeroEvent,
                          conserved_energy, counterexample_profile,
                          counterexample_slope, integrate_plane,
                          integrate_radial, pme_residual_grid, zero_audit)


class TestCounterexample:
    def test_closed_form_values(self):
        u, upp = counterexample_profile(1.5, 0.0, 2.0)
        assert u == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert upp == pytest.approx(1.0 / 3.0, rel=1e-15)
        u, upp = counterexample_profile(1.5, 0.0, 1.0)
        assert u == pytest.approx(1.0 / 144.0, rel=1e-15)
        assert upp == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_zero_branch(self):
        u, upp = counterexample_profile(1.7, 0.5, np.array([-1.0, 0.0, 0.5]))
        assert np.all(u == 0.0) and np.all(upp == 0.0)

    @pytest.mark.parametrize("q", [1.2, 1.5, 1.8])
    def test_residual_on_both_branches(self, q):
        t = np.concatenate([np.linspace(-1, 0, 1000),
                            np.linspace(1e-6, 1, 1000)])
        u, upp = counterexample_profile(q, 0.0, t)
        f = np.sign(u) * np.abs(u) ** (q - 1.0)
        assert np.max(np.abs(upp - f) / np.maximum(1, np.abs(upp))) <= 1e-12

    @pytest.mark.parametrize("q", [0.9, 1.0, 2.0, 2.3])
    def test_rejects_degenerate_exponents(self, q):
        with pytest.raises(ValueError):
            counterexample_profile(q, 0.0, 1.0)


class TestEnergy:
    def test_initial_energies(self):
        traj = integrate_plane(1.5, 1.0, 0.0, 1e-3, 1.0)
        E = conserved_energy(traj)
        assert E[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
        traj = integrate_plane(1.4, 0.0, 1.0, 1e-3, 1.0)
        assert conserved_energy(traj)[0] == pytest.approx(0.5, rel=1e-15)

    def test_drift_at_reference_step(self):
        traj = integrate_plane(1.5, 1.0, 0.0, 1e-3, 10.0)
        E = conserved_energy(traj)
        assert np.max(np.abs(E - E[0])) <= 1e-8

    def test_q1_exact_pieces(self):
        traj = integrate_plane(1.0, 0.0, 1.0, 1e-3, 10.0)
        E = conserved_energy(traj)
        assert np.max(np.abs(E - 0.5)) <= 1e-12

    @pytest.mark.parametrize("q", [1.0, 1.5])
    def test_start_on_a_zero_records_the_crossing(self, q):
        # q = 1 runs through the crossing series as q > 1 does
        traj = integrate_plane(q, 0.0, 1.0, 1e-3, 1.0)
        assert traj.crossings[0] == (0.0, 1.0)

    def test_q1_crossings_exact(self):
        # from (1, 0): u = 1 - t^2/2 reaches its zeros at (2k + 1) sqrt(2)
        traj = integrate_plane(1.0, 1.0, 0.0, 1e-3, 10.0)
        assert len(traj.crossings) == 4
        for k, (loc, slope) in enumerate(traj.crossings):
            assert loc == pytest.approx((2 * k + 1) * math.sqrt(2.0), abs=1e-13)
            assert abs(slope) == pytest.approx(math.sqrt(2.0), abs=1e-13)


class TestRadial:
    def test_series_start_curvature(self):
        # u''(0) = -|a|^{q-2} a / N from the origin's Taylor step
        traj = integrate_radial(3, 1.5, 1.0, 0.5, 1e-3)
        r = traj.t[:8]
        np.testing.assert_allclose(traj.u[:8], 1.0 - r ** 2 / 6.0, atol=1e-12)

    def test_q1_first_crossing_exact(self):
        # N=2, q=1, a=1: u = 1 - r^2/4 exactly until it crosses at r = 2
        traj = integrate_radial(2, 1.0, 1.0, 3.0, 1e-3)
        zeros = zero_audit(traj)
        assert len(zeros) >= 1
        assert zeros[0].location == pytest.approx(2.0, abs=1e-8)
        assert zeros[0].slope == pytest.approx(1.0, abs=1e-8)
        assert not zeros[0].degenerate

    def test_q1_crossing_halved_step_agreement(self):
        za = zero_audit(integrate_radial(2, 1.0, 1.0, 3.0, 1e-3))[0]
        zb = zero_audit(integrate_radial(2, 1.0, 1.0, 3.0, 5e-4))[0]
        assert abs(za.location - zb.location) <= 1e-8

    def test_damped_energy_monotone(self):
        traj = integrate_radial(3, 1.5, 1.0, 6.0, 1e-3)
        E = conserved_energy(traj)
        assert np.max(np.diff(E)) <= 1e-10

    def test_dim1_reduces_to_plane(self):
        tr = integrate_radial(1, 1.5, 1.0, 5.0, 1e-3)
        tp = integrate_plane(1.5, 1.0, 0.0, 1e-3, 5.0)
        np.testing.assert_allclose(tr.u, tp.u, atol=1e-14)

    def test_amplitude_bound_from_energy(self):
        # damping only removes energy: |u| <= |a| everywhere
        for a in (0.5, 0.25):
            traj = integrate_radial(2, 1.5, a, 4.0, 1e-3)
            assert np.max(np.abs(traj.u)) <= a * (1 + 1e-12)

    def test_rejects_zero_amplitude(self):
        with pytest.raises(ValueError):
            integrate_radial(2, 1.5, 0.0, 1.0, 1e-3)

    @pytest.mark.parametrize("h", [1e-3, 5e-4])
    def test_rejects_a_step_that_does_not_resolve_the_origin(self, h):
        # the length scale |a|^{(q-2)/2} is 1e-3 at a = 1e-12, q = 1.5: the
        # origin's Taylor step, 0.61e-3 long, fills fewer than two nodes
        # (with no check, h = 1e-3 took 4984 'crossings' to R = 6)
        with pytest.raises(ValueError, match=f"step h = {h:g} does not resolve "
                           "the solution at the origin: its Taylor step is "
                           "0.000612 long"):
            integrate_radial(3, 1.5, 1e-12, 6.0, h)

    @pytest.mark.parametrize("dim, q", [(2, 1.0), (3, 1.5)])
    def test_a_run_of_one_step(self, dim, q):
        # r_max = h: the origin's Taylor step fills the one node
        h = 1e-3
        traj = integrate_radial(dim, q, 0.5, h, h)
        assert len(traj.t) == 2
        # u = a - |a|^{q-2} a r^2 / (2 dim) + O(r^4): 4e-15 here, 0 at q = 1
        assert traj.u[1] == pytest.approx(0.5 - 0.5 ** (q - 1.0) * h * h / (2 * dim),
                                          rel=0, abs=1e-14)

    def test_q1_crossing_slope_exact(self):
        # N=3, q=1, a=1/2: u = 1/2 - r^2/6 up to its zero at sqrt(3), where
        # u' = -1/sqrt(3); the steps to and from the zero keep f = sgn(u) of
        # their side, so a stage rounding across the zero moves nothing
        for h in (1e-3, 1e-4):
            (loc, slope), = integrate_radial(3, 1.0, 0.5, 2.0, h).crossings
            assert loc == pytest.approx(math.sqrt(3.0), abs=1e-13)
            assert slope == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-13)


# --------------------------------------------------------------------------
# Taylor steps between zeros against one RK4 step per node


def _rk4_shooter(monkeypatch, *args):
    """integrate_radial with one RK4 step per node between zeros, the
    crossings handled as before: every Taylor step past the origin is
    declined, and the origin's covers at most ten nodes."""
    taylor_step = odes._taylor_step

    def origin_only(u, v, r0, h, q, dim, nodes_left):
        if r0:
            return 0.0, np.empty(0), np.empty(0)
        return taylor_step(u, v, r0, h, q, dim, min(nodes_left, 10))

    with monkeypatch.context() as m:
        m.setattr(odes, "_taylor_step", origin_only)
        return integrate_radial(*args)


TAYLOR_CASES = [(dim, q, a, R, h) for R, h in ((5.0, 2e-3), (5.0, 1e-3), (4.5, 1e-4))
                for dim in (2, 3, 4) for q in (1.0, 1.2, 1.5) for a in (0.5, -0.5)]
# a small solution: an absolute root test would size its steps from
# |a_k|^(1/k) and overestimate the radius (12x the RK4 error here)
TAYLOR_CASES.append((3, 1.5, 1e-8, 0.1, 1e-5))


class TestTaylorSteps:
    @pytest.mark.parametrize("dim, q, a, R, h", TAYLOR_CASES,
                             ids=[str(c) for c in TAYLOR_CASES])
    def test_against_rk4_shooter(self, monkeypatch, dim, q, a, R, h):
        taylor = integrate_radial(dim, q, a, R, h)
        rk4 = _rk4_shooter(monkeypatch, dim, q, a, R, h)
        ref = _rk4_shooter(monkeypatch, dim, q, a, R, h / 4)
        # the first node in the band |u| < 3 h |u'| of a zero
        band = int(np.argmax(odes._in_band(rk4.u, rk4.du, h)))
        # at q = 1 both read round-off, about an ulp per node: the floor
        floor = 2e-16 * (len(taylor.t) - 1) if q == 1.0 else 0.0
        for name in ("u", "du"):
            want = getattr(ref, name)[::4]
            scale = np.max(np.abs(want))
            err_taylor = np.abs(getattr(taylor, name) - want) / scale
            err_rk4 = np.abs(getattr(rk4, name) - want) / scale
            # up to the first zero's band only Taylor steps meet only RK4 steps
            assert err_taylor[:band].max() <= max(1.1 * err_rk4[:band].max(), floor)
            # past it both carry the crossing steps' own error, which the
            # RK4 steps' approach error partly cancels: N = 2, q = 1.5 reads
            # 1.13x at h = 1e-4 and 1.16x at h = 2e-3
            assert err_taylor.max() <= max(1.2 * err_rk4.max(), floor), \
                (name, err_taylor.max(), err_rk4.max())
        assert len(taylor.crossings) == len(rk4.crossings) >= 2
        np.testing.assert_allclose([c[0] for c in taylor.crossings],
                                   [c[0] for c in rk4.crossings], rtol=0, atol=1e-8)

    def test_zero_free_run_fills_nodes_in_blocks(self, monkeypatch):
        steps, rk4_steps = [], []
        taylor_step, rk4 = odes._taylor_step, odes._rk4
        monkeypatch.setattr(odes, "_taylor_step",
                            lambda *args: steps.append(args) or taylor_step(*args))
        monkeypatch.setattr(odes, "_rk4",
                            lambda *args, **kw: rk4_steps.append(args) or rk4(*args, **kw))
        traj = integrate_radial(3, 1.5, 0.5, 1.5, 1e-4)
        assert zero_audit(traj) == []
        n = len(traj.t) - 1
        assert len(steps) <= n / 500 and not rk4_steps

    def test_q1_run_with_zeros_fills_nodes_in_blocks(self, monkeypatch):
        # at q = 1 the series sees no branch point at a zero, so a step runs
        # across it; it must end at the zero's band rather than be declined
        # node after node
        steps = []
        taylor_step = odes._taylor_step
        monkeypatch.setattr(odes, "_taylor_step",
                            lambda *args: steps.append(args) or taylor_step(*args))
        traj = integrate_radial(2, 1.0, 0.5, 5.0, 1e-4)
        assert len(traj.crossings) == 4
        assert len(steps) <= (len(traj.t) - 1) / 500


class TestZeroAudit:
    def test_plane_zeros_carry_full_energy(self):
        traj = integrate_plane(1.5, 1.0, 0.0, 1e-3, 10.0)
        zeros = zero_audit(traj)
        assert len(zeros) == 3
        for z in zeros:
            assert not z.degenerate
            assert z.slope ** 2 == pytest.approx(4.0 / 3.0, abs=1e-5)

    def test_radial_slopes_decrease_across_zeros(self):
        traj = integrate_radial(3, 1.5, 1.0, 14.0, 1e-3)
        zeros = [z for z in zero_audit(traj) if not z.degenerate]
        assert len(zeros) >= 2
        slopes = [z.slope for z in zeros]
        assert all(s2 < s1 for s1, s2 in zip(slopes, slopes[1:]))

    def test_glued_profile_reports_one_degenerate_zero(self):
        t = np.linspace(-1.0, 1.0, 2001)
        u, _ = counterexample_profile(1.5, 0.0, t)
        du = counterexample_slope(1.5, 0.0, t)
        traj = OdeTrajectory(t, u, du, 1.5, 1, (0.0, 0.0), t[1] - t[0])
        zeros = zero_audit(traj)
        assert len(zeros) == 1
        assert zeros[0].degenerate
        assert zeros[0].location == pytest.approx(0.0, abs=2e-3)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1.05, max_value=1.9),
           st.floats(min_value=0.3, max_value=1.0))
    def test_energy_forces_simple_zeros(self, q, a):
        traj = integrate_plane(q, a, 0.0, 2e-3, 8.0)
        E0 = a ** q / q
        for z in zero_audit(traj):
            assert not z.degenerate
            assert z.slope ** 2 == pytest.approx(2 * E0, rel=1e-3)


class TestMeasuredOrder:
    def test_energy_drift_order_is_four(self):
        hs = (1e-2, 5e-3, 2.5e-3)
        drifts = []
        for h in hs:
            traj = integrate_plane(1.5, 1.0, 0.0, h, 10.0)
            E = conserved_energy(traj)
            drifts.append(np.max(np.abs(E - E[0])))
        slope = np.polyfit(np.log(hs), np.log(drifts), 1)[0]
        assert 3.8 <= slope <= 4.2


class TestPme:
    def test_symbolic_case_small_residual(self):
        base = integrate_radial(3, 1.5, 0.5, 2.0, 5e-4)
        pme = PmeField(base, t0=0.0)
        assert pme.m == pytest.approx(2.0)
        idx, t_values, res = pme_residual_grid(pme)
        wsup = float(np.max(np.abs(pme.w(idx, t_values))))
        assert float(np.max(np.abs(res))) <= 1e-6 * wsup

    def test_zero_base_gives_zero_residual(self):
        t = np.linspace(0, 1, 512)
        base = OdeTrajectory(t, np.zeros_like(t), np.zeros_like(t), 1.5, 3,
                             (0.0, 0.0), t[1] - t[0])
        pme = PmeField(base, t0=0.0)
        assert not np.any(pme_residual_grid(pme)[2])

    def test_rejects_times_before_t0(self):
        base = integrate_radial(2, 1.5, 0.5, 1.0, 1e-3)
        pme = PmeField(base, t0=1.0)
        with pytest.raises(ValueError):
            pme_residual_grid(pme, t_values=np.array([0.5, 2.0]))


# --------------------------------------------------------------------------
# bit-exact outputs of the integrators
#
# sha256 of u.tobytes(), du.tobytes() and repr(crossings): the plane digests
# (and the N = 1 radial ones, which run the plane integrator) were recorded
# with the straightforward numpy-scalar RK4 loop and its crossing series, at
# q = 1 too, the N >= 2 radial ones with Taylor steps from the origin and
# between zeros.  A faster integrator must reproduce every bit, signed zeros
# and the numpy scalar type of the crossings included.

GOLDEN = [
    ("radial", (3, 1.5, 0.5, 6.0, 0.0001),
     "64efca1952a75d47016dc2c8bc3345d522e3b4d2e9bb417536e31a29bc5ff59a",
     "a5c766df11c0ae41b184e8153a515f8113a2cab71adc4d185171c9c1a1c9a53c",
     "e797e656949cf662aab332cd35b790d832b9c156ce1410b7d9259c78f64d5785"),
    ("radial", (3, 1.5, 0.5, 6.0, 0.001),
     "0968859ae799c9aa6d6cd4b504c4131cc5847292d9882c1e9a5fbc9ccd799027",
     "8b5ee8bb8ff5b893fdf9d8035655d6ebd000098f5a704122cbece4ecbafb3d63",
     "7500f1d8b43e8a62e42bb897c56e6bc8740728e2019d5612f23e1a597a525cba"),
    ("radial", (2, 1.2, 0.5, 4.0, 0.0001),
     "608d9cc4c8a40cb0178524270fa1e7c711c0829d9286e4d4fa34d347bc86f40c",
     "973033d44c40ace30ac5b1e31dc3de5b6c62b209adb02cd873c0b96398edad19",
     "ceaab5b440400f8419363b46c0f336deb27ce024061262d0fd413347ef36b0e3"),
    ("radial", (2, 1.2, 0.5, 4.0, 0.001),
     "befb5d3369dafdb71decfd6f60ca03a91387235136f55132b1a41859e2677a01",
     "60054d2c6b0b2d2fb6adefc062dd4282e1f5356c2f0d2a582ede150f11add694",
     "a149ac8864103a64f09abd9ad4242a318afacbdee9d26202c4948fbe5174d980"),
    ("radial", (2, 1.0, 1.0, 3.0, 0.0001),
     "cf207a2e6d886c421916b4358d5fdcf09db2172506ec6a076479944e3e7a9f45",
     "ed32d030eafadad4cb83e40236e6594a38866d8efba0bc85be6c0d154f44bb77",
     "4cc22d378d6e879ef296f435bcf0f05fcfb29429a683c0cc6a570cf159ea68dc"),
    ("radial", (2, 1.0, 1.0, 3.0, 0.001),
     "bb1f522ceef028e5976478be11ee4d81a1667d9f0e42731d77b235621e02b56c",
     "e2799fed5a3a20941f349bab17e945f7d193029883f1e590da90a06941f84c61",
     "6f165dd381382046e6a3391ff04cb732ce5113025c5e4e6c05c365bfc6e0b22a"),
    ("radial", (4, 1.3, 0.9, 7.0, 0.0001),
     "83db5959bb87ac8b02881784d467c57a4619938d60362027a5e534d9fbeb2c24",
     "b753927a21c791515cc2cd231fcf7c35e75ef8de03da6f8612b65239323565ff",
     "2dcb3ceec7efb4dee829abce549aed0c7144fa7fc894e8be9ee4b7645dfb900a"),
    ("radial", (4, 1.3, 0.9, 7.0, 0.001),
     "b8dfa1edd6b1e993f11c41150cd28edab8eb715a06cc5980102e62e97ea81bfc",
     "dce8e738397cae7e11ac10911c1afc191ac2b3e97e1aec23023ce33bd7428d77",
     "b2a6146f73ac58024d5ecdd7af46fb82b7227b20130426a815526b5e4968ec58"),
    ("radial", (2, 1.5, -0.7, 4.0, 0.001),
     "f835e3f2ddcb509986bd7345e5c7f1c1b7ffdb48e7edaa5018f18d9799a38809",
     "646403058cf12da2992fcb216bdf25366a3a094ae5a207a08191b9026d799d90",
     "3d40b4eb15a04339eeb0884a2a1e4ef57399fe78f10d4cd14f442ec5b0845f12"),
    ("radial", (1, 1.5, 1.0, 5.0, 0.001),
     "1c2a1c150077d2a7e5e4d4f6906891be9f06524bc697def2a9f6cb9a58e8c7b2",
     "65c3801bee2c713622858a302f010e89fcb885ddc45bb17e3f03ac1c59400bce",
     "4c8006caf5d3a9a4e021ddd857f7871efaa17733c44f4ce0da4b2224c634ccc5"),
    ("radial", (1, 1.0, 1.0, 5.0, 0.001),
     "0d1f855cb5698544dfa66bd1dfa6b2c96b39394e0d7d8af8237d24b8eac7d712",
     "59301ec059f3ce95f88409843a306bad3e28431f493a6623b6dbab04eeba247e",
     "66d96bbce74cd3a95fdcdf4f16bdce819658b4460e70be838a168206f37f6bae"),
    ("plane", (1.5, 1.0, 0.0, 0.001, 10.0),
     "a519e6f0660275fbe0069e3101f36dd6cd1da37ad8bb8dd30d0297ab9f75f7a5",
     "71a2ccdc9090d1fef857a0887b9c994b302c87ce145784cad9707e53871cd6fe",
     "c1fd782c81607dc00e745f4d6b65ccd92efd4c88ba0cba6e44aa80c007618b31"),
    ("plane", (1.0, 0.0, 1.0, 0.001, 10.0),
     "1fa4e363fd8858b84a32030698d3863c4dd148770145ab2c7f24200bdce64471",
     "8835ee8fe85e70f2c0e46fde8a1ed5ad4487e84332678949d0a669ab79f40b0e",
     "4623c757e01ad90134633784c895a04d068ef75eb4022149b909265ce6987bb5"),
]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kind, args, u_sha, du_sha, crossings_sha", GOLDEN,
                         ids=[f"{g[0]}{g[1]}" for g in GOLDEN])
def test_golden_bits(kind, args, u_sha, du_sha, crossings_sha):
    traj = (integrate_radial if kind == "radial" else integrate_plane)(*args)
    assert _sha(traj.u.tobytes()) == u_sha
    assert _sha(traj.du.tobytes()) == du_sha
    assert _sha(repr(traj.crossings).encode()) == crossings_sha


# --------------------------------------------------------------------------
# zero audit: the node scan against a node-by-node walk, and its Python-float
# bisection against one on OdeTrajectory.hermite


def _bisect_hermite(traj, lo, hi):
    """The oracle: 80 bisection steps on OdeTrajectory.hermite, which
    evaluates on numpy scalars."""
    ulo, _ = traj.hermite(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        um, _ = traj.hermite(mid)
        if ulo * um <= 0.0:
            hi = mid
        else:
            lo = mid
            ulo = um
    return 0.5 * (lo + hi)


def _walked_zero_audit(traj, threshold=None):
    """zero_audit as a plain walk over every node (the reference scan)."""
    u, du, t = traj.u, traj.du, traj.t
    if threshold is None:
        E0 = 0.5 * du[0] ** 2 + abs(u[0]) ** traj.q / traj.q
        threshold = 1e-6 * math.sqrt(2.0 * E0) if E0 > 0 else 1e-12
    scale = float(np.max(np.abs(u)))
    if scale == 0.0:
        return []
    ztol = 1e-12 * scale
    # the walk reads one node at a time, so it reads Python values
    is_zero = (np.abs(u) <= ztol).tolist()
    u, du, t = traj.u.tolist(), traj.du.tolist(), traj.t.tolist()
    events = []
    n = len(u)
    i = 0
    while i < n:
        if i + 1 < n and not is_zero[i] and not is_zero[i + 1] \
                and u[i] * u[i + 1] < 0.0:
            loc = _bisect_hermite(traj, t[i], t[i + 1])
            _, slope = traj.hermite(loc)
            events.append(ZeroEvent(float(loc), abs(float(slope)),
                                    abs(slope) < threshold))
            i += 1
            continue
        if is_zero[i]:
            j = i
            while j < n and is_zero[j]:
                j += 1
            left_val = u[i - 1] if i > 0 else None
            right_val = u[j] if j < n else None
            if j - i == 1 and left_val is not None and right_val is not None \
                    and left_val * right_val < 0.0:
                loc = _bisect_hermite(traj, t[i - 1], t[j])
                _, slope = traj.hermite(loc)
                events.append(ZeroEvent(float(loc), abs(float(slope)),
                                        abs(slope) < threshold))
            else:
                # an edge of two or more zero nodes is a plateau edge
                plateau = j - i >= 2
                if left_val is not None:
                    events.append(ZeroEvent(float(t[i]), abs(float(du[i])),
                                            plateau or abs(du[i]) < threshold))
                if right_val is not None and j - 1 != i:
                    events.append(ZeroEvent(float(t[j - 1]), abs(float(du[j - 1])),
                                            plateau or abs(du[j - 1]) < threshold))
                elif right_val is not None and left_val is None:
                    events.append(ZeroEvent(float(t[j - 1]), abs(float(du[j - 1])),
                                            plateau or abs(du[j - 1]) < threshold))
            i = j
            continue
        i += 1
    return events


def _node_traj(u, du=None, q=1.5):
    u = np.asarray(u, dtype=float)
    t = np.linspace(0.0, 1.0, len(u))
    du = np.gradient(u, t) if du is None else np.asarray(du, dtype=float)
    return OdeTrajectory(t, u, du, q, 1, (u[0], du[0]), t[1] - t[0])


class TestZeroAuditScan:
    @pytest.mark.parametrize("kind, args", [g[:2] for g in GOLDEN],
                             ids=[f"{g[0]}{g[1]}" for g in GOLDEN])
    def test_integrated_trajectories(self, kind, args):
        traj = (integrate_radial if kind == "radial" else integrate_plane)(*args)
        events = zero_audit(traj)
        assert events == _walked_zero_audit(traj)
        assert len(events) >= 1

    @pytest.mark.parametrize("dim, q, core, R", [(2, 1.5, 0.3, 0.8),
                                                 (3, 1.5, 0.25, 0.9)])
    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    def test_glued_plateau_edges(self, dim, q, core, R, h):
        fld = glued_field(dim, q, core, R, h=h)
        traj = OdeTrajectory(fld.r, fld.u, fld.du, q, dim, (0.0, 0.0), h)
        events = zero_audit(traj)
        assert events == _walked_zero_audit(traj)
        assert len(events) == 1
        assert events[0].location == pytest.approx(core, abs=10 * h)
        assert events[0].degenerate  # the edge of a zero plateau

    @pytest.mark.parametrize("u, location, slope", [
        ([0.2, 0.5, 1.0, 0.5, 0.0], 1.0, 2.0),
        ([0.0, 0.5, 1.0, 0.5, 0.2], 0.0, 2.0),
        ([1.0, 0.0], 1.0, 1.0),
        ([0.0, 1.0], 0.0, 1.0),
    ])
    def test_lone_zero_at_either_end(self, u, location, slope):
        # a lone zero at the last node is found like its mirror image at
        # the first, and rated by its slope
        traj = _node_traj(u)
        assert zero_audit(traj) == [ZeroEvent(location, slope, False)]
        assert _walked_zero_audit(traj) == zero_audit(traj)

    @pytest.mark.parametrize("u", [
        [1.0, 0.5, 0.0, -0.5, -1.0],          # isolated exact zero, crossing
        [1.0, 0.5, 0.0, 0.5, 1.0],            # touching zero
        [0.0, 0.5, 1.0, 0.5, 0.2],            # zero at the left end
        [0.2, 0.5, 1.0, 0.5, 0.0],            # zero at the right end
        [0.0, 0.0, 0.5, -0.5, 0.0, 0.0],      # plateaus at both ends
        [1.0, 0.0, 0.0, 0.0, -1.0, 1.0],      # plateau, then a sign change
        [0.0, 1.0],
        [1.0, 0.0],
        [0.0, 0.0, 0.0],
        [1.0, -1.0],
        [1.0, 1e-13, -1.0, 1e-200, 1.0],       # below ztol counts as zero
    ])
    def test_hand_built(self, u):
        traj = _node_traj(u)
        assert zero_audit(traj) == _walked_zero_audit(traj)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, -0.3, -1e-14, 0.0, 1e-14, 0.3, 1.0]),
                    min_size=2, max_size=40))
    def test_random_sign_patterns(self, u):
        traj = _node_traj(u)
        assert zero_audit(traj) == _walked_zero_audit(traj)


class TestZeroAuditOracle:
    """zero_audit's Python-float bisection gives every event's location,
    slope and rating as the bisection on OdeTrajectory.hermite does, bit
    for bit."""

    @staticmethod
    def _same_events(traj):
        events = zero_audit(traj)
        oracle = _walked_zero_audit(traj)
        assert [(e.location, e.slope, bool(e.degenerate)) for e in events] \
            == [(e.location, e.slope, bool(e.degenerate)) for e in oracle]
        return len(events)

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    @pytest.mark.parametrize("q", [1.0, 1.1, 1.2, 1.5, 1.9])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_radial_runs(self, dim, q, h):
        count = sum(self._same_events(integrate_radial(dim, q, a, 6.0, h))
                    for a in (0.3, 0.5, 1.0, -0.7))
        assert count >= 4

    @pytest.mark.parametrize("q, u0, du0", [(1.5, 1.0, 0.0), (1.0, 0.0, 1.0),
                                            (1.2, 0.3, -0.8)])
    def test_plane_runs(self, q, u0, du0):
        assert self._same_events(integrate_plane(q, u0, du0, 1e-3, 10.0)) >= 2

    def test_exact_zero_nodes(self):
        # u = -t (t - 1) (t - 2)^2 (t - 3): zeros at both ends, a crossing
        # through an exact zero node (bisected over its two cells) and a
        # touching zero, rated degenerate by its slope
        p = -np.polynomial.Polynomial.fromroots([0.0, 1.0, 2.0, 2.0, 3.0])
        t = np.linspace(0.0, 3.0, 3001)
        u, du = p(t), p.deriv()(t)
        u[[0, 1000, 2000, 3000]] = 0.0
        traj = OdeTrajectory(t, u, du, 1.5, 1, (0.0, du[0]), t[1] - t[0])
        assert self._same_events(traj) == 4
        assert [e.degenerate for e in zero_audit(traj)] == \
            [False, False, True, False]

    def test_glued_plateau(self):
        fld = glued_field(3, 1.5, 0.25, 0.9, h=1e-4)
        traj = OdeTrajectory(fld.r, fld.u, fld.du, 1.5, 3, (0.0, 0.0), 1e-4)
        assert self._same_events(traj) == 1
