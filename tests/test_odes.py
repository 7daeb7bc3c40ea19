import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqlab.fields import glued_field
from freqlab.odes import (OdeTrajectory, PmeField, ZeroEvent, _bisect_hermite,
                          conserved_energy, counterexample_profile,
                          counterexample_slope, integrate_plane,
                          integrate_radial, pme_separated_residual, zero_audit)


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


class TestRadial:
    def test_series_start_curvature(self):
        # u''(0) = -|a|^{q-2} a / N from the startup series
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
        res = pme_separated_residual(pme)
        n = len(base.u)
        idx = np.arange(max(4, n // 16), n - 4)
        wsup = float(np.max(np.abs(pme.w(idx, 1.0 + np.linspace(0, 1, 64)))))
        assert res <= 1e-6 * wsup

    def test_zero_base_gives_zero_residual(self):
        t = np.linspace(0, 1, 512)
        base = OdeTrajectory(t, np.zeros_like(t), np.zeros_like(t), 1.5, 3,
                             (0.0, 0.0), t[1] - t[0])
        pme = PmeField(base, t0=0.0)
        assert pme_separated_residual(pme) == 0.0

    def test_rejects_times_before_t0(self):
        base = integrate_radial(2, 1.5, 0.5, 1.0, 1e-3)
        pme = PmeField(base, t0=1.0)
        with pytest.raises(ValueError):
            pme_separated_residual(pme, t_values=np.array([0.5, 2.0]))


# --------------------------------------------------------------------------
# bit-exact outputs of the integrators
#
# sha256 of u.tobytes(), du.tobytes() and repr(crossings), recorded with the
# straightforward numpy-scalar RK4 loop; a faster integrator must reproduce
# every bit, signed zeros and the numpy scalar type of the crossings included.

GOLDEN = [
    ("radial", (3, 1.5, 0.5, 6.0, 0.0001),
     "098909cb677a7c1152956f7385135f6e2092fd0c9a5dcbcdae816eebfbfccbe0",
     "bddd5cae33fd9eecd0c69fc4c3b0cb858bebd290d7df8184d91f9c3271d264a3",
     "237da65c5c5f24a1e55d3735afb5bacd1ce5ef0cd34687b071204d213d46cc44"),
    ("radial", (3, 1.5, 0.5, 6.0, 0.001),
     "5c980e71a24177e77b047cf21866b2c34888a0d88321d3352a96101239d42229",
     "55d97633e76a926a492b4f4de6315c73e3c1f12d41be2d6fceaeedbaf42837e5",
     "7ea7b96410c5439e4700801d76be9283307adab17860d22bbacf25040f925f12"),
    ("radial", (2, 1.2, 0.5, 4.0, 0.0001),
     "492e58a91dcd8838f85cecde484a68c0a045e782ee18a832dbda874aa48a9a0e",
     "47e754c6578c66608aa032f021bb8e6ef719d9568fa1cecf6027b7f4a2678a12",
     "2082734632db8a19b530f20f2122560e7051e0f51d7d053af787c2ddf278b7c7"),
    ("radial", (2, 1.2, 0.5, 4.0, 0.001),
     "7c122b92df573c6ee0b3051feb6641228ae9e7c1c892809f757594a62b7b3bee",
     "d9efcd560aaa14f767cb9e2526c0abf28c7aa790bf737271bc5d624c245bbe63",
     "138b3dc0475bd3e6a3656d001fca275a7414a9e0332dc52edaeed1de00b5a1aa"),
    ("radial", (2, 1.0, 1.0, 3.0, 0.0001),
     "b823c957a7fbcd6b5a06e381f80cb1bc5982f2f81a933fb3570b820fb91ce657",
     "de9745b2f07c757e99dd179d48f4e208777489bc87f02e88aece28738cf09ab8",
     "ad12b3b133ccad204e5542236f1ce1d2fb350d536ca152358711108fee10bbed"),
    ("radial", (2, 1.0, 1.0, 3.0, 0.001),
     "846baac92f32e649ef1b160a14ae74f22e0eac3c57b9fd4cefc7da97b4ec989a",
     "a7829782fba1f4b05c78a8c3c43a9fd96327e72a8f8b3f961f4598ff94250bf8",
     "c206c7f83d64c79cd532e15f7880e307bafdedfcd27a3446d8d3bdd40fb81348"),
    ("radial", (4, 1.3, 0.9, 7.0, 0.0001),
     "cdeef74e8decd2d79c18bbcf0af670c653842b7934ac404b42d12a07185e5803",
     "ed82815d3dd47d226cc9f9ea727869fcaaca012cc1aadf3ee737c0730b81f1cb",
     "2a3694f1f6a4de4af8f3944ff343b1ff056e8a2ec4ecca090e1292d999131c22"),
    ("radial", (4, 1.3, 0.9, 7.0, 0.001),
     "7613460666d6f9e247917dc03bf9adf5f0239644d357f08bd2bff096bf7f35ae",
     "7e5360fe90729501935a1e8fca8b02a76882d4d6cc140bf65bf6dad664d2adf7",
     "24dd87eb71f5899ef65924f06ba0a67053c5c507557f319064987d11fa666707"),
    ("radial", (2, 1.5, -0.7, 4.0, 0.001),
     "71dd07c1fc37a0c56e4cd6bf050af02e4cc5917d3c912d0c72037ba6bbd39576",
     "0ff3d1416524a43df1fc05f7f6f32dee883a01fec246897d22a9a7e1c8d4daf7",
     "b53668e115a6dc5434e6a1482129fcfa43a41fa6cfbcc5f858e8d13f532f61fb"),
    ("radial", (1, 1.5, 1.0, 5.0, 0.001),
     "1c2a1c150077d2a7e5e4d4f6906891be9f06524bc697def2a9f6cb9a58e8c7b2",
     "65c3801bee2c713622858a302f010e89fcb885ddc45bb17e3f03ac1c59400bce",
     "4c8006caf5d3a9a4e021ddd857f7871efaa17733c44f4ce0da4b2224c634ccc5"),
    ("radial", (1, 1.0, 1.0, 5.0, 0.001),
     "90994dcfc900fccef15e884678cab64dfe9f70ebd66e40b01e5255c3e1983fc4",
     "a61187f6692c1144385e80b92b2f62ec0b08cc2d2a56b851ac75e5cda19472ec",
     "b1d35a140ef838989b67c0686ae44950f9122f72b88d1e0879c170b73d9971b1"),
    ("plane", (1.5, 1.0, 0.0, 0.001, 10.0),
     "a519e6f0660275fbe0069e3101f36dd6cd1da37ad8bb8dd30d0297ab9f75f7a5",
     "71a2ccdc9090d1fef857a0887b9c994b302c87ce145784cad9707e53871cd6fe",
     "c1fd782c81607dc00e745f4d6b65ccd92efd4c88ba0cba6e44aa80c007618b31"),
    ("plane", (1.0, 0.0, 1.0, 0.001, 10.0),
     "d78e5ce89d939ebe014502798eaa3e449ca2159c05e8a78efc38e303527ea8f4",
     "643944c03a0aaf73e79e1eec6c0c859193a7af4a9bba0366983e118ffae855e7",
     "3a2f3ec13e57ebcb251482843e30a560ccd33eab5eccea970bc7113be8c21760"),
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
# zero audit: the node scan against a node-by-node walk


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
    is_zero = np.abs(u) <= ztol
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
