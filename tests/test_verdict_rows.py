"""Rows of the verdict corpus (ROADMAP item 20) that run in tier 1.

Each row is a labelled field and the verdict that is right for it.  A row
whose verdict is wrong or weak today is a strict expected failure naming
its ROADMAP item, so the fix that mends it turns the row into XPASS and
fails the suite until the mark is removed.
"""

import math

import numpy as np
import pytest

from freqlab.audit import AuditControls, audit
from freqlab.fields import (_angles, _polar_points, glued_field,
                            sample_grid2d, solve_grid_2d, solve_radial)
from freqlab.frequency import frequency_profile, run_all_identity_checks
from freqlab.model import ProblemSpec
from freqlab.odes import counterexample_profile

_GATE_OFF = AuditControls(residual_gate=math.inf)


def _failed_identities(spec, fld):
    reports = run_all_identity_checks(spec, fld, frequency_profile(spec, fld))
    return sorted(name for name, rep in reports.items() if not rep.passed)


# --------------------------------------------------------------------------
# item 17's map: 60 glued dead-core candidates with the gate off, at the
# audit's default profile.  A contradiction certificate is due on each; these
# read inconclusive today (r0 and the H floor are fixed fractions, item 17).

_INCONCLUSIVE = {
    (2, 1.5, 0.1, 0.8), (2, 1.5, 0.1, 1.5), (2, 1.5, 0.25, 1.5),
    (2, 1.7, 0.1, 0.8), (2, 1.7, 0.1, 1.5), (2, 1.7, 0.25, 0.8),
    (2, 1.7, 0.25, 1.5), (2, 1.7, 0.4, 0.8), (2, 1.7, 0.4, 1.5),
    (2, 1.9, 0.1, 0.8), (2, 1.9, 0.1, 1.5), (2, 1.9, 0.25, 0.8),
    (2, 1.9, 0.25, 1.5), (2, 1.9, 0.4, 0.8), (2, 1.9, 0.4, 1.5),
    (3, 1.1, 0.1, 0.8), (3, 1.1, 0.1, 1.5), (3, 1.3, 0.1, 0.8),
    (3, 1.3, 0.1, 1.5), (3, 1.3, 0.25, 1.5), (3, 1.5, 0.1, 0.8),
    (3, 1.5, 0.1, 1.5), (3, 1.5, 0.25, 0.8), (3, 1.5, 0.25, 1.5),
    (3, 1.5, 0.4, 1.5), (3, 1.7, 0.1, 0.8), (3, 1.7, 0.1, 1.5),
    (3, 1.7, 0.25, 0.8), (3, 1.7, 0.25, 1.5), (3, 1.7, 0.4, 0.8),
    (3, 1.7, 0.4, 1.5), (3, 1.9, 0.1, 0.8), (3, 1.9, 0.1, 1.5),
    (3, 1.9, 0.25, 0.8), (3, 1.9, 0.25, 1.5), (3, 1.9, 0.4, 0.8),
    (3, 1.9, 0.4, 1.5),
}
_WEAK = pytest.mark.xfail(strict=True, reason="ROADMAP item 17: r0 and the H "
                          "floor are fixed fractions of d(R) and max H, so "
                          "the chain cannot resolve the window next to the "
                          "core")


def _map_rows():
    for dim in (2, 3):
        for q in (1.1, 1.3, 1.5, 1.7, 1.9):
            for core in (0.1, 0.25, 0.4):
                for R in (0.8, 1.5):
                    key = (dim, q, core, R)
                    yield pytest.param(
                        *key, id="N{}-q{}-core{}-R{}".format(*key),
                        marks=[_WEAK] if key in _INCONCLUSIVE else [])


@pytest.mark.parametrize("dim, q, core, R", list(_map_rows()))
def test_glued_candidate_is_certified(dim, q, core, R):
    fld = glued_field(dim, q, core, R, h=1e-3)
    chain = audit(ProblemSpec.model(dim, q, outer_radius=R), fld, _GATE_OFF)
    assert chain.classification == "contradiction_certified"


# --------------------------------------------------------------------------
# genuine solutions that fail identities: wrong verdicts


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1(c): |u|^q is only "
                   "C^{0,q-1} at a zero, and the ball integrals assume a "
                   "smooth integrand")
@pytest.mark.parametrize("dim, R", [(2, 4.0), (3, 6.0)], ids=["N2", "N3"])
def test_q1_radial_ball_with_zeros_passes_every_identity(dim, R):
    # three zeros at N = 2, seven at N = 3
    spec = ProblemSpec.model(dim, 1.0, outer_radius=R)
    fld = solve_radial(spec, 0.5, h=1e-4)
    assert _failed_identities(spec, fld) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 22: on the negative "
                   "branch at q = 1.1 the identities across the nodal line "
                   "converge at about first order")
def test_negative_branch_at_q_1_1_passes_every_identity():
    spec = ProblemSpec.model(2, 1.1)
    n_r, n_theta = 64, 128
    x = _polar_points(np.linspace(0.0, 1.0, n_r + 1)[:n_r], _angles(n_theta))
    start = -0.2 * (1.0 - np.sum(x * x, axis=-1)) + 0.05 * x[..., 0]
    fld = solve_grid_2d(spec, lambda th: 0.05 * np.cos(th), n_r=n_r,
                        n_theta=n_theta,
                        initial=np.concatenate([start[0, :1], start[1:].ravel()]))
    assert fld.meta["solver"]["u_origin"] < -0.2  # the negative branch
    assert _failed_identities(spec, fld) == []


# --------------------------------------------------------------------------
# item 2: the criterion-8 glued candidate with its core moved to (c, 0)

_OFF_CENTRE = pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the "
                                "audit looks only at balls centred at the "
                                "origin, which here lies outside the core")


@pytest.mark.parametrize("c", [0.0, 0.1, 0.2, 0.29,
                               pytest.param(0.31, marks=_OFF_CENTRE),
                               pytest.param(0.4, marks=_OFF_CENTRE)])
def test_off_centre_core_is_never_genuine(c):
    q, core, R = 1.5, 0.3, 0.8
    fld = sample_grid2d(lambda x: counterexample_profile(
        q, core, np.hypot(x[..., 0] - c, x[..., 1]))[0], R, 128, 256, q)
    chain = audit(ProblemSpec.model(2, q, outer_radius=R), fld, _GATE_OFF)
    assert chain.classification != "genuine_nonvanishing"
