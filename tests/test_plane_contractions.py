"""The 2-D tensor contractions run plane by plane, and keep np.einsum's bits.

`CoefficientField.geometry`, the grid node data, the general transport
identities and the polar-frame entries store their small tensor axes as
contiguous component planes and sum the products in a fixed order.  Each
test here recomputes the einsum form those sums replace, on the same
operands, and asks for the same bits: signed zeros count, and NaNs must sit
in the same places.
"""

import numpy as np
import pytest

from freqlab import frequency
from freqlab.fields import (SolutionField, _polar_frame_entries,
                            _polar_points, _residual_grid, cartesian_gradient,
                            manufactured_bowl, sample_grid2d)
from freqlab.frequency import (_node_data, frequency_profile,
                               verify_f_transport, verify_rellich_general)
from freqlab.model import (CoefficientField, NonlinearitySpec, ProblemSpec,
                           grad1_F)

N_R, N_THETA = 32, 64


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


@pytest.fixture(scope="module", params=["rotation_perturbed", "bowl",
                                        "variable_coefficients", "identity",
                                        "generic"])
def case(request, variable_coefficients_spec):
    # A = id has grad A = 0, so whole sums of zero products read +0, not -0;
    # "generic" has no vanishing entry gradient, so every summation order
    # shows in the bits
    if request.param == "identity":
        spec = ProblemSpec.model(2, 1.5)
    elif request.param == "generic":
        spec = ProblemSpec(2, 0.8, CoefficientField.from_expressions(2, {
            "a11": "1 + x1^2/4 + x2/5", "a12": "0.1*sin(x1 + 2*x2)",
            "a22": "1 + x1*x2/3"}), NonlinearitySpec.homogeneous(1.5))
    elif request.param == "rotation_perturbed":
        spec = ProblemSpec(2, 1.0, CoefficientField.rotation_perturbed(0.2),
                           NonlinearitySpec.homogeneous(1.5))
    elif request.param == "bowl":
        spec = manufactured_bowl(amplitude=0.5).spec
    else:
        spec = variable_coefficients_spec
    R = spec.outer_radius
    # sign-changing and anisotropic, so no component vanishes identically
    fld = sample_grid2d(
        lambda x: 0.3 * (R * R - x[..., 0] ** 2 - 2 * x[..., 1] ** 2)
        + 0.1 * x[..., 0] * x[..., 1], R, N_R, N_THETA, spec.nonlinearity.q)
    return spec, fld


def einsum_geometry(coeff, x):
    a = coeff.entries(x)
    g = coeff.entry_gradients(x)
    ax = np.einsum("...ij,...j->...i", a, x)
    r2 = np.sum(x * x, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.einsum("...i,...i->...", ax, x) / r2
        z = ax / mu[..., None]
        dq = np.einsum("...ijh,...i,...j->...h", g, x, x) + 2.0 * ax
        dmu = dq / r2[..., None] - 2.0 * mu[..., None] * x / r2[..., None]
        dax = np.einsum("...jlh,...l->...hj", g, x) + np.swapaxes(a, -1, -2)
        dz = (dax / mu[..., None, None] - ax[..., None, :]
              * dmu[..., :, None] / (mu ** 2)[..., None, None])
    return a, g, mu, z, dz


def test_geometry(case):
    spec, fld = case
    pts = fld.points()
    geo = spec.coefficients.geometry(pts)
    for new, old in zip(geo, einsum_geometry(spec.coefficients, pts)):
        same_bits(new, old)
    for h in range(2):
        assert geo.z[..., h].flags.c_contiguous
        for j in range(2):
            assert geo.a[..., h, j].flags.c_contiguous
            assert geo.dz[..., h, j].flags.c_contiguous
            for i in range(2):
                assert geo.grads[..., h, j, i].flags.c_contiguous


def einsum_node_rows(spec, fld):
    """The node data's geometry rows and its transport rows, by the einsum
    forms the plane sums replace: (div(A grad |x|), div Z, <Z, grad u>,
    <Z, grad e>, T1's and T4's integrands, <grad_x F, Z>), with A grad u,
    grad u and e."""
    a, g, mu, z, dz = einsum_geometry(spec.coefficients, fld.points())
    grad = np.stack(cartesian_gradient(fld.u, fld.r, fld.theta), axis=-1)
    ct, st = np.cos(fld.theta)[None, :], np.sin(fld.theta)[None, :]
    nu = np.stack([np.broadcast_to(ct, fld.u.shape),
                   np.broadcast_to(st, fld.u.shape)], axis=-1)
    agrad = np.einsum("...ij,...j->...i", a, grad)
    e = np.einsum("...i,...i->...", agrad, grad)
    with np.errstate(divide="ignore", invalid="ignore"):
        div_a_grad_absx = (np.einsum("...jij,...i->...", g, nu)
                           + (np.einsum("...ii->...", a) - mu) / fld.r[:, None])
    div_a_grad_absx[0] = 0.0
    divz = np.einsum("...hh->...", dz)
    for arr in (z, dz, divz):
        arr[0] = 0.0
    egrad = np.stack(cartesian_gradient(e, fld.r, fld.theta), axis=-1)
    g1 = grad1_F(spec.nonlinearity, fld.points(), fld.u)
    rows = {
        "flux_r": np.einsum("...i,...i->...", agrad, nu),
        "e_density": e,
        "div_a_grad_absx": div_a_grad_absx,
        "divz": divz,
        "z_grad_u": np.einsum("...i,...i->...", z, grad),
        "z_grad_e": np.einsum("...i,...i->...", z, egrad),
        "t1_rows": np.einsum("...hli,...i,...h,...l->...", g, z, grad, grad),
        "t4_rows": -2.0 * np.einsum("...hl,...hj,...j,...l->...", a, dz,
                                    grad, grad),
        "grad_x_F_z": np.einsum("...i,...i->...", g1, z),
    }
    return rows, agrad


def test_node_data(case):
    spec, fld = case
    data = _node_data(spec, fld)
    rows, agrad = einsum_node_rows(spec, fld)
    for name, ref in rows.items():
        same_bits(getattr(data, name), ref)
    same_bits(data.absx, np.linalg.norm(fld.points(), axis=-1))
    # the residual reads A grad u from the node data, or forms it itself
    same_bits(data.rho0, np.nan_to_num(_residual_grid(
        spec, fld, agrad=np.moveaxis(agrad, -1, 0)), nan=0.0))
    same_bits(data.rho0, np.nan_to_num(_residual_grid(spec, fld), nan=0.0))


def test_transport_identity_rows(case):
    # the general identities integrate the node data's transport rows
    spec, fld = case
    data = _node_data(spec, fld)
    rows, _ = einsum_node_rows(spec, fld)
    prof = frequency_profile(spec, fld)
    idx = prof.indices
    rep9, rep10 = verify_rellich_general(spec, fld, prof)
    same_bits(rep9.lhs, data.ball(rows["z_grad_e"])[idx])
    terms = rep9.details["terms"]
    same_bits(terms["coefficient_gradient"], data.ball(rows["t1_rows"])[idx])
    same_bits(terms["z_jacobian"], data.ball(rows["t4_rows"])[idx])
    same_bits(verify_f_transport(spec, fld, prof).details["grad1F_term"],
              data.ball(rows["grad_x_F_z"])[idx])


def node_arrays(data):
    return {k: v for k, v in vars(data).items() if isinstance(v, np.ndarray)}


def test_ring_blocks_keep_the_bits(case, monkeypatch):
    # one ring per block and the whole grid in one block give the same rows
    spec, fld = case
    monkeypatch.setattr(frequency, "_BLOCK_NODES", 1)
    assert len(frequency._ring_blocks(*fld.u.shape)) == N_R + 1
    rings = node_arrays(frequency._NodeData(spec, fld))
    monkeypatch.setattr(frequency, "_BLOCK_NODES", 10 ** 9)
    monkeypatch.setattr(frequency, "_MIN_BLOCKS", 1)
    assert len(frequency._ring_blocks(*fld.u.shape)) == 1
    whole = node_arrays(frequency._NodeData(spec, fld))
    assert rings.keys() == whole.keys()
    for name in whole:
        same_bits(rings[name], whole[name])


def test_node_data_holds_node_rows_only(case):
    # no tensor, point or gradient array outlives the constructor, on a
    # grid or on a radial profile (one angular column)
    r = np.linspace(0.0, 1.0, 65)
    radial = (ProblemSpec.model(3, 1.5), SolutionField.radial_from_arrays(
        r, 1.0 - r ** 2, -2.0 * r, 3, 1.5))
    for spec, fld in (case, radial):
        data = frequency._NodeData(spec, fld)
        shape = data.u.shape
        assert shape == (len(fld.r), 1 if fld.representation == "radial"
                         else len(fld.theta))
        for name, value in node_arrays(data).items():
            if name not in ("r", "ring"):  # the radial axis, not a row
                assert value.shape == shape, name


def test_polar_frame_entries(case):
    spec, fld = case
    r, theta = fld.r[1:], fld.theta + 0.5 * (fld.theta[1] - fld.theta[0])
    a = spec.coefficients.entries(_polar_points(r, theta))
    er = _polar_points(np.ones_like(r), theta)
    et = np.stack([-er[..., 1], er[..., 0]], axis=-1)
    old = [np.einsum("...ij,...i,...j->...", a, v, w)
           for v, w in ((er, er), (er, et), (et, et))]
    for new, ref in zip(_polar_frame_entries(spec.coefficients, r, theta), old):
        same_bits(new, ref)
