"""The 2-D tensor contractions run plane by plane, and keep np.einsum's bits.

`CoefficientField.geometry`, the grid node data, the general transport
identities and the polar-frame entries store their small tensor axes as
contiguous component planes and sum the products in a fixed order.  Each
test here recomputes the einsum form those sums replace, on the same
operands, and asks for the same bits: signed zeros count, and NaNs must sit
in the same places.
"""

import hashlib

import numpy as np
import pytest

from freqlab import fields, frequency
from freqlab.fields import (SolutionField, _polar_frame_entries,
                            _polar_points, _residual_grid, cartesian_gradient,
                            manufactured_bowl, sample_grid2d)
from freqlab.frequency import (_node_data, frequency_profile,
                               run_all_identity_checks, verify_f_transport,
                               verify_rellich_general, write_identity_reports)
from freqlab.model import (CoefficientField, NonlinearitySpec, ProblemSpec,
                           _plane_sum, _trailing, grad1_F)

N_R, N_THETA = 32, 64


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


def _zero_inside(radius):
    """a11 = 1 + x1^2/4, a22 = 1 and a12 = 0.4 (|x|^2 - R^2/4)^2 outside
    |x| = R/2, exactly 0 inside, with its exact gradient: the planes of
    a12 and its gradient are zero on the inner ring blocks only."""
    edge = radius ** 2 / 4.0

    def entries(x):
        x = np.asarray(x, dtype=float)
        s = np.maximum(np.sum(x * x, axis=-1) - edge, 0.0)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 + x[..., 0] ** 2 / 4.0
        out[..., 0, 1] = out[..., 1, 0] = 0.4 * s * s
        out[..., 1, 1] = 1.0
        return out

    def grads(x):
        x = np.asarray(x, dtype=float)
        s = np.maximum(np.sum(x * x, axis=-1) - edge, 0.0)
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = x[..., 0] / 2.0
        for h in range(2):
            out[..., 0, 1, h] = out[..., 1, 0, h] = 1.6 * s * x[..., h]
        return out

    return CoefficientField(2, entries, grads,
                            lambda x: np.full(np.shape(x)[:-1], 0.5),
                            "zero_inside")


@pytest.fixture(scope="module", params=["rotation_perturbed", "bowl",
                                        "variable_coefficients", "identity",
                                        "generic", "zero_inside"])
def case(request, variable_coefficients_spec):
    # A = id has grad A = 0, so whole sums of zero products read +0, not -0;
    # "generic" has no vanishing entry gradient, so every summation order
    # shows in the bits; "zero_inside" has planes that are zero on some
    # ring blocks and not on others
    if request.param == "zero_inside":
        spec = ProblemSpec(2, 1.0, _zero_inside(1.0),
                           NonlinearitySpec.homogeneous(1.5))
    elif request.param == "identity":
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
    a, g, mu, z, dz = einsum_geometry(spec.coefficients, pts)
    same_bits(_trailing(geo.a, 2), a)
    same_bits(_trailing(geo.grads, 3), g)
    same_bits(geo.mu, mu)
    same_bits(_trailing(geo.z, 1), z)
    same_bits(_trailing(geo.dz, 2), dz)
    # a plane is nonzero where any of its values is not +-0 (NaN included)
    assert np.array_equal(geo.a_nonzero, (a != 0).any(axis=(0, 1)))
    assert np.array_equal(geo.grads_nonzero, (g != 0).any(axis=(0, 1)))
    for h in range(2):
        assert geo.z[h].flags.c_contiguous
        for j in range(2):
            assert geo.a[h, j].flags.c_contiguous
            assert geo.dz[h, j].flags.c_contiguous
            for i in range(2):
                assert geo.grads[h, j, i].flags.c_contiguous


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
    same_bits(rep9.details["terms.coefficient_gradient"],
              data.ball(rows["t1_rows"])[idx])
    same_bits(rep9.details["terms.z_jacobian"],
              data.ball(rows["t4_rows"])[idx])
    same_bits(verify_f_transport(spec, fld, prof).details["grad1F_term"],
              data.ball(rows["grad_x_F_z"])[idx])


def node_arrays(data):
    return {k: v for k, v in vars(data).items() if isinstance(v, np.ndarray)}


def test_ring_blocks_keep_the_bits(case, monkeypatch):
    # one ring per block and the whole grid in one block give the same rows
    spec, fld = case
    monkeypatch.setattr(fields, "_BLOCK_NODES", 1)
    assert len(fields._ring_blocks(*fld.u.shape,
                                   frequency._MIN_BLOCKS)) == N_R + 1
    rings = node_arrays(frequency._NodeData(spec, fld))
    monkeypatch.setattr(fields, "_BLOCK_NODES", 10 ** 9)
    monkeypatch.setattr(frequency, "_MIN_BLOCKS", 1)
    assert len(fields._ring_blocks(*fld.u.shape, frequency._MIN_BLOCKS)) == 1
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


def test_zero_planes_change_between_ring_blocks():
    # the inner blocks of "zero_inside" have a12 = 0 and grad a12 = 0, the
    # outer ones do not, so a zero pattern taken once for the whole grid
    # (or from one block) would drop or keep the wrong terms
    coeff = _zero_inside(1.0)
    fld = sample_grid2d(lambda x: 1.0 - x[..., 0] ** 2, 1.0, N_R, N_THETA, 1.5)
    blocks = fields._ring_blocks(*fld.u.shape, frequency._MIN_BLOCKS)
    patterns = [coeff.geometry(_polar_points(fld.r[rows], fld.theta))
                for rows in blocks]
    assert not patterns[0].a_nonzero[0, 1] and patterns[-1].a_nonzero[0, 1]
    assert not patterns[0].grads_nonzero[0, 1].any()
    assert patterns[-1].grads_nonzero[0, 1].all()


def test_dropping_zero_terms_keeps_the_bits():
    # 0 + t1 + t2 + ... without its exact +-0 terms, or with none left,
    # gives the full sum's bits, signed zeros, infs and NaNs included
    rng = np.random.default_rng(3)
    shape = (5, 7)
    special = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])
    for _ in range(200):
        count = int(rng.integers(1, 7))
        terms = [special[rng.integers(0, len(special), shape)]
                 * rng.choice([1.0, 1e-300, 1e300], shape)
                 for _ in range(count)]
        zero = rng.random(count) < 0.5
        for k in np.flatnonzero(zero):
            terms[k] = rng.choice([0.0, -0.0], shape)
        kept = [t for t, z in zip(terms, zero) if not z]
        with np.errstate(invalid="ignore"):  # inf - inf
            same_bits(_plane_sum(kept, shape), _plane_sum(terms))
    # an empty sum is +0.0 of the block's shape, as a sum of -0 terms is
    empty = _plane_sum([], shape)
    same_bits(empty, _plane_sum([np.full(shape, -0.0)] * 3))
    assert empty.shape == shape and not np.signbit(empty).any()


def test_a_non_elliptic_constant_a_keeps_its_report_bytes(tmp_path):
    # A = diag(1, -1) has mu = cos(2 theta), exactly 0 at two nodes of this
    # grid, where Z and DZ are NaN: T1 drops its grad A = 0 terms there
    # (the plane rule), and the identities.json written before that rule
    # is kept byte for byte
    coeff = CoefficientField._constant(np.diag([1.0, -1.0]), 0.5, "diagonal")
    spec = ProblemSpec(2, 1.0, coeff, NonlinearitySpec.homogeneous(1.5))
    fld = sample_grid2d(lambda x: 0.3 * (1 - x[..., 0] ** 2 - 2 * x[..., 1] ** 2)
                        + 0.1 * x[..., 0] * x[..., 1], 1.0, N_R, N_THETA, 1.5)
    with np.errstate(invalid="ignore", divide="ignore"):
        assert np.count_nonzero(_node_data(spec, fld).mu == 0) == 2
        reports = run_all_identity_checks(spec, fld,
                                          frequency_profile(spec, fld))
    path, _ = write_identity_reports(reports, str(tmp_path))
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == (
            "87339a4a0426097bccb75e28d8b3d120f8c0c0db07a0f3fe3cb8e2d9086e7e69")


def test_frame_entries_form_only_the_forms_asked_for(case):
    spec, fld = case
    r, theta = fld.r[1:], fld.theta
    rr, rt, tt = _polar_frame_entries(spec.coefficients, r, theta)
    for forms, refs in ((("rr", "rt"), (rr, rt)), (("rt", "tt"), (rt, tt))):
        got = _polar_frame_entries(spec.coefficients, r, theta, forms)
        assert len(got) == 2
        for new, ref in zip(got, refs):
            same_bits(new, ref)


@pytest.mark.parametrize("radius", [0.8, 1.0, 6.0])
@pytest.mark.parametrize("rings", [16, 32, 64, 128, 256, 512])
def test_identity_geometry_is_exact_off_the_origin(radius, rings):
    # under A = I the general route's weight and transport field are the
    # model route's exactly: mu = 1, Z = x and DZ = I, so the model
    # identities can read the transport row <Z, grad u> as <x, grad u>
    r = np.linspace(0.0, radius, rings + 1)[1:]
    pts = _polar_points(r, fields._angles(2 * rings))
    geo = CoefficientField.identity(2).geometry(pts)
    assert np.all(geo.mu == 1.0)
    assert np.array_equal(geo.z, np.moveaxis(pts, -1, 0))
    for h in range(2):
        for j in range(2):
            assert np.all(geo.dz[h, j] == float(h == j))


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_model_transport_row_is_x_grad_u(q):
    spec = ProblemSpec.model(2, q, outer_radius=0.8)
    fld = sample_grid2d(lambda x: 0.3 * (0.64 - x[..., 0] ** 2)
                        + 0.1 * x[..., 0] * x[..., 1], 0.8, N_R, N_THETA, q)
    gx, gy = cartesian_gradient(fld.u, fld.r, fld.theta)
    pts = fld.points()
    x_grad_u = gx * pts[..., 0] + gy * pts[..., 1]
    assert np.array_equal(_node_data(spec, fld).z_grad_u, x_grad_u)
