"""Frequency quantities and exact identity verification.

For a field u on the ball this module computes the sphere mass
H(r) = int_{S_r} u^2 mu, the energies D1(r) = int_{B_r} <A grad u, grad u>
and D(r) = D1 - int (V u^2 + f u), the nonlinearity mass d(r) = int_B F and
its surface density, and the frequency N(r) = r D / H.  Every derivative
identity these quantities satisfy is checked in residual-corrected exact
form: the correction terms (integrals against rho = div(A grad u) + V u + f)
restore exactness for fields that are not exact solutions, so the checks
apply to solver output, manufactured fields and glued candidates alike.

The profile reports at least `ProfileControls.n_radii` node radii (a
whole-node stride, so up to about twice as many, or every node radius when
there are fewer) from max(8h, 0.02 R) to the rim, a count of outputs only:
H', D' and N' are taken at the field's own node step, by the five-point
stencil of `quadrature.deriv_uniform` on the node rows about each reported
radius, so every reported radius has them.

Radial profiles and polar grids go through one path: both are turned into
the same node fields (`_NodeData`), a radial profile being a polar grid with
one angular node and the sphere weight |S^{N-1}| r^{N-1}, and each identity
is written once against those fields.  Only the general identities
(`verify_rellich_general`) need a polar grid.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .model import (_plane_sum, _trailing, c_constant, eval_F, eval_f,
                    grad1_F)
from .quadrature import cumulative_uniform, deriv_uniform, unit_sphere_area
from .fields import (_MIN_BLOCKS, _polar_points, _require_finite,
                     _require_radial_route, _residual_grid, _residual_radial,
                     _ring_blocks, cartesian_gradient)
from .io import jsonable, write_json, write_npz

__all__ = [
    "FrequencyProfile",
    "IdentityReport",
    "write_identity_reports",
    "ProfileControls",
    "frequency_profile",
    "verify_H_prime",
    "verify_pohozaev_model",
    "verify_rellich_general",
    "verify_N_prime_bound",
    "verify_u2_bounds",
    "verify_f_transport",
    "verify_surface_volume_D",
    "run_all_identity_checks",
]


# --------------------------------------------------------------------------
# report type


@dataclass
class IdentityReport:
    """lhs = rhs at each radius, to a relative tolerance.  `scale` and
    `rel_residual` are taken over the radii where lhs and rhs are both
    finite; details["nan_radii"] counts the others.

    A report is written in two parts: `to_dict()`, the verdict with its
    scalars (JSON), and `arrays()`, the per-radius float64 arrays.
    """

    name: str
    radii: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    tolerance: float
    details: dict = field(default_factory=dict)
    worst_index: int = None  # the radius to name; default max |lhs - rhs|

    def __post_init__(self):
        self.details["nan_radii"] = int(np.count_nonzero(~self._finite))

    @property
    def _finite(self):
        return np.isfinite(self.lhs) & np.isfinite(self.rhs)

    @property
    def abs_residual(self):
        return np.abs(self.lhs - self.rhs)

    @property
    def scale(self):
        ok = self._finite
        return max(float(np.max(np.abs(self.lhs[ok]), initial=0.0)),
                   float(np.max(np.abs(self.rhs[ok]), initial=0.0)), 1e-300)

    @property
    def rel_residual(self):
        return float(np.max(self.abs_residual[self._finite], initial=0.0)) / self.scale

    @property
    def passed(self):
        """Every `*_ok` detail holds and the residual is within tolerance at
        every radius, a NaN one failing; an inequality report (infinite
        tolerance) is judged by its flags."""
        flags = [bool(v) for k, v in self.details.items() if k.endswith("_ok")]
        if flags and not math.isfinite(self.tolerance):
            return all(flags)
        return (all(flags) and bool(np.all(self._finite))
                and bool(self.rel_residual <= self.tolerance))

    def to_dict(self):
        """The verdict, the residual, the tolerance, the scalar and flag
        details, and the worst radius with |lhs - rhs| there, JSON-ready.
        The worst radius is `worst_index` when set, else the finite radius
        where |lhs - rhs| is largest (None when no radius is finite)."""
        k, finite = self.worst_index, self._finite
        if k is None and np.any(finite):
            k = int(np.argmax(np.where(finite, self.abs_residual, -np.inf)))
        worst = (None, None) if k is None else (self.radii[k], self.abs_residual[k])
        scalars, _ = _split_details(self.details)
        return jsonable({
            "schema_version": 2,
            "name": self.name,
            "rel_residual": self.rel_residual,
            "tolerance": self.tolerance,
            "verdict": "pass" if self.passed else "fail",
            "worst_radius": worst[0],
            "worst_abs_residual": worst[1],
            "details": scalars,
        })

    def arrays(self):
        """radii, lhs, rhs and every array of `details`, by its key; a key
        may be dotted ("terms.boundary").  abs_residual is |lhs - rhs| and
        is left out."""
        _, arrays = _split_details(self.details)
        return {"radii": self.radii, "lhs": self.lhs, "rhs": self.rhs, **arrays}


def _split_details(details):
    """(scalars, arrays) of a flat details dict."""
    scalars, arrays = {}, {}
    for key, value in details.items():
        (arrays if isinstance(value, np.ndarray) else scalars)[key] = value
    return scalars, arrays


def write_identity_reports(reports, out_dir):
    """identities.json (each report's `to_dict()`) and identities.npz (its
    `arrays()`, keyed "<report>.<key>") in out_dir; returns both paths."""
    names = sorted(reports)
    blob = {"schema_version": 2, **{name: reports[name].to_dict() for name in names}}
    arrays = {f"{name}.{key}": value for name in names
              for key, value in reports[name].arrays().items()}
    return (write_json(os.path.join(out_dir, "identities.json"), blob),
            write_npz(os.path.join(out_dir, "identities.npz"),
                      {"format": "freqlab-identities 2"}, arrays))


# --------------------------------------------------------------------------
# node-level integrand machinery


class _NodeData:
    """Node rows of one field under one spec, whose ball must be the
    field's: the same N, and an R that the solvers' rule round(R/h) turns
    into the field's node count.

    Both representations share one vocabulary.  Every array here is a node
    row, shape (n_r + 1, n_theta): rows over the radial nodes, columns over
    the angles; a radial field is a polar grid with one angular column,
    ring weight |S^{N-1}| r^{N-1} and dtheta = 1.  `sphere(rows)` is
    ring * sum_theta rows * dtheta, and `ball(rows)` its prefix integral
    in r.  Only this constructor looks at the representation.

    A polar grid also keeps the rows only the general identities read:
    <Z, grad e> (`z_grad_e`), the integrands of `verify_rellich_general`'s
    terms T1 and T4 (`t1_rows`, `t4_rows`) and <grad_x F, Z>
    (`grad_x_F_z`).  The model-problem identities read the transport row
    <Z, grad u> (`z_grad_u`) as <x, grad u> and `flux_r` as u_nu: under
    A = I, mu = 1 and Z = x exactly off the pole, whose row every ball
    integral drops.  On a grid, A (by `geometry`), V and f are evaluated
    here only, ring block by ring block (`fields._ring_blocks`), and each
    block's tensors are dropped once its rows are written; the residual
    rho reads A grad u, V and f from here.  A block's sums over A and
    grad A skip the planes that are exactly zero on it, keeping every bit
    (`model._plane_sum`).

    Every row is finite: the residual's unformed rows (`residual_field`'s
    NaNs) count as 0, and a value of A, grad A, V, f, F or grad_x F that
    is not finite at a node raises ValueError, where it is evaluated,
    naming the quantity (A, grad A, V, f for f and F, or grad_x F) and its
    first such node, so no identity or gate is formed from it.
    """

    def __init__(self, spec, fld):
        if spec.dim != fld.dim or \
                int(round(spec.outer_radius / fld.h)) != len(fld.r) - 1:
            raise ValueError(
                f"the problem's ball (N={spec.dim}, R={spec.outer_radius:g}) "
                f"is not the field's (N={fld.dim}, R={fld.outer_radius:g})")
        self.r = fld.r
        self.h = fld.h
        if fld.representation == "radial":
            self._fill_radial(spec, fld)
        else:
            self._fill_grid(spec, fld)
        np.nan_to_num(self.rho0, nan=0.0, copy=False)  # unformed rows count as 0

    def _fill_radial(self, spec, fld):
        # closed forms of the admitted kinds: A nu = nu gives A x = x, so
        # mu = 1, Z = x, div Z = N, div(A grad |x|) = (N - 1)/r and
        # <A grad u, nu> = u'; with V = 0 and an x-independent f (so
        # grad_x F = 0) no coefficient is evaluated on the nodes
        _require_radial_route(spec)
        dim = fld.dim
        self.ring = unit_sphere_area(dim) * self.r ** (dim - 1)
        self.dtheta = 1.0
        self.u = fld.u[:, None]
        du = fld.du[:, None]
        self.flux_r = du
        self.e_density = du * du
        self.z_grad_u = self.r[:, None] * du
        self.mu = np.broadcast_to(1.0, self.u.shape)
        self.V = self.grad_x_F_z = np.broadcast_to(0.0, self.u.shape)
        self.divz = np.broadcast_to(float(dim), self.u.shape)
        self.div_a_grad_absx = np.zeros_like(self.u)
        self.div_a_grad_absx[1:, 0] = (dim - 1) / self.r[1:]
        self.fvals = eval_f(spec.nonlinearity, None, self.u)
        self.Fvals = eval_F(spec.nonlinearity, None, self.u)
        for values in (self.fvals, self.Fvals):
            _require_finite("f", values, self.r)
        self.rho0 = _residual_radial(spec, fld, fvals=self.fvals[:, 0])[:, None]

    _GRID_ROWS = ("mu", "flux_r", "e_density", "div_a_grad_absx", "V",
                  "fvals", "Fvals", "divz", "z_grad_u", "t1_rows", "t4_rows",
                  "grad_x_F_z")

    def _fill_grid(self, spec, fld):
        self.ring = self.r
        self.dtheta = float(fld.theta[1] - fld.theta[0])
        self.u = fld.u
        shape = fld.u.shape
        for name in self._GRID_ROWS:
            setattr(self, name, np.empty(shape))
        # grad u, A grad u and Z are whole-grid while a derivative needs
        # them: the residual takes div(A grad u), <Z, grad e> takes grad e
        grad = cartesian_gradient(fld.u, fld.r, fld.theta)
        agrad, z = np.empty((2,) + shape), np.empty((2,) + shape)
        for rows in _ring_blocks(*shape, _MIN_BLOCKS):
            self._fill_block(spec, fld, rows, [g[rows] for g in grad],
                             agrad[:, rows], z[:, rows])
        del grad
        self.rho0 = _residual_grid(spec, fld, agrad=agrad, V=self.V,
                                   fvals=self.fvals)
        del agrad
        egrad = cartesian_gradient(self.e_density, fld.r, fld.theta)
        self.z_grad_e = _plane_sum(z[i] * egrad[i] for i in range(2))

    def _fill_block(self, spec, fld, rows, grad, agrad, z):
        """The node rows `rows` (a slice of rings) from one `geometry`
        call; writes A grad u and Z of those rings into `agrad` and `z`.
        Each product and sum is taken in the order np.einsum took it
        (tests/test_plane_contractions.py pins the bits), less the terms
        whose plane of A or grad A is zero on these rings (`_plane_sum`).
        """
        r, u = self.r[rows], fld.u[rows]
        shape = u.shape
        pts = _polar_points(r, fld.theta)
        geo = spec.coefficients.geometry(pts)
        a, g, dz = geo.a, geo.grads, geo.dz
        a_nz, g_nz = geo.a_nonzero, geo.grads_nonzero
        nu = (np.cos(fld.theta)[None, :], np.sin(fld.theta)[None, :])
        gx, gy = grad
        for i in range(2):
            agrad[i] = _plane_sum((a[i, j] * grad[j] for j in range(2)
                                   if a_nz[i, j]), shape)
        self.flux_r[rows] = _plane_sum(agrad[i] * nu[i] for i in range(2))
        self.e_density[rows] = _plane_sum(agrad[i] * grad[i] for i in range(2))
        # div(A grad |x|) = (d_j a_ji) nu_i + (tr A - mu) / r, summed over
        # j within i; an i whose d_j a_ji all vanish adds no term
        with np.errstate(divide="ignore", invalid="ignore"):
            div_g = _plane_sum(
                (_plane_sum(g[j, i, j] * nu[i] for j in range(2) if g_nz[j, i, j])
                 for i in range(2) if g_nz[0, i, 0] or g_nz[1, i, 1]), shape)
            trace = _plane_sum((a[i, i] for i in range(2) if a_nz[i, i]), shape)
            self.div_a_grad_absx[rows] = div_g + (trace - geo.mu) / r[:, None]
        self.mu[rows] = geo.mu
        self.V[rows] = spec.V(pts)
        self.fvals[rows] = eval_f(spec.nonlinearity, pts, u)
        self.Fvals[rows] = eval_F(spec.nonlinearity, pts, u)
        # Z = A x / mu, its Jacobian and divergence, undefined at the pole
        z[...] = geo.z
        divz = _plane_sum(dz[h, h] for h in range(2))
        if rows.start == 0:
            # finite at the pole, where r = 0 weighs them out.  Zeroed
            # before T1 and T4 are formed: a term they drop for a zero
            # plane of A or grad A must have been 0 times finite factors,
            # and Z and DZ are NaN at the pole (off it they are finite
            # wherever mu != 0)
            self.div_a_grad_absx[0], self.mu[0] = 0.0, 1.0
            for arr in (z[:, 0], dz[:, :, 0], divz[0]):
                arr[...] = 0.0
        self.divz[rows] = divz
        self.z_grad_u[rows] = z[0] * gx + z[1] * gy
        # the integrands of T1, (d_h a_li) Z_i d_h u d_l u, and of T4,
        # -2 a_hl d_h Z_j d_j u d_l u, summed over (h, l, i) and (h, j, l)
        self.t1_rows[rows] = _plane_sum(
            (g[h, l, i] * z[i] * grad[h] * grad[l]
             for h in range(2) for l in range(2) for i in range(2)
             if g_nz[h, l, i]), shape)
        self.t4_rows[rows] = -2.0 * _plane_sum(
            (a[h, l] * dz[h, j] * grad[j] * grad[l]
             for h in range(2) for j in range(2) for l in range(2)
             if a_nz[h, l]), shape)
        g1 = grad1_F(spec.nonlinearity, pts, u)
        self.grad_x_F_z[rows] = _plane_sum(g1[..., i] * z[i] for i in range(2))
        for quantity, values in (("A", _trailing(a, 2)),
                                 ("grad A", _trailing(g, 3)),
                                 ("V", self.V[rows]), ("f", self.fvals[rows]),
                                 ("f", self.Fvals[rows]), ("grad_x F", g1)):
            _require_finite(quantity, values, self.r, fld.theta, rows.start)

    def sphere(self, rows, idx=slice(None)):
        """Sphere integrals ring * sum_theta rows * dtheta at the node radii
        `idx` (every radius by default), of rows that hold those radii
        only.  A sphere term that is read at the reported radii alone
        (`FrequencyProfile.indices`) is formed on their rows, so no
        node-length integrand is made for it; a ball integral (`ball`)
        needs the sphere integral at every radius."""
        return self.ring[idx] * np.sum(rows, axis=1) * self.dtheta

    def ball(self, rows):
        g = self.sphere(rows)
        g[0] = 0.0
        return cumulative_uniform(g, self.h)


def _is_model_problem(spec, fld):
    """Whether fld's problem is the model equation -Laplace u = |u|^{q-2} u
    (or f = 0): spec.is_model, or any radial field, since the radial route
    admits only A x = x, V = 0 and an x-free f, under which a radial u
    solves exactly that equation."""
    return spec.is_model or fld.representation == "radial"


def _node_data(spec, fld):
    """The node data of fld under spec.  A field keeps only the last spec's,
    with the spec itself held, so a recycled id() can never alias another
    spec, and analysing under a new spec releases the last one's first."""
    entry = fld._node_slot[0]
    if entry is None or entry[0] is not spec:
        fld._node_slot[0] = None
        entry = fld._node_slot[0] = (spec, _NodeData(spec, fld))
    return entry[1]


# --------------------------------------------------------------------------
# the frequency profile


@dataclass
class ProfileControls:
    n_radii: int = 200           # the fewest radii reported, not a step
    h_floor_rel: float = 1e-14   # H floor relative to max H


@dataclass
class FrequencyProfile:
    r: np.ndarray
    H: np.ndarray
    D: np.ndarray
    D1: np.ndarray
    d: np.ndarray
    dprime: np.ndarray
    N: np.ndarray                # nan where H is below the floor
    surfaceD: np.ndarray
    sphere_sup: np.ndarray       # sup |u| on S_r
    h_floor: float
    indices: np.ndarray          # node indices backing each audit radius
    outer_radius: float
    # "H", "D", "N" -> (d/dr at the node step, its error estimate)
    derivatives: dict = field(default_factory=dict)


def frequency_profile(spec, fld, controls=None):
    """Sampled r -> (H, D, D1, d, d', N, surfaceD) at about n_radii node
    radii, with H', D' and N' taken at the node step h."""
    controls = controls or ProfileControls()
    data = _node_data(spec, fld)
    r = data.r
    R = float(r[-1])
    hi = len(r) - 5  # keeps the stencil's two rows beyond every radius
    lo = max(int(np.searchsorted(r, max(8 * data.h, 0.02 * R))), 2)
    if hi - lo < 5:
        raise ValueError("grid too coarse for a frequency profile: fewer than "
                         "five radii between max(8h, 0.02 R) and the rim")
    count = min(controls.n_radii, hi - lo)
    stride = max(1, (hi - lo) // max(count - 1, 1))
    idx = np.arange(lo, hi + 1, stride)
    rows = idx + np.arange(-2, 3)[:, None]  # node rows i-2..i+2, shape (5, m)

    u = data.u
    H_all = data.sphere(u * u * data.mu)
    D1_all = data.ball(data.e_density)
    fu_all = data.ball(data.V * u * u + data.fvals * u)
    d_all = data.ball(data.Fvals)
    D_all = D1_all - fu_all
    # the sphere terms read at the reported radii only are formed there
    u_idx = u[idx]
    surfaceD = data.sphere(u_idx * data.flux_r[idx], idx)
    dprime = data.sphere(data.Fvals[idx], idx)
    sphere_sup = np.max(np.abs(u_idx), axis=1)
    H, D = H_all[rows], D_all[rows]
    floor = controls.h_floor_rel * max(float(np.max(H_all)), 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        N = np.where(H > floor, r[rows] * D / H, np.nan)
    # d/dr on the middle row by the five-point stencil, and its defect
    # against the three-point central difference as the error estimate
    HDN = np.stack([H, D, N], axis=1)
    dy = deriv_uniform(HDN, data.h)[2]
    est = np.abs(dy - (HDN[3] - HDN[1]) / (2.0 * data.h))
    derivatives = {key: (dy[k], est[k]) for k, key in enumerate("HDN")}
    return FrequencyProfile(
        r=r[idx].copy(), H=H[2], D=D[2], D1=D1_all[idx], d=d_all[idx],
        dprime=dprime, N=N[2], surfaceD=surfaceD, sphere_sup=sphere_sup,
        h_floor=floor, indices=idx, outer_radius=R,
        derivatives=derivatives,
    )


# --------------------------------------------------------------------------
# identity checks


# Relative tolerance of each identity report at the reference resolutions:
# the verify_* defaults, scaled by `_grid_tolerance_factor` in
# `run_all_identity_checks`.  surface_energy_scaling is judged with
# gradient_energy_transport, at one tolerance.
_TOLERANCES = {
    "H_prime": 1e-6,
    "pohozaev_model": 1e-6,
    "gradient_energy_transport": 5e-6,
    "nonlinearity_transport": 5e-6,
    "surface_vs_volume_energy": 1e-7,
}


def verify_H_prime(spec, fld, prof, tolerance=_TOLERANCES["H_prime"]):
    """H'(r) = 2 surfaceD + int_{S_r} u^2 div(A grad |x|), checked exactly.

    With A = id the divergence term is (N-1)/r H and the check reduces to
    the constant-coefficient derivative formula.
    """
    data = _node_data(spec, fld)
    dH, est = prof.derivatives["H"]
    idx = prof.indices
    divterm = data.sphere(data.u[idx] ** 2 * data.div_a_grad_absx[idx], idx)
    rhs = 2.0 * prof.surfaceD + divterm
    rep = IdentityReport("H_prime", prof.r, dH, rhs, tolerance)
    rep.details["diff_error_estimate"] = est
    return rep


def verify_pohozaev_model(spec, fld, prof,
                          tolerance=_TOLERANCES["pohozaev_model"]):
    """Residual-corrected derivative identity for D in the model case.

    D'(r) = (N-2)/r D - C_{N,q}/(q r) int_B |u|^q
            + int_S (2 u_nu^2 + (2-q)/q |u|^q) - (2/r) int_B <grad u, x> rho.

    The correction term restores exactness when rho != 0; its negative is
    reported so the defect of the uncorrected identity can be compared
    against it directly.
    """
    if not _is_model_problem(spec, fld):
        raise ValueError("the model derivative identity needs the model "
                         "problem (A = id, V = 0, homogeneous f) or a "
                         "radial field")
    data = _node_data(spec, fld)
    q = spec.nonlinearity.q
    N = fld.dim
    C = c_constant(N, q)
    idx = prof.indices
    dD, est = prof.derivatives["D"]
    uq = q * data.Fvals[idx]  # |u|^q for the power law; 0 in linear mode
    S2 = data.sphere(2.0 * data.flux_r[idx] ** 2 + (2.0 - q) / q * uq, idx)
    X = data.ball(data.z_grad_u * data.rho0)[idx]
    Q = q * prof.d  # int_B |u|^q
    base = (N - 2.0) / prof.r * prof.D - C / (q * prof.r) * Q + S2
    corr = -(2.0 / prof.r) * X
    rep = IdentityReport("pohozaev_model", prof.r, dD, base + corr, tolerance)
    rep.details["diff_error_estimate"] = est
    rep.details["uncorrected_defect"] = dD - base
    rep.details["correction_term"] = corr
    return rep


def verify_rellich_general(spec, fld, prof,
                           tolerance=_TOLERANCES["gradient_energy_transport"]):
    """The two vector-calculus identities behind the variable-coefficient
    derivative formula, as exact quadrature statements with rho-correction.

    First identity (ball form):
      int_B <Z, grad(<A grad u, grad u>)> =
        int_B <Z, grad a_hl> d_h u d_l u + 2 int_S <Z, grad u><A grad u, nu>
        + 2 int_B <Z, grad u>(V u + f) - 2 int_B a_hl d_h Z_j d_j u d_l u
        - 2 int_B <Z, grad u> rho.

    Second identity (surface form):
      r int_S <A grad u, grad u> = int_B div Z <A grad u, grad u> + [same
      right-hand side].  All four volume terms are assembled independently.
    """
    if fld.representation != "grid2d":
        raise ValueError("the general identities need a grid2d field")
    data = _node_data(spec, fld)
    idx = prof.indices
    divz, zgradu, e = data.divz, data.z_grad_u, data.e_density
    vu_f = data.V * data.u + data.fvals
    t3_rows = 2.0 * zgradu * vu_f
    corr_rows = -2.0 * zgradu * data.rho0

    lhs9 = data.ball(data.z_grad_e)[idx]
    T1 = data.ball(data.t1_rows)[idx]
    T3 = data.ball(t3_rows)[idx]
    T4 = data.ball(data.t4_rows)[idx]
    CORR = data.ball(corr_rows)[idx]
    T2 = data.sphere(2.0 * zgradu[idx] * data.flux_r[idx], idx)

    rhs9 = T1 + T2 + T3 + T4 + CORR
    rep9 = IdentityReport("gradient_energy_transport", prof.r, lhs9, rhs9,
                          tolerance)
    rep9.details.update({"terms.coefficient_gradient": T1,
                         "terms.boundary": T2, "terms.equation": T3,
                         "terms.z_jacobian": T4,
                         "terms.residual_correction": CORR})

    lhs10 = prof.r * data.sphere(e[idx], idx)
    DIVZ = data.ball(divz * e)[idx]
    rhs10 = DIVZ + T1 + T2 + T3 + T4 + CORR
    rep10 = IdentityReport("surface_energy_scaling", prof.r, lhs10, rhs10,
                           tolerance)
    rep10.details["div_z_term"] = DIVZ
    return rep9, rep10


def verify_N_prime_bound(spec, fld, prof):
    """Derivative lower bound for the frequency plus the quadratic-form gap.

    Asserts N'(r) >= (1/H)[ r (2-q)/q int_S |u|^q - C_{N,q}/q int_B |u|^q ]
    minus a differentiation slack (ten times the derivative's error
    estimate at that radius, plus N's round-off, eps sqrt(n) |N| / h on n
    nodes at step h) at every audited radius with H above the floor.  The
    Cauchy-Schwarz gap int_S u_nu^2 - surfaceD^2 / H is reported, not
    judged: this report runs only where mu = 1, where the gap is a
    Cauchy-Schwarz defect over positive ring weights, nonnegative in exact
    arithmetic, so only round-off could fail a flag on it.  The exact
    corrected equality (with the gap and rho-terms reinstated) is reported
    alongside.
    """
    if not _is_model_problem(spec, fld):
        raise ValueError("the frequency derivative bound needs the model "
                         "problem or a radial field")
    data = _node_data(spec, fld)
    q = spec.nonlinearity.q
    N = fld.dim
    C = c_constant(N, q)
    idx = prof.indices
    dN, est = prof.derivatives["N"]

    S_q = q * prof.dprime
    Q = q * prof.d
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = (prof.r * (2.0 - q) / q * S_q - C / q * Q) / prof.H

    with np.errstate(divide="ignore", invalid="ignore"):
        cs_gap = (data.sphere(data.flux_r[idx] ** 2, idx)
                  - prof.surfaceD ** 2 / prof.H)
        X = data.ball(data.z_grad_u * data.rho0)[idx]
        Y = data.ball(data.u * data.rho0)[idx]
        equality_rhs = (2.0 * prof.r / prof.H * cs_gap + rhs
                        - 2.0 / prof.H * X
                        + 2.0 * prof.r * prof.surfaceD / prof.H ** 2 * Y)
    ok = np.isfinite(prof.N)
    # N comes from cumulative sums over the field's n nodes and is
    # differentiated at step h, so N' carries a round-off of about
    # eps sqrt(n) |N| / h, which outgrows est (~ h^2) at fine steps
    roundoff = (np.finfo(float).eps * math.sqrt(data.u.size)
                * np.abs(np.where(ok, prof.N, 0.0)) / data.h)
    slack = 10.0 * est + 1e-10 + roundoff
    margins = (dN - rhs + slack)[ok]
    # the worst radius has the smallest margin, not the largest |N' - rhs|
    worst = (int(np.flatnonzero(ok)[np.nanargmin(margins)])
             if np.any(np.isfinite(margins)) else None)
    rep = IdentityReport("frequency_derivative_bound", prof.r, dN, rhs,
                         tolerance=np.inf, worst_index=worst)
    rep.details["slack"] = slack
    rep.details["inequality_margins"] = margins
    rep.details["inequality_ok"] = bool(np.all(margins >= 0.0))
    rep.details["cs_gap"] = cs_gap
    rep.details["equality_residual"] = dN - equality_rhs
    rep.details["diff_error_estimate"] = est
    return rep


def verify_u2_bounds(spec, fld, prof):
    """int_{S_r} u^2 <= (eps0^q / kappa2) sup_{S_r}|u|^{2-q} int_{S_r} F.

    The exact intermediate form of the surface mass bound; the effective
    per-radius constant is reported against the admissible ceiling.
    """
    data = _node_data(spec, fld)
    nl = spec.nonlinearity
    idx = prof.indices
    u2_surf = data.sphere(data.u[idx] ** 2, idx)
    ceiling = nl.eps0 ** nl.q / nl.kappa2
    bound = ceiling * prof.sphere_sup ** (2.0 - nl.q) * prof.dprime
    rep = IdentityReport("surface_mass_bound", prof.r, u2_surf, bound,
                         tolerance=np.inf)
    ok = bound > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        c_eff = np.where(ok, u2_surf / np.where(ok, bound / ceiling, 1.0), 0.0)
    rep.details["effective_constant"] = c_eff
    rep.details["ceiling"] = ceiling
    rep.details["inequality_ok"] = bool(
        np.all(u2_surf <= bound * (1 + 1e-12) + 1e-300) or not np.any(ok))
    rep.details["worst_margin"] = float(np.min(np.where(ok, bound - u2_surf, np.inf)))
    return rep


def verify_f_transport(spec, fld, prof,
                       tolerance=_TOLERANCES["nonlinearity_transport"]):
    """Exact transport identity for the nonlinearity term and its surface bound.

    int_B f(x,u) <Z, grad u> = r int_S F - int_B (F div Z + <grad_x F, Z>),
    plus the pointwise consequence int_S (2F - f u) >= (2-q) int_S F.
    """
    data = _node_data(spec, fld)
    idx = prof.indices
    q = spec.nonlinearity.q
    lhs = data.ball(data.fvals * data.z_grad_u)[idx]
    divz_term = data.ball(data.Fvals * data.divz)[idx]
    g1_term = data.ball(data.grad_x_F_z)[idx]
    surf_2F_fu = data.sphere(2.0 * data.Fvals[idx]
                             - data.fvals[idx] * data.u[idx], idx)
    rhs = prof.r * prof.dprime - divz_term - g1_term
    rep = IdentityReport("nonlinearity_transport", prof.r, lhs, rhs, tolerance)
    margin = surf_2F_fu - (2.0 - q) * prof.dprime
    rep.details["surface_convexity_margin"] = margin
    rep.details["surface_convexity_ok"] = bool(
        np.min(margin) >= -1e-12 * max(float(np.max(np.abs(surf_2F_fu))), 1.0))
    rep.details["grad1F_term"] = g1_term
    return rep


def verify_surface_volume_D(spec, fld, prof,
                            tolerance=_TOLERANCES["surface_vs_volume_energy"]):
    """surfaceD = D + int_B u rho: the two energy forms agree once the
    divergence defect of a non-solution is accounted for."""
    data = _node_data(spec, fld)
    idx = prof.indices
    Y = data.ball(data.u * data.rho0)[idx]
    rep = IdentityReport("surface_vs_volume_energy", prof.r,
                         prof.surfaceD, prof.D + Y, tolerance)
    return rep


def _grid_tolerance_factor(fld):
    """Loosen default tolerances on grids coarser than the reference.

    The machinery is fourth order; reference resolutions are 256 rings for
    polar grids and step 1e-3 per unit radius for radial profiles.
    """
    R = fld.outer_radius
    if fld.representation == "grid2d":
        return max(1.0, (256.0 * fld.h / R) ** 4)
    return max(1.0, (fld.h / (1e-3 * R)) ** 4)


def run_all_identity_checks(spec, fld, prof):
    """Run every identity check that applies to this field; dict of reports.

    Tolerances hold at the reference resolutions and are scaled by the
    fourth-order grid factor on coarser fields.
    """
    fac = _grid_tolerance_factor(fld)
    tol = {name: value * fac for name, value in _TOLERANCES.items()}
    out = {}
    out["H_prime"] = verify_H_prime(spec, fld, prof, tol["H_prime"])
    out["surface_vs_volume_energy"] = verify_surface_volume_D(
        spec, fld, prof, tol["surface_vs_volume_energy"])
    out["surface_mass_bound"] = verify_u2_bounds(spec, fld, prof)
    out["nonlinearity_transport"] = verify_f_transport(
        spec, fld, prof, tol["nonlinearity_transport"])
    if _is_model_problem(spec, fld):
        out["pohozaev_model"] = verify_pohozaev_model(
            spec, fld, prof, tol["pohozaev_model"])
        out["frequency_derivative_bound"] = verify_N_prime_bound(spec, fld, prof)
    if fld.representation == "grid2d":
        rep9, rep10 = verify_rellich_general(
            spec, fld, prof, tol["gradient_energy_transport"])
        out["gradient_energy_transport"] = rep9
        out["surface_energy_scaling"] = rep10
    return out
