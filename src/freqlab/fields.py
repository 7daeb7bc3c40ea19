"""Solution fields: radial profiles, 2-D polar grids, solvers, residuals.

Two representations share one interface: a radial profile (any dimension,
plain-Laplacian route) and a node-centred polar grid (dimension 2, full
variable-coefficient route).  The polar grid keeps the pole as a single
degree of freedom; radial differentiation extends across the pole through
u(-r, theta) = u(r, theta + pi), and angular derivatives are spectral.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import eval_f
from .odes import counterexample_profile, counterexample_slope
from .quadrature import deriv_periodic_fft, deriv_uniform

__all__ = [
    "SolutionField",
    "ManufacturedProblem",
    "GluedFieldSpec",
    "SolverError",
    "solve_radial",
    "solve_grid_2d",
    "residual_field",
    "glued_field",
    "manufactured_bowl",
    "sample_grid2d",
    "save_field",
    "load_field",
]


class SolverError(RuntimeError):
    """Fixed-point iteration failed; carries the last iterate and distance."""

    def __init__(self, message, last=None, distance=None):
        super().__init__(message)
        self.last = last
        self.distance = distance


# --------------------------------------------------------------------------
# the field container


@dataclass
class SolutionField:
    """A candidate solution with gradient access and residual bookkeeping."""

    representation: str           # "radial" | "grid2d"
    dim: int
    q: float
    r: np.ndarray                 # radial nodes (uniform, starts at 0)
    u: np.ndarray                 # radial: (n,) ; grid2d: (n_r+1, n_theta)
    du: np.ndarray = None         # radial only: profile derivative
    theta: np.ndarray = None      # grid2d only
    residual_scale: float = None  # solver truncation estimate, if known
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    # ---- constructors

    @classmethod
    def from_trajectory(cls, traj):
        return cls("radial", traj.dim, traj.q, traj.t.copy(), traj.u.copy(),
                   du=traj.du.copy())

    @classmethod
    def radial_from_arrays(cls, r, u, du, dim, q):
        return cls("radial", dim, q, np.asarray(r, float), np.asarray(u, float),
                   du=np.asarray(du, float))

    @classmethod
    def grid2d_from_values(cls, r_nodes, theta, values, q):
        values = np.asarray(values, dtype=float)
        if values.shape != (len(r_nodes), len(theta)):
            raise ValueError("value array must be (n_r_nodes, n_theta)")
        if len(theta) % 2:
            raise ValueError("need an even number of angular nodes")
        return cls("grid2d", 2, q, np.asarray(r_nodes, float), values,
                   theta=np.asarray(theta, float))

    # ---- basic geometry

    @property
    def h(self):
        return float(self.r[1] - self.r[0])

    @property
    def outer_radius(self):
        return float(self.r[-1])

    def points(self):
        """Cartesian node coordinates; grid2d only, shape (n_r+1, n_t, 2)."""
        self._need_grid()
        rr = self.r[:, None]
        return np.stack([rr * np.cos(self.theta)[None, :],
                         rr * np.sin(self.theta)[None, :]], axis=-1)

    def _need_grid(self):
        if self.representation != "grid2d":
            raise ValueError("operation needs a grid2d field")

    def _need_radial(self):
        if self.representation != "radial":
            raise ValueError("operation needs a radial field")

    # ---- derivatives

    def profile_derivatives(self):
        """Radial representation: (u', u'') from five-point differences.

        Independent of any stored integrator derivative, so residuals judge
        the values themselves.
        """
        self._need_radial()
        if "fd" not in self._cache:
            up = deriv_uniform(self.u, self.h)
            upp = deriv_uniform(up, self.h)
            self._cache["fd"] = (up, upp)
        return self._cache["fd"]

    def polar_gradient(self):
        """grid2d: (du_dr, du_dtheta / r) node fields; pole row zeroed."""
        self._need_grid()
        if "grad" not in self._cache:
            ur = _radial_deriv_across_pole(self.u, self.h)
            ut = deriv_periodic_fft(self.u, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                ut_r = ut / self.r[:, None]
            ut_r[0] = 0.0
            self._cache["grad"] = (ur, ut_r)
        return self._cache["grad"]

    def gradient_cartesian(self):
        """grid2d: (gx, gy) node fields (pole row not meaningful)."""
        ur, ut_r = self.polar_gradient()
        ct, st = np.cos(self.theta)[None, :], np.sin(self.theta)[None, :]
        return ur * ct - ut_r * st, ur * st + ut_r * ct

    # ---- sup norms

    def sphere_sup(self):
        """max |u| on each node sphere."""
        if self.representation == "radial":
            return np.abs(self.u)
        return np.max(np.abs(self.u), axis=1)

    def ball_sup(self):
        """running max |u| over the balls B_{r_i}."""
        return np.maximum.accumulate(self.sphere_sup())


def _radial_deriv_across_pole(u, h):
    """Five-point d/dr of a polar node field; rows u(-r,t) = u(r, t+pi)."""
    n_t = u.shape[1]
    shift = n_t // 2
    ghosts = np.stack([np.roll(u[2], shift), np.roll(u[1], shift)])
    ext = np.vstack([ghosts, u])
    d = np.empty_like(u)
    # centred rows: ext index k corresponds to u row k-2
    d[:-2] = (ext[:-4] - 8.0 * ext[1:-3] + 8.0 * ext[3:-1] - ext[4:]) / (12.0 * h)
    c0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    c1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    d[-1] = -(c0[:, None] * u[-1:-6:-1]).sum(axis=0) / h
    d[-2] = -(c1[:, None] * u[-1:-6:-1]).sum(axis=0) / h
    return d


# --------------------------------------------------------------------------
# residual evaluation


def residual_field(spec, fld, source=None):
    """rho(x) = div(A grad u) + V u + f(x, u) [+ source] from values alone.

    Stencils here are independent of the solver discretisation, so a solved
    field shows its truncation error and an arbitrary field shows its defect.
    Pass the manufactured source to judge a source-augmented solution.
    Entries that cannot be formed (pole, outer edge, radial r < 2h) are NaN.
    """
    if fld.representation == "radial":
        return _residual_radial(spec, fld, source)
    return _residual_grid(spec, fld, source)


def _residual_radial(spec, fld, source=None):
    if spec.potential is not None or source is not None:
        raise ValueError("radial residuals support V = 0 and no source only")
    up, upp = fld.profile_derivatives()
    r = fld.r
    rho = np.full_like(fld.u, np.nan)
    inner = slice(2, len(r) - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        lap = upp + (fld.dim - 1) * up / np.where(r > 0, r, np.inf)
    fvals = eval_f(spec.nonlinearity, None, fld.u)
    rho[inner] = (lap + fvals)[inner]
    rho[r < 2 * fld.h] = np.nan
    return rho


def _residual_grid(spec, fld, source=None):
    pts = fld.points()
    a = spec.coefficients.entries(pts)
    gx, gy = fld.gradient_cartesian()
    fx = a[..., 0, 0] * gx + a[..., 0, 1] * gy
    fy = a[..., 1, 0] * gx + a[..., 1, 1] * gy
    ct, st = np.cos(fld.theta)[None, :], np.sin(fld.theta)[None, :]
    fr = fx * ct + fy * st
    ft = -fx * st + fy * ct
    # div F = (1/r) d_r (r F_r) + (1/r) d_theta F_theta
    rfr = fld.r[:, None] * fr
    d_rfr = _radial_deriv_across_pole(rfr, fld.h)
    d_ft = deriv_periodic_fft(ft, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        div = (d_rfr + d_ft) / fld.r[:, None]
    div[0] = np.nan
    rho = div + spec.V(pts) * fld.u + eval_f(spec.nonlinearity, pts, fld.u)
    if source is not None:
        rho = rho + np.asarray(source(pts), dtype=float)
    rho[-1] = np.nan  # one-sided top row: keep reports interior
    return rho


# --------------------------------------------------------------------------
# radial solver


def solve_radial(spec, a, h=1e-3, r_max=None):
    """Shooting solution of the plain-Laplacian homogeneous problem.

    Wraps the radial integrator and attaches the measured sup residual as
    the field's truncation estimate.
    """
    from .odes import integrate_radial

    nl = spec.nonlinearity
    if nl.kind != "homogeneous":
        raise ValueError("radial solves need the homogeneous nonlinearity")
    if spec.potential is not None:
        raise ValueError("radial solves need V = 0")
    if not 0.0 < abs(a) < nl.eps0:
        raise ValueError("amplitude must satisfy 0 < |a| < eps0")
    r_max = spec.outer_radius if r_max is None else r_max
    traj = integrate_radial(spec.dim, nl.q, a, r_max, h)
    fld = SolutionField.from_trajectory(traj)
    rho = residual_field(spec, fld)
    fld.residual_scale = float(np.nanmax(np.abs(rho)))
    fld.meta["solver"] = {"kind": "radial_shooting", "h": h, "a": a}
    return fld


# --------------------------------------------------------------------------
# 2-D variable-coefficient solver (node-centred polar grid)


def _polar_frame_entries(coeff, r, theta):
    """a_rr, a_rt, a_tt at the tensor points (r x theta)."""
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    pts = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1)
    a = coeff.entries(pts)
    ct, st = np.cos(tt), np.sin(tt)
    er = np.stack([ct, st], axis=-1)
    et = np.stack([-st, ct], axis=-1)
    arr = np.einsum("...ij,...i,...j->...", a, er, er)
    art = np.einsum("...ij,...i,...j->...", a, er, et)
    att = np.einsum("...ij,...i,...j->...", a, et, et)
    return arr, art, att


def _assemble_operator(spec, r_nodes, theta):
    """Sparse L = -div(A grad .) on [pole, rings 1..M-1]; Dirichlet row M.

    Returns (matrix, boundary_map) where boundary_map applied to the
    boundary values g yields the constant flux contribution to L u = b.
    """
    M = len(r_nodes) - 1
    n_t = len(theta)
    dr = float(r_nodes[1] - r_nodes[0])
    dth = float(theta[1] - theta[0])
    n_unknown = 1 + (M - 1) * n_t

    def unk(i, j):
        # i in 0..M-1 (0 = pole), j angular index
        if i == 0:
            return np.zeros_like(np.asarray(j)) if np.ndim(j) else 0
        return 1 + (i - 1) * n_t + (np.asarray(j) % n_t)

    rows, cols, vals = [], [], []
    brows, bcols, bvals = [], [], []  # boundary-value contributions

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
    half_r = r_nodes[:-1] + 0.5 * dr  # faces i+1/2, i = 0..M-1
    arr_f, art_f, _ = _polar_frame_entries(spec.coefficients, half_r, theta)
    _, art_t, att_t = _polar_frame_entries(spec.coefficients, r_nodes[1:M], theta + 0.5 * dth)

    # ring equations
    for i in range(1, M):
        r_i = r_nodes[i]
        row = unk(i, j)
        scale_out = half_r[i] / (r_i * dr)      # face i+1/2
        scale_in = half_r[i - 1] / (r_i * dr)   # face i-1/2

        # outward radial flux: c_rr (u[i+1]-u[i])/dr + c_rt/r_f * dtheta-avg
        c = arr_f[i] * scale_out / dr
        add(row, i + 1, j, c)
        add(row, i, j, -c)
        cx = art_f[i] * scale_out / (half_r[i] * 4.0 * dth)
        for di, dj, s in ((0, 1, 1.0), (0, -1, -1.0), (1, 1, 1.0), (1, -1, -1.0)):
            add(row, i + di, j + dj, s * cx)

        # inward radial flux (subtract)
        c = arr_f[i - 1] * scale_in / dr
        add(row, i, j, -c)
        add(row, i - 1, j, c)
        cx = art_f[i - 1] * scale_in / (half_r[i - 1] * 4.0 * dth)
        if i - 1 == 0:
            # pole row is a single value: its theta-derivative vanishes
            for dj, s in ((1, 1.0), (-1, -1.0)):
                add(row, i, j + dj, -s * cx)
        else:
            for di, dj, s in ((0, 1, 1.0), (0, -1, -1.0), (-1, 1, 1.0), (-1, -1, -1.0)):
                add(row, i + di, j + dj, -s * cx)

        # angular fluxes at faces j+1/2 and j-1/2
        scale_t = 1.0 / (r_i * dth)
        ct = att_t[i - 1] * scale_t / (r_i * dth)          # at face (i, j+1/2)
        add(row, i, j + 1, ct)
        add(row, i, j, -ct)
        ctm = np.roll(att_t[i - 1], 1) * scale_t / (r_i * dth)  # face (i, j-1/2)
        add(row, i, j, -ctm)
        add(row, i, j - 1, ctm)
        cxp = art_t[i - 1] * scale_t / (4.0 * dr)          # face (i, j+1/2)
        cxm = np.roll(art_t[i - 1], 1) * scale_t / (4.0 * dr)
        for dj_face, coefs in ((0, cxp), (-1, cxm)):
            s = 1.0 if dj_face == 0 else -1.0
            for di, dj2, s2 in ((1, 0, 1.0), (-1, 0, -1.0), (1, 1, 1.0), (-1, 1, -1.0)):
                add(row, i + di, j + dj_face + dj2, s * s2 * coefs)

    # pole equation: disk of radius dr/2
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
    if brows:
        br = np.concatenate([np.ravel(x) for x in brows])
        bc = np.concatenate([np.ravel(x) for x in bcols])
        bv = np.concatenate([np.broadcast_to(v, (n_t,)).ravel() for v in bvals])
        B = sp.coo_matrix((bv, (br, bc)), shape=(n_unknown, n_t)).tocsc()
    else:
        B = sp.csc_matrix((n_unknown, n_t))
    return L, B


def solve_grid_2d(spec, boundary, n_r=64, n_theta=128, source=None,
                  damping=0.5, tol=1e-10, max_iters=400, initial=None):
    """Damped fixed-point solve of -div(A grad u) = V u + f(x, u) + source.

    `boundary` is a callable of the angular nodes giving Dirichlet data on
    the outer circle.  Iterates u <- damping u + (1-damping) L^{-1}(rhs(u)).
    Raises SolverError when the sup-distance fails to reach `tol`.
    """
    if spec.dim != 2:
        raise ValueError("the grid solver is two-dimensional")
    if n_theta % 2:
        raise ValueError("need an even angular count")
    R = spec.outer_radius
    r_nodes = np.linspace(0.0, R, n_r + 1)
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    g = np.asarray(boundary(theta), dtype=float)
    if np.any(~np.isfinite(g)):
        raise ValueError("boundary data must be finite")

    L, B = _assemble_operator(spec, r_nodes, theta)
    lu = spla.splu(L)
    bc_term = np.asarray(B @ g).ravel()  # known boundary columns, moved right

    M = n_r
    n_t = n_theta
    pts_int = np.stack([
        (r_nodes[1:M, None] * np.cos(theta)[None, :]),
        (r_nodes[1:M, None] * np.sin(theta)[None, :]),
    ], axis=-1)
    V_int = spec.V(pts_int)
    src_int = np.zeros((M - 1, n_t)) if source is None else \
        np.asarray(source(pts_int), dtype=float)
    origin = np.zeros(2)
    V0 = float(spec.V(origin[None, :])[0])
    src0 = 0.0 if source is None else float(np.asarray(source(origin[None, :]))[0])

    uk = np.zeros(1 + (M - 1) * n_t) if initial is None else np.asarray(initial, float)
    distances = []
    for it in range(max_iters):
        pole = uk[0]
        rings = uk[1:].reshape(M - 1, n_t)
        rhs = np.empty_like(uk)
        rhs[0] = V0 * pole + float(eval_f(spec.nonlinearity, origin[None, :],
                                          np.array([pole]))[0]) + src0
        rhs[1:] = (V_int * rings + eval_f(spec.nonlinearity, pts_int, rings)
                   + src_int).ravel()
        unew = damping * uk + (1.0 - damping) * lu.solve(rhs + bc_term)
        dist = float(np.max(np.abs(unew - uk)))
        distances.append(dist)
        uk = unew
        if dist < tol:
            break
    else:
        raise SolverError(
            f"fixed point did not reach tol {tol:g} in {max_iters} iterations",
            last=uk, distance=distances[-1])

    values = np.empty((M + 1, n_t))
    values[0] = uk[0]
    values[1:M] = uk[1:].reshape(M - 1, n_t)
    values[M] = g
    fld = SolutionField.grid2d_from_values(r_nodes, theta, values,
                                           spec.nonlinearity.q)
    rho = residual_field(spec, fld, source=source)
    fld.residual_scale = float(np.nanmax(np.abs(rho)))
    fld.meta["solver"] = {"kind": "grid2d_fixed_point", "n_r": n_r,
                          "n_theta": n_theta, "damping": damping,
                          "iterations": len(distances),
                          "distances": distances}
    return fld


# --------------------------------------------------------------------------
# manufactured problems


@dataclass
class ManufacturedProblem:
    """Closed-form field with the source that makes it an exact solution."""

    spec: object
    u: object                 # callable x -> values
    grad: object              # callable x -> (..., 2)
    div_a_grad: object        # callable x -> values

    def source(self, x):
        x = np.asarray(x, dtype=float)
        uu = self.u(x)
        return (-self.div_a_grad(x) - self.spec.V(x) * uu
                - eval_f(self.spec.nonlinearity, x, uu))

    def boundary(self, theta):
        R = self.spec.outer_radius
        pts = np.stack([R * np.cos(theta), R * np.sin(theta)], axis=-1)
        return self.u(pts)

    def to_field(self, n_r=128, n_theta=256):
        """Sample the exact field on a polar grid (values only)."""
        return sample_grid2d(self.u, self.spec.outer_radius, n_r, n_theta,
                             self.spec.nonlinearity.q)


def sample_grid2d(fn, R, n_r, n_theta, q):
    r_nodes = np.linspace(0.0, R, n_r + 1)
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    rr, tt = np.meshgrid(r_nodes, theta, indexing="ij")
    pts = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1)
    vals = np.asarray(fn(pts), dtype=float)
    vals[0] = vals[0, 0]  # enforce an exactly single-valued pole row
    return SolutionField.grid2d_from_values(r_nodes, theta, vals, q)


def manufactured_bowl(outer_radius=1.0, q=1.5, amplitude=1.0, v0=0.25):
    """u = amplitude (R^2 - |x|^2)^2 against A = diag(1 + x1^2/4, 1), V = v0.

    All the x-derivatives are hand-derived closed forms, so the induced
    source is exact and the sampled field is a genuine solution up to
    round-off.
    """
    from .model import CoefficientField, NonlinearitySpec, ProblemSpec

    R = float(outer_radius)
    amp = float(amplitude)

    def entries(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 + x[..., 0] ** 2 / 4.0
        out[..., 1, 1] = 1.0
        return out

    def grads(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = x[..., 0] / 2.0
        return out

    lam = min(0.999, 1.0 / (1.0 + R ** 2 / 4.0) * 0.999)
    coeff = CoefficientField(2, entries, grads,
                             lambda x: np.full(np.asarray(x).shape[:-1], lam),
                             "bowl_diag", {"outer_radius": R})

    eps0 = 2.0 * amp * R ** 4 + 1.0
    nl = NonlinearitySpec.homogeneous(q, eps0=eps0)
    potential = (lambda x: np.full(np.asarray(x).shape[:-1], float(v0))) \
        if v0 else None
    spec = ProblemSpec(2, R, coeff, nl, potential, str(v0))

    def u(x):
        x = np.asarray(x, dtype=float)
        s = R ** 2 - x[..., 0] ** 2 - x[..., 1] ** 2
        return amp * s ** 2

    def grad(x):
        x = np.asarray(x, dtype=float)
        s = R ** 2 - x[..., 0] ** 2 - x[..., 1] ** 2
        return np.stack([-4.0 * amp * x[..., 0] * s,
                         -4.0 * amp * x[..., 1] * s], axis=-1)

    def div_a_grad(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        s = R ** 2 - x1 ** 2 - x2 ** 2
        return amp * (-2.0 * x1 ** 2 * s
                      + (1.0 + x1 ** 2 / 4.0) * (8.0 * x1 ** 2 - 4.0 * s)
                      + 8.0 * x2 ** 2 - 4.0 * s)

    return ManufacturedProblem(spec, u, grad, div_a_grad)


# --------------------------------------------------------------------------
# glued non-solution fields


@dataclass
class GluedFieldSpec:
    """Construction record of a zero-core candidate field."""

    dim: int
    q: float
    core_radius: float
    outer_radius: float


def glued_field(dim, q, core_radius, outer_radius, h=1e-3):
    """Zero on B_{core_radius}, the 1-D glued profile in |x| - core outside.

    The result is C^2-smooth across the seam but is not a solution of the
    sign-definite equation anywhere it is nonzero: its residual is
    rho(r) = 2 w''(r - r0) + (dim-1)/r w'(r - r0) in closed form.
    """
    if core_radius <= 0 or core_radius >= outer_radius:
        raise ValueError("need 0 < core_radius < outer_radius")
    n = int(round(outer_radius / h))
    r = h * np.arange(n + 1)
    u, _ = counterexample_profile(q, core_radius, r)
    du = counterexample_slope(q, core_radius, r)
    fld = SolutionField.radial_from_arrays(r, u, du, dim, q)
    fld.meta["glued"] = GluedFieldSpec(dim, q, core_radius, outer_radius)
    return fld


def glued_residual_exact(fld):
    """Closed-form residual of a glued field (oracle for residual_field)."""
    g = fld.meta["glued"]
    r = fld.r
    _, upp = counterexample_profile(g.q, g.core_radius, r)
    up = counterexample_slope(g.q, g.core_radius, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = 2.0 * upp + (g.dim - 1) * up / np.where(r > 0, r, np.inf)
    return rho


# --------------------------------------------------------------------------
# text serialization (external interface)


def save_field(fld, path):
    """Write the documented text format: comment header, then CSV rows."""
    lines = ["# freqlab-field 1"]
    lines.append(f"representation={fld.representation}")
    lines.append(f"N={fld.dim}")
    lines.append(f"q={float(fld.q)!r}")
    if fld.residual_scale is not None:
        lines.append(f"residual_scale={float(fld.residual_scale)!r}")
    if fld.representation == "radial":
        lines.append(f"count={len(fld.r)}")
        lines.append("r,u,du")
        for rr, uu, dd in zip(fld.r, fld.u, fld.du):
            lines.append(f"{float(rr)!r},{float(uu)!r},{float(dd)!r}")
    else:
        lines.append(f"n_r={len(fld.r) - 1}")
        lines.append(f"n_theta={len(fld.theta)}")
        lines.append(f"r_max={float(fld.outer_radius)!r}")
        lines.append("i,j,u")
        for i in range(len(fld.r)):
            for jj in range(len(fld.theta)):
                lines.append(f"{i},{jj},{float(fld.u[i, jj])!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != "# freqlab-field 1":
            raise ValueError(f"not a freqlab field file: {path}")
        header = {}
        while True:
            line = fh.readline()
            if "=" not in line:
                break
            key, _, val = line.strip().partition("=")
            header[key] = val
        columns = line.strip()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not len(rows) or rows.shape[1] != 3:
        raise ValueError(f"{path}: expected data rows of 3 comma-separated values")
    rep = header["representation"]
    dim = int(header["N"])
    q = float(header["q"])
    if rep == "radial":
        if columns != "r,u,du":
            raise ValueError("bad radial column header")
        if "count" in header and len(rows) != int(header["count"]):
            raise ValueError(f"{path}: {len(rows)} rows, header says "
                             f"count={header['count']}")
        fld = SolutionField.radial_from_arrays(rows[:, 0], rows[:, 1],
                                               rows[:, 2], dim, q)
    elif rep == "grid2d":
        n_r = int(header["n_r"])
        n_t = int(header["n_theta"])
        r_max = float(header["r_max"])
        if len(rows) != (n_r + 1) * n_t:
            raise ValueError(f"{path}: {len(rows)} rows, header says "
                             f"{n_r + 1} x {n_t} nodes")
        i, j = rows[:, 0].astype(int), rows[:, 1].astype(int)
        if (np.any((i != rows[:, 0]) | (j != rows[:, 1]))
                or np.any((i < 0) | (i > n_r) | (j < 0) | (j >= n_t))
                or np.any(np.bincount(i * n_t + j, minlength=len(rows)) != 1)):
            raise ValueError(f"{path}: the (i, j) rows do not cover the "
                             f"{n_r + 1} x {n_t} grid once each")
        vals = np.empty((n_r + 1, n_t))
        vals[i, j] = rows[:, 2]
        r_nodes = np.linspace(0.0, r_max, n_r + 1)
        theta = np.arange(n_t) * (2.0 * math.pi / n_t)
        fld = SolutionField.grid2d_from_values(r_nodes, theta, vals, q)
    else:
        raise ValueError(f"unknown representation {rep!r}")
    if "residual_scale" in header:
        fld.residual_scale = float(header["residual_scale"])
    return fld
