"""Solution fields: radial profiles, 2-D polar grids, solvers, residuals.

Two representations share one interface: a radial profile (any dimension,
plain-Laplacian route) and a node-centred polar grid (dimension 2, full
variable-coefficient route).  The polar grid keeps the pole as a single
degree of freedom; radial differentiation extends across the pole through
u(-r, theta) = u(r, theta + pi), and angular derivatives are spectral.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .io import write_npz
from .model import eval_f
from .odes import counterexample_profile, counterexample_slope
from .quadrature import deriv_periodic_fft, deriv_uniform, radial_laplacian

__all__ = [
    "SolutionField",
    "ManufacturedProblem",
    "SolverError",
    "solve_radial",
    "solve_grid_2d",
    "residual_field",
    "glued_field",
    "manufactured_bowl",
    "sample_grid2d",
    "cartesian_gradient",
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


@dataclass(frozen=True)
class SolutionField:
    """A candidate solution on its nodes, with residual bookkeeping.

    A field is a value: it is validated once, when it is built, and cannot
    change afterwards.  It takes ownership of the arrays it is given: each of
    r, u, du and theta is stored as a C-contiguous float64 array and made
    read-only.  That is the array itself when it already is one and nothing
    else can write its memory (it owns its data, or views a read-only
    array), else a copy.  So no verdict depends on how the caller laid out
    its arrays (numpy sums strided and contiguous data in different orders)
    and cached node data can never go stale.  A changed field is a new one,
    made with `dataclasses.replace`, which starts with an empty cache but
    keeps residual_scale and the meta dict itself: a caller that changes u
    passes residual_scale=None and meta={} too.
    """

    representation: str           # "radial" | "grid2d"
    dim: int
    q: float
    r: np.ndarray                 # radial nodes (uniform, starts at 0)
    u: np.ndarray                 # radial: (n,) ; grid2d: (n_r+1, n_theta)
    du: np.ndarray = None         # radial only: profile derivative
    theta: np.ndarray = None      # grid2d only
    residual_scale: float = None  # solver truncation estimate, if known
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        for name in ("r", "u", "du", "theta"):
            a = getattr(self, name)
            if a is not None:
                object.__setattr__(self, name, _read_only(a))
        self.validate()

    # ---- constructors

    @classmethod
    def radial_from_arrays(cls, r, u, du, dim, q, residual_scale=None):
        return cls("radial", dim, q, r, u, du=du, residual_scale=residual_scale)

    @classmethod
    def grid2d_from_values(cls, r_nodes, theta, values, q, residual_scale=None):
        return cls("grid2d", 2, q, r_nodes, values, theta=theta,
                   residual_scale=residual_scale)

    def validate(self):
        """Raise ValueError unless every analysis can read this field.

        Checks the array shapes, finite values, nodes r uniform from 0 (the
        radial quadratures and the polar stencils take h = r[1] - r[0]), an
        even angular count with a single-valued pole row on a grid, a finite
        q, and a finite residual_scale when one is set.
        """
        if self.representation == "radial":
            arrays = {"r": self.r, "u": self.u, "du": self.du}
            if any(a.ndim != 1 for a in arrays.values()) or \
                    len({len(a) for a in arrays.values()}) != 1:
                raise ValueError("radial r, u, du must be 1-D of one length, got "
                                 + ", ".join(f"{k} {a.shape}" for k, a in arrays.items()))
        elif self.representation == "grid2d":
            arrays = {"r": self.r, "theta": self.theta, "u": self.u}
            n_t = len(self.theta) if self.theta.ndim == 1 else None
            if self.r.ndim != 1 or self.u.shape != (len(self.r), n_t):
                raise ValueError(f"grid u has shape {self.u.shape}; expected "
                                 f"(n_r_nodes, n_theta) = ({len(self.r)}, {n_t})")
            if n_t < 2 or n_t % 2:
                raise ValueError(f"need an even number of angular nodes, got {n_t}")
        else:
            raise ValueError(f"unknown representation {self.representation!r}")
        for name, a in arrays.items():
            bad = np.argwhere(~np.isfinite(a))
            if len(bad):
                raise ValueError(f"non-finite value in {name} at index "
                                 f"{', '.join(map(str, bad[0]))}")
        r = self.r
        if not len(r) or r[0] != 0.0:
            raise ValueError(f"r must start at 0, got {r[:1].tolist()}")
        steps = np.diff(r)
        if not (len(steps) and steps[0] > 0
                and np.all(np.abs(steps - steps[0]) <= _STEP_REL_TOL * steps[0])):
            raise ValueError(f"r must be increasing with a uniform step (to a "
                             f"relative {_STEP_REL_TOL:g})")
        # the pole is one node: writers give every angle the same value, so
        # any difference in row 0 is another field, not round-off
        if self.representation == "grid2d" and np.any(self.u[0] != self.u[0, 0]):
            raise ValueError("the pole row (i = 0) holds more than one value")
        if not math.isfinite(self.q):
            raise ValueError(f"non-finite q {self.q!r}")
        if self.residual_scale is not None and not math.isfinite(self.residual_scale):
            raise ValueError(f"non-finite residual_scale {self.residual_scale!r}")

    # ---- basic geometry

    @property
    def h(self):
        return float(self.r[1] - self.r[0])

    @property
    def outer_radius(self):
        return float(self.r[-1])

    def points(self):
        """Cartesian node coordinates; grid2d only, shape (n_r+1, n_t, 2)."""
        if self.representation != "grid2d":
            raise ValueError("operation needs a grid2d field")
        return _polar_points(self.r, self.theta)

    def cached(self, key, build, pin=None):
        """build(), kept under `key` until `pin` is another object."""
        entry = self._cache.get(key)
        if entry is None or entry[0] is not pin:
            entry = self._cache[key] = (pin, build())
        return entry[1]


def _read_only(a):
    a = np.ascontiguousarray(a, dtype=float)
    base = a.base
    if base is not None and not (isinstance(base, np.ndarray)
                                 and not base.flags.writeable):
        a = a.copy()  # a view of memory that its owner can still write
    a.flags.writeable = False
    return a


# nodes r = k h have steps that differ from h by round-off of about k eps
# relative (1e-11 at 6e4 nodes); a larger spread is another grid
_STEP_REL_TOL = 1e-9


def _angles(n):
    """The n uniform angular nodes 2 pi j / n, j = 0..n-1."""
    return np.arange(n) * (2.0 * math.pi / n)


def _polar_points(r, theta):
    """Cartesian points (r cos theta, r sin theta) on the tensor grid
    r x theta, shape r.shape + theta.shape + (2,)."""
    return np.stack([np.multiply.outer(r, np.cos(theta)),
                     np.multiply.outer(r, np.sin(theta))], axis=-1)


def cartesian_gradient(values, r, theta):
    """(gx, gy) of a polar node field with rows r and columns theta.

    The polar gradient (d/dr, (1/r) d/dtheta) is rotated into x and y.  At
    the pole it comes from the gradient there, read off as the k = 1 mode
    of d/dr across the pole.
    """
    vr = _radial_deriv_across_pole(values, float(r[1] - r[0]))
    vt = deriv_periodic_fft(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        vt_r = vt / r[:, None]
    ct, st = np.cos(theta), np.sin(theta)
    gx, gy = 2.0 * np.mean(vr[0] * ct), 2.0 * np.mean(vr[0] * st)
    vr[0] = gx * ct + gy * st
    vt_r[0] = -gx * st + gy * ct
    return vr * ct - vt_r * st, vr * st + vt_r * ct


def _radial_deriv_across_pole(u, h):
    """Five-point d/dr of a polar node field, centred up to the pole through
    the ghost rows u(-r, t) = u(r, t + pi), one-sided at the rim."""
    shift = u.shape[1] // 2
    ghosts = np.stack([np.roll(u[2], shift), np.roll(u[1], shift)])
    return deriv_uniform(np.vstack([ghosts, u]), h)[2:]


# --------------------------------------------------------------------------
# residual evaluation


def _require_radial_route(spec):
    """Raise ValueError unless a radial profile can stand for `spec`'s
    problem: V = 0, an x-independent f and A nu = nu on radial fields."""
    if spec.potential is not None:
        raise ValueError("the radial route needs V = 0")
    if spec.nonlinearity.kind not in ("homogeneous", "zero"):
        raise ValueError("the radial route needs an x-independent f "
                         "(homogeneous or zero)")
    if spec.coefficients.kind not in ("identity", "rotation_perturbed"):
        raise ValueError("the radial route needs A in {identity, "
                         "rotation_perturbed} (A nu = nu on radial fields)")


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
    _require_radial_route(spec)
    if source is not None:
        raise ValueError("radial residuals take no source")
    # five-point differences of the values, not the stored integrator
    # derivative, so residuals judge the values themselves; the last four
    # rows read one-sided first derivatives (rows n-4 and n-3 through the
    # second pass), which are third order only, and stay NaN
    r = fld.r
    rho = np.full_like(fld.u, np.nan)
    inner = slice(2, len(r) - 4)
    lap = radial_laplacian(fld.u, r, fld.dim)
    fvals = eval_f(spec.nonlinearity, None, fld.u)
    rho[inner] = (lap + fvals)[inner]
    rho[r < 2 * fld.h] = np.nan
    return rho


def _residual_grid(spec, fld, source=None, agrad=None, V=None, fvals=None):
    """The polar-grid residual; `agrad` (A grad u), `V` and `fvals`
    (f(x, u)) are the node values, if the caller has them."""
    pts = fld.points()
    if agrad is None:
        a = spec.coefficients.entries(pts)
        grad = np.stack(cartesian_gradient(fld.u, fld.r, fld.theta), axis=-1)
        agrad = np.einsum("...ij,...j->...i", a, grad)
    if V is None:
        V = spec.V(pts)
    if fvals is None:
        fvals = eval_f(spec.nonlinearity, pts, fld.u)
    fx, fy = agrad[..., 0], agrad[..., 1]
    ct, st = np.cos(fld.theta)[None, :], np.sin(fld.theta)[None, :]
    fr = fx * ct + fy * st
    ft = -fx * st + fy * ct
    # div F = (1/r) d_r (r F_r) + (1/r) d_theta F_theta
    rfr = fld.r[:, None] * fr
    d_rfr = _radial_deriv_across_pole(rfr, fld.h)
    d_ft = deriv_periodic_fft(ft)
    with np.errstate(divide="ignore", invalid="ignore"):
        div = (d_rfr + d_ft) / fld.r[:, None]
    div[0] = np.nan
    rho = div + V * fld.u + fvals
    if source is not None:
        rho = rho + np.asarray(source(pts), dtype=float)
    rho[-1] = np.nan  # one-sided top row: keep reports interior
    return rho


# --------------------------------------------------------------------------
# radial solver


def solve_radial(spec, a, h=1e-3):
    """Shooting solution of the plain-Laplacian homogeneous problem.

    Wraps the radial integrator and attaches the measured sup residual as
    the field's truncation estimate.
    """
    from .odes import integrate_radial

    _require_radial_route(spec)
    nl = spec.nonlinearity
    if nl.kind != "homogeneous":
        raise ValueError("radial solves need the homogeneous nonlinearity")
    if not 0.0 < abs(a) < nl.eps0:
        raise ValueError("amplitude must satisfy 0 < |a| < eps0")
    traj = integrate_radial(spec.dim, nl.q, a, spec.outer_radius, h)
    fld = SolutionField.radial_from_arrays(traj.t, traj.u, traj.du, traj.dim,
                                           traj.q)
    rho = residual_field(spec, fld)
    fld = dataclasses.replace(fld, residual_scale=float(np.nanmax(np.abs(rho))))
    fld.meta["solver"] = {"kind": "radial_shooting", "h": h, "a": a}
    return fld


# --------------------------------------------------------------------------
# 2-D variable-coefficient solver (node-centred polar grid)


def _polar_frame_entries(coeff, r, theta):
    """a_rr, a_rt, a_tt at the tensor points (r x theta)."""
    a = coeff.entries(_polar_points(r, theta))
    er = _polar_points(np.ones_like(r), theta)  # unit radial vectors
    et = np.stack([-er[..., 1], er[..., 0]], axis=-1)
    arr = np.einsum("...ij,...i,...j->...", a, er, er)
    art = np.einsum("...ij,...i,...j->...", a, er, et)
    att = np.einsum("...ij,...i,...j->...", a, et, et)
    return arr, art, att


def _nodes(u, boundary):
    """The unknown vector [pole, rings 1..n_r-1 row by row] and the boundary
    values as the (n_r + 1, n_theta) node array, the pole repeated."""
    n_t = len(boundary)
    return np.vstack([np.full(n_t, u[0]), u[1:].reshape(-1, n_t), boundary])


class _Stencil:
    """div(A grad .) on the polar grid, applied matrix-free.

    The finite-volume stencil is one coefficient array per offset (di, dj),
    of shape (n_r, n_theta): coef[di, dj][i, j] multiplies u[i + di, j + dj]
    in the equation of node (i, j).  Row 0 is the pole equation (a disk of
    radius dr/2), whose rows j all land in one equation, as the pole is one
    value; rows 1..n_r-1 are the rings.  `apply` reads the boundary ring as
    the last row of the node array, so the equations L u = b + B g read
    apply(_nodes(u, g)) + b = 0.
    """

    def __init__(self, spec, r_nodes, theta):
        M = len(r_nodes) - 1
        dr = float(r_nodes[1] - r_nodes[0])
        dth = float(theta[1] - theta[0])
        self.shape = (M, len(theta))
        offsets = ((1, 0), (0, 0), (0, 1), (0, -1), (1, 1), (1, -1),
                   (-1, 0), (-1, 1), (-1, -1))  # in the order `apply` sums them
        self._coef = coef = {off: np.zeros(self.shape) for off in offsets}

        half_r = r_nodes[:-1] + 0.5 * dr  # faces i+1/2, i = 0..M-1
        arr_f, art_f, _ = _polar_frame_entries(spec.coefficients, half_r, theta)
        _, art_t, att_t = _polar_frame_entries(spec.coefficients, r_nodes[1:M], theta + 0.5 * dth)
        i = slice(1, M)  # the ring equations
        r_i = r_nodes[1:M, None]

        # outward radial flux c_rr (u[i+1]-u[i])/dr + c_rt/r_f * dtheta-avg
        # through face i+1/2, over the area of cell i: the pole's is the disk
        scale_out = np.concatenate(([dth / (math.pi * half_r[0])],
                                    half_r[1:] / (r_nodes[1:M] * dr)))[:, None]
        c = arr_f * scale_out / dr
        coef[1, 0] += c
        coef[0, 0] -= c
        cx = art_f * scale_out / (half_r[:, None] * 4.0 * dth)
        for dj, s in ((1, 1.0), (-1, -1.0)):
            coef[0, dj][i] += s * cx[1:]  # the pole has no theta-difference
            coef[1, dj] += s * cx

        # inward radial flux (subtract) through face i-1/2
        scale_in = half_r[:-1, None] / (r_i * dr)
        c = arr_f[:-1] * scale_in / dr
        coef[0, 0][i] -= c
        coef[-1, 0][i] += c
        cx = art_f[:-1] * scale_in / (half_r[:-1, None] * 4.0 * dth)
        for dj, s in ((1, 1.0), (-1, -1.0)):
            coef[0, dj][i] -= s * cx
            # ring 1 takes no inward cross term: the pole has no theta-difference
            coef[-1, dj][2:M] -= s * cx[1:]

        # angular fluxes at faces j+1/2 and j-1/2
        scale_t = 1.0 / (r_i * dth)
        ct = att_t * scale_t / (r_i * dth)                     # at face (i, j+1/2)
        coef[0, 1][i] += ct
        coef[0, 0][i] -= ct
        ctm = np.roll(att_t, 1, axis=1) * scale_t / (r_i * dth)  # face (i, j-1/2)
        coef[0, 0][i] -= ctm
        coef[0, -1][i] += ctm
        cxp = art_t * scale_t / (4.0 * dr)                     # face (i, j+1/2)
        cxm = np.roll(art_t, 1, axis=1) * scale_t / (4.0 * dr)
        for dj_face, coefs in ((0, cxp), (-1, cxm)):
            s = 1.0 if dj_face == 0 else -1.0
            for di, dj2, s2 in ((1, 0, 1.0), (-1, 0, -1.0), (1, 1, 1.0), (-1, 1, -1.0)):
                coef[di, dj_face + dj2][i] += s * s2 * coefs

    def apply(self, nodes):
        """div(A grad .) at the unknowns, as a vector like theirs."""
        M, n_t = self.shape
        # one ghost row above the pole (read with zero coefficients only)
        # and one wrapped column on each side
        ext = np.zeros((M + 2, n_t + 2))
        ext[1:, 1:-1] = nodes
        ext[:, 0] = ext[:, -2]
        ext[:, -1] = ext[:, 1]
        rows = sum(coef * ext[1 + di:1 + di + M, 1 + dj:1 + dj + n_t]
                   for (di, dj), coef in self._coef.items())
        return np.concatenate(([rows[0].sum()], rows[1:].ravel()))


class _FourierFactor:
    """The theta-mean of L = -div(A grad .), solved one angular mode at a
    time: T. Chan's optimal circulant preconditioner (SIAM J. Sci. Stat.
    Comput. 9, 1988), and L itself for theta-invariant A.

    A real FFT in theta turns the ring equations into n_theta/2 + 1 radial
    systems, tridiagonal in the ring index; only mode 0 also couples to the
    pole.  Mode k's symbol is the theta-mean of each of `stencil`'s offset
    arrays times exp(2 pi i k dj / n_theta).  The systems are stacked into
    one tridiagonal matrix, blocks joined by zeros, and factored once by
    LAPACK's gttrf; `nnz` counts the entries of its four bands.
    """

    def __init__(self, stencil):
        from scipy.linalg import lapack

        n_r, n_t = stencil._coef[0, 0].shape
        self.n_ring = m = n_r - 1
        self.n_theta = n_t
        self.n_mode = n_k = n_t // 2 + 1
        phase = np.exp(2j * math.pi * np.arange(n_k)[:, None] / n_t)
        # bands[di] holds, for mode k and ring i, the coefficient of mode k
        # of ring i + di in ring i's equation; pole[di] that of the pole
        # (di = 0) and of ring 1's mode 0 (di = 1) in the pole equation
        bands = {di: np.zeros((n_k, m), dtype=complex) for di in (-1, 0, 1)}
        pole = {0: 0.0, 1: 0.0}
        for (di, dj), coef in stencil._coef.items():
            mean = coef.mean(axis=1)
            bands[di] += mean[1:] * phase ** dj
            if di in pole:  # the pole equation sums its rows over the angles
                pole[di] += mean[0] * (n_t if di == 0 else 1.0)
        # ring 1 couples to the pole, a single value, in mode 0 only
        bands[-1][0, 0] *= n_t
        bands[-1][1:, 0] = 0.0
        bands[1][:, -1] = 0.0  # the boundary ring is known
        dl = -bands[-1].ravel()
        d = -np.concatenate(([pole[0]], bands[0].ravel()))
        du = -np.concatenate(([pole[1]], bands[1].ravel()[:-1]))
        dl, d, du, du2, ipiv, info = lapack.zgttrf(dl, d, du)
        if info:
            raise np.linalg.LinAlgError(f"mode system is singular (gttrf info {info})")
        self._factor = (dl, d, du, du2, ipiv)
        self._gttrs = lapack.zgttrs
        self.nnz = len(dl) + len(d) + len(du) + len(du2)

    def solve(self, b):
        m, n_t, n_k = self.n_ring, self.n_theta, self.n_mode
        bh = np.empty(1 + n_k * m, dtype=complex)
        bh[0] = b[0]
        bh[1:].reshape(n_k, m)[...] = np.fft.rfft(b[1:].reshape(m, n_t), axis=1).T
        x, _ = self._gttrs(*self._factor, bh)
        out = np.empty(len(b))
        out[0] = x[0].real
        out[1:].reshape(m, n_t)[...] = np.fft.irfft(x[1:].reshape(n_k, m).T,
                                                    n=n_t, axis=1)
        return out


# Each Picard step solves L c = F only until ||F - L c|| <= _INNER_TOL ||F||:
# the step's fixed point (F = 0) does not depend on the inner accuracy, and
# at 0.1 the bowl takes one inner step per outer iteration and lands within
# 4e-11 of exact inner solves.  More than _INNER_MAX_STEPS steps means the
# preconditioner no longer describes L.
_INNER_TOL = 0.1
_INNER_MAX_STEPS = 40


def _gmres(apply_L, precondition, F):
    """c with ||F - L c||_2 <= _INNER_TOL ||F||_2, and the steps taken.

    GMRES from c = 0, preconditioned on the right (Saad & Schultz, SIAM J.
    Sci. Stat. Comput. 7, 1986): the residual it minimises and tests is the
    true one of L c = F.  c is None when _INNER_MAX_STEPS steps fall short.
    """
    beta = float(np.linalg.norm(F))
    if beta == 0.0:
        return np.zeros_like(F), 0
    basis, search = [F / beta], []
    hess = np.zeros((_INNER_MAX_STEPS + 1, _INNER_MAX_STEPS))
    rhs = np.zeros(_INNER_MAX_STEPS + 1)
    rhs[0] = beta
    for k in range(_INNER_MAX_STEPS):
        search.append(precondition(basis[k]))
        w = apply_L(search[k])
        for i, v in enumerate(basis):  # modified Gram-Schmidt
            hess[i, k] = v @ w
            w -= hess[i, k] * v
        hess[k + 1, k] = np.linalg.norm(w)
        h = hess[:k + 2, :k + 1]
        y = np.linalg.lstsq(h, rhs[:k + 2], rcond=None)[0]
        if np.linalg.norm(rhs[:k + 2] - h @ y) <= _INNER_TOL * beta:
            return sum(yi * z for yi, z in zip(y, search)), k + 1
        basis.append(w / hess[k + 1, k])
    return None, _INNER_MAX_STEPS


def solve_grid_2d(spec, boundary, n_r=64, n_theta=128, source=None,
                  damping=0.0, tol=1e-10, max_iters=400, initial=None):
    """Picard solve of -div(A grad u) = V u + f(x, u) + source.

    `boundary` is a callable of the angular nodes giving Dirichlet data on
    the outer circle.  Each iteration forms the defect F = rhs(u) + bc - L u
    and steps u <- u + (1-damping) c with L c = F, the defect-correction
    form of u <- damping u + (1-damping) L^{-1}(rhs(u) + bc).  The default
    is undamped Picard.  Damping is optional and lies in [0, 1), since at 1
    every step is zero; it turns a contraction factor rho into
    d + (1-d) rho, which only slows the iteration when, as for an
    increasing f, the Picard map does not oscillate.  The iteration stops
    at the first sup-norm step below `tol`, leaving an error of about
    rho/(1-rho) times that step; meta["solver"]["contraction"] estimates
    rho and meta["solver"]["error_bound"] records that error (reported
    only: the stop rule does not read it).  L is applied matrix-free from
    its stencil, one coefficient array per offset (`_Stencil`).  c comes
    from GMRES preconditioned by the theta-mean of those arrays
    (`_FourierFactor`), stopped at
    ||F - L c|| <= _INNER_TOL ||F||; for theta-invariant A the
    preconditioner is L and one step solves.
    `initial`, if given, is the unknown vector [pole, rings 1..n_r-1 row by
    row] of length 1 + (n_r - 1) n_theta.
    Raises SolverError when the sup-distance fails to reach `tol`, or when
    an inner solve fails to reach _INNER_TOL in _INNER_MAX_STEPS steps.
    """
    if spec.dim != 2:
        raise ValueError("the grid solver is two-dimensional")
    if n_theta < 2 or n_theta % 2:
        raise ValueError(f"need an even angular count of at least 2, got {n_theta}")
    if n_r < 4:  # the residual's one-sided radial stencil spans five rows
        raise ValueError(f"need at least 4 rings, got n_r={n_r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must lie in [0, 1), got {damping}")
    if not (math.isfinite(tol) and tol > 0.0):  # a NaN tol never stops
        raise ValueError(f"tol must be finite and positive, got {tol}")
    n_unknown = 1 + (n_r - 1) * n_theta
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != (n_unknown,):
            raise ValueError(
                f"initial has shape {initial.shape}; expected a vector of "
                f"length 1 + (n_r - 1) * n_theta = {n_unknown}")
        if not np.all(np.isfinite(initial)):
            raise ValueError("initial must be finite")
    R = spec.outer_radius
    r_nodes = np.linspace(0.0, R, n_r + 1)
    theta = _angles(n_theta)
    g = np.asarray(boundary(theta), dtype=float)
    if np.any(~np.isfinite(g)):
        raise ValueError("boundary data must be finite")

    stencil = _Stencil(spec, r_nodes, theta)
    precond = _FourierFactor(stencil)

    # the equations' nodes: the pole (row 0, repeated) and rings 1..n_r-1
    pts = _polar_points(r_nodes[:n_r], theta)
    V = spec.V(pts)
    src = 0.0 if source is None else np.asarray(source(pts), dtype=float)
    zero = np.zeros(n_theta)

    def apply_L(c):  # L c, c zero on the boundary
        return -stencil.apply(_nodes(c, zero))

    uk = np.zeros(n_unknown) if initial is None else initial
    distances = []
    inner_iterations = 0
    for it in range(max_iters):
        nodes = _nodes(uk, g)
        rhs = V * nodes[:n_r] + eval_f(spec.nonlinearity, pts, nodes[:n_r]) + src
        defect = stencil.apply(nodes)
        defect[0] += rhs[0, 0]
        defect[1:] += rhs[1:].ravel()
        c, steps = _gmres(apply_L, precond.solve, defect)
        inner_iterations += steps
        if c is None:
            raise SolverError(
                f"inner GMRES did not reduce the defect to {_INNER_TOL:g} of "
                f"its size in {_INNER_MAX_STEPS} steps (iteration {it + 1})",
                last=uk, distance=distances[-1] if distances else None)
        step = (1.0 - damping) * c
        dist = float(np.max(np.abs(step)))
        distances.append(dist)
        uk = uk + step
        if dist < tol:
            break
    else:
        raise SolverError(
            f"fixed point did not reach tol {tol:g} in {max_iters} iterations",
            last=uk, distance=distances[-1])

    fld = SolutionField.grid2d_from_values(r_nodes, theta, _nodes(uk, g),
                                           spec.nonlinearity.q)
    rho = residual_field(spec, fld, source=source)
    fld = dataclasses.replace(fld, residual_scale=float(np.nanmax(np.abs(rho))))
    contraction = _contraction(distances)
    fld.meta["solver"] = {"kind": "grid2d_fixed_point", "n_r": n_r,
                          "n_theta": n_theta, "damping": damping,
                          "iterations": len(distances),
                          "distances": distances,
                          "contraction": contraction,
                          "error_bound": _error_bound(contraction, distances[-1]),
                          "preconditioner_entries": precond.nnz,
                          "inner_iterations": inner_iterations}
    return fld


def _contraction(distances):
    """The geometric-mean ratio of the last ten step sizes, an estimate of
    the iteration's contraction factor; None after a single step."""
    d = distances[-10:]
    if len(d) < 2:
        return None
    return (d[-1] / d[0]) ** (1.0 / (len(d) - 1))


def _error_bound(rho, dist):
    """rho/(1 - rho) times the last step, the distance to the fixed point a
    contraction by rho leaves; None without an estimate of rho below 1."""
    if rho is None or rho >= 1.0:
        return None
    return rho / (1.0 - rho) * dist


# --------------------------------------------------------------------------
# manufactured problems


@dataclass
class ManufacturedProblem:
    """Closed-form field with the source that makes it an exact solution."""

    spec: object
    u: object                 # callable x -> values
    div_a_grad: object        # callable x -> values

    def source(self, x):
        x = np.asarray(x, dtype=float)
        uu = self.u(x)
        return (-self.div_a_grad(x) - self.spec.V(x) * uu
                - eval_f(self.spec.nonlinearity, x, uu))

    def boundary(self, theta):
        return self.u(_polar_points(self.spec.outer_radius, theta))

    def to_field(self, n_r=128, n_theta=256):
        """Sample the exact field on a polar grid (values only)."""
        return sample_grid2d(self.u, self.spec.outer_radius, n_r, n_theta,
                             self.spec.nonlinearity.q)


def sample_grid2d(fn, R, n_r, n_theta, q):
    r_nodes = np.linspace(0.0, R, n_r + 1)
    theta = _angles(n_theta)
    vals = np.asarray(fn(_polar_points(r_nodes, theta)), dtype=float)
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
                             "bowl_diag")

    eps0 = 2.0 * amp * R ** 4 + 1.0
    nl = NonlinearitySpec.homogeneous(q, eps0=eps0)
    potential = (lambda x: np.full(np.asarray(x).shape[:-1], float(v0))) \
        if v0 else None
    spec = ProblemSpec(2, R, coeff, nl, potential, str(v0))

    def u(x):
        x = np.asarray(x, dtype=float)
        s = R ** 2 - x[..., 0] ** 2 - x[..., 1] ** 2
        return amp * s ** 2

    def div_a_grad(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        s = R ** 2 - x1 ** 2 - x2 ** 2
        return amp * (-2.0 * x1 ** 2 * s
                      + (1.0 + x1 ** 2 / 4.0) * (8.0 * x1 ** 2 - 4.0 * s)
                      + 8.0 * x2 ** 2 - 4.0 * s)

    return ManufacturedProblem(spec, u, div_a_grad)


# --------------------------------------------------------------------------
# glued non-solution fields


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
    return SolutionField.radial_from_arrays(r, u, du, dim, q)


def glued_residual_exact(fld, core_radius):
    """Closed-form residual of the glued field with that core radius
    (oracle for residual_field)."""
    r = fld.r
    _, upp = counterexample_profile(fld.q, core_radius, r)
    up = counterexample_slope(fld.q, core_radius, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = 2.0 * upp + (fld.dim - 1) * up / np.where(r > 0, r, np.inf)
    return rho


# --------------------------------------------------------------------------
# field files (external interface)


_FORMAT = "freqlab-field 2"
_TEXT_MAGIC = b"# freqlab-field 1"
_ZIP_MAGIC = b"PK\x03\x04"
_ARRAYS = {"radial": ("r", "u", "du"), "grid2d": ("u",)}


def save_field(fld, path):
    """Write fld as one .npz archive at exactly `path`.

    The archive holds the float64 arrays (radial: r, u, du; grid2d: u, shape
    (n_r + 1, n_theta)) and `header`, a 0-d string array holding JSON with
    format, representation, N, q, residual_scale when known, and for grid2d
    n_r, n_theta and r_max.  The same field always gives the same bytes.
    """
    header = {"format": _FORMAT, "representation": fld.representation,
              "N": int(fld.dim), "q": float(fld.q)}
    if fld.residual_scale is not None:
        header["residual_scale"] = float(fld.residual_scale)
    if fld.representation == "grid2d":
        header.update(n_r=len(fld.r) - 1, n_theta=len(fld.theta),
                      r_max=fld.outer_radius)
    write_npz(path, header, {name: getattr(fld, name)
                             for name in _ARRAYS[fld.representation]})


def _read_archive(path):
    """The header dict and the arrays of a field archive, as read."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_TEXT_MAGIC))
        if magic == _TEXT_MAGIC:
            raise ValueError("a '# freqlab-field 1' text file: the text field "
                             "format is retired; solve again to write an .npz")
        if not magic.startswith(_ZIP_MAGIC):
            raise ValueError("not a freqlab field file (expected an .npz archive)")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as data:
                members = {name: data[name] for name in data.files}
        # zipfile and numpy's reader raise many types on corrupt bytes
        # (BadZipFile, EOFError, KeyError, NotImplementedError for an unknown
        # compression method, RuntimeError for the encryption flag,
        # zlib.error, ...); each one means the same thing here
        except Exception as exc:
            raise ValueError(f"unreadable field archive ({type(exc).__name__}: "
                             f"{exc})") from exc
    text = members.pop("header", None)
    if text is None or text.shape != () or text.dtype.kind != "U":
        raise ValueError("the archive has no header string")
    try:
        header = json.loads(str(text))
    except RecursionError:
        raise ValueError("the header JSON nests too deeply") from None
    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        raise ValueError(f"the header is not a {_FORMAT!r} header")
    return header, members


def _header_value(header, key, kind):
    value = header.get(key)
    if isinstance(value, bool) or not isinstance(
            value, int if kind is int else (int, float)):
        raise ValueError(f"header {key} must be {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"header {key} is out of range") from None


def load_field(path):
    """Read a field file written by save_field; ValueError names any fault."""
    try:
        header, members = _read_archive(path)
        rep = header.get("representation")
        if rep not in _ARRAYS:
            raise ValueError(f"unknown representation {rep!r}")
        names = _ARRAYS[rep]
        if sorted(members) != sorted(names):
            raise ValueError(f"a {rep} archive holds arrays {', '.join(names)}; "
                             f"this one holds {', '.join(sorted(members)) or 'none'}")
        for name in names:
            if members[name].dtype != np.float64:
                raise ValueError(f"array {name} is {members[name].dtype}, not float64")
        dim = _header_value(header, "N", int)
        if dim < 1 or (rep == "grid2d" and dim != 2):
            raise ValueError(f"a {rep} field cannot have N={dim}")
        q = _header_value(header, "q", float)
        residual_scale = None
        if "residual_scale" in header:
            residual_scale = _header_value(header, "residual_scale", float)
        if rep == "radial":
            return SolutionField.radial_from_arrays(
                members["r"], members["u"], members["du"], dim, q,
                residual_scale=residual_scale)
        n_r = _header_value(header, "n_r", int)
        n_t = _header_value(header, "n_theta", int)
        r_max = _header_value(header, "r_max", float)
        if not (math.isfinite(r_max) and r_max > 0):
            raise ValueError(f"r_max must be finite and positive, got {r_max!r}")
        if members["u"].shape != (n_r + 1, n_t):
            raise ValueError(f"u has shape {members['u'].shape}, header says "
                             f"{n_r + 1} x {n_t} nodes")
        return SolutionField.grid2d_from_values(
            np.linspace(0.0, r_max, n_r + 1), _angles(n_t), members["u"], q,
            residual_scale=residual_scale)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
