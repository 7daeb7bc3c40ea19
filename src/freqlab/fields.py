"""Solution fields: radial profiles, 2-D polar grids, solvers, residuals.

Two representations share one interface: a radial profile (any dimension,
plain-Laplacian route) and a node-centred polar grid (dimension 2, full
variable-coefficient route).  The polar grid keeps the pole as a single
degree of freedom; radial differentiation extends across the pole through
u(-r, theta) = u(r, theta + pi), and angular derivatives are spectral.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .io import write_npz
from .model import _plane_sum, _planes, eval_f
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
    """Fixed-point iteration failed; carries the last iterate and distance,
    the contraction estimate and the iteration count a steady step ratio
    predicts (None where the ratio is not steady)."""

    def __init__(self, message, last=None, distance=None, contraction=None,
                 predicted_iterations=None):
        super().__init__(message)
        self.last = last
        self.distance = distance
        self.contraction = contraction
        self.predicted_iterations = predicted_iterations


# --------------------------------------------------------------------------
# the field container


@dataclass(frozen=True)
class SolutionField:
    """A candidate solution on its nodes.

    A field is a value: it is validated once, when it is built, and cannot
    change afterwards.  It takes ownership of the arrays it is given: each of
    r, u, du and theta is stored as a C-contiguous float64 array and made
    read-only.  That is the array itself when it already is one and nothing
    else can write its memory (it owns its data, or views a read-only
    array), else a copy.  So no verdict depends on how the caller laid out
    its arrays (numpy sums strided and contiguous data in different orders)
    and cached node data can never go stale.  A changed field is a new one,
    made with `dataclasses.replace`, which starts with an empty cache but
    keeps the meta dict itself: a caller that changes u passes meta={} too.
    """

    representation: str           # "radial" | "grid2d"
    dim: int
    q: float
    r: np.ndarray                 # radial nodes (uniform, starts at 0)
    u: np.ndarray                 # radial: (n,) ; grid2d: (n_r+1, n_theta)
    du: np.ndarray = None         # radial only: profile derivative
    theta: np.ndarray = None      # grid2d only
    meta: dict = field(default_factory=dict)
    # [(spec, node data)] of the last spec analysed (frequency._node_data)
    _node_slot: list = field(default_factory=lambda: [None], init=False,
                             repr=False, compare=False)

    def __post_init__(self):
        for name in ("r", "u", "du", "theta"):
            a = getattr(self, name)
            if a is not None:
                object.__setattr__(self, name, _read_only(a))
        self.validate()

    # ---- constructors

    @classmethod
    def radial_from_arrays(cls, r, u, du, dim, q):
        return cls("radial", dim, q, r, u, du=du)

    @classmethod
    def grid2d_from_values(cls, r_nodes, theta, values, q):
        return cls("grid2d", 2, q, r_nodes, values, theta=theta)

    def validate(self):
        """Raise ValueError unless every analysis can read this field.

        Checks the array shapes, finite values, nodes r uniform from 0 (the
        radial quadratures and the polar stencils take h = r[1] - r[0]), an
        even angular count with a single-valued pole row on a grid, and a
        finite q.
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


def _require_finite(quantity, values, r, theta=None, first_row=0):
    """Raise ValueError naming `quantity` and the first node (i, j) where
    the node rows `values` (rows r[first_row:], columns theta; theta None on
    a radial profile; any further axes a node's components) are not finite,
    with that node's r or point x."""
    finite = np.isfinite(values)
    if finite.all():
        return
    i, j = np.unravel_index(np.argmin(finite), finite.shape)[:2]
    i += first_row
    where = (f"r = {r[i]:.6g}" if theta is None else
             "x = ({:.6g}, {:.6g})".format(*_polar_points(r[i], theta[j])))
    raise ValueError(f"{quantity} is not finite at node ({i}, {j}), {where}")


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


def residual_field(spec, fld):
    """rho(x) = div(A grad u) + V u + f(x, u) from values alone.

    Stencils here are independent of the solver discretisation, so a solved
    field shows its truncation error and an arbitrary field shows its defect.
    Entries that cannot be formed (pole, outer edge, radial r < 2h) are NaN.
    """
    if fld.representation == "radial":
        return _residual_radial(spec, fld)
    return _residual_grid(spec, fld)


def _residual_radial(spec, fld, fvals=None):
    """The radial residual; `fvals` (f(u) on the nodes) if the caller has
    them."""
    _require_radial_route(spec)
    # five-point differences of the values, not the stored integrator
    # derivative, so residuals judge the values themselves; the last four
    # rows read one-sided first derivatives (rows n-4 and n-3 through the
    # second pass), which are third order only, and stay NaN
    r = fld.r
    rho = np.full_like(fld.u, np.nan)
    inner = slice(2, len(r) - 4)
    lap = radial_laplacian(fld.u, r, fld.dim)
    if fvals is None:
        fvals = eval_f(spec.nonlinearity, None, fld.u)
    rho[inner] = (lap + fvals)[inner]
    rho[r < 2 * fld.h] = np.nan
    return rho


def _residual_grid(spec, fld, agrad=None, V=None, fvals=None):
    """The polar-grid residual; `agrad` (A grad u, component-major: shape
    (2, n_r, n_theta)), `V` and `fvals` (f(x, u)) are the node values, if
    the caller has them; the node points are built only for those it
    has not."""
    if agrad is None or V is None or fvals is None:
        pts = fld.points()
    if agrad is None:
        a = _planes(spec.coefficients.entries(pts), 2)
        grad = cartesian_gradient(fld.u, fld.r, fld.theta)
        agrad = [_plane_sum(a[i, j] * grad[j] for j in range(2))
                 for i in range(2)]
    if V is None:
        V = spec.V(pts)
    if fvals is None:
        fvals = eval_f(spec.nonlinearity, pts, fld.u)
    fx, fy = agrad
    ct, st = np.cos(fld.theta)[None, :], np.sin(fld.theta)[None, :]
    # div F = (1/r) d_r (r F_r) + (1/r) d_theta F_theta, with F_r and
    # F_theta dropped once differentiated and the sums taken in place
    rho = _radial_deriv_across_pole(fld.r[:, None] * (fx * ct + fy * st),
                                    fld.h)
    rho += deriv_periodic_fft(-fx * st + fy * ct)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho /= fld.r[:, None]
    rho[0] = np.nan
    rho += V * fld.u
    rho += fvals
    rho[-1] = np.nan  # one-sided top row: keep reports interior
    return rho


# --------------------------------------------------------------------------
# radial solver


def solve_radial(spec, a, h=1e-3):
    """Shooting solution of the plain-Laplacian homogeneous problem."""
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
    fld.meta["solver"] = {"kind": "radial_shooting", "h": h, "a": a}
    return fld


# --------------------------------------------------------------------------
# 2-D variable-coefficient solver (node-centred polar grid)


def _polar_frame_entries(coeff, r, theta):
    """a_rr, a_rt, a_tt at the tensor points (r x theta)."""
    a = _planes(coeff.entries(_polar_points(r, theta)), 2)
    ct, st = np.cos(theta), np.sin(theta)
    er, et = (ct, st), (-st, ct)  # unit radial and angular vectors

    def quad(v, w):  # <A v, w>, summed over i, then j within i
        return _plane_sum(a[i, j] * v[i] * w[j]
                          for i in range(2) for j in range(2))

    return quad(er, er), quad(er, et), quad(et, et)


def _nodes(u, boundary):
    """The unknown vector [pole, rings 1..n_r-1 row by row] and the boundary
    values as the (n_r + 1, n_theta) node array, the pole repeated."""
    n_t = len(boundary)
    return np.vstack([np.full(n_t, u[0]), u[1:].reshape(-1, n_t), boundary])


# ring blocks of at most _BLOCK_NODES nodes, so a block's float64 rows take
# at most 256 KiB and stay in a core's L2 cache.  `_Stencil.apply` sums its
# products in them.  The node pass of `frequency._NodeData` evaluates A,
# grad A, Z and DZ in them, about 35 arrays of a block's size, and asks for
# at least _MIN_BLOCKS, which keeps that pass within a few node fields of
# the rows it fills (one block peaks at 56 field sizes at 64x128, eight at
# 27).  The stencil asks for no minimum: at 64x128 eight blocks cost it
# about 3x per application and a GMRES solve about 1.3x
_BLOCK_NODES = 1 << 15
_MIN_BLOCKS = 8


def _ring_blocks(n_rows, n_theta, min_count=1):
    """Row slices of at least `min_count` ring blocks (one ring each at
    most) of n_rows rows of n_theta nodes, the rows shared out as evenly as
    whole rings allow."""
    count = max(-(-n_rows * n_theta // _BLOCK_NODES), min_count)
    count = min(count, n_rows)
    bounds = [k * n_rows // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class _Stencil:
    """div(A grad .) on the polar grid, applied matrix-free.

    The finite-volume stencil is one coefficient array per offset (di, dj),
    of shape (n_r, n_theta): coef[di, dj][i, j] multiplies u[i + di, j + dj]
    in the equation of node (i, j).  Row 0 is the pole equation (a disk of
    radius dr/2), whose rows j all land in one equation, as the pole is one
    value; rows 1..n_r-1 are the rings.  `apply(u, g)` reads the unknown
    vector u and the boundary ring g, so the equations L u = b + B g read
    apply(u, g) + b = 0.

    `apply` copies u and g into a node array it keeps, and sums the
    products a block of equation rows at a time: the pole row, then the
    rings in the blocks of `_ring_blocks`, so a block's terms stay in
    cache.
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

        # `apply`'s node array, with one ghost row above the pole (read with
        # zero coefficients only, so it stays zero) and one wrapped column
        # on each side; the equation rows of its blocks; one block of products
        n_t = len(theta)
        self._ext = np.zeros((M + 2, n_t + 2))
        self._blocks = [slice(0, 1)] + [slice(1 + rows.start, 1 + rows.stop)
                                        for rows in _ring_blocks(M - 1, n_t)]
        self._term = np.empty((max(b.stop - b.start for b in self._blocks), n_t))

    def apply(self, u, boundary):
        """div(A grad .) at the unknowns, as a vector like the unknown
        vector u, with `boundary` on the boundary ring.  Each node sums its
        nine terms in `_coef`'s order, from 0, as a whole-grid sum() of the
        nine product arrays does, so the blocks change no bit.
        """
        M, n_t = self.shape
        ext = self._ext
        ext[1, 1:-1] = u[0]
        ext[2:M + 1, 1:-1] = u[1:].reshape(M - 1, n_t)
        ext[M + 1, 1:-1] = boundary
        ext[:, 0] = ext[:, -2]
        ext[:, -1] = ext[:, 1]
        out = np.empty(len(u))
        pole = np.empty((1, n_t))
        rings = out[1:].reshape(M - 1, n_t)
        for rows in self._blocks:
            acc = rings[rows.start - 1:rows.stop - 1] if rows.start else pole
            term = self._term[:len(acc)]
            for k, ((di, dj), coef) in enumerate(self._coef.items()):
                shifted = ext[1 + di + rows.start:1 + di + rows.stop,
                              1 + dj:1 + dj + n_t]
                np.multiply(coef[rows], shifted, out=term if k else acc)
                if k:
                    acc += term
            acc += 0.0  # from 0: nine terms of -0.0 sum to +0.0
        out[0] = pole[0].sum()
        return out


# a stencil whose offset arrays each spread along every ring by at most this
# many ulps of the stencil's largest entry is constant in theta: identity and
# rotation_perturbed(0.3) read 1-5 ulps from 16x32 to 1024x2048, while
# diagonal([1 + 1e-9, 1]) reads 7e6 and the bowl 4e12
_EXACT_ULPS = 64


class _RingSweep:
    """One triangular sweep of the factor's block-major work array, for
    every mode at once: x_r += a_r x_(r-1) down the rows r, or
    x_r += a_r x_(r+1) up them when `upward`.  Row r of the
    (s, n_blocks, n_modes) arrays `work` and `a` sits at [r % s, r // s],
    so the blocks hold s consecutive rows each, and the same row of every
    block is one contiguous slab.

    A plain sweep takes one step per row.  This one makes three passes
    (Wang's partition method, ACM TOMS 7, 1981): the sweep inside every
    block at once, as if nothing came in; then block to block, each
    block's last row gaining the product of its block's a times the last
    row of the block before; then the other rows of each block gain their
    share of that carry.  That is 2s + n_blocks steps, each a product and a
    sum into views made here.
    """

    def __init__(self, work, a, upward):
        s, n_blocks, n_k = work.shape
        rows = range(s - 1, -1, -1) if upward else range(s)
        last = rows[-1]
        # the blocks that take a carry, and the blocks they take it from
        taking, giving = ((slice(0, -1), slice(1, None)) if upward
                          else (slice(1, None), slice(0, -1)))
        self._steps = [(a[j], work[i], work[j]) for i, j in zip(rows, rows[1:])]
        carries = list(zip(a[:, taking].prod(axis=0), work[last, giving],
                           work[last, taking]))
        self._carries = carries[::-1] if upward else carries
        self._carried = work[last, giving]
        self._shares = [(a[j, taking], work[j, taking]) for j in rows[:-1]]
        self._product = np.empty((n_blocks, n_k), dtype=complex)
        self._share = np.empty((n_blocks - 1, n_k), dtype=complex)
        self.nnz = (n_blocks - 1) * n_k  # the block products it keeps

    def __call__(self):
        mul, add, product, share = np.multiply, np.add, self._product, self._share
        for a, src, dst in self._steps:
            add(dst, mul(a, src, out=product), out=dst)
        product = product[0]
        for a, src, dst in self._carries:
            add(dst, mul(a, src, out=product), out=dst)
        src = self._carried
        for a, dst in self._shares:
            add(dst, mul(a, src, out=share), out=dst)
            src = share


class _FourierFactor:
    """The theta-mean of L = -div(A grad .), solved one angular mode at a
    time: T. Chan's optimal circulant preconditioner (SIAM J. Sci. Stat.
    Comput. 9, 1988), and L itself for theta-invariant A.

    A real FFT in theta turns the ring equations into n_theta/2 + 1 radial
    systems, tridiagonal in the ring index; only mode 0 also couples to the
    pole.  Mode k's symbol is the theta-mean of each of `stencil`'s offset
    arrays times exp(2 pi i k dj / n_theta).  The systems are the columns
    of one ring-major array, a row per ring.  Row 0 is the pole: in mode 0
    its unknown is n_theta u(0), the mode-0 coefficient of a ring of one
    value, and in every other mode it is an identity row.  Each column is
    factored L U without pivoting, in one pass down the rings for all
    modes at once.  `solve` copies the rings' FFT into a block-major work
    array, blocks of about sqrt(n_r) rings, and runs both triangular sweeps
    there for all modes and blocks at once (`_RingSweep`).

    No pivoting is needed.  For A = I each mode's matrix is diagonally
    dominant by rows: its off-diagonals are the radial fluxes through a
    ring's two faces, its diagonal the same fluxes plus the angular term,
    and with the pole's unknown n_theta u(0) the pole row and ring 1's are
    dominant too.  Elimination without pivoting keeps the pivots of such a
    matrix dominant (Wilkinson, J. ACM 8, 1961).  With the unknown u(0)
    instead, ring 1's coupling to the pole, n_theta times its mean,
    outgrows the pole's own entry (n_theta / 8 times it for A = I), and
    partial pivoting (LAPACK's gttrf) swaps the two rows.  The cross terms
    of a general A can break the dominance (A = I + 0.4 (x x_perp^T +
    x_perp x^T), diagonal([20, 1]) and the manufactured bowl keep it at
    64x128); the tests hold the sweeps to LAPACK and SuperLU on such
    fields.

    The factor keeps both sweeps' multipliers, the inverse pivots and the
    sweeps' block products; `nnz` counts their entries.  `exact` is true
    when every offset array is constant in theta to _EXACT_ULPS ulps of
    the stencil's largest entry: the theta-mean is then L, and `solve`
    inverts L to round-off (||b - L x|| / ||b|| for a random b reads 6e-14
    at 64x128 and 2e-12 at 128x256 under the identity).  Raises
    LinAlgError, naming the mode and the ring, at a pivot that is zero or
    not finite.
    """

    def __init__(self, stencil):
        n_r, n_t = stencil._coef[0, 0].shape
        n_k = n_t // 2 + 1
        self.n_theta = n_t
        ulp = np.spacing(max(np.max(np.abs(c)) for c in stencil._coef.values()))
        self.exact = all(np.max(np.ptp(c, axis=1)) <= _EXACT_ULPS * ulp
                         for c in stencil._coef.values())
        # blocks of math.isqrt(n_r) rows, the last padded with identity rows
        size = math.isqrt(n_r)
        n_blocks = -(-n_r // size)
        self._work = np.empty((size, n_blocks, n_k), dtype=complex)
        # the bands of L: lower, diag and upper hold, for ring i (row) and
        # mode k (column), the coefficient of ring i-1, i and i+1 in ring i's
        # equation, -(mean_0 + mean_1 e^(i angle) + mean_-1 e^(-i angle)) of
        # the offsets (di, dj) with di = -1, 0 and 1
        angle = (2.0 * math.pi / n_t) * np.arange(n_k)
        cos, sin = np.cos(angle), np.sin(angle)
        bands = []
        for di in (-1, 0, 1):
            m0, m1, m_1 = (stencil._coef[di, dj].mean(axis=1) for dj in (0, 1, -1))
            band = np.zeros((n_blocks * size, n_k), dtype=complex)
            np.multiply.outer(-(m1 + m_1), cos, out=band.real[:n_r])
            band.real[:n_r] -= m0[:, None]
            np.multiply.outer(m_1 - m1, sin, out=band.imag[:n_r])
            bands.append(band)
        lower, diag, upper = bands
        del bands
        diag[0, 1:] = 1.0  # the pole has mode 0 only
        upper[0, 1:] = 0.0
        lower[1, 1:] = 0.0
        upper[n_r - 1] = 0.0  # the boundary ring is known
        diag[n_r:] = 1.0
        # L U: the pivots p_i = d_i - l_i u_(i-1) / p_(i-1) in place of the
        # diagonal, then the multipliers l_i / p_(i-1) in place of lower
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            coupling = lower[1:n_r] * upper[:n_r - 1]
            for i in range(1, n_r):
                diag[i] -= np.divide(coupling[i - 1], diag[i - 1], out=coupling[i - 1])
            del coupling
            lower[1:] /= diag[:-1]
        bad = ~np.isfinite(diag) | (diag == 0.0)
        if np.any(bad):
            i, k = np.argwhere(bad)[0]
            where = "the pole" if i == 0 else f"ring {i}"
            raise np.linalg.LinAlgError(
                f"mode {k} of the theta-mean factor has a "
                f"{'zero' if diag[i, k] == 0.0 else 'non-finite'} pivot at {where}")
        # the sweeps add: y_i += -multiplier_i y_(i-1), then, from y / pivot,
        # x_i += -(u_i / p_i) x_(i+1)
        upper /= diag
        self._inverse_pivots = np.reciprocal(self._blocked(diag), order="C")
        del diag
        self._forward = _RingSweep(
            self._work, np.negative(self._blocked(lower), order="C"), upward=False)
        del lower
        self._backward = _RingSweep(
            self._work, np.negative(self._blocked(upper), order="C"), upward=True)
        self.nnz = 3 * self._work.size + self._forward.nnz + self._backward.nnz

    def _blocked(self, rows):
        """The block-major view of the ring-major `rows`."""
        s, n_blocks, n_k = self._work.shape
        return rows.reshape(n_blocks, s, n_k).transpose(1, 0, 2)

    def solve(self, b):
        """The theta-mean factor's solution x of L x = b, a new vector like
        the unknown vector b, which is left as it is.

        The rings' FFT writes straight into the rows of a ring-major array,
        which is copied into the block-major work array for the sweeps and
        back, and their inverse FFT writes straight into the result.
        """
        n_t = self.n_theta
        m = (len(b) - 1) // n_t
        y = self._work
        rows = np.empty((y.shape[0] * y.shape[1], y.shape[2]), dtype=complex)
        rows[0] = 0.0
        rows[0, 0] = b[0]
        rows[1 + m:] = 0.0
        np.fft.rfft(b[1:].reshape(m, n_t), axis=1, out=rows[1:1 + m])
        np.copyto(y, self._blocked(rows))
        self._forward()
        y *= self._inverse_pivots
        self._backward()
        np.copyto(self._blocked(rows), y)
        out = np.empty(len(b))
        out[0] = rows[0, 0].real / n_t
        np.fft.irfft(rows[1:1 + m], n=n_t, axis=1, out=out[1:].reshape(m, n_t))
        return out


# Each Picard step solves L c = F only until ||F - L c|| <= _INNER_TOL ||F||:
# the step's fixed point (F = 0) does not depend on the inner accuracy, and
# at 0.1 the bowl takes one inner step per outer iteration and lands within
# 4e-11 of exact inner solves.  More than _INNER_MAX_STEPS steps means the
# preconditioner no longer describes L.
_INNER_TOL = 0.1
_INNER_MAX_STEPS = 40
# the fixed point stops on a step below tol that is also this small against
# the iterate: an absolute tol alone stops at once on tiny boundary data
_STEP_REL_STOP = 1e-6
# when the last _JUMP_WINDOW step ratios since the last jump agree to
# _JUMP_AGREE of the latest, rho < 1, one mode is left, and its geometric
# tail rho/(1 - rho) times the step is added in one move (Aitken's delta^2
# on the step sequence; Sidi, Vector Extrapolation Methods, SIAM 2017)
_JUMP_WINDOW = 3
_JUMP_AGREE = 1e-3


def _combination(coefs, vectors):
    """sum(c * v for c, v in zip(coefs, vectors)), bit for bit, with one
    product alive at a time: the first product plus 0.0 in place has the
    bits of sum()'s 0 plus it."""
    out = coefs[0] * vectors[0]
    out += 0.0
    for c, v in zip(coefs[1:], vectors[1:]):
        out += c * v
    return out


def _gmres(apply_L, precondition, F):
    """(c, L c, steps) with ||F - L c||_2 <= _INNER_TOL ||F||_2.

    GMRES from c = 0, preconditioned on the right (Saad & Schultz, SIAM J.
    Sci. Stat. Comput. 7, 1986): the residual it minimises and tests is the
    true one of L c = F.  L c is read off the Arnoldi relation
    L Z_k y = V_{k+1} H_k y from the basis GMRES keeps anyway, so it costs
    no stencil application.  c and L c are None when _INNER_MAX_STEPS steps
    fall short.  F is scaled in place into the first basis vector.
    """
    beta = float(np.linalg.norm(F))
    if beta == 0.0:
        return np.zeros_like(F), np.zeros_like(F), 0
    F /= beta
    basis, search = [F], []
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
            # w is hess[k+1, k] times the next basis vector, the last
            # column's entry of V_{k+1} H_k y
            hy = h @ y
            Lc = _combination([*hy[:k + 1], y[k]], [*basis, w])
            return _combination(y, search), Lc, k + 1
        basis.append(w / hess[k + 1, k])
    return None, None, _INNER_MAX_STEPS


class _CarriedDefect:
    """The defect B g - L u of the iterate u on the GMRES path, formed once
    and then carried by the L c that GMRES returns with each correction c,
    so a Picard step applies the stencil once, inside GMRES.  A carried
    recurrence drifts from the true defect by round-off, so where the
    iteration stops it is checked against, and replaced by, a freshly
    applied one (residual replacement: van der Vorst and Ye, SIAM J. Sci.
    Comput. 22, 2000)."""

    def __init__(self, stencil, boundary, u):
        self._stencil, self._boundary = stencil, boundary
        self.value = stencil.apply(u, boundary)

    def step(self, L_step):
        """u gained the step whose image under L is L_step."""
        self.value -= L_step

    def jump(self, L_step, factor):
        """u gained `factor` times that step."""
        self.value -= factor * L_step

    def refresh(self, u, solve):
        """Replace the carried defect by a freshly applied one; returns
        sup |solve(carried - fresh)|, the carried defect's error in u units
        (`solve` approximates L^-1)."""
        fresh = self._stencil.apply(u, self._boundary)
        self.value -= fresh
        gap = _sup_abs(solve(self.value))
        self.value = fresh
        return gap


def solve_grid_2d(spec, boundary, n_r=64, n_theta=128, source=None,
                  damping=0.0, tol=1e-10, max_iters=400, initial=None):
    """Picard solve of -div(A grad u) = V u + f(x, u) + source.

    `boundary` is a callable of the angular nodes giving Dirichlet data on
    the outer circle.  Each iteration solves L u+ = rhs(u) + bc and steps
    u <- u + (1-damping)(u+ - u) = damping u + (1-damping) u+.  The default
    is undamped Picard.  Damping is optional and lies in [0, 1), since at 1
    every step is zero; it turns a contraction factor rho into
    d + (1-d) rho, which only slows the iteration when, as for an
    increasing f, the Picard map does not oscillate.  The iteration stops
    at the first sup-norm step below `tol` and below _STEP_REL_STOP times
    the iterate's sup norm (so boundary data of size tol or less still
    reach a solution), leaving an error of about rho/(1-rho) times that
    step.  A step that does not stop may extrapolate: when the last
    _JUMP_WINDOW ratios of successive steps taken since the last jump agree
    to _JUMP_AGREE of the latest ratio rho, and rho < 1, one slow mode is
    left, and its geometric tail rho/(1-rho) times the step is added to the
    iterate (the stop is tested first, so the field returned is always a
    plain Picard step that passed it; `iterations` counts Picard steps).
    meta["solver"]["extrapolations"] lists each jump's iteration and rho;
    meta["solver"]["contraction"] estimates rho from the steps since the
    last jump, never below that jump's rho (the steps right after a jump do
    not show it), and meta["solver"]["error_bound"] records rho/(1-rho)
    times the last step (reported only: the stop rule does not read it).
    L is the stencil of one
    coefficient array per offset (`_Stencil`), applied to the unknown
    vector and the boundary ring one cache-sized block of rings at a time;
    `_FourierFactor` solves the theta-mean of those arrays.  A step forms
    the right-hand side rhs(u) once, in the unknown vector's layout, and
    adds B g or the carried defect to it in place.  Two inner solves share
    the loop, and
    meta["solver"]["inner_solve"] names the one that ran:
    - "fourier" when the factor is exact (A theta-invariant in the polar
      frame, so the theta-mean is L): u+ is the factor's solve of
      rhs(u) + bc, one FFT-tridiagonal solve per iteration, and the stencil
      is applied once, for bc, and then released;
    - "gmres" otherwise: GMRES preconditioned by the factor solves
      L c = F for the defect F = rhs(u) + bc - L u, stopped at
      ||F - L c|| <= _INNER_TOL ||F||, and u+ = u + c.  bc - L u is
      applied once, before the loop, and then carried (`_CarriedDefect`):
      each step and each jump subtracts its own multiple of the L c that
      GMRES returns, so a Picard step applies the stencil only inside
      GMRES, once per inner step.  Where the stop passes, the stencil is
      applied to the iterate once more, and the gap between the fresh and
      the carried defect, mapped through the factor's solve into u units,
      must be at most tol/10.  The fresh defect replaces the carried one
      either way, and a larger gap lets the iteration go on, so a field
      returned always stands on a true defect.
      meta["solver"]["defect_gap"] records the gap of the stop that held
      (None on the "fourier" path).
    `initial`, if given, is the unknown vector [pole, rings 1..n_r-1 row by
    row] of length 1 + (n_r - 1) n_theta.
    Raises ValueError, naming the node, when V or the source is not finite
    at a node, or f is not at the first iterate.
    Raises SolverError when the sup-distance fails to meet that rule, or when
    an inner solve fails to reach _INNER_TOL in _INNER_MAX_STEPS steps; it
    carries the contraction estimate and, where the step ratio is steady,
    the iterations that ratio predicts for a step below
    min(tol, _STEP_REL_STOP max |u|) (`_solver_error`).
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

    # the equations' nodes: the pole (row 0, repeated) and rings 1..n_r-1;
    # V and the source are checked before the stencil is assembled
    pts = _polar_points(r_nodes[:n_r], theta)
    V = spec.V(pts)
    src = 0.0 if source is None else np.asarray(source(pts), dtype=float)
    for quantity, values in (("V", V), ("the source", src)):
        _require_finite(quantity, np.broadcast_to(values, (n_r, n_theta)),
                        r_nodes, theta)

    stencil = _Stencil(spec, r_nodes, theta)
    precond = _FourierFactor(stencil)
    # a copy, as the iterate is updated in place
    uk = np.zeros(n_unknown) if initial is None else initial.copy()
    if precond.exact:
        # the factor is L: each step solves L u+ = rhs(u) + B g outright, so
        # after B g the loop reads no stencil coefficient
        bg = stencil.apply(np.zeros(n_unknown), g)
        del stencil
        defect = None
    else:
        zero = np.zeros(n_theta)

        def apply_L(c):  # L c, c zero on the boundary
            Lc = stencil.apply(c, zero)
            return np.negative(Lc, out=Lc)

        defect = _CarriedDefect(stencil, g, uk)

    nodes = np.empty((n_r, n_theta))
    distances = []
    jumps = []  # the iteration and rho of each extrapolation
    inner_iterations = 0
    gap = None
    for it in range(max_iters):
        nodes[0] = uk[0]
        nodes[1:] = uk[1:].reshape(n_r - 1, n_theta)
        rhs = V * nodes
        fvals = eval_f(spec.nonlinearity, pts, nodes)
        if not it:  # before the first inner solve, as V and the source
            _require_finite("f", fvals, r_nodes, theta)
        rhs += fvals
        rhs += src
        del fvals
        # the right-hand side at the unknowns is the tail of rhs's rows
        # from the pole row's last entry, which takes the pole's first; the
        # carried defect (or B g) is added to it in place
        F = rhs.reshape(-1)[n_theta - 1:]
        F[0] = rhs[0, 0]
        # the correction c and L c, scaled in place into the step and its
        # image under L
        if defect is None:
            F += bg
            step = precond.solve(F)
            step -= uk
            L_step, steps = None, 1
        else:  # GMRES on the defect rhs + B g - L u
            F += defect.value
            step, L_step, steps = _gmres(apply_L, precond.solve, F)
        del rhs, F  # freed before the stop's fresh defect and the next rhs
        inner_iterations += steps
        if step is None:
            raise _solver_error(
                f"inner GMRES did not reduce the defect to {_INNER_TOL:g} of "
                f"its size in {_INNER_MAX_STEPS} steps (iteration {it + 1})",
                uk, distances, jumps, tol)
        if damping:
            step *= 1.0 - damping
            if L_step is not None:
                L_step *= 1.0 - damping
        dist = _sup_abs(step)
        distances.append(dist)
        uk += step
        if defect is not None:
            defect.step(L_step)
        if dist < tol and dist <= _STEP_REL_STOP * _sup_abs(uk):
            if defect is None:
                break
            # the stop stands on a true defect: the carried one must agree
            # with a fresh one to tol/10 in u units, else the iteration goes
            # on from the fresh one
            gap = defect.refresh(uk, precond.solve)
            if gap <= 0.1 * tol:
                break
        rho = _steady_ratio(distances, jumps)
        if rho is not None:
            factor = rho / (1.0 - rho)
            uk += factor * step
            if defect is not None:
                defect.jump(L_step, factor)
            jumps.append({"iteration": it + 1, "rho": rho})
        # freed before the next inner solve, whose peak they would raise
        del step, L_step
    else:
        raise _solver_error(
            f"fixed point did not reach tol {tol:g} (and {_STEP_REL_STOP:g} "
            f"of max |u|) in {max_iters} iterations", uk, distances, jumps, tol)

    fld = SolutionField.grid2d_from_values(r_nodes, theta, _nodes(uk, g),
                                           spec.nonlinearity.q)
    contraction = _contraction(distances, jumps)
    fld.meta["solver"] = {"kind": "grid2d_fixed_point", "n_r": n_r,
                          "n_theta": n_theta, "damping": damping,
                          "iterations": len(distances),
                          "distances": distances,
                          "contraction": contraction,
                          "error_bound": _error_bound(contraction, distances[-1]),
                          "extrapolations": jumps,
                          "preconditioner_entries": precond.nnz,
                          "inner_solve": "fourier" if precond.exact else "gmres",
                          "inner_iterations": inner_iterations,
                          "defect_gap": gap}
    return fld


def _sup_abs(x):
    """max |x|, read off x's extremes without an |x| temporary (+0.0, not
    -0.0, for an x of zeros)."""
    return max(float(x.max()), -float(x.min())) + 0.0


def _since_last_jump(distances, jumps):
    """The steps taken after the last jump; all of them before the first."""
    return distances[jumps[-1]["iteration"]:] if jumps else distances


def _steady_ratio(distances, jumps):
    """The latest step ratio when the last _JUMP_WINDOW ratios of the steps
    since the last jump agree with it to _JUMP_AGREE and it lies below 1,
    else None."""
    d = _since_last_jump(distances, jumps)[-_JUMP_WINDOW - 1:]
    if len(d) <= _JUMP_WINDOW:
        return None
    ratios = [b / a for a, b in zip(d, d[1:])]
    rho = ratios[-1]
    if rho < 1.0 and all(abs(r - rho) <= _JUMP_AGREE * rho for r in ratios):
        return rho
    return None


def _contraction(distances, jumps):
    """An estimate of the iteration's contraction factor: the
    geometric-mean ratio of the last ten step sizes taken since the last
    jump, and never below the rho that jump used (the steps right after a
    jump do not show rho); None after a single step and no jump."""
    floor = jumps[-1]["rho"] if jumps else None
    d = _since_last_jump(distances, jumps)[-10:]
    if len(d) < 2:
        return floor
    rho = (d[-1] / d[0]) ** (1.0 / (len(d) - 1))
    return rho if floor is None else max(rho, floor)


def _solver_error(message, uk, distances, jumps, tol):
    """SolverError with the last iterate and step, the contraction estimate,
    and the iterations a steady ratio predicts for a step below the stop's
    threshold min(tol, _STEP_REL_STOP max |u|).  The ratio is steady by
    `_steady_ratio`'s rule, on the steps up to the last one: a jump made at
    the last step was made on that ratio.  With no steady ratio (the steps
    are still in their transient) there is no prediction."""
    stop = min(tol, _STEP_REL_STOP * _sup_abs(uk))
    steady = _steady_ratio(distances, [j for j in jumps
                                       if j["iteration"] < len(distances)])
    return SolverError(message, last=uk,
                       distance=distances[-1] if distances else None,
                       contraction=_contraction(distances, jumps),
                       predicted_iterations=_predicted_iterations(
                           steady, distances, stop))


def _predicted_iterations(rho, distances, stop):
    """The iterations taken plus those a contraction by rho needs to bring
    the last step below `stop`; None without an estimate of rho below 1,
    or when `stop` is 0 (an iterate of zeros)."""
    if rho is None or rho >= 1.0 or stop <= 0.0:
        return None
    last = distances[-1]
    if rho <= 0.0 or last <= stop:
        return len(distances)
    return len(distances) + math.ceil(math.log(stop / last) / math.log(rho))


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
    format, representation, N, q, and for grid2d n_r, n_theta and r_max;
    load_field ignores any other key.  The same field always gives the same
    bytes.
    """
    header = {"format": _FORMAT, "representation": fld.representation,
              "N": int(fld.dim), "q": float(fld.q)}
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
        if rep == "radial":
            return SolutionField.radial_from_arrays(
                members["r"], members["u"], members["du"], dim, q)
        n_r = _header_value(header, "n_r", int)
        n_t = _header_value(header, "n_theta", int)
        r_max = _header_value(header, "r_max", float)
        if not (math.isfinite(r_max) and r_max > 0):
            raise ValueError(f"r_max must be finite and positive, got {r_max!r}")
        if members["u"].shape != (n_r + 1, n_t):
            raise ValueError(f"u has shape {members['u'].shape}, header says "
                             f"{n_r + 1} x {n_t} nodes")
        return SolutionField.grid2d_from_values(
            np.linspace(0.0, r_max, n_r + 1), _angles(n_t), members["u"], q)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
