"""One-dimensional and radial ODE facilities for the sublinear power laws.

The plane integrator for -u'' = |u|^{q-2} u, 1 <= q < 2, is classical RK4
away from the zero set of u.  Near a simple zero the right-hand side is only
Hoelder continuous (at q = 1 it jumps) and plain RK4 loses its order, so steps
inside a layer around each crossing are propagated with a high-order odd power
series centred at the crossing (u(tau) = sum_k a_k sgn(tau) |tau|^{k q + 1});
the coefficients obey Miller's power-of-a-series recurrence, and at q = 1 the
series is the exact piecewise quadratic.  Radial integrations (damping term
(N-1) u'/r) take Taylor steps of order 24 wherever the equation is analytic:
from the origin, where the damping term is removable, and between zeros; near
the zeros they take RK4 steps, with refined substeps aligned to each crossing
inside a 3h band.
"""

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .quadrature import radial_laplacian

__all__ = [
    "OdeTrajectory",
    "ZeroEvent",
    "PmeField",
    "counterexample_profile",
    "counterexample_slope",
    "conserved_energy",
    "integrate_plane",
    "integrate_radial",
    "zero_audit",
    "pme_residual_grid",
]


class IntegrationError(RuntimeError):
    """Integration blew up; carries the last radius that was still finite."""

    def __init__(self, message, last_good):
        super().__init__(f"{message} (last good abscissa {last_good:.6g})")
        self.last_good = last_good


# --------------------------------------------------------------------------
# closed-form non-uniqueness profile


def _glued_branch(q, t0, t):
    """alpha = 2/(2-q), K and max(t - t0, 0) of the glued profile K dt^alpha."""
    if not 1.0 < q < 2.0:
        raise ValueError("q must lie strictly inside (1, 2)")
    alpha = 2.0 / (2.0 - q)
    K = (2.0 * q / (2.0 - q) ** 2) ** (1.0 / (q - 2.0))
    return alpha, K, np.maximum(np.asarray(t, dtype=float) - t0, 0.0)


def counterexample_profile(q, t0, t):
    """Glued solution of u'' = |u|^{q-2} u vanishing for t <= t0.

    Returns (u, u'').  u(t) = (2q/(2-q)^2)^{1/(q-2)} (t-t0)^{2/(2-q)} past t0
    and 0 before; both branches satisfy the equation exactly.
    """
    alpha, K, dt = _glued_branch(q, t0, t)
    upp = K * alpha * (alpha - 1.0) * dt ** (alpha - 2.0)
    return K * dt ** alpha, np.where(dt > 0.0, upp, 0.0)


def counterexample_slope(q, t0, t):
    """First derivative of the glued profile."""
    alpha, K, dt = _glued_branch(q, t0, t)
    return K * alpha * dt ** (alpha - 1.0)


# --------------------------------------------------------------------------
# trajectories


@dataclass
class OdeTrajectory:
    """Sampled (u, u') on a uniform grid, with the run's metadata."""

    t: np.ndarray
    u: np.ndarray
    du: np.ndarray
    q: float
    dim: int
    initial: tuple
    h: float
    crossings: list = field(default_factory=list)  # located (t*, u'(t*)) pairs

    def hermite(self, s):
        """Cubic Hermite dense output for u and u' at abscissae s."""
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(self.t, s) - 1, 0, len(self.t) - 2)
        t0 = self.t[idx]
        x = (s - t0) / self.h
        u0, u1 = self.u[idx], self.u[idx + 1]
        m0, m1 = self.du[idx] * self.h, self.du[idx + 1] * self.h
        h00 = (1 + 2 * x) * (1 - x) ** 2
        h10 = x * (1 - x) ** 2
        h01 = x * x * (3 - 2 * x)
        h11 = x * x * (x - 1)
        uu = h00 * u0 + h10 * m0 + h01 * u1 + h11 * m1
        d00 = 6 * x * (x - 1)
        d10 = (1 - x) * (1 - 3 * x)
        d01 = -d00
        d11 = x * (3 * x - 2)
        dd = (d00 * u0 + d10 * m0 + d01 * u1 + d11 * m1) / self.h
        return uu, dd


def _energy(u, v, q):
    """The plane flow's conserved energy v^2/2 + |u|^q / q, for floats and
    arrays alike."""
    return 0.5 * v * v + abs(u) ** q / q


def conserved_energy(traj):
    """E_i = u'_i^2/2 + |u_i|^q / q along the trajectory."""
    return _energy(traj.u, traj.du, traj.q)


# --------------------------------------------------------------------------
# power series at a simple zero (plane case, no damping)


_SERIES_TERMS = 14  # highest power k of the crossing series
_SERIES_REACH_RATIO = 0.08  # sizes the layer the series covers


def _power_coeff(b, c, alpha):
    """The next coefficient c_m, m = len(c), of the power c = b^alpha of the
    power series b, by Miller's recurrence
    m b_0 c_m = sum_{j=1..m} (alpha j - (m - j)) b_j c_{m-j}.

    The recurrence is linear in c, so c_0 = sgn(b_0) |b_0|^alpha gives the
    series of sgn(b) |b|^alpha.
    """
    m = len(c)
    acc = 0.0
    for j in range(1, m + 1):
        acc += (j * alpha - (m - j)) * b[j] * c[m - j]
    return acc / (m * b[0])


def _series_coeffs(w, q):
    """Coefficients a_k of u = sum a_k sgn(tau)|tau|^{kq+1}; w = u'(0) > 0.

    Each a_k takes one more term of C = (1 + sum_j (a_j / w) |tau|^{jq})^{q-1}.
    """
    a = np.empty(_SERIES_TERMS + 1)
    a[0] = w
    alpha = q - 1.0
    beta, C = [1.0], [1.0]
    for k in range(1, _SERIES_TERMS + 1):
        a[k] = -(a[0] ** alpha) * C[k - 1] / ((k * q + 1.0) * (k * q))
        beta.append(a[k] / a[0])
        C.append(_power_coeff(beta, C, alpha))
    return a


def _series_eval(tau, a, q):
    at = abs(tau)
    sig = at ** q
    u = a[-1]
    v = a[-1] * ((len(a) - 1) * q + 1.0)
    for k in range(len(a) - 2, -1, -1):
        u = u * sig + a[k]
        v = v * sig + a[k] * (k * q + 1.0)
    return math.copysign(at, tau) * u, v


def _series_reach(w, q):
    return (_SERIES_REACH_RATIO * q * (q + 1.0) * abs(w) ** (2.0 - q)) ** (1.0 / q)


def _locate_crossing(u0, v0, q):
    """Newton solve for (tau, w): the series state at tau matches (u0, v0)."""
    sgn = 1.0 if v0 > 0 else -1.0
    uu, vv = sgn * u0, sgn * v0
    tau, w = uu / vv, vv
    a = _series_coeffs(w, q)
    for _ in range(30):
        u, v = _series_eval(tau, a, q)
        r1, r2 = u - uu, v - vv
        j21 = -(abs(u) ** (q - 2.0) * u if u != 0.0 else 0.0)
        det = v - tau * j21
        dtau = (r1 - r2 * tau) / det
        dw = (v * r2 - j21 * r1) / det
        tau -= dtau
        w -= dw
        a = _series_coeffs(w, q)
        if abs(dtau) <= 1e-15 * max(1e-30, abs(tau)) and abs(dw) <= 1e-15 * abs(w):
            break
    return tau, w, sgn, a


# --------------------------------------------------------------------------
# steppers


def _f_power(u, q, side=0.0):
    """|u|^{q-2} u; with `side` (+1 or -1), the branch side |u|^{q-1} of
    that side of a zero, which at q = 1 is `side` even at u = 0."""
    if side:
        return side * abs(u) ** (q - 1.0)
    if u == 0.0:
        return 0.0
    if q == 1.0:
        return math.copysign(1.0, u)
    return abs(u) ** (q - 2.0) * u


def _rk4(u, v, h, q, r=1.0, dim=1, side=0.0):
    """One classical RK4 step of u'' = -|u|^{q-2} u - (dim-1) u'/r.

    The four stages are computed inline, each operation in the textbook
    order, so the result matches that form to the last bit.  A nonzero
    `side` evaluates f on that side's branch (see _f_power).
    """
    hh = 0.5 * h
    k1v = -_f_power(u, q, side)
    if dim > 1:
        k1v -= (dim - 1) * v / r
    v2 = v + hh * k1v
    k2v = -_f_power(u + hh * v, q, side)
    if dim > 1:
        k2v -= (dim - 1) * v2 / (r + hh)
    v3 = v + hh * k2v
    k3v = -_f_power(u + hh * v2, q, side)
    if dim > 1:
        k3v -= (dim - 1) * v3 / (r + hh)
    v4 = v + h * k3v
    k4v = -_f_power(u + h * v3, q, side)
    if dim > 1:
        k4v -= (dim - 1) * v4 / (r + h)
    return (u + (h / 6.0) * (v + 2 * v2 + 2 * v3 + v4),
            v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v))


_TAYLOR_ORDER = 24  # highest power of a radial Taylor step between zeros
_TAYLOR_SAFETY = 0.15  # Taylor step length over the estimated convergence radius


def _taylor_coeffs(u, v, q, r0, dim):
    """Taylor coefficients a_k of the radial solution about a node at r0
    where u != 0, with the coefficients k a_k of its derivative.

    They solve (r0 + s) u'' + (dim - 1) u' = -(r0 + s) f(u) term by term,
    where f(u) = sgn(u) |u|^{q-1} = sum g_k s^k is a power of the series
    of u (_power_coeff); at q = 1 every g_k past g_0 vanishes.  At the
    origin (r0 = 0, v = 0) this is the Frobenius recurrence
    (k + 2)(k + dim) a_{k+2} = -g_k.
    """
    a = [u, v]
    ja = [0.0, v]
    g = [_f_power(u, q)]
    for k in range(_TAYLOR_ORDER - 1):
        if r0:
            rhs = (k + 1) * (k + dim - 1) * a[k + 1] + r0 * g[k]
            if k:
                rhs += g[k - 1]
            a.append(-rhs / (r0 * (k + 1) * (k + 2)))
        else:
            a.append(-g[k] / ((k + 2) * (k + dim)))
        ja.append((k + 2) * a[k + 2])
        if k < _TAYLOR_ORDER - 2:
            g.append(_power_coeff(a, g, q - 1.0))
    return a, ja


def _in_band(u, v, h):
    """The band |u| < 3 h |u'| around a zero, where crossing steps run."""
    return abs(u) < abs(v) * 3.0 * h


def _taylor_step(u, v, r0, h, q, dim, nodes_left):
    """One Taylor step from the node r0: its length, and (u, u') at the
    nodes r0 + h, r0 + 2h, ... that it fills (none where u = 0).

    The length is _TAYLOR_SAFETY times the convergence radius estimated from
    the last three coefficients, each taken relative to the size
    max(|u|, |u'|) of the state; past the origin it is at most r0/2, as the
    damping term has its pole at r = 0 (at q = 1 from the origin the series
    ends at r^2 and the length is unbounded).  The nodes end at the first
    node of the band |u| < 3 h |u'|, so the crossing steps start where one
    RK4 step per node starts them, and before the first node where u changes
    sign, reaches zero or is not finite: at q = 1 the series sees no branch
    point at a zero and runs across it.
    """
    if u == 0.0:
        return 0.0, np.empty(0), np.empty(0)
    a, ja = _taylor_coeffs(u, v, q, r0, dim)
    # relative to the state: on a small solution an absolute root test
    # would overestimate the radius by a factor scale^(-1/k)
    scale = max(abs(u), abs(v))
    root = max((abs(a[k]) / scale) ** (1.0 / k)
               for k in range(_TAYLOR_ORDER - 2, _TAYLOR_ORDER + 1))
    cap = 0.5 * r0 if r0 else math.inf
    length = cap if root == 0.0 else min(_TAYLOR_SAFETY / root, cap)
    m = int(min(length / h, nodes_left))
    s = h * np.arange(1, m + 1)
    us = np.polyval(a[::-1], s)
    vs = np.polyval(ja[:0:-1], s)
    bad = ~((us * u > 0.0) & np.isfinite(us) & np.isfinite(vs))
    band = _in_band(us, vs, h)
    end = min(m, int(bad.argmax()) if bad.any() else m,
              int(band.argmax()) + 1 if band.any() else m)
    return length, us[:end], vs[:end]


def integrate_plane(q, u0, du0, h, t_max):
    """Integrate -u'' = |u|^{q-2} u from (u0, du0) on [0, t_max].

    Fixed uniform output grid of step h: RK4 steps, and a series layer at
    every simple zero (_series_coeffs).  At q = 1 the flow is piecewise
    quadratic: RK4 is exact on each side of a zero and the series across it.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    n = int(round(t_max / h))
    if n < 0:
        raise ValueError("t_max must not be negative")
    # node i sits at h * i, the value t[i] holds; it is computed per step so
    # that no list of nodes is held
    t = h * np.arange(n + 1)
    uu, vv = float(u0), float(du0)
    u, du = array("d", [uu]), array("d", [vv])
    crossings = []

    layer = None  # (t_star, w, sgn, coeffs, reach)
    for i in range(n):
        ti, tnext = h * i, h * (i + 1)
        if layer is not None:
            t_star, w, sgn, coeffs, reach = layer
            if abs(tnext - t_star) <= reach:
                us, vs = _series_eval(tnext - t_star, coeffs, q)
                uu, vv = float(sgn * us), float(sgn * vs)
                u.append(uu)
                du.append(vv)
                continue
            layer = None
        # enter the series layer while the zero is within ~3/4 of the series
        # reach (plain RK4 steps this close already feel the |u|^{q-5} blowup
        # of the truncation term) and |u| is small against the amplitude
        # (q E)^{1/q} of the conserved energy E
        if vv != 0.0:
            E = _energy(uu, vv, q)
            reach_est = _series_reach(math.sqrt(2.0 * E), q)
            trigger = abs(uu) < 0.75 * reach_est * abs(vv) \
                and abs(uu) < 0.5 * ((q * E) ** (1.0 / q) if E > 0 else 1.0)
        else:
            trigger = False
        un, vn = _rk4(uu, vv, h, q)
        if trigger or uu * un < 0.0:
            tau, w, sgn, coeffs = _locate_crossing(uu, vv, q)
            t_star = ti - tau
            reach = max(_series_reach(w, q), 3.0 * h)
            if -1e-12 <= t_star <= t_max + 1e-12:
                crossings.append((t_star, sgn * w))
            layer = (t_star, w, sgn, coeffs, reach)
            us, vs = _series_eval(tnext - t_star, coeffs, q)
            uu, vv = float(sgn * us), float(sgn * vs)
        else:
            uu, vv = un, vn
        if not (math.isfinite(uu) and math.isfinite(vv)):
            raise IntegrationError("plane integration produced non-finite values", ti)
        u.append(uu)
        du.append(vv)
    return _trajectory(t, u, du, q, 1, (u0, du0), h, crossings)


def _trajectory(t, u, du, q, dim, initial, h, crossings):
    """OdeTrajectory over the nodes collected in the arrays `u` and `du`."""
    return OdeTrajectory(t, np.frombuffer(u), np.frombuffer(du), q, dim,
                         initial, h, crossings)


_CROSSING_SUBSTEPS = 32  # RK4 substeps of a step that may hold a zero


def integrate_radial(dim, q, a, r_max, h):
    """Shoot u'' + (dim-1)/r u' = -|u|^{q-2} u from u(0) = a, u'(0) = 0.

    Where the equation is analytic, from the origin and between zeros, each
    step is one Taylor step of order _TAYLOR_ORDER about the current node
    (_taylor_step), which fills every node it covers up to the band
    |u| < 3 h |u'| around a zero.  A node past the origin where that step
    would fill fewer than two nodes takes one RK4 step instead; inside the
    band and across a sign change it takes crossing-aligned RK4 substeps
    (_refined_crossing_step).  No RK4 step starts at the origin, where
    (dim-1) u'/r reads 0/0: a step h that leaves the origin's Taylor step
    fewer than two nodes (one when r_max = h) is a ValueError.
    """
    if a == 0.0:
        raise ValueError("initial amplitude must be nonzero")
    if h <= 0 or r_max <= 0:
        raise ValueError("need positive step and radius")
    if not 1.0 <= q < 2.0:
        raise ValueError("q must lie in [1, 2)")
    if dim == 1:
        # no damping term: the plane integrator applies from r = 0 directly
        return integrate_plane(q, a, 0.0, h, r_max)
    n = int(round(r_max / h))
    r = h * np.arange(n + 1)
    uu, vv = float(a), 0.0
    u, du = array("d", [uu]), array("d", [vv])

    crossings = []
    i = 0
    while i < n:
        ri = h * i  # r[i]
        near = _in_band(uu, vv, h)
        if not near:
            length, us, vs = _taylor_step(uu, vv, ri, h, q, dim, n - i)
            # past the origin len(us) <= n - i < n, so this asks two nodes
            # of every step but the origin's on a one-node run
            if len(us) >= min(2, n):
                # one block per step: array.extend(ndarray) would append
                # element by element
                u.frombytes(us.tobytes())
                du.frombytes(vs.tobytes())
                uu, vv = float(us[-1]), float(vs[-1])
                i += len(us)
                continue
            if i == 0:
                raise ValueError(
                    f"step h = {h:g} does not resolve the solution at the "
                    f"origin: its Taylor step is {length:.3g} long and fills "
                    f"{len(us)} of the {min(2, n)} nodes it needs")
            un, vn = _rk4(uu, vv, h, q, r=ri, dim=dim)
        if near or uu * un < 0.0:
            un, vn = _refined_crossing_step(uu, vv, ri, h, q, dim, crossings)
        if not (math.isfinite(un) and math.isfinite(vn)):
            raise IntegrationError("radial integration blew up", ri)
        uu, vv = un, vn
        u.append(uu)
        du.append(vv)
        i += 1
    return _trajectory(r, u, du, q, dim, (a, 0.0), h, crossings)


def _refined_crossing_step(u, v, r0, h, q, dim, crossings):
    """One step of size h with refined, crossing-aligned substeps."""
    dt = h / _CROSSING_SUBSTEPS
    rr, uu, vv = r0, u, v
    for _ in range(_CROSSING_SUBSTEPS):
        un, vn = _rk4(uu, vv, dt, q, r=rr, dim=dim)
        if uu * un < 0.0 or (un == 0.0 and uu != 0.0):
            # bisect the substep length to land on the zero
            lo, hi = 0.0, dt
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                um, vm = _rk4(uu, vv, mid, q, r=rr, dim=dim)
                if uu * um < 0.0:
                    hi = mid
                else:
                    lo = mid
                    if um == 0.0:
                        break
            # the steps to and from the zero each lie on one side of it, so
            # f takes that side's branch: a stage that rounds across the
            # zero would flip sgn(u) there, which at q = 1 moved u' by up to
            # a third of the substep
            ustar, vstar = _rk4(uu, vv, lo, q, r=rr, dim=dim,
                                side=math.copysign(1.0, uu))
            # crossings hold numpy scalars, as the plane integrator's do
            crossings.append((np.float64(rr + lo), np.float64(vstar)))
            rem = dt - lo
            un, vn = _rk4(0.0, vstar, rem, q, r=rr + lo, dim=dim,
                          side=math.copysign(1.0, vstar))
        uu, vv = un, vn
        rr += dt
    return uu, vv


# --------------------------------------------------------------------------
# zero audit


@dataclass
class ZeroEvent:
    location: float
    slope: float
    degenerate: bool


def zero_audit(traj):
    """Locate the zeros of a trajectory and rate each as simple or degenerate.

    Sign changes are refined by bisection on the cubic Hermite dense output;
    a zero is degenerate when |u'| falls below 1e-6 sqrt(2 E_0), an
    energy-aware scale.  Plateau edges (the field is flat zero on one side:
    an edge of a run of two or more zero nodes) are reported as degenerate
    zeros.
    """
    u, du, t = traj.u, traj.du, traj.t
    E0 = _energy(u[0], du[0], traj.q)
    threshold = 1e-6 * math.sqrt(2.0 * E0) if E0 > 0 else 1e-12
    scale = float(np.max(np.abs(u)))
    if scale == 0.0:
        return []
    ztol = 1e-12 * scale
    zero = np.abs(u) <= ztol
    n = len(u)
    # candidate nodes: i where u[i], u[i+1] are nonzero of opposite sign,
    # and the first node of each run of zeros
    cross = ~zero[:-1] & ~zero[1:] & (u[:-1] * u[1:] < 0.0)
    edges = np.diff(zero.astype(np.int8), prepend=0, append=0)
    run_end = dict(zip(np.flatnonzero(edges == 1).tolist(),
                       np.flatnonzero(edges == -1).tolist()))
    events = []
    for i in sorted(np.flatnonzero(cross).tolist() + list(run_end)):
        j = run_end.get(i)
        if j is None:
            events.append(_simple_zero(traj, t[i], t[i + 1], threshold))
            continue
        left_val = u[i - 1] if i > 0 else None
        right_val = u[j] if j < n else None
        if j - i == 1 and left_val is not None and right_val is not None \
                and left_val * right_val < 0.0:
            events.append(_simple_zero(traj, t[i - 1], t[j], threshold))
            continue
        # plateau or touching zero: report the interior-facing edges
        plateau = j - i > 1
        if left_val is not None:
            events.append(ZeroEvent(float(t[i]), abs(float(du[i])),
                                    plateau or abs(du[i]) < threshold))
        if right_val is not None and (plateau or left_val is None):
            events.append(ZeroEvent(float(t[j - 1]), abs(float(du[j - 1])),
                                    plateau or abs(du[j - 1]) < threshold))
    return events


def _simple_zero(traj, lo, hi, threshold):
    """The sign change inside [lo, hi], located on the dense output."""
    loc = _bisect_hermite(traj, lo, hi)
    _, slope = traj.hermite(loc)
    return ZeroEvent(float(loc), abs(float(slope)), abs(slope) < threshold)


def _bisect_hermite(traj, lo, hi):
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


# --------------------------------------------------------------------------
# porous-medium separated solution


@dataclass
class PmeField:
    """Separated-variables solution of w_t = Laplace(|w|^{m-1} w).

    Built on a radial base profile u solving -Laplace(u) = |u|^{q-2} u, via
    w(x, t) = ((2-q)/(q-1) (t-t0))^{-(q-1)/(2-q)} |u(x)|^{q-2} u(x).
    """

    base: OdeTrajectory
    t0: float = 0.0

    @property
    def q(self):
        return self.base.q

    @property
    def m(self):
        return 1.0 / (self.q - 1.0)

    def time_factor(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= self.t0):
            raise ValueError("time samples must exceed t0")
        beta = (self.q - 1.0) / (2.0 - self.q)
        return ((2.0 - self.q) / (self.q - 1.0) * (t - self.t0)) ** (-beta)

    def time_factor_dt(self, t):
        t = np.asarray(t, dtype=float)
        beta = (self.q - 1.0) / (2.0 - self.q)
        return -beta * self.time_factor(t) / (t - self.t0)

    def w(self, r_indices, t):
        """Values w on the (t, r) sample grid, shape (n_t, n_r)."""
        g = _signed_power(self.base.u[np.atleast_1d(r_indices)], self.q - 1.0)
        c = np.atleast_1d(self.time_factor(t))
        return np.multiply.outer(c, g)


def _signed_power(u, p):
    return np.sign(u) * np.abs(u) ** p


_PME_TIMES = 64  # default time samples of the residual grid


def pme_residual_grid(field, r_indices=None, t_values=None):
    """Space-time residual w_t - Laplace(|w|^{m-1} w), shape (n_t, n_r).

    The spatial Laplacian comes from five-point differences of the sampled
    base profile; the time factor is differentiated in closed form.
    Returns (r_indices, t_values, residual).
    """
    base = field.base
    if t_values is None:
        t_values = field.t0 + 1.0 + np.linspace(0.0, 1.0, _PME_TIMES)
    t_values = np.asarray(t_values, dtype=float)
    if np.any(t_values <= field.t0):
        raise ValueError("time samples must exceed t0")
    n = len(base.u)
    if r_indices is None:
        r_indices = np.arange(max(4, n // 16), n - 4)
    r_indices = np.asarray(r_indices, dtype=int)
    if np.any(r_indices < 2) or np.any(r_indices > n - 3):
        raise ValueError("radial samples must stay clear of the grid edges")

    lap = radial_laplacian(base.u, base.t, base.dim)
    g = _signed_power(base.u[r_indices], field.q - 1.0)
    c = field.time_factor(t_values)
    cdot = field.time_factor_dt(t_values)
    wt = cdot[:, None] * g[None, :]
    lap_w = (c ** field.m)[:, None] * lap[r_indices][None, :]
    return r_indices, t_values, wt - lap_w
