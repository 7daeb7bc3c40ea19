"""Problem data: coefficients, potential, sublinear nonlinearity, assumptions.

The admissibility conditions checked here are sample-based: a tensor grid in
x covers the ball, a two-sided log-spaced grid in s covers (-eps0, eps0), and
every clause reports its worst margin together with a witness point when it
fails.
"""

import heapq
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .io import jsonable

__all__ = [
    "CoefficientField",
    "NonlinearitySpec",
    "PowerTerm",
    "ProblemSpec",
    "ClauseVerdict",
    "AssumptionReport",
    "QuadratureError",
    "eval_F",
    "eval_f",
    "grad1_F",
    "check_A1",
    "check_A2",
    "check_A3",
    "c_constant",
    "normalize_coordinates",
    "ball_grid",
    "s_grid",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved, estimate=None):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved
        self.estimate = estimate


# --------------------------------------------------------------------------
# coefficient fields

# central-difference steps, for the gradients no formula gives: check_A1's
# reference for the entry gradients, and grad_x F of a tabulated f or of a
# coefficient c_k given as a callable without its gradient
_ENTRY_FD_STEP = 1e-6  # check_A1's reference gradient of the entries
_F_FD_STEP = 1e-5  # tabulated F, and API coefficients c_k without a gradient


class CoefficientField:
    """Symmetric matrix field A(x) with entry gradients and ellipticity bound.

    `entries(x)` returns shape (..., N, N); `entry_gradients(x)` returns
    shape (..., N, N, N) with axis order (i, j, h) for d a_ij / d x_h;
    `ellipticity(x)` returns the pointwise lambda in (0, 1) used in the
    two-sided ellipticity sandwich.  The analyses read A only through
    `geometry(x)`, whose arrays keep these shapes but hold each component
    as a contiguous plane, or through its component-major form
    `_geometry_planes(x)`, one call per ring block of a field
    (`frequency._NodeData`).  The callables themselves may return any
    layout.
    """

    def __init__(self, dim, entries, entry_gradients, ellipticity, kind):
        self.dim = dim
        self.entries = entries
        self.entry_gradients = entry_gradients
        self.ellipticity = ellipticity
        self.kind = kind

    # ---- constructors

    @classmethod
    def _constant(cls, mat, lam, kind):
        """The x-independent field A(x) = mat with ellipticity lam."""
        dim = len(mat)

        def entries(x):
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(mat, x.shape[:-1] + (dim, dim)).copy()

        def grads(x):
            x = np.asarray(x, dtype=float)
            return np.zeros(x.shape[:-1] + (dim, dim, dim))

        return cls(dim, entries, grads, lambda x: _const_field(x, lam), kind)

    @classmethod
    def identity(cls, dim):
        return cls._constant(np.eye(dim), 0.9, "identity")

    @classmethod
    def diagonal(cls, values):
        values = [float(v) for v in values]
        lam = min(min(values), 1.0 / max(values)) * 0.999
        if lam <= 0:
            raise ValueError("diagonal entries must be positive")
        return cls._constant(np.diag(values), min(lam, 0.999), "diagonal")

    @classmethod
    def rotation_perturbed(cls, eps, dim=2, radius=1.0):
        """A(x) = I + eps (|x|^2 I - x x^T): identity at 0, stiffened tangentially."""
        eps = float(eps)
        if eps < 0:
            raise ValueError("eps must be nonnegative")

        def entries(x):
            x = np.asarray(x, dtype=float)
            r2 = np.sum(x * x, axis=-1)[..., None, None]
            outer = x[..., :, None] * x[..., None, :]
            return np.eye(dim) + eps * (r2 * np.eye(dim) - outer)

        def grads(x):
            x = np.asarray(x, dtype=float)
            g = np.zeros(x.shape[:-1] + (dim, dim, dim))
            for i in range(dim):
                for j in range(dim):
                    for h in range(dim):
                        term = 2.0 * x[..., h] if i == j else 0.0
                        term = term - (x[..., j] if i == h else 0.0)
                        term = term - (x[..., i] if j == h else 0.0)
                        g[..., i, j, h] = eps * term
            return g

        # eigenvalues are 1 and 1 + eps |x|^2
        lam = min(0.999, 1.0 / (1.0 + eps * radius ** 2) * 0.999)
        return cls(dim, entries, grads, lambda x: _const_field(x, lam),
                   "rotation_perturbed")

    @classmethod
    def from_expressions(cls, dim, entry_exprs, ellipticity=0.5):
        """Entries given as expression strings keyed 'a11', 'a12', ...

        Missing symmetric partners are filled in.  Each distinct text is
        compiled once, and the entries that share it share its value and
        its gradient, which is differentiated from the compiled tree.
        """
        from .expressions import ExpressionError, compile_expression

        compiled = {}  # text -> (its Expression, the slots (i, j) it fills)
        for i in range(dim):
            for j in range(dim):
                key, alt = f"a{i + 1}{j + 1}", f"a{j + 1}{i + 1}"
                name = key if key in entry_exprs else alt
                if name not in entry_exprs:
                    raise ValueError(f"missing coefficient entry {key}")
                text = str(entry_exprs[name])
                if text not in compiled:
                    try:
                        compiled[text] = (compile_expression(text, dim), [])
                    except ExpressionError as exc:
                        raise ExpressionError(f"{name}: {exc}") from exc
                compiled[text][1].append((i, j))
        groups = list(compiled.values())

        def entries(x):
            x = np.asarray(x, dtype=float)
            out = np.empty(x.shape[:-1] + (dim, dim))
            for expr, slots in groups:
                value = expr(x)
                for i, j in slots:
                    out[..., i, j] = value
            return out

        def grads(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape[:-1] + (dim, dim, dim))
            for expr, slots in groups:
                for h, d in expr.partials(x):
                    for i, j in slots:
                        out[..., i, j, h] = d
            return out

        lam = float(ellipticity)
        if not 0.0 < lam < 1.0:
            raise ValueError("ellipticity must lie in (0, 1)")
        return cls(dim, entries, grads, lambda x: _const_field(x, lam),
                   "expressions")

    # ---- derived fields (all closed-form in the entries and their gradients)

    def geometry(self, x):
        """A, its entry gradients and the fields built from them, at x.

        mu = <A x, x> / |x|^2 is the surface weight, z = A x / mu the
        transport field (<z, x/|x|> = |x| identically) and dz its Jacobian,
        shape (..., h, j) holding d z_j / d x_h; mu, z and dz are undefined
        at the origin.  Costs one call of `entries` and one of
        `entry_gradients`.

        a, grads, z and dz keep the shapes above, but are views of
        component-major arrays: each component (`a[..., i, j]`,
        `grads[..., i, j, h]`, `z[..., i]`, `dz[..., h, j]`) is one
        contiguous plane, and every contraction here runs plane by plane.
        A plane of A or grad A that is exactly zero on x adds no term to
        A x, mu, d<A x, x> or d(A x) (`_plane_sum` says why no bit moves).
        """
        p = self._geometry_planes(x)
        return Geometry(_trailing(p.a, 2), _trailing(p.grads, 3), p.mu,
                        _trailing(p.z, 1), _trailing(p.dz, 2))

    def _geometry_planes(self, x):
        """`geometry`'s arrays as their component-major planes (a[i, j],
        grads[i, j, h], z[i], dz[h, j]), with `_nonzero_planes` of a and
        of grads, for callers that contract them further."""
        x = np.asarray(x, dtype=float)
        n, shape = x.shape[-1], x.shape[:-1]
        a = _planes(self.entries(x), 2)
        g = _planes(self.entry_gradients(x), 3)
        a_nz, g_nz = _nonzero_planes(a, 2), _nonzero_planes(g, 3)
        xs = _planes(x, 1)
        r2 = np.sum(x * x, axis=-1)
        ax = np.stack([_plane_sum((a[i, j] * xs[j] for j in range(n)
                                   if a_nz[i, j]), shape)
                       for i in range(n)])
        dz = np.empty_like(g[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = _plane_sum(ax[i] * xs[i] for i in range(n)) / r2
            z = ax / mu
            mu2 = mu ** 2
            for h in range(n):
                # d_h <Ax, x> = sum_ij (d_h a_ij) x_i x_j + 2 (Ax)_h
                dq = _plane_sum(chain(
                    (g[i, j, h] * xs[i] * xs[j] for i in range(n)
                     for j in range(n) if g_nz[i, j, h]), (2.0 * ax[h],)))
                dmu = dq / r2 - 2.0 * mu * xs[h] / r2
                for j in range(n):
                    # d_h (Ax)_j = sum_l (d_h a_jl) x_l + a_jh
                    dax = _plane_sum(chain(
                        (g[j, l, h] * xs[l] for l in range(n) if g_nz[j, l, h]),
                        (a[j, h],) if a_nz[j, h] else ()), shape)
                    dz[h, j] = dax / mu - ax[j] * dmu / mu2
        return _GeometryPlanes(a, g, mu, z, dz, a_nz, g_nz)


def _planes(arr, k):
    """A component-major copy of arr: its last k axes moved to the front,
    so that each component is one contiguous plane."""
    lead = arr.ndim - k
    return np.ascontiguousarray(
        arr.transpose(*range(lead, arr.ndim), *range(lead)))


def _trailing(planes, k):
    """The view of a component-major array with its first k axes last, the
    inverse of `_planes`."""
    return planes.transpose(*range(k, planes.ndim), *range(k))


def _nonzero_planes(planes, k):
    """Which components of a contiguous component-major array hold a value
    other than +-0 (a NaN counts): a boolean array over its first k axes,
    from one reduction over the planes.  Taken per ring block, so a plane
    that vanishes on some blocks only is skipped on those."""
    lead = planes.shape[:k]
    return planes.reshape(math.prod(lead), -1).any(axis=1).reshape(lead)


def _plane_sum(terms, shape=None):
    """0 + t1 + t2 + ..., left to right: np.einsum's sum over contracted
    axes, bit for bit (signed zeros included) when the terms come in the
    order that it visits them.

    A caller drops the terms whose plane of A or grad A is exactly zero
    (`_nonzero_planes`), when every other factor of such a term is finite,
    and no bit moves: the total starts at +0.0, and a sum that starts there
    is never -0.0 under round-to-nearest, so adding the dropped +-0 would
    have left it unchanged (x + (+-0) = x for x != 0, NaN and inf
    included, and +0 + (+-0) = +0).  A sum left with no terms is +0.0 of
    `shape`.
    """
    terms = iter(terms)
    first = next(terms, None)
    if first is None:
        return np.zeros(shape)
    total = 0.0 + first
    for t in terms:
        total += t
    return total


# what CoefficientField.geometry returns: a (..., N, N), grads
# (..., N, N, N), mu (...), z (..., N) and dz (..., N, N), each a view of a
# component-major array, so that every [..., i, j] is a contiguous plane
Geometry = namedtuple("Geometry", "a grads mu z dz")
# the same arrays as component-major planes, and which planes of a and
# grads are nonzero (`CoefficientField._geometry_planes`)
_GeometryPlanes = namedtuple("_GeometryPlanes",
                             "a grads mu z dz a_nonzero grads_nonzero")


def _const_field(x, value):
    x = np.asarray(x, dtype=float)
    return np.full(x.shape[:-1], float(value))


def _central_gradient(fn, x, step):
    """Central differences of fn at x along each coordinate, on a new last
    axis h: (fn(x + step e_h) - fn(x - step e_h)) / (2 step)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for h in range(x.shape[-1]):
        dx = np.zeros(x.shape[-1])
        dx[h] = step
        cols.append((fn(x + dx) - fn(x - dx)) / (2.0 * step))
    return np.stack(cols, axis=-1)


# --------------------------------------------------------------------------
# nonlinearities


@dataclass(frozen=True)
class PowerTerm:
    """One coefficient-weighted power c(x) |s|^{exponent - 2} s."""

    exponent: float
    coefficient: object  # float or callable x -> array
    coefficient_grad: object = None  # callable x -> (..., N) or None

    def coef(self, x):
        if callable(self.coefficient):
            return np.asarray(self.coefficient(x), dtype=float)
        return _const_field(x, self.coefficient)

    def coef_grad(self, x):
        x = np.asarray(x, dtype=float)
        if self.coefficient_grad is not None:
            return np.asarray(self.coefficient_grad(x), dtype=float)
        if not callable(self.coefficient):
            return np.zeros(x.shape)
        return _central_gradient(self.coef, x, _F_FD_STEP)


class NonlinearitySpec:
    """Sublinear nonlinearity f(x, s) with primitive F and growth parameters.

    Every kind but `tabulated` is a sum of powers over `terms`: `homogeneous`
    is the one term |s|^{q-2} s with coefficient 1 and `zero` the empty sum.
    """

    def __init__(self, kind, q, eps0, kappa1, kappa2, terms=None, f_callable=None):
        if kind not in ("homogeneous", "sum_of_powers", "tabulated", "zero"):
            raise ValueError(f"unknown nonlinearity kind {kind!r}")
        if not 1.0 <= q < 2.0:
            raise ValueError("q must lie in [1, 2)")
        if eps0 <= 0 or kappa2 <= 0 or kappa1 < 0:
            raise ValueError("need eps0 > 0, kappa2 > 0, kappa1 >= 0")
        self.kind = kind
        self.q = float(q)
        self.eps0 = float(eps0)
        self.kappa1 = float(kappa1)
        self.kappa2 = float(kappa2)
        if kind == "homogeneous":
            terms = (PowerTerm(self.q, 1.0),)
        elif kind == "zero":
            terms = ()
        self.terms = tuple(terms) if terms else ()
        self.f_callable = f_callable
        if kind == "sum_of_powers":
            if not self.terms:
                raise ValueError("sum_of_powers needs at least one term")
            for t in self.terms:
                if not 1.0 <= t.exponent < 2.0:
                    raise ValueError("every exponent must lie in [1, 2)")
            if abs(max(t.exponent for t in self.terms) - self.q) > 1e-12:
                raise ValueError("q must equal the largest exponent")
        if kind == "tabulated" and f_callable is None:
            raise ValueError("tabulated kind needs f_callable")

    @classmethod
    def homogeneous(cls, q, eps0=1.0, kappa1=0.0, kappa2=None):
        # F(x, +-eps0) = eps0^q / q exactly
        if kappa2 is None:
            kappa2 = eps0 ** q / q
        return cls("homogeneous", q, eps0, kappa1, kappa2)

    @classmethod
    def sum_of_powers(cls, terms, eps0=1.0, kappa1=1.0, kappa2=None):
        terms = tuple(terms)
        q = max(t.exponent for t in terms)
        if kappa2 is None:
            kappa2 = 1e-3  # caller should tighten; checked by clause iv
        return cls("sum_of_powers", q, eps0, kappa1, kappa2, terms=terms)

    @classmethod
    def tabulated(cls, f_callable, q, eps0=1.0, kappa1=1.0, kappa2=1e-3):
        """f given as a callable f(x, s); F comes from quadrature (`eval_F`).

        `f_callable` must broadcast: the primitive calls it with x of shape
        (..., 1, N) (or None) and s of shape (..., n) for the n = 24 and 48
        Gauss-Legendre nodes of t = s w^4, w in (0, 1).  Nodes where the two
        rules differ by _QUAD_REL_TOL |F| or more fall back to adaptive
        Simpson, which calls it with one point x of shape (N,) and a float s.
        """
        return cls("tabulated", q, eps0, kappa1, kappa2, f_callable=f_callable)

    @classmethod
    def zero(cls, q=1.5, eps0=100.0):
        """Linear diagnostic mode: f == 0 (not an admissible sublinearity)."""
        return cls("zero", q, eps0, 0.0, 1.0)


def _term_sum(spec, x, s, term_values):
    """sum_k c_k(x) term_values(s, exponent_k), of the broadcast shape of
    x[..., 0] and s (of s for x = None).  Each term's new array of values
    is scaled in place where its shape allows, and the first term is the
    sum's start: c v + 0.0 has the bits of the 0.0 + c v of a sum from
    zeros."""
    shape = s.shape if x is None else np.broadcast_shapes(np.shape(x)[:-1], s.shape)
    out = None
    for t in spec.terms:
        values = np.asarray(term_values(s, t.exponent))
        coef = t.coef(x) if callable(t.coefficient) else float(t.coefficient)
        if np.broadcast_shapes(np.shape(coef), values.shape) == values.shape:
            np.multiply(coef, values, out=values)
        else:
            values = coef * values
        if out is not None:
            out += values
        elif values.shape == shape:
            out = values
            out += 0.0
        else:
            out = np.zeros(shape)
            out += values
    return np.zeros(shape) if out is None else out


def _f_term(s, p):
    # |s|^{p-2} s with f(0) = 0; sgn(0) = 0 at p = 1
    if p == 1.0:
        return np.sign(s)
    # in place, in four passes: 0 ** (p - 2) * 0 reads nan, and is zeroed
    out = np.abs(s, out=np.empty(np.shape(s)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out **= p - 2.0
        out *= s
    out[s == 0.0] = 0.0
    return out


def _F_term(s, p):
    return np.abs(s) ** p / p


def eval_f(spec, x, s):
    """Pointwise nonlinearity f(x, s); sgn convention sgn(0) = 0 at q = 1."""
    s = np.asarray(s, dtype=float)
    if spec.kind == "tabulated":
        return np.asarray(spec.f_callable(x, s), dtype=float)
    return _term_sum(spec, x, s, _f_term)


def eval_F(spec, x, s):
    """Primitive F(x, s) = int_0^s f(x, t) dt.

    Closed form term by term for every kind but the tabulated one.
    Tabulated nonlinearities use an embedded 24/48-node Gauss-Legendre pair
    after the substitution t = s w^4, accepted per node when the two rules
    agree to relative `_QUAD_REL_TOL`; the other nodes fall back to
    adaptive Simpson at the same tolerance.  x may be None, as in `eval_f`.
    """
    s = np.asarray(s, dtype=float)
    if spec.kind == "tabulated":
        return _tabulated_F(spec, x, s)
    return _term_sum(spec, x, s, _F_term)


# Embedded Gauss-Legendre pair for the tabulated primitive.  tau = w^4 turns
# the tau^{q-1} endpoint behaviour of a sublinear f into w^{4q-1}, smooth
# enough that the 48-node rule reaches about 1e-14 for every q in [1, 2);
# a block of 4096 nodes keeps each (block, 48) temporary near 1.5 MB.
_GL_ORDERS = (24, 48)
_GL_POWER = 4
_GL_BLOCK = 4096
_QUAD_REL_TOL = 1e-10  # the pair's acceptance and the Simpson fallback's target


@lru_cache(maxsize=None)
def _gl_rule(order):
    """Nodes tau and weights of the order-`order` rule for int_0^1 g(tau) dtau
    after tau = w^_GL_POWER."""
    from numpy.polynomial.legendre import leggauss

    t, wt = leggauss(order)
    w = 0.5 * (t + 1.0)
    tau, weights = w ** _GL_POWER, 0.5 * wt * _GL_POWER * w ** (_GL_POWER - 1)
    tau.flags.writeable = weights.flags.writeable = False  # shared by the cache
    return tau, weights


def _tabulated_F(spec, x, s):
    """Vectorised primitive of a tabulated f.

    Each block of nodes costs one call of `f_callable` per rule, with x of
    shape (block, 1, N) (or None) and s of shape (block, order).  A node is
    accepted when the two rules differ by less than _QUAD_REL_TOL |F|; the
    rest (kinked or rough f) go through `_adaptive_simpson` one at a time,
    on the same substituted integrand.
    """
    s = np.asarray(s, dtype=float)
    if x is None:
        shape = s.shape
        flat_x = None
    else:
        x = np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(x.shape[:-1], s.shape)
        flat_x = np.broadcast_to(x, shape + (x.shape[-1],)).reshape(-1, x.shape[-1])
    flat_s = np.broadcast_to(s, shape).reshape(-1)
    coarse, fine = (_gl_rule(n) for n in _GL_ORDERS)
    vals = np.empty(flat_s.shape)
    accepted = np.empty(flat_s.shape, dtype=bool)
    for lo in range(0, flat_s.size, _GL_BLOCK):
        blk = slice(lo, lo + _GL_BLOCK)
        sb = flat_s[blk]
        xb = None if flat_x is None else flat_x[blk, None, :]
        rough = sb * _rule_sum(spec.f_callable, xb, sb, *coarse)
        F = sb * _rule_sum(spec.f_callable, xb, sb, *fine)
        vals[blk] = F
        # s = 0 is exact; everything else must pass the embedded estimate
        accepted[blk] = (np.abs(F - rough) < _QUAD_REL_TOL * np.abs(F)) | (sb == 0.0)
    for k in np.flatnonzero(~accepted):
        px, sk = None if flat_x is None else flat_x[k], float(flat_s[k])

        def integrand(w):
            # the Jacobian vanishes at w = 0, so f(x, 0) is never needed
            if w == 0.0:
                return 0.0
            return (float(spec.f_callable(px, sk * w ** _GL_POWER))
                    * _GL_POWER * w ** (_GL_POWER - 1))

        vals[k] = sk * _adaptive_simpson(integrand, 0.0, 1.0, _QUAD_REL_TOL)
    return vals.reshape(shape)


def _rule_sum(f_callable, xb, sb, tau, wt):
    fv = np.asarray(f_callable(xb, sb[:, None] * tau), dtype=float)
    return np.broadcast_to(fv, (len(sb), len(tau))) @ wt


def _adaptive_simpson(fn, a, b, rel_tol, max_splits=1000):
    """Globally adaptive Simpson on [a, b].

    Every piece carries its Richardson error estimate; the piece with the
    largest one is split until the estimates sum to at most rel_tol |F|.
    When `max_splits` splits do not get there, QuadratureError reports that
    sum relative to |F| as `achieved`, with the estimate of F reached.
    """
    if a == b:
        return 0.0

    def piece(a, b, fa, fm, fb, whole):
        m = 0.5 * (a + b)
        flm, frm = fn(0.5 * (a + m)), fn(0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - whole) / 15.0
        if not np.isfinite(err):
            raise QuadratureError("adaptive Simpson met a non-finite value",
                                  float("inf"))
        # heap key first; the tie-breaker a keeps the order deterministic
        return (-abs(err), a, b, fa, flm, fm, frm, fb, left, right, err)

    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    heap = [piece(a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb))]
    splits = 0
    while True:
        total = math.fsum(p[8] + p[9] + p[10] for p in heap)
        err_sum = math.fsum(-p[0] for p in heap)
        scale = max(abs(total), 1e-30)
        if err_sum <= rel_tol * scale:
            return total
        if splits == max_splits:
            raise QuadratureError(
                f"adaptive Simpson ran out of its {max_splits} splits",
                err_sum / scale, estimate=total)
        _, a, b, fa, flm, fm, frm, fb, left, right, _ = heapq.heappop(heap)
        m = 0.5 * (a + b)
        heapq.heappush(heap, piece(a, m, fa, flm, fm, left))
        heapq.heappush(heap, piece(m, b, fm, frm, fb, right))
        splits += 1


def grad1_F(spec, x, s):
    """Gradient of F in x at frozen s, shape (..., N)."""
    if x is None:
        raise ValueError("grad1_F needs the points x")
    x = np.asarray(x, dtype=float)
    if spec.kind == "tabulated":
        return _central_gradient(lambda y: eval_F(spec, y, s), x, _F_FD_STEP)
    s = np.asarray(s, dtype=float)
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], s.shape) + (x.shape[-1],))
    for t in spec.terms:
        # a constant coefficient without a gradient function contributes zero
        if callable(t.coefficient) or t.coefficient_grad is not None:
            out += _F_term(s, t.exponent)[..., None] * t.coef_grad(x)
    return out


# --------------------------------------------------------------------------
# problem spec


@dataclass
class ProblemSpec:
    """Dimension, ball radius, coefficient field, potential, nonlinearity."""

    dim: int
    outer_radius: float
    coefficients: CoefficientField
    nonlinearity: NonlinearitySpec
    potential: object = None          # callable x -> array; None means V = 0
    potential_source: str = "0"

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.outer_radius <= 0:
            raise ValueError("outer radius must be positive")
        if self.coefficients.dim != self.dim:
            raise ValueError("coefficient field dimension mismatch")

    def V(self, x):
        if self.potential is None:
            return _const_field(x, 0.0)
        return np.asarray(self.potential(x), dtype=float)

    @property
    def is_model(self):
        """True when the plain-Laplacian, zero-potential route applies."""
        return (self.coefficients.kind == "identity"
                and self.potential is None
                and self.nonlinearity.kind in ("homogeneous", "zero"))

    @classmethod
    def model(cls, dim, q, outer_radius=1.0):
        """The constant-coefficient problem -Laplace(u) = |u|^{q-2} u."""
        return cls(dim, outer_radius, CoefficientField.identity(dim),
                   NonlinearitySpec.homogeneous(q))


# --------------------------------------------------------------------------
# assumption checks


@dataclass
class ClauseVerdict:
    name: str
    passed: bool
    margin: float
    witness: object = None
    note: str = ""


@dataclass
class AssumptionReport:
    clauses: dict = field(default_factory=dict)
    sample_counts: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c.passed for c in self.clauses.values())

    def to_dict(self):
        return jsonable({
            "passed": self.passed,
            "sample_counts": self.sample_counts,
            "clauses": {k: {"passed": v.passed, "margin": v.margin,
                            "witness": v.witness, "note": v.note}
                        for k, v in self.clauses.items()},
        })


def ball_grid(dim, radius, count=64):
    """Deterministic tensor grid covering the ball, roughly `count` points."""
    per_axis = max(2, int(round(count ** (1.0 / dim))))
    axes = [np.linspace(-radius * 0.97, radius * 0.97, per_axis) for _ in range(dim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    keep = np.sum(mesh * mesh, axis=-1) <= radius ** 2
    pts = mesh[keep]
    if not len(pts):
        pts = np.zeros((1, dim))
    return pts


def s_grid(eps0, count=256):
    """Two-sided log-spaced values filling (-eps0, eps0) without 0."""
    half = count // 2
    mag = np.geomspace(eps0 * 1e-6, eps0 * (1.0 - 1e-9), half)
    return np.concatenate([-mag[::-1], mag])


_A3_SLACK = 1e-12  # relative tolerance before a sampled A3 margin fails


def check_A3(spec, points=None, s_values=None, radius=1.0):
    """Verify the sublinearity clauses i)-iv) on a sample grid.

    Clause i): 0 < f(x,s) s <= q F(x,s); ii): finite x-gradient of F;
    iii): |grad_x F| <= kappa1 F; iv): F(x, +-eps0) >= kappa2.  For
    sum-of-powers kinds the positivity of every coefficient and the sampled
    sup of |grad c_k| / c_k are reported as well.
    """
    if points is None:
        points = ball_grid(2, radius, 64)
    if s_values is None:
        s_values = s_grid(spec.eps0, 256)
    points = np.asarray(points, dtype=float)
    s_values = np.asarray(s_values, dtype=float)

    X = points[:, None, :]
    S = s_values[None, :]
    f = eval_f(spec, X, S)
    F = eval_F(spec, X, S)
    fs = f * S

    report = AssumptionReport()
    report.sample_counts = {"x": len(points), "s": len(s_values)}

    def record(name, margins, note=""):
        flat = np.argmin(margins)  # the first NaN, if margins has one
        i, j = np.unravel_index(flat, margins.shape) if margins.ndim == 2 else (flat, None)
        worst = float(margins.flat[flat])
        witness = None
        if not worst >= -_A3_SLACK * max(1.0, float(np.max(np.abs(F)))):
            witness = [float(v) for v in points[i]]
            if j is not None:
                witness.append(float(s_values[j]))
        report.clauses[name] = ClauseVerdict(
            name, witness is None, worst, witness, note)

    record("A3.i.lower", fs - 0.0, note="f(x,s)s > 0")
    record("A3.i.upper", spec.q * F - fs, note="f(x,s)s <= q F(x,s)")

    g1 = grad1_F(spec, X, S)
    gnorm = np.sqrt(np.sum(g1 * g1, axis=-1))
    finite = np.isfinite(gnorm) & np.isfinite(F)
    witness = None  # else the first (x, s) where F or |grad_x F| is not finite
    if not finite.all():
        i, j = np.unravel_index(np.argmin(finite), finite.shape)
        witness = [float(v) for v in points[i]] + [float(s_values[j])]
    report.clauses["A3.ii"] = ClauseVerdict(
        "A3.ii", witness is None, 0.0 if witness is None else -np.inf,
        witness, note="F(., s) differentiable in x at sampled points")
    record("A3.iii", spec.kappa1 * F - gnorm, note="|grad_x F| <= kappa1 F")

    Fp = eval_F(spec, points, np.full(len(points), spec.eps0))
    Fm = eval_F(spec, points, np.full(len(points), -spec.eps0))
    both = np.minimum(Fp, Fm) - spec.kappa2
    k = int(np.argmin(both))
    passed = both[k] >= -_A3_SLACK * max(1.0, spec.kappa2)
    report.clauses["A3.iv"] = ClauseVerdict(
        "A3.iv", bool(passed), float(both[k]),
        None if passed else [float(v) for v in points[k]],
        note="F(x, +-eps0) >= kappa2")

    if spec.kind == "sum_of_powers":
        worst_pos, worst_ratio, wit = np.inf, 0.0, None
        for t in spec.terms:
            c = t.coef(points)
            g = t.coef_grad(points)
            k = int(np.argmin(c))  # the first NaN, if c has one
            # a NaN is the worst value: it takes the place of any number
            # and keeps it
            if not c[k] >= worst_pos and not math.isnan(worst_pos):
                worst_pos = float(c[k])
                if not c[k] > 0:
                    wit = [float(v) for v in points[k]]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.sqrt(np.sum(g * g, axis=-1)) / c
            worst_ratio = float(np.max(np.abs(ratio), initial=worst_ratio))
        report.clauses["coefficients.positive"] = ClauseVerdict(
            "coefficients.positive", worst_pos > 0.0, worst_pos, wit,
            note="every c_k > 0 on the domain")
        report.clauses["coefficients.log_gradient"] = ClauseVerdict(
            "coefficients.log_gradient", np.isfinite(worst_ratio), -worst_ratio,
            note=f"sampled sup |grad c|/c = {worst_ratio:.6g}")
    return report


def check_A2(spec, points):
    """V bounded on the ball, as far as the samples show: V finite at every
    sampled point, the first point where it is not as the witness."""
    points = np.asarray(points, dtype=float)
    V = np.broadcast_to(spec.V(points), points.shape[:-1])
    finite = np.isfinite(V)
    report = AssumptionReport()
    report.sample_counts = {"x": len(points)}
    sup = float(np.max(np.abs(V[finite]), initial=0.0))
    witness = (None if finite.all()
               else [float(v) for v in points[int(np.argmin(finite))]])
    report.clauses["A2.bounded"] = ClauseVerdict(
        "A2.bounded", witness is None, -sup if witness is None else -np.inf,
        witness, note=f"V finite at sampled points, sup |V| = {sup:.6g}")
    return report


_A1_DIRECTIONS = 16  # xi samples of the ellipticity sandwich
_A1_GRAD_TOL = 1e-4  # closed-form vs central-difference entry gradients


def check_A1(coeff, points=None, radius=1.0):
    """Symmetry, ellipticity sandwich, and entry-gradient consistency of A."""
    if points is None:
        points = ball_grid(coeff.dim, radius, 64)
    points = np.asarray(points, dtype=float)
    a = coeff.entries(points)
    report = AssumptionReport()
    report.sample_counts = {"x": len(points), "directions": _A1_DIRECTIONS}

    asym = np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-2, -1))
    sym = float(np.max(asym))
    ok = asym <= 1e-12  # False where a is not finite
    report.clauses["A1.symmetric"] = ClauseVerdict(
        "A1.symmetric", bool(ok.all()), -sym,
        None if ok.all() else [float(v) for v in points[int(np.argmin(ok))]],
        note="a_ij == a_ji at samples")

    lam = coeff.ellipticity(points)
    ok_lam = bool(np.all((lam > 0) & (lam < 1)))
    angles = np.linspace(0.0, np.pi, _A1_DIRECTIONS, endpoint=False)
    if coeff.dim == 2:
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    else:
        rng = np.random.default_rng(12345)  # fixed direction set, deterministic
        dirs = rng.normal(size=(_A1_DIRECTIONS, coeff.dim))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    quad = np.einsum("...ij,di,dj->...d", a, dirs, dirs)
    lower = quad - lam[..., None]
    upper = (1.0 / lam)[..., None] - quad
    worst = float(min(np.min(lower), np.min(upper)))
    report.clauses["A1.ellipticity"] = ClauseVerdict(
        "A1.ellipticity", ok_lam and worst >= -1e-12, worst,
        note="lambda |xi|^2 <= <A xi, xi> <= |xi|^2 / lambda")

    g = coeff.entry_gradients(points)
    fd = _central_gradient(coeff.entries, points, _ENTRY_FD_STEP)
    gerr = float(np.max(np.abs(g - fd)))
    report.clauses["A1.entry_gradients"] = ClauseVerdict(
        "A1.entry_gradients", gerr <= _A1_GRAD_TOL, _A1_GRAD_TOL - gerr,
        note="closed-form gradients match central differences")
    gsup = float(np.max(np.abs(g)))
    report.clauses["A1.lipschitz"] = ClauseVerdict(
        "A1.lipschitz", np.isfinite(gsup), -gsup,
        note=f"sampled sup |grad a_ij| = {gsup:.6g} (local Lipschitz proxy)")
    return report


def c_constant(dim, q):
    """The positive combination 2 N - (N - 2) q driving the energy identities."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if not 1.0 <= q < 2.0:
        raise ValueError("q must lie in [1, 2)")
    return 2.0 * dim - (dim - 2.0) * q


_KAPPA1_SAFETY = 1.05  # margin on the sampled kappa1 after the pullback


def normalize_coordinates(spec, x0):
    """Affine change of variables carrying x0 to the origin with A(0) = id.

    Uses T(x) = A(x0)^{1/2} x + x0 and the pullback
    A~(x) = A(x0)^{-1/2} A(T x) A(x0)^{-1/2}, which is the candidate that
    makes u(T x) solve the transformed equation (checked against manufactured
    fields in the test suite).  kappa1 is re-estimated on the transformed
    nonlinearity by sampling.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = spec.dim
    A0 = spec.coefficients.entries(x0)
    if np.max(np.abs(A0 - A0.T)) > 1e-12:
        raise ValueError("A(x0) is not symmetric")
    w, Q = np.linalg.eigh(A0)
    if np.min(w) <= 0:
        raise ValueError("A(x0) is not positive definite")
    M = (Q * np.sqrt(w)) @ Q.T
    Minv = (Q / np.sqrt(w)) @ Q.T
    norm_M = float(np.sqrt(np.max(w)))

    def T(x):
        return np.asarray(x, dtype=float) @ M.T + x0

    base = spec.coefficients

    def entries(x):
        return Minv @ base.entries(T(x)) @ Minv

    def grads(x):
        g = base.entry_gradients(T(x))
        # chain rule: d/dx_h of A(Tx) picks up M, then sandwich with Minv
        g = np.einsum("...ijm,mh->...ijh", g, M)
        return np.einsum("pi,...ijh,jq->...pqh", Minv, g, Minv)

    lam_star = float(base.ellipticity(x0))

    def ell(x):
        return np.clip(lam_star * base.ellipticity(T(x)), 1e-9, 1.0 - 1e-9)

    coeff = CoefficientField(dim, entries, grads, ell, "pullback")

    nl = spec.nonlinearity
    if nl.kind == "tabulated":
        new_nl = NonlinearitySpec("tabulated", nl.q, nl.eps0, nl.kappa1, nl.kappa2,
                                  f_callable=(lambda x, s: nl.f_callable(T(x), s)))
    elif any(callable(t.coefficient) for t in nl.terms):
        # the chain rule, as grads does for A: grad (c o T) = (grad c)(T x) M
        terms = tuple(PowerTerm(t.exponent, lambda x, t=t: t.coefficient(T(x)),
                                lambda x, t=t: t.coef_grad(T(x)) @ M)
                      if callable(t.coefficient) else t for t in nl.terms)
        new_nl = NonlinearitySpec(nl.kind, nl.q, nl.eps0, nl.kappa1, nl.kappa2,
                                  terms=terms)
    else:
        new_nl = nl  # x-independent: composition with T changes nothing

    new_radius = (spec.outer_radius - float(np.linalg.norm(x0))) / norm_M
    if new_radius <= 0:
        raise ValueError("x0 lies too close to the boundary")

    if new_nl is not nl:
        pts = ball_grid(dim, new_radius, 64)
        sv = s_grid(new_nl.eps0, 64)
        F = eval_F(new_nl, pts[:, None, :], sv[None, :])
        g1 = grad1_F(new_nl, pts[:, None, :], sv[None, :])
        ratio = np.sqrt(np.sum(g1 * g1, axis=-1)) / np.maximum(F, 1e-300)
        k1 = float(np.max(ratio)) * _KAPPA1_SAFETY
        new_nl = NonlinearitySpec(new_nl.kind, new_nl.q, new_nl.eps0,
                                  max(k1, 1e-12), new_nl.kappa2,
                                  terms=new_nl.terms, f_callable=new_nl.f_callable)

    potential = None
    src = spec.potential_source
    if spec.potential is not None:
        potential = (lambda fn: lambda x: fn(T(x)))(spec.potential)
        src = f"({spec.potential_source}) after pullback"
    return ProblemSpec(dim, new_radius, coeff, new_nl, potential, src)
