import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqlab import model
from freqlab.model import (CoefficientField, NonlinearitySpec, PowerTerm,
                           ProblemSpec, QuadratureError, ball_grid, c_constant,
                           check_A1, check_A3, eval_F, eval_f, grad1_F,
                           normalize_coordinates, s_grid)

ORIGIN2 = np.zeros((1, 2))


class TestPrimitive:
    def test_homogeneous_q15(self):
        nl = NonlinearitySpec.homogeneous(1.5)
        assert eval_F(nl, ORIGIN2, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_homogeneous_q1_abs(self):
        nl = NonlinearitySpec.homogeneous(1.0)
        assert eval_F(nl, ORIGIN2, -0.5) == pytest.approx(0.5, abs=1e-15)

    def test_sum_of_powers_closed_form_vs_quadrature(self):
        nl = NonlinearitySpec.sum_of_powers([PowerTerm(1.5, 2.0)], kappa2=0.5)
        F = eval_F(nl, ORIGIN2, 1.0)
        assert F == pytest.approx(4.0 / 3.0, abs=1e-15)
        # independent oracle: adaptive quadrature of f
        tab = NonlinearitySpec.tabulated(
            lambda x, s: eval_f(nl, x, s), q=1.5, kappa2=0.5)
        assert eval_F(tab, ORIGIN2, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1.999),
           st.floats(min_value=-5, max_value=5).filter(lambda s: abs(s) > 1e-6))
    def test_homogeneous_euler_relation(self, q, s):
        # s f(s) = q F(s) exactly for the power law
        nl = NonlinearitySpec.homogeneous(q, eps0=10.0)
        fs = float(eval_f(nl, ORIGIN2, s)[0]) * s
        qF = q * float(eval_F(nl, ORIGIN2, s)[0])
        assert fs == pytest.approx(qF, rel=1e-14)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestPowerLawAsTermSum:
    """homogeneous(q) is the one-term sum PowerTerm(q, 1.0); its values must
    be the power law's closed forms bit for bit, signed zeros included."""

    P, S = 3, 6
    S_VALUES = np.array([0.0, -0.0, 0.3, -0.3, 1e-300, -2.5])
    X_FORMS = {"none": None,
               "full": np.linspace(-0.5, 0.5, P * S * 2).reshape(P, S, 2),
               "column": np.linspace(-0.5, 0.5, P * 2).reshape(P, 1, 2)}

    def _s(self, form):
        # s holds 0.0 and -0.0; it fills (P, S) unless x broadcasts it
        row = self.S_VALUES
        return row if form == "column" else np.tile(row, (self.P, 1))

    @pytest.mark.parametrize("q", [1.0, 1.2, 1.5, 1.9])
    @pytest.mark.parametrize("form", ["none", "full", "column"])
    def test_f_and_F_are_the_power_law(self, q, form):
        nl = NonlinearitySpec.homogeneous(q)
        x, s = self.X_FORMS[form], self._s(form)
        shape = (self.P, self.S)
        if q == 1.0:
            f_ref = np.sign(s)
        else:
            f_ref = np.where(s != 0.0, np.abs(np.where(s != 0, s, 1.0)) ** (q - 2.0) * s,
                             0.0)
        F_ref = np.abs(s) ** q / q
        for got, ref in ((eval_f(nl, x, s), f_ref), (eval_F(nl, x, s), F_ref)):
            assert got.shape == shape
            assert np.array_equal(_bits(got), _bits(np.broadcast_to(ref, shape)))

    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 1.99])
    @pytest.mark.parametrize("coefficient", ["none", "callable"])
    def test_f_keeps_the_bits_of_the_whole_array_formula(self, p, coefficient):
        # f is formed in place, and its sum starts from its first term; the
        # bits are those of the masked formula summed into zeros, for every
        # kind of float s can hold
        rng = np.random.default_rng(int(p * 100))
        s = rng.standard_normal((16, 32)) * 10.0 ** rng.integers(-320, 3, (16, 32))
        s.ravel()[:10] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                          -1e-310, 2.2e-308, -np.nan]
        x = rng.standard_normal((16, 32, 2))

        def c(x):
            return np.where(x[..., 0] > 0.0, -x[..., 1], 0.0)

        if coefficient == "none":
            nl, x, terms = NonlinearitySpec.homogeneous(p), None, [(p, 1.0)]
        else:
            terms = [(p, c), (1.0, 0.5)] if p > 1.0 else [(p, c)]
            nl = NonlinearitySpec.sum_of_powers(
                [PowerTerm(e, k) for e, k in terms])
        ref = np.zeros(s.shape)
        with np.errstate(invalid="ignore"):
            for e, k in terms:
                values = (np.sign(s) if e == 1.0 else np.where(
                    s != 0.0, np.abs(np.where(s != 0, s, 1.0)) ** (e - 2.0) * s, 0.0))
                ref += (k(x) if callable(k) else k) * values
        got = eval_f(nl, x, s)
        assert np.array_equal(_bits(got), _bits(ref))
        assert np.signbit(got.ravel()[1]) == np.signbit(ref.ravel()[1])

    @pytest.mark.parametrize("q", [1.0, 1.2, 1.5, 1.9])
    @pytest.mark.parametrize("form", ["full", "column"])
    def test_grad1_F_is_zero(self, q, form):
        nl = NonlinearitySpec.homogeneous(q)
        g = grad1_F(nl, self.X_FORMS[form], self._s(form))
        assert g.shape == (self.P, self.S, 2)
        assert np.array_equal(_bits(g), _bits(np.zeros(g.shape)))

    @pytest.mark.parametrize("form", ["none", "full", "column"])
    def test_zero_kind_gives_zeros_of_the_broadcast_shape(self, form):
        nl = NonlinearitySpec.zero()
        assert nl.terms == ()
        x, s = self.X_FORMS[form], self._s(form)
        for got in (eval_f(nl, x, s), eval_F(nl, x, s)):
            assert np.array_equal(_bits(got), _bits(np.zeros((self.P, self.S))))
        if x is not None:
            g = grad1_F(nl, x, s)
            assert np.array_equal(_bits(g), _bits(np.zeros((self.P, self.S, 2))))

    def test_direct_construction_sets_the_terms(self):
        assert NonlinearitySpec("homogeneous", 1.5, 1.0, 0.0, 1.0).terms == (
            PowerTerm(1.5, 1.0),)
        assert NonlinearitySpec("zero", 1.5, 1.0, 0.0, 1.0).terms == ()


class CountingF:
    """A tabulated f that records the shape of s on every call."""

    def __init__(self, fn):
        self.fn = fn
        self.s_shapes = []

    def __call__(self, x, s):
        self.s_shapes.append(np.shape(s))
        return self.fn(x, s)


class TestTabulatedPrimitive:
    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
           st.floats(min_value=-5, max_value=5).filter(lambda s: abs(s) > 1e-6),
           st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           st.floats(min_value=0.0, max_value=2 * np.pi))
    def test_matches_closed_forms(self, q, s, r, angle):
        x = np.array([r * np.cos(angle), r * np.sin(angle)])
        coef = lambda x: 1.0 + 0.5 * x[..., 0] ** 2
        for nl in (NonlinearitySpec.homogeneous(q, eps0=10.0),
                   NonlinearitySpec.sum_of_powers(
                       [PowerTerm(1.0 + 0.5 * (q - 1.0), 1.0), PowerTerm(q, coef)],
                       kappa2=0.5)):
            tab = NonlinearitySpec.tabulated(
                lambda x, s, nl=nl: eval_f(nl, x, s), q=q, kappa2=0.5)
            assert float(eval_F(tab, x, s)) == pytest.approx(
                float(eval_F(nl, x, s)), rel=1e-12)

    def test_matches_per_node_reference_quadrature(self):
        # an f with no closed-form primitive, against scipy's adaptive
        # QUADPACK rule run on every node
        from scipy.integrate import quad

        def f(x, s):
            return (np.exp(x[..., 0]) * np.sign(s) * np.abs(s) ** 0.3
                    * (1.0 + 0.5 * np.sin(3.0 * s + x[..., 1])))

        tab = NonlinearitySpec.tabulated(f, q=1.3, kappa2=0.5)
        pts = ball_grid(2, 1.0, 16)
        s = np.linspace(-2.0, 2.0, 9)
        F = eval_F(tab, pts[:, None, :], s[None, :])
        for i, px in enumerate(pts):
            for j, sj in enumerate(s):
                ref = quad(lambda t: float(f(px, t)), 0.0, sj, epsabs=0.0,
                           epsrel=1e-13, limit=200)[0]
                assert F[i, j] == pytest.approx(ref, rel=1e-12)

    def test_kinked_f_falls_back_and_meets_tolerance(self):
        f = CountingF(lambda x, s: np.sign(s) * np.minimum(np.abs(s), 0.7) ** 0.5)
        tab = NonlinearitySpec.tabulated(f, q=1.5, kappa2=0.5)
        s = np.linspace(-3.0, 3.0, 13)
        F = eval_F(tab, np.zeros(2), s)
        # scalar calls come from the Simpson fallback, one point at a time
        assert any(shape == () for shape in f.s_shapes)
        a = np.abs(s)
        exact = np.where(a <= 0.7, a ** 1.5 / 1.5,
                         0.7 ** 1.5 / 1.5 + 0.7 ** 0.5 * (a - 0.7))
        assert np.all(np.abs(F - exact) <= model._QUAD_REL_TOL * exact)

    def test_calls_f_once_per_rule_not_per_node(self):
        nl = NonlinearitySpec.homogeneous(1.5)
        f = CountingF(lambda x, s: eval_f(nl, x, s))
        tab = NonlinearitySpec.tabulated(f, q=1.5, kappa2=0.5)
        r = np.linspace(0.0, 1.0, 33)[:, None]
        th = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)[None, :]
        x = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        s = 0.5 + r * np.cos(th)
        F = eval_F(tab, x, s)
        assert F.shape == (33, 64)
        assert len(f.s_shapes) <= 4
        np.testing.assert_allclose(F, eval_F(nl, x, s), rtol=1e-12)

    def test_grad1_F_matches_closed_form_coefficient_gradient(self):
        coef = lambda x: 1.0 + 0.5 * x[..., 0] ** 2 + 0.25 * x[..., 1]
        grad = lambda x: np.stack([x[..., 0], np.full(x.shape[:-1], 0.25)], axis=-1)
        nl = NonlinearitySpec.sum_of_powers(
            [PowerTerm(1.5, coef, grad), PowerTerm(1.0, 1.0)], kappa2=0.5)
        tab = NonlinearitySpec.tabulated(lambda x, s: eval_f(nl, x, s),
                                         q=1.5, kappa2=0.5)
        pts = ball_grid(2, 1.0, 16)[:, None, :]
        s = s_grid(1.0, 32)[None, :]
        np.testing.assert_allclose(grad1_F(tab, pts, s), grad1_F(nl, pts, s),
                                   rtol=0, atol=1e-8)

    def test_accepts_x_none_like_eval_f(self):
        seen = []

        def f(x, s):
            seen.append(x)
            return np.sign(s) * np.abs(s) ** 0.5

        tab = NonlinearitySpec.tabulated(f, q=1.5, kappa2=0.5)
        s = np.array([[0.0, 0.5], [-2.0, 1.0]])
        np.testing.assert_allclose(eval_F(tab, None, s), np.abs(s) ** 1.5 / 1.5,
                                   rtol=1e-14)
        assert float(eval_F(tab, None, -0.3)) == pytest.approx(0.3 ** 1.5 / 1.5,
                                                               rel=1e-14)
        assert all(x is None for x in seen)
        assert eval_f(tab, None, s).shape == s.shape
        with pytest.raises(ValueError, match="needs the points x"):
            grad1_F(tab, None, s)

    def test_non_finite_f_raises_instead_of_recursing(self):
        tab = NonlinearitySpec.tabulated(
            lambda x, s: np.where(np.abs(s) < 0.5, s, np.nan), q=1.5, kappa2=0.5)
        with pytest.raises(QuadratureError):
            eval_F(tab, np.zeros(2), 0.9)


class TestCheckA3:
    def test_homogeneous_passes_with_zero_upper_margin(self):
        nl = NonlinearitySpec.homogeneous(1.5)
        rep = check_A3(nl)
        assert rep.passed
        assert rep.clauses["A3.i.upper"].margin == pytest.approx(0.0, abs=1e-15)

    def test_sign_flip_fails_clause_i(self):
        nl = NonlinearitySpec.tabulated(
            lambda x, s: -np.sign(s) * np.abs(s) ** 0.5, q=1.5, kappa2=0.5)
        rep = check_A3(nl, points=ball_grid(2, 1.0, 16),
                       s_values=s_grid(1.0, 32))
        clause = rep.clauses["A3.i.lower"]
        assert not clause.passed and clause.witness is not None

    def test_mixed_powers_pass(self):
        nl = NonlinearitySpec.sum_of_powers(
            [PowerTerm(1.0, 1.0), PowerTerm(1.5, 1.0)], kappa2=1.0)
        rep = check_A3(nl)
        assert rep.clauses["A3.i.lower"].passed
        assert rep.clauses["A3.i.upper"].passed

    def test_unbounded_log_gradient_fails_clause_iii(self):
        coef = lambda x: x[..., 0] ** 2 + 1e-8
        grad = lambda x: np.stack([2 * x[..., 0], np.zeros_like(x[..., 0])], axis=-1)
        nl = NonlinearitySpec.sum_of_powers(
            [PowerTerm(1.5, coef, grad)], kappa1=10.0, kappa2=1e-12)
        rep = check_A3(nl)
        clause = rep.clauses["A3.iii"]
        assert not clause.passed and clause.witness is not None

    def test_vanishing_floor_fails_clause_iv(self):
        nl = NonlinearitySpec.tabulated(
            lambda x, s: x[..., 0] ** 2 * np.sign(s) * np.abs(s) ** 0.5,
            q=1.5, kappa2=0.5)
        pts = ball_grid(2, 1.0, 16)
        pts[0] = 0.0  # make sure the degenerate point is sampled
        rep = check_A3(nl, points=pts, s_values=s_grid(1.0, 32))
        clause = rep.clauses["A3.iv"]
        assert not clause.passed and clause.witness is not None


class TestCConstant:
    @pytest.mark.parametrize("dim,q,expected",
                             [(3, 1.0, 5.0), (2, 1.7, 4.0), (3, 1.5, 4.5)])
    def test_values(self, dim, q, expected):
        assert c_constant(dim, q) == pytest.approx(expected, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=2, max_value=12),
           st.floats(min_value=1.0, max_value=1.999))
    def test_positive(self, dim, q):
        assert c_constant(dim, q) > 0.0


def _div(geo):
    """div Z: the trace of the Jacobian geometry() returns."""
    return np.einsum("...hh->...", geo.dz)


class TestCoefficientFields:
    def test_identity_mu_and_z(self):
        A = CoefficientField.identity(2)
        pts = ball_grid(2, 1.0, 32)
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-9]
        geo = A.geometry(pts)
        np.testing.assert_allclose(geo.mu, 1.0, atol=1e-14)
        np.testing.assert_allclose(geo.z, pts, atol=1e-14)
        np.testing.assert_allclose(_div(geo), 2.0, atol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: CoefficientField.rotation_perturbed(0.3, 2),
        lambda: CoefficientField.diagonal([4.0, 1.0]),
        lambda: CoefficientField.from_expressions(
            2, {"a11": "1 + x1^2/4", "a12": "0", "a22": "1"}, 0.7),
    ])
    def test_z_is_radial_on_spheres(self, make):
        # <Z, x/|x|> = |x| identically for symmetric A
        A = make()
        pts = ball_grid(2, 1.0, 64)
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-9]
        z = A.geometry(pts).z
        r = np.linalg.norm(pts, axis=1)
        np.testing.assert_allclose(np.sum(z * pts, axis=1) / r, r, rtol=1e-12)

    def test_check_A1_builtin_passes(self):
        rep = check_A1(CoefficientField.rotation_perturbed(0.2, 2))
        assert rep.passed

    def test_each_distinct_entry_text_is_evaluated_once(self, monkeypatch):
        # a21 takes a12's text, and a22 repeats a11's: two expressions, each
        # evaluated (and differentiated) once a call, written to both slots
        from freqlab.expressions import Expression

        coeff = CoefficientField.from_expressions(
            2, {"a11": "1 + x1^2/4", "a12": "x1*x2/8", "a22": "1 + x1^2/4"}, 0.5)
        calls = {"__call__": 0, "partials": 0}
        for name in calls:
            def counted(self, x, fn=getattr(Expression, name), name=name):
                calls[name] += 1
                return fn(self, x)
            monkeypatch.setattr(Expression, name, counted)
        x = np.random.default_rng(2).normal(size=(7, 2))
        a = coeff.entries(x)
        g = coeff.entry_gradients(x)
        assert calls == {"__call__": 2, "partials": 2}
        assert a[:, 0, 1].tobytes() == a[:, 1, 0].tobytes()
        assert a[:, 0, 0].tobytes() == a[:, 1, 1].tobytes()
        assert g[:, 0, 1].tobytes() == g[:, 1, 0].tobytes()
        assert a[:, 0, 1].tobytes() == (x[:, 0] * x[:, 1] / 8).tobytes()

    def test_entry_gradients_are_differentiated_not_differenced(self):
        coeff = CoefficientField.from_expressions(
            2, {"a11": "1 + x1^2/4", "a12": "0", "a22": "exp(x2)"}, 0.5)
        x = np.random.default_rng(4).normal(size=(9, 2))
        g = coeff.entry_gradients(x)
        want = np.zeros((9, 2, 2, 2))
        want[:, 0, 0, 0] = x[:, 0] / 2
        want[:, 1, 1, 1] = np.exp(x[:, 1]) * 1.0
        assert g.tobytes() == want.tobytes()

    def test_a1_entry_gradients_fails_on_a_wrong_derivative(self, monkeypatch):
        # the gate compares the compiled gradients with central differences:
        # a power rule off by 1e-3 of the derivative fails it at the
        # demo's a11 = 1 + x1^2/4, where the gap reaches 1e-3 max|x1|/2
        import ast

        from freqlab import expressions

        entries = {"a11": "1 + x1^2/4", "a12": "0", "a22": "1"}
        assert check_A1(CoefficientField.from_expressions(2, entries, 0.7),
                        radius=0.8).clauses["A1.entry_gradients"].passed
        rule = expressions._DERIVATIVES[ast.Pow]
        monkeypatch.setitem(expressions._DERIVATIVES, ast.Pow,
                            lambda *args: 1.001 * rule(*args))
        rep = check_A1(CoefficientField.from_expressions(2, entries, 0.7),
                       radius=0.8)
        clause = rep.clauses["A1.entry_gradients"]
        assert not clause.passed and clause.margin < 0
        assert rep.clauses["A1.symmetric"].passed
        assert rep.clauses["A1.ellipticity"].passed


class TestZField:
    """Z = A x / mu sampled straight from the coefficient field."""

    def test_radial_component_identity(self):
        # <Z, x/|x|> - |x| vanishes identically for symmetric A
        pts = np.array([[0.3, 0.1], [0.0, 0.5], [-0.2, -0.4]])
        r = np.linalg.norm(pts, axis=-1)
        for make in (CoefficientField.identity(2),
                     CoefficientField.rotation_perturbed(0.25, 2),
                     CoefficientField.diagonal([2.0, 0.5])):
            z = make.geometry(pts).z
            defect = np.einsum("...i,...i->...", z, pts) / r - r
            np.testing.assert_allclose(defect, 0.0, atol=1e-12)

    def test_identity_divergence(self):
        pts = np.array([[0.3, 0.1], [0.1, -0.5]])
        np.testing.assert_allclose(_div(CoefficientField.identity(2).geometry(pts)),
                                   2.0, atol=1e-13)


class TestNormalizeCoordinates:
    def test_identity_at_origin_is_noop(self):
        spec = ProblemSpec.model(2, 1.5)
        out = normalize_coordinates(spec, np.zeros(2))
        pts = ball_grid(2, out.outer_radius, 16)
        np.testing.assert_allclose(out.coefficients.entries(pts),
                                   spec.coefficients.entries(pts), atol=1e-14)
        assert out.outer_radius == pytest.approx(spec.outer_radius)

    def test_diagonal_squeeze(self):
        spec = ProblemSpec(2, 1.0, CoefficientField.diagonal([4.0, 1.0]),
                           NonlinearitySpec.homogeneous(1.5))
        out = normalize_coordinates(spec, np.zeros(2))
        A0 = out.coefficients.entries(np.zeros((1, 2)))[0]
        np.testing.assert_allclose(A0, np.eye(2), atol=1e-13)
        assert out.outer_radius == pytest.approx(0.5)  # radius / ||A0^(1/2)||

    def test_double_application_is_stable(self):
        spec = ProblemSpec.model(2, 1.5)
        once = normalize_coordinates(spec, np.array([0.3, 0.0]))
        twice = normalize_coordinates(once, np.zeros(2))
        pts = ball_grid(2, twice.outer_radius * 0.9, 16)
        np.testing.assert_allclose(twice.coefficients.entries(pts),
                                   once.coefficients.entries(pts), atol=1e-12)

    def test_rejects_non_spd(self):
        bad = CoefficientField(2, lambda x: np.broadcast_to(
            np.diag([1.0, -1.0]), np.asarray(x).shape[:-1] + (2, 2)).copy(),
            lambda x: np.zeros(np.asarray(x).shape[:-1] + (2, 2, 2)),
            lambda x: np.full(np.asarray(x).shape[:-1], 0.5), "bad")
        spec = ProblemSpec(2, 1.0, bad, NonlinearitySpec.homogeneous(1.5))
        with pytest.raises(ValueError):
            normalize_coordinates(spec, np.zeros(2))

    def test_pullback_matches_change_of_variables(self, bowl):
        # u_tilde(x) = u(Tx) must solve the transformed equation; the
        # inverse-sandwich candidate A^{1/2} A^{-1}(Tx) A^{1/2} must not.
        from freqlab.fields import residual_field, sample_grid2d

        spec = bowl.spec
        x0 = np.array([0.25, 0.0])
        out = normalize_coordinates(spec, x0)
        A0 = spec.coefficients.entries(x0)
        w, Q = np.linalg.eigh(A0)
        M = (Q * np.sqrt(w)) @ Q.T

        def T(x):
            return np.asarray(x) @ M.T + x0

        R = min(out.outer_radius, 0.5)
        out.outer_radius = R
        fld = sample_grid2d(lambda x: bowl.u(T(x)), R, 96, 192,
                            spec.nonlinearity.q)
        source = _pullback_source(bowl, T, fld.points())
        good = np.nanmax(np.abs(residual_field(out, fld) + source))

        inverse_sandwich = CoefficientField(
            2,
            lambda x: M @ np.linalg.inv(spec.coefficients.entries(T(x))) @ M,
            out.coefficients.entry_gradients,  # gradients irrelevant here
            out.coefficients.ellipticity, "inverse_sandwich")
        bad_spec = ProblemSpec(2, R, inverse_sandwich, out.nonlinearity,
                               out.potential, out.potential_source)
        bad = np.nanmax(np.abs(residual_field(bad_spec, fld) + source))
        assert good < 1e-4
        assert bad > 100 * good

    def test_x_dependent_nonlinearity_is_pulled_back(
            self, variable_coefficients_spec):
        # the coefficient 1 + 0.5 x1^2 of the q = 1 term depends on x, so
        # f is composed with T and kappa1 re-estimated on the new ball
        spec = variable_coefficients_spec
        x0 = np.array([0.2, 0.1])
        out = normalize_coordinates(spec, x0)
        assert out.nonlinearity is not spec.nonlinearity
        w, Q = np.linalg.eigh(spec.coefficients.entries(x0))
        M = (Q * np.sqrt(w)) @ Q.T

        def T(x):
            return np.asarray(x, dtype=float) @ M.T + x0

        R = out.outer_radius
        pts = ball_grid(2, R, 400)[:, None, :]
        s = s_grid(out.nonlinearity.eps0, 64)[None, :]
        np.testing.assert_array_equal(eval_f(out.nonlinearity, pts, s),
                                      eval_f(spec.nonlinearity, T(pts), s))
        g1 = grad1_F(out.nonlinearity, pts, s)
        ratio = np.linalg.norm(g1, axis=-1) / eval_F(out.nonlinearity, pts, s)
        assert np.max(ratio) <= out.nonlinearity.kappa1
        assert check_A1(out.coefficients, radius=R).passed
        assert check_A3(out.nonlinearity, radius=R).passed


    def test_pulled_back_coefficients_carry_their_chain_rule(
            self, variable_coefficients_spec):
        # grad (c o T) = (grad c)(T x) M, against central differences of
        # the pulled-back coefficient itself, for a config expression and
        # for an API callable without a gradient
        spec = variable_coefficients_spec
        api = PowerTerm(1.2, lambda x: 1.5 + np.sin(x[..., 0] * x[..., 1]))
        nl = NonlinearitySpec.sum_of_powers(
            spec.nonlinearity.terms + (api,), kappa1=4.0, kappa2=0.4)
        x0 = np.array([0.2, -0.1])
        out = normalize_coordinates(ProblemSpec(2, spec.outer_radius,
                                                spec.coefficients, nl), x0)
        pts = ball_grid(2, out.outer_radius, 64)
        step = 1e-6
        for t in out.nonlinearity.terms[1:]:
            assert t.coefficient_grad is not None
            fd = np.stack([(t.coef(pts + step * e) - t.coef(pts - step * e))
                           / (2 * step) for e in np.eye(2)], axis=-1)
            np.testing.assert_allclose(t.coef_grad(pts), fd, rtol=0, atol=1e-8)


def _pullback_source(bowl, T, x):
    return bowl.source(T(x))


class TestQuadratureFailure:
    def test_unreachable_tolerance_raises_with_achieved(self, monkeypatch):
        monkeypatch.setattr(model, "_QUAD_REL_TOL", 0.0)
        nl = NonlinearitySpec("tabulated", 1.5, 1.0, 1.0, 0.5,
                              f_callable=lambda x, s: np.sign(s) * np.abs(s) ** 0.5)
        with pytest.raises(QuadratureError) as err:
            eval_F(nl, np.zeros((1, 2)), 0.7)
        assert err.value.achieved > 0.0

    @pytest.mark.parametrize("budget", [8, 16, 32])
    def test_achieved_tracks_the_true_error_of_the_integral(self, budget):
        # kinked f with a closed-form primitive; a split budget too small
        # for the tolerance must report the whole integral's error
        from freqlab.model import _adaptive_simpson

        f = lambda s: float(np.sign(s) * min(abs(s), 0.7) ** 0.5)
        exact = 0.7 ** 1.5 / 1.5 + 0.7 ** 0.5 * (3.0 - 0.7)
        with pytest.raises(QuadratureError) as err:
            _adaptive_simpson(f, 0.0, 3.0, 1e-12, max_splits=budget)
        achieved = err.value.achieved
        true = abs(err.value.estimate - exact) / exact
        assert achieved > 1e-12
        assert true / 10.0 <= achieved <= 10.0 * true


class TestTranslationInvariance:
    def test_frequency_reads_the_shifted_center(self):
        # u vanishing to second order at x0: after carrying x0 to the
        # origin the frequency of the pulled-back field is 2 everywhere
        from freqlab.fields import sample_grid2d
        from freqlab.frequency import frequency_profile

        spec = ProblemSpec(2, 1.0, CoefficientField.identity(2),
                           NonlinearitySpec.zero())
        x0 = np.array([0.3, 0.0])
        out = normalize_coordinates(spec, x0)
        assert out.outer_radius == pytest.approx(0.7)

        def u(x):
            return (x[..., 0] - 0.3) * x[..., 1]

        def u_pulled(x):
            return u(np.asarray(x) + x0)  # T = identity + x0 here

        fld = sample_grid2d(u_pulled, out.outer_radius, 96, 256, 1.5)
        prof = frequency_profile(out, fld)
        assert np.nanmax(np.abs(prof.N - 2.0)) <= 1e-6


class TestA1AllBuiltins:
    @pytest.mark.parametrize("make", [
        lambda: CoefficientField.identity(2),
        lambda: CoefficientField.identity(3),
        lambda: CoefficientField.diagonal([4.0, 1.0]),
        lambda: CoefficientField.rotation_perturbed(0.2, 2),
        lambda: CoefficientField.rotation_perturbed(0.1, 3),
        lambda: CoefficientField.from_expressions(
            2, {"a11": "1 + x1^2/4", "a12": "0", "a22": "1"}, 0.7),
    ])
    def test_admissibility(self, make):
        coeff = make()
        assert check_A1(coeff).passed
