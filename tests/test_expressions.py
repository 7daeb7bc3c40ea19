import configparser
import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqlab.cli import main
from freqlab.expressions import MAX_DEPTH, ExpressionError, compile_expression


def test_arithmetic_and_precedence():
    fn = compile_expression("1 + 2*x1^2 - x2/4", 2)
    x = np.array([[1.0, 2.0], [0.0, 4.0]])
    np.testing.assert_allclose(fn(x), [1 + 2 - 0.5, 1 - 1.0])


def test_right_associative_power():
    fn = compile_expression("2^3^2", 1)
    assert fn(np.zeros((1, 1)))[0] == 512.0


def test_functions_and_unary_minus():
    fn = compile_expression("-exp(x1) + sin(x2)*cos(x2)", 2)
    x = np.array([[0.0, np.pi / 4]])
    np.testing.assert_allclose(fn(x), [-1.0 + 0.5], rtol=1e-15)


def test_constant_broadcasts():
    fn = compile_expression("0.25", 2)
    assert fn(np.zeros((5, 2))).shape == (5,)


@pytest.mark.parametrize("bad", ["x3", "foo(x1)", "1 +", "(x1", "x1 @ 2"])
def test_rejects_bad_input(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad, 2)


# --------------------------------------------------------------------------
# the grammar, pinned: Python's parser behind the node whitelist reads
# exactly what the earlier hand-written parser read

_AT = np.array([[3.0, 2.0]])  # x1 = 3, x2 = 2


def _continued_value():
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string("[potential]\nfield = 1 +\n    x1 *\n    x2\n")
    return cp["potential"]["field"]  # "1 +\nx1 *\nx2"


@pytest.mark.parametrize("text, value", [
    ("-2^2", -4.0),           # unary minus binds looser than ^
    ("2^-1^2", 0.5),          # 2^(-(1^2))
    ("2^3^2", 512.0),         # right-associative
    ("-x1*x2", -6.0),
    ("x1/x2*x1", 4.5),        # left-associative
    ("1.", 1.0),
    (".5", 0.5),
    ("1e-07", 1e-07),
    ("2E+2", 200.0),
    ("07", 7.0),              # leading zeros: Python alone refuses these
    ("00", 0.0),
    ("+x1", 3.0),
    ("exp(0)*cos(0) - sin(0)", 1.0),
    ("x1 ", 3.0),             # trailing whitespace is accepted
    (_continued_value(), 7.0),
])
def test_accepted_values(text, value):
    out = compile_expression(text, 2)(_AT)
    assert out.dtype == float and out.tolist() == [value]


@pytest.mark.parametrize("bad", [
    "**", "x1**2", "x1//2", "x1 % 2", "1_0", "0x1", "1j", "True",
    "x1.real", "exp(x1, x2)", "exp(x=1)", "[x1]", "x1 if x2 else 1",
    "1 # c", "__import__('os')", "x3", "s", "exp", "x1(2)", "",
    pytest.param("-" * 5000 + "1", id="minus-x5000"),
    pytest.param("+".join(["x1"] * 2000), id="sum-of-2000"),
    pytest.param("(" * (MAX_DEPTH + 1) + "x1" + ")" * (MAX_DEPTH + 1),
                 id="parentheses-past-cap"),
])
def test_rejected(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad, 2)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}
_CALLS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}
_SPACE = st.sampled_from(["", " ", "\n  "])


# a tree is (text, reference evaluator, variable-free?, holds a variable-free
# subtree whose value is not a finite real number?)


def _node(text, ev, args):
    const = all(a[2] for a in args)
    bad = any(a[3] for a in args)
    if const and not bad:
        try:
            with np.errstate(all="ignore"):
                value = ev({})
            bad = not isinstance(value, float) or not math.isfinite(value)
        except ArithmeticError:
            bad = True
    return text, ev, const, bad


def _leaf(name):
    return name, lambda env: env[name], False, False


def _number(text, v):
    return _node(text, lambda env: v, ())


def _unary(arg, minus):
    if minus:
        return _node(f"-({arg[0]})", lambda env: -arg[1](env), (arg,))
    return f"+({arg[0]})", arg[1], arg[2], arg[3]


def _binary(lhs, op, rhs, sp):
    fn = _BINARY[op]
    return _node(f"({lhs[0]}){sp}{op}{sp}({rhs[0]})",
                 lambda env: fn(lhs[1](env), rhs[1](env)), (lhs, rhs))


def _call(name, arg):
    fn = _CALLS[name]
    return _node(f"{name}({arg[0]})", lambda env: fn(arg[1](env)), (arg,))


_TREES = st.recursive(
    st.one_of(st.sampled_from(["x1", "x2"]).map(_leaf),
              st.floats(0.0, 1e3).map(lambda v: _number(repr(v), v)),
              st.integers(0, 99).map(lambda k: _number(str(k), float(k)))),
    lambda kids: st.one_of(
        st.builds(_unary, kids, st.booleans()),
        st.builds(_binary, kids, st.sampled_from(sorted(_BINARY)), kids, _SPACE),
        st.builds(_call, st.sampled_from(sorted(_CALLS)), kids)),
    max_leaves=24)


def _outcome(fn):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            val = np.asarray(fn())
        except Exception as exc:  # the same failure on both sides counts too
            return type(exc)
    return val.dtype, val.shape, val.tobytes()


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_random_trees_evaluate_bitwise(tree):
    text, reference, _, bad_constant = tree
    x = np.array([[0.3, -1.7], [2.0, 0.0], [-0.5, 1e-3]])
    if bad_constant:
        with pytest.raises(ExpressionError, match="constant"):
            compile_expression(text, 2)
        return
    fn = compile_expression(text, 2)

    def expected():
        val = reference({"x1": x[:, 0], "x2": x[:, 1]})
        return np.broadcast_to(val, (3,)).astype(float) if np.ndim(val) == 0 else val

    assert _outcome(lambda: fn(x)) == _outcome(expected)


@pytest.mark.parametrize("text", ["1/0", "(0-8)^(1/3)", "exp(1000)", "10^400",
                                  "1e999", "x1 + 1/exp(1000)", "0*exp(1000)",
                                  "x1*(0^(0-1))"])
def test_constants_must_be_finite_reals(text):
    with pytest.raises(ExpressionError, match="constant"):
        compile_expression(text, 2)


def test_constants_fold_to_the_values_they_had():
    fn = compile_expression("x1*2^0.5 + cos(1)/3", 1)
    x = np.array([[0.3], [-1.7]])
    expected = x[:, 0] * 2.0 ** 0.5 + np.cos(1.0) / 3.0
    assert fn(x).tobytes() == expected.tobytes()
    assert compile_expression("(1 + 2)*3", 2)(np.zeros((2, 2))).tolist() == [9.0, 9.0]


def test_cli_rejects_deep_potential_before_the_audit(tmp_path, capsys):
    assert main(["solve", "--mode", "radial", "--q", "1.5", "--N", "2",
                 "--amplitude", "0.5", "--radius", "1.0",
                 "--out", str(tmp_path / "so")]) == 0
    config = tmp_path / "deep.ini"
    config.write_text(
        "[domain]\ndimension = 2\nouter_radius = 1.0\n\n"
        "[potential]\nfield = " + " + ".join(["0.001*x1"] * 2000) + "\n\n"
        "[nonlinearity]\nkind = homogeneous\nq = 1.5\n")
    capsys.readouterr()
    out = tmp_path / "au"
    assert main(["audit", str(tmp_path / "so" / "field.npz"), "--config",
                 str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[potential] field" in err and f"deeper than {MAX_DEPTH}" in err
    assert not out.exists()  # no record, no certificate: nothing ran


# --------------------------------------------------------------------------
# gradients, differentiated from the checked tree


def test_gradient_of_the_benchmark_entry_is_exact():
    # the tabulated workload's a11: (2 x1^1) / 4 is x1/2 in every bit
    expr = compile_expression("1 + x1^2/4", 2)
    x = np.random.default_rng(3).normal(size=(200, 2))
    x[:3, 0] = [0.0, -0.0, 5e-324]
    partials = expr.partials(x)
    assert [h for h, _ in partials] == [0]  # x2 is absent: never evaluated
    assert partials[0][1].tobytes() == (x[:, 0] / 2).tobytes()
    grad = expr.gradient(x)
    assert grad.shape == x.shape and not grad[:, 1].any()


def test_constant_and_linear_expressions_have_constant_partials():
    assert compile_expression("0", 2).partials(np.zeros((3, 2))) == []
    assert compile_expression("1 + 0*exp(2)", 2).partials(np.zeros((3, 2))) == []
    assert compile_expression("3*x2 - x1/4", 2).partials(np.ones((3, 2))) == \
        [(0, -0.25), (1, 3.0)]
    np.testing.assert_array_equal(
        compile_expression("3*x2", 2).gradient(np.ones((2, 3, 2))),
        np.broadcast_to([0.0, 3.0], (2, 3, 2)))


def _fd_gap(expr, x, step=1e-5):
    """|compiled gradient - central differences| at x, and the bound of the
    differences' own error: four times Richardson's estimate of their
    truncation error (the step against twice the step) plus the rounding
    of two values of the size of those near x, over 2 step."""
    grad = expr.gradient(x)
    fd, fd2, size = [], [], 1.0
    for h in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[h] = step
        near = [expr(x + k * e) for k in (1, -1, 2, -2)]
        size = np.maximum(size, np.max(np.abs(near), axis=0))
        fd.append((near[0] - near[1]) / (2 * step))
        fd2.append((near[2] - near[3]) / (4 * step))
    fd, fd2 = np.stack(fd, axis=-1), np.stack(fd2, axis=-1)
    bound = 4.0 * np.abs(fd - fd2) + 1e3 * np.finfo(float).eps * size[..., None] / step
    return np.abs(grad - fd), bound


# every rule: the four operators, unary signs, the power with a constant
# exponent, with a constant base and with both variable, and exp, sin, cos
@pytest.mark.parametrize("text", [
    "x1 + x2", "x1 - x2", "-x1*x2", "+x1/x2", "x2/(1 + x1^2)", "1/x1",
    "x1^3", "x1^-1.5", "(x1*x2)^0.5", "2^x1", "x1^x2", "(x1 + x2)^(x1*x2)",
    "exp(x1*x2)", "sin(x1)*cos(x2)", "cos(x1^2 - x2)/exp(-x2)",
    "x1*(x2 - 3)^2 - 2*x1^2*x2", "-(x1^2)^0.25 + sin(3*x2)^3",
])
def test_gradient_matches_central_differences(text):
    x = np.random.default_rng(5).uniform(0.5, 1.5, size=(64, 2))
    gap, bound = _fd_gap(compile_expression(text, 2), x)
    assert np.all(gap <= bound) and np.max(bound) < 1e-6


# smooth trees: each denominator, power base and exponential takes an
# operand kept inside its domain (c + sin(t) with c >= 1.5, sin(t)), so the
# values and their derivatives are finite and moderate at every point
def _smooth(kids):
    def positive(t):
        return f"(1.5 + sin({t}))"

    return st.one_of(
        st.builds(lambda t, sign: f"{sign}({t})", kids, st.sampled_from("+-")),
        st.builds(lambda a, op, b: f"({a}) {op} ({b})", kids,
                  st.sampled_from("+-*"), kids),
        st.builds(lambda a, b: f"({a}) / {positive(b)}", kids, kids),
        st.builds(lambda a, c: f"{positive(a)}^{c}", kids,
                  st.sampled_from(["2", "3", "0.5", "-1.5", "(0-1)", "1.25"])),
        st.builds(lambda a, b: f"{positive(a)}^sin({b})", kids, kids),
        st.builds(lambda t: f"exp(sin({t}))", kids),
        st.builds(lambda fn, t: f"{fn}({t})", st.sampled_from(["sin", "cos"]),
                  kids))


_SMOOTH_TREES = st.recursive(
    st.one_of(st.sampled_from(["x1", "x2"]),
              st.sampled_from(["0.5", "1", "2", "0.75"])),
    _smooth, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_SMOOTH_TREES)
def test_random_smooth_trees_differentiate_exactly(text):
    x = np.array([[0.3, -1.7], [2.0, 0.0], [-0.5, 1e-3], [1.1, 0.9]])
    gap, bound = _fd_gap(compile_expression(text, 2), x)
    assert np.all(gap <= bound), (text, gap, bound)


def test_gradient_raises_no_warning_where_it_has_no_finite_value():
    # (x1^2)^0.25 is finite at x1 = 0, its derivative is not
    expr = compile_expression("1 + (x1^2)^0.25 + x2/x1", 2)
    x = np.array([[0.0, 1.0], [0.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad = expr.gradient(x)
    assert not np.isfinite(grad[0]).any() and np.isfinite(grad[1]).all()
    # a constant derivative over a zero constant is inf, not ZeroDivisionError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert compile_expression("x1/0", 2).partials(x) == [(0, np.inf)]


def test_gradient_evaluates_each_node_once(monkeypatch):
    # forward mode: sin nested 150 deep costs 150 sines and 150 cosines a
    # gradient, where differentiating each level from its operand's value
    # would cost about 150^2 / 2 sines
    from freqlab import expressions

    calls = []
    fn, slope = expressions._FUNCTIONS["sin"]

    def counted(a, fn=fn):
        calls.append(a)
        return fn(a)

    monkeypatch.setitem(expressions._FUNCTIONS, "sin", (counted, slope))
    expr = compile_expression("sin(" * 150 + "x1" + ")" * 150, 2)
    x = np.array([[0.3, 0.2], [1.0, -1.0]])
    grad = expr.gradient(x)
    assert len(calls) == 150
    want, d = x[:, 0], np.ones(2)
    for _ in range(150):
        want, d = np.sin(want), np.cos(want) * d
    assert grad[:, 0].tobytes() == d.tobytes() and not grad[:, 1].any()
