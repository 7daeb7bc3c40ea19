"""Tiny arithmetic expression grammar for config-defined scalar fields.

Supported: numbers, + - * / ^ (right-associative), parentheses, unary
minus and plus, the functions exp/sin/cos, and the variables x1..xN.
Whitespace, line breaks included, separates tokens.  Python's parser reads
the text with `^` spelled `**` (the same precedence and associativity); the
tree is accepted only if every node is the grammar's and it nests at most
`MAX_DEPTH` deep.  The checked tree compiles to closures over numpy
arrays, every number read as a float; the text itself is never executed.
Each subtree free of variables is evaluated once, at compile time, and must
give a finite real number (so `1/0`, `(0-8)^(1/3)` and `exp(1000)` are
rejected before any numerics run).

The same walk compiles a tangent closure, which evaluates the tree once
with its first partial derivatives (forward mode), one rule per grammar
node: sums, products, quotients, unary signs, `a^b` with and without the
variable in the exponent, and the chain rule through exp/sin/cos.  So the
gradient is exact to round-off and comes from the tree that was checked.  A
subtree free of a variable has derivative 0 at compile time and is skipped.
"""

import ast
import math
import operator
import re
import warnings

import numpy as np

__all__ = ["ExpressionError", "Expression", "compile_expression", "MAX_DEPTH"]

MAX_DEPTH = 200  # CPython's own limit on nested parentheses

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
# names match first, so the digits of x12 are never read as a number
_WORD_RE = re.compile(r"[A-Za-z_]\w*|" + _NUMBER_RE.pattern, re.ASCII)
_POINT_RE = re.compile(r"(?<![\w.])(\d+)\.(?![\w.])", re.ASCII)
_CHARS_RE = re.compile(r"[0-9A-Za-z_.+\-*/^()\s]*")
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
# each function f with f'(a), given a and f(a)
_FUNCTIONS = {"exp": (np.exp, lambda a, value: value),
              "sin": (np.sin, lambda a, value: np.cos(a)),
              "cos": (np.cos, lambda a, value: -np.sin(a))}


class ExpressionError(ValueError):
    """Raised for syntax errors or unknown names in a field expression."""


def _compile(node, text, names, depth=0):
    """(value, tangent) of a whitelisted `node`; ExpressionError otherwise.

    The value is a closure env -> value, or, when the node holds no
    variable, the value itself and tangent None.  Otherwise tangent is a
    closure env -> (value, partials), which evaluates the node once with
    its first derivatives: partials maps each variable the node holds to
    the derivative in it, and a variable absent from it has derivative 0.
    """
    if depth > MAX_DEPTH:
        raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels")
    sub = lambda child: _compile(child, text, names, depth + 1)  # noqa: E731
    literal = text[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        left, right = sub(node.left), sub(node.right)
        fn = _BINOPS[type(node.op)]
        return (_apply(fn, literal, left[0], right[0]),
                _tangent(fn, _DERIVATIVES[type(node.op)], left, right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.USub, ast.UAdd):
        arg = sub(node.operand)
        if isinstance(node.op, ast.UAdd):
            return arg
        return (_apply(operator.neg, literal, arg[0]),
                _tangent(operator.neg, lambda a, da, value: -da, arg))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1
            and not node.keywords):
        fn, slope = _FUNCTIONS[node.func.id]
        arg = sub(node.args[0])
        # the chain rule: f'(a) a'
        return (_apply(fn, literal, arg[0]),
                _tangent(fn, lambda a, da, value: slope(a, value) * da, arg))
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise ExpressionError(
                f"unknown name {node.id!r}; allowed: {sorted(names)} "
                f"and functions {sorted(_FUNCTIONS)}")
        return (lambda env: env[node.id],
                lambda env: (env[node.id], {node.id: _ONE}))
    if isinstance(node, ast.Constant) and _NUMBER_RE.fullmatch(literal):
        return _finite(float(literal), literal), None
    raise ExpressionError(f"not in the expression grammar: {literal!r}")


_ONE = np.float64(1.0)  # d x_h / d x_h; a numpy float, so 1/0 is inf, not an error


def _apply(fn, literal, *args):
    """fn over the compiled `args`: a closure if any of them is one, else
    the value, computed now."""
    if not any(map(callable, args)):
        try:
            with np.errstate(all="ignore"):
                value = fn(*args)
        except ArithmeticError as exc:  # 1/0, 10^400
            raise ExpressionError(f"constant {_shown(literal)!r} has no value: "
                                  f"{exc.args[-1]}") from None
        return _finite(value, literal)
    # a constant operand enters the closure as a function returning it
    f, *g = [a if callable(a) else (lambda env, a=a: a) for a in args]
    if not g:
        return lambda env: fn(f(env))
    return lambda env: fn(f(env), g[0](env))


def _tangent(fn, rule, *args):
    """The tangent closure of fn over the compiled `args` (value, tangent),
    with `rule` giving the node's derivative from its operands' values and
    derivatives and its own value; None when no operand holds a variable."""
    if all(t is None for _, t in args):
        return None
    # a constant operand enters as a tangent returning it, with no partials
    ts = [t if t is not None else (lambda env, v=v: (v, {})) for v, t in args]
    if len(ts) == 1:
        (ta,) = ts

        def tangent(env):
            va, da = ta(env)
            value = fn(va)
            return value, {h: rule(va, d, value) for h, d in da.items()}
        return tangent
    ta, tb = ts

    def tangent(env):
        (va, da), (vb, db) = ta(env), tb(env)
        value = fn(va, vb)
        return value, {h: rule(va, da.get(h), vb, db.get(h), value)
                       for h in da.keys() | db.keys()}
    return tangent


# d(a op b) from the operands' values a, b, their derivatives da, db (None
# where that operand is free of the variable; one at least is not) and the
# value of a op b


def _d_add(a, da, b, db, value):
    return db if da is None else da if db is None else da + db


def _d_sub(a, da, b, db, value):
    return -db if da is None else da if db is None else da - db


def _d_mul(a, da, b, db, value):
    return a * db if da is None else da * b if db is None else da * b + a * db


def _d_div(a, da, b, db, value):
    if db is None:
        return da / b
    q_db = value * db  # (a/b)' = (a' - (a/b) b') / b
    return (-q_db if da is None else da - q_db) / b


def _d_pow(a, da, b, db, value):
    if db is None:  # an exponent free of the variable: b a^(b-1) a'
        return b * a ** (b - 1.0) * da
    if da is None:  # a base free of the variable: a^b ln(a) b'
        return value * np.log(a) * db
    return value * (db * np.log(a) + b * da / a)


_DERIVATIVES = {ast.Add: _d_add, ast.Sub: _d_sub, ast.Mult: _d_mul,
                ast.Div: _d_div, ast.Pow: _d_pow}


def _finite(value, literal):
    if not isinstance(value, float) or not math.isfinite(value):
        raise ExpressionError(f"constant {_shown(literal)!r} is {value}, "
                              f"not a finite real number")
    return value


def _shown(code):
    """`code` as the grammar spells it: ^ for **, no point after integers."""
    return _POINT_RE.sub(r"\1", code).replace("**", "^")


class Expression:
    """A compiled expression over x1..x<dim>.

    `expr(x)` evaluates it on points x of shape (..., dim), the variables
    x1..x<dim> binding to the components; `gradient(x)` is its gradient
    there, shape (..., dim), and `partials(x)` its nonzero partials.
    """

    def __init__(self, evaluate, tangent, dim):
        self._evaluate = evaluate
        self._tangent = tangent
        self.dim = dim

    def _env(self, x):
        return {f"x{i + 1}": x[..., i] for i in range(self.dim)}

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        val = self._evaluate(self._env(x))
        return np.broadcast_to(val, x.shape[:-1]).astype(float, copy=True) \
            if np.ndim(val) == 0 else val

    def partials(self, x):
        """[(h, d/dx_{h+1})] at x, in order of h, for each variable the
        expression holds, from one pass over its tree; each derivative is
        an array of shape x.shape[:-1] or a scalar.  The rest are
        identically 0.  Where a derivative has no finite value (0^0.5 has
        none) it is inf or NaN, without a warning."""
        if self._tangent is None:
            return []
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            _, partials = self._tangent(self._env(x))
        return sorted((int(name[1:]) - 1, d) for name, d in partials.items())

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for h, d in self.partials(x):
            out[..., h] = d
        return out


def compile_expression(text, dim):
    """Compile `text` into an `Expression` over x1..x<dim>."""
    names = {f"x{i + 1}" for i in range(dim)}
    if not _CHARS_RE.fullmatch(text) or "**" in text:
        raise ExpressionError(f"character or '**' outside the grammar in {text!r}")
    # Python refuses the integers 07 and those past 4300 digits, but reads
    # them as the grammar does (as floats) once they end in a point.
    code = _WORD_RE.sub(lambda m: m[0] + "." if m[0].isdigit() else m[0],
                        " ".join(text.split())).replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # e.g. "2(3)": a call, rejected below
            tree = ast.parse(code, mode="eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ExpressionError(
            f"cannot parse expression {text!r}: {getattr(exc, 'msg', exc)}") from None
    evaluate, tangent = _compile(tree.body, code, names)
    if not callable(evaluate):
        evaluate = lambda env, value=evaluate: value  # noqa: E731
    return Expression(evaluate, tangent, dim)
