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
"""

import ast
import math
import operator
import re
import warnings

import numpy as np

__all__ = ["ExpressionError", "compile_expression", "MAX_DEPTH"]

MAX_DEPTH = 200  # CPython's own limit on nested parentheses

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
# names match first, so the digits of x12 are never read as a number
_WORD_RE = re.compile(r"[A-Za-z_]\w*|" + _NUMBER_RE.pattern, re.ASCII)
_POINT_RE = re.compile(r"(?<![\w.])(\d+)\.(?![\w.])", re.ASCII)
_CHARS_RE = re.compile(r"[0-9A-Za-z_.+\-*/^()\s]*")
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_FUNCTIONS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}


class ExpressionError(ValueError):
    """Raised for syntax errors or unknown names in a field expression."""


def _compile(node, text, names, depth=0):
    """Closure env -> value for a whitelisted `node`, or its value when it
    holds no variable; ExpressionError otherwise."""
    if depth > MAX_DEPTH:
        raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels")
    sub = lambda child: _compile(child, text, names, depth + 1)  # noqa: E731
    literal = text[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _apply(_BINOPS[type(node.op)], literal, sub(node.left), sub(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.USub, ast.UAdd):
        arg = sub(node.operand)
        return _apply(operator.neg, literal, arg) if isinstance(node.op, ast.USub) else arg
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1
            and not node.keywords):
        return _apply(_FUNCTIONS[node.func.id], literal, sub(node.args[0]))
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise ExpressionError(
                f"unknown name {node.id!r}; allowed: {sorted(names)} "
                f"and functions {sorted(_FUNCTIONS)}")
        return lambda env: env[node.id]
    if isinstance(node, ast.Constant) and _NUMBER_RE.fullmatch(literal):
        return _finite(float(literal), literal)
    raise ExpressionError(f"not in the expression grammar: {literal!r}")


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


def _finite(value, literal):
    if not isinstance(value, float) or not math.isfinite(value):
        raise ExpressionError(f"constant {_shown(literal)!r} is {value}, "
                              f"not a finite real number")
    return value


def _shown(code):
    """`code` as the grammar spells it: ^ for **, no point after integers."""
    return _POINT_RE.sub(r"\1", code).replace("**", "^")


def compile_expression(text, dim):
    """Compile `text` into fn(x) evaluating on points.

    `x` is an array of shape (..., dim); variables x1..x<dim> bind to its
    components.
    """
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
    evaluate = _compile(tree.body, code, names)
    if not callable(evaluate):
        evaluate = lambda env, value=evaluate: value  # noqa: E731

    def fn(x):
        x = np.asarray(x, dtype=float)
        val = evaluate({f"x{i + 1}": x[..., i] for i in range(dim)})
        return np.broadcast_to(val, x.shape[:-1]).astype(float, copy=True) \
            if np.ndim(val) == 0 else val

    fn.source = text
    return fn
