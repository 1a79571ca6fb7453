"""Small vectorized expression grammar for scenario files.

Supported: numbers, variables (x1, x2, t; k, u in flux forms), + - * / ^,
parentheses, comparisons (< <= > >=) producing 0/1 masks, and the function
set sign, abs, H, sin, cos, exp, sqrt, min, max, Cantor.  Parsing errors carry
line/column positions; a variable the compiling wrapper does not allow is a
parse error on the line.  An expression is parsed into a small tuple tree, which
is compiled once into closures, or into buffers (`Expr.into`), and can be asked
for its polynomial degree in a variable (`Expr.poly_degree`).
"""

from __future__ import annotations

import operator
from functools import partial

import numpy as np

from .cantor import MIDDLE_THIRDS, cantor_function
from .errors import ScenarioParseError, ScenarioValidationError

_FUNCS = {
    "sign": np.sign,
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "H": lambda x: np.where(x > 0, 1.0, np.where(x < 0, 0.0, 0.5)),
    "min": np.minimum,
    "max": np.maximum,
}
# tree operator or function name -> the ufunc it applies to arrays
_UFUNCS = {"neg": np.negative, "+": np.add, "-": np.subtract, "*": np.multiply,
           "/": np.true_divide, "^": np.power, "<": np.less, "<=": np.less_equal,
           ">": np.greater, ">=": np.greater_equal,
           **{name: f for name, f in _FUNCS.items() if isinstance(f, np.ufunc)}}
# tree operator or function name -> its closure's callable (constants stay floats)
_OPS = {"neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "^": np.power, **_FUNCS,
        **{op: (lambda a, b, f=_UFUNCS[op]: np.asarray(f(a, b), dtype=float))
           for op in ("<", "<=", ">", ">=")}}


class _Tok:
    def __init__(self, kind, text, col):
        self.kind = kind
        self.text = text
        self.col = col


def _tokenize(src, line=None):
    toks = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE" and j + 1 < n and (src[j + 1].isdigit()
                                                           or src[j + 1] in "+-"):
                j += 2
                while j < n and src[j].isdigit():
                    j += 1
            try:
                float(src[i:j])
            except ValueError:
                raise ScenarioParseError(f"malformed number {src[i:j]!r}", line=line,
                                         col=i + 1) from None
            toks.append(_Tok("num", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("name", src[i:j], i))
            i = j
            continue
        if src[i:i + 2] in ("<=", ">="):
            toks.append(_Tok("op", src[i:i + 2], i))
            i += 2
            continue
        if c in "+-*/^(),<>":
            toks.append(_Tok("op", c, i))
            i += 1
            continue
        raise ScenarioParseError(f"unexpected character {c!r}", line=line, col=i + 1)
    toks.append(_Tok("end", "", n))
    return toks


class Expr:
    """Parsed expression: call with an environment dict of arrays/scalars.

    `tree` is the parse tree: ("num", value), ("var", name), or
    (operator or function name, *operand trees).
    """

    def __init__(self, tree, cantor, source):
        self.tree = tree
        self.cantor = cantor
        self.fn = _compile(tree, cantor)
        self.source = source

    def __call__(self, env):
        return self.fn(env)

    def into(self, shapes):
        """env -> value for variables of the given shapes ({name: shape}): the
        closures' ufuncs on the same operands in the same order, so their values
        bit for bit, into buffers allocated here once (H and Cantor allocate as
        their closures do).  The value, of the shapes' broadcast shape, is a
        buffer that the next call overwrites."""
        out = np.empty(np.broadcast_shapes(*shapes.values()))
        fn = _compile(self.tree, self.cantor, shapes, out)
        if self.tree[0] in _UFUNCS and _variables(self.tree):
            return fn                       # the root writes into out
        return lambda env: np.copyto(out, fn(env)) or out   # copyto returns None

    def poly_degree(self, var):
        """Degree in `var` as written (an upper bound), or None when the
        expression is not a polynomial in `var`."""
        return _degree(self.tree, var)

    def __repr__(self):
        return f"Expr({self.source!r})"


def _compile(node, cantor, shapes=None, out=None):
    """Closure evaluating `node`; operands are evaluated left to right.  With
    shapes (Expr.into), a ufunc node with variables writes into out or into
    a buffer of its own."""
    op = node[0]
    if op == "num":
        return lambda env, v=node[1]: v
    if op == "var":
        return lambda env, n=node[1]: env[n]
    f = (lambda x: cantor(np.asarray(x, dtype=float))) if op == "Cantor" else _OPS[op]
    if shapes is not None and op in _UFUNCS and _variables(node):
        shape = np.broadcast_shapes(*(shapes[v] for v in _variables(node)))
        f = partial(_UFUNCS[op], out=np.empty(shape) if out is None else out)
    a = _compile(node[1], cantor, shapes)
    if len(node) == 2:
        return lambda env, f=f, a=a: f(a(env))
    return lambda env, f=f, a=a, b=_compile(node[2], cantor, shapes): f(a(env), b(env))


def _variables(node):
    if node[0] == "var":
        return {node[1]}
    if node[0] == "num":
        return set()
    return set().union(*map(_variables, node[1:]))


def _constant(node, cantor):
    """Value of a tree without variables."""
    with np.errstate(all="ignore"):
        return _compile(node, cantor)({})


def _degree(node, var):
    op = node[0]
    if op == "num":
        return 0
    if op == "var":
        return int(node[1] == var)
    degs = [_degree(child, var) for child in node[1:]]
    if None in degs:
        return None
    if op in ("neg", "+", "-"):
        return max(degs)
    if op == "*":
        return degs[0] + degs[1]
    if op == "/":
        return degs[0] if degs[1] == 0 else None
    if max(degs) == 0:
        return 0
    if op == "^" and degs[1] == 0 and node[2][0] == "num":
        n = node[2][1]
        return degs[0] * int(n) if n >= 0 and n.is_integer() else None
    return None   # var inside a function, a comparison, or a non-literal power


def parse_expr(src, line=None, cantor_spec=None):
    toks = _tokenize(src, line)
    pos = [0]
    cantor = cantor_function(cantor_spec or MIDDLE_THIRDS)

    def peek():
        return toks[pos[0]]

    def take(text=None):
        t = toks[pos[0]]
        if text is not None and t.text != text:
            raise ScenarioParseError(f"expected {text!r}, got {t.text!r}", line, t.col + 1)
        pos[0] += 1
        return t

    def at_op(texts):
        return peek().kind == "op" and peek().text in texts

    def comparison():
        left = addsub()
        if at_op(("<", "<=", ">", ">=")):
            return (take().text, left, addsub())
        return left

    def addsub():
        node = muldiv()
        while at_op("+-"):
            node = (take().text, node, muldiv())
        return node

    def muldiv():
        node = unary()
        while at_op("*/"):
            op, col = take().text, peek().col
            rhs = unary()
            if op == "/" and not _variables(rhs) and _constant(rhs, cantor) == 0:
                raise ScenarioParseError("division by a constant zero", line, col + 1)
            node = (op, node, rhs)
        return node

    def unary():
        if at_op("-"):
            take()
            return ("neg", unary())
        if at_op("+"):
            take()
            return unary()
        base = atom()
        if at_op("^"):
            take()
            return ("^", base, unary())
        return base

    def atom():
        t = take()
        if t.kind == "num":
            return ("num", float(t.text))
        if t.kind == "name":
            if t.text == "pi":
                return ("num", np.pi)
            if not at_op("("):
                return ("var", t.text)
            take()
            args = [comparison()]
            if t.text in ("min", "max"):
                take(text=",")
                args.append(comparison())
            take(text=")")
            if t.text not in _FUNCS and t.text != "Cantor":
                raise ScenarioParseError(f"unknown function {t.text!r}", line, t.col + 1)
            return (t.text, *args)
        if t.kind == "op" and t.text == "(":
            node = comparison()
            take(text=")")
            return node
        raise ScenarioParseError(f"unexpected token {t.text!r}", line, t.col + 1)

    tree = comparison()
    if peek().kind != "end":
        t = peek()
        raise ScenarioParseError(f"trailing input {t.text!r}", line, t.col + 1)
    return Expr(tree, cantor, src)


def _parse_in(src, names, line=None, cantor_spec=None):
    """parse_expr, and a parse error naming the line for any variable not in names."""
    e = parse_expr(src, line, cantor_spec)
    unknown = sorted(_variables(e.tree) - set(names))
    if unknown:
        raise ScenarioParseError(f"unknown variable {unknown[0]!r} in {src!r}; "
                                 f"this value may use {', '.join(names)}", line)
    return e


_COORDS = ("x1", "x2")


def compile_field(src, line=None, cantor_spec=None, dim=2):
    """Comma-separated component expressions, one per axis -> (pts, t) -> (n, dim)."""
    exprs = [_parse_in(p, _COORDS[:dim] + ("t",), line, cantor_spec) for p in _split_top(src)]
    if len(exprs) != dim:
        raise ScenarioValidationError(f"line {line}: {src!r} needs {dim} component(s)")

    def fn(pts, t):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        env = {"x1": pts[:, 0], "t": t}
        if pts.shape[1] > 1:
            env["x2"] = pts[:, 1]
        # every column before out: out must not sit beside their temporaries
        cols = [e(env) for e in exprs]
        out = np.empty((len(pts), dim))
        for j, col in enumerate(cols):
            out[:, j] = col                 # a constant component broadcasts
        return out

    return fn, exprs


def compile_scalar(src, line=None, cantor_spec=None, dim=2):
    """Single expression -> (pts, t) -> (n,)."""
    e = _parse_in(src, _COORDS[:dim] + ("t",), line, cantor_spec)

    def fn(pts, t=0.0):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        env = {"x1": pts[:, 0], "t": t}
        if pts.shape[1] > 1:
            env["x2"] = pts[:, 1]
        out = np.asarray(e(env), dtype=float)
        if out.shape != (len(pts),) or any(out is v for v in env.values()):
            # broadcast, and never hand back the caller's array (a bare `x1` or `t`)
            out = np.broadcast_to(out, (len(pts),)).copy()
        return out

    return fn, e


def compile_uv(src, line=None):
    """Expression in (k, u) -> vectorized fn(k, u) (flux forms), with fn.expr = e."""
    e = _parse_in(src, ("k", "u"), line)

    def fn(k, u):
        k = np.asarray(k, dtype=float)
        u = np.asarray(u, dtype=float)
        out = np.asarray(e({"k": k, "u": u}), dtype=float)
        shape = u.shape if k.shape in ((), u.shape) else np.broadcast_shapes(k.shape, u.shape)
        if out.shape != shape or out is k or out is u:
            # broadcast, and never hand back the caller's array (a bare `u`)
            out = np.broadcast_to(out, shape).copy()
        return out if out.ndim else out[()]

    fn.expr = e
    return fn, e


def compile_of_t(src, line=None):
    e = _parse_in(src, ("t",), line)

    def fn(t):
        t = np.asarray(t, dtype=float)
        return np.asarray(e({"t": t}), dtype=float) * np.ones_like(t)

    return fn, e


def _split_top(src):
    """Split on top-level commas (not inside parentheses)."""
    parts = []
    depth = 0
    cur = []
    for ch in src:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]
