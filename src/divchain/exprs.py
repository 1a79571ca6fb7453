"""Small vectorized expression grammar for scenario files.

Supported: numbers, variables (x1, x2, t, k, u, v), + - * / ^, parentheses,
comparisons (< <= > >=) producing 0/1 masks, and the function set
sign, abs, H, sin, cos, exp, sqrt, min, max, Cantor.  Parsing errors carry
line/column positions.
"""

from __future__ import annotations

import numpy as np

from .cantor import MIDDLE_THIRDS, cantor_function
from .errors import ScenarioParseError

_FUNCS = {
    "sign": np.sign,
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "H": lambda x: np.where(x > 0, 1.0, np.where(x < 0, 0.0, 0.5)),
}
_FUNCS2 = {
    "min": np.minimum,
    "max": np.maximum,
}


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
    """Compiled expression: call with an environment dict of arrays/scalars."""

    def __init__(self, fn, variables, source):
        self.fn = fn
        self.variables = variables
        self.source = source

    def __call__(self, env):
        return self.fn(env)

    def __repr__(self):
        return f"Expr({self.source!r})"


def parse_expr(src, line=None, cantor_spec=None):
    toks = _tokenize(src, line)
    pos = [0]
    variables = set()
    cantor = cantor_function(cantor_spec or MIDDLE_THIRDS)

    def peek():
        return toks[pos[0]]

    def take(kind=None, text=None):
        t = toks[pos[0]]
        if kind is not None and t.kind != kind:
            raise ScenarioParseError(f"expected {kind}, got {t.text!r}", line, t.col + 1)
        if text is not None and t.text != text:
            raise ScenarioParseError(f"expected {text!r}, got {t.text!r}", line, t.col + 1)
        pos[0] += 1
        return t

    def comparison():
        left = addsub()
        t = peek()
        if t.kind == "op" and t.text in ("<", "<=", ">", ">="):
            take()
            right = addsub()
            op = t.text

            def cmp(env, left=left, right=right, op=op):
                a, b = left(env), right(env)
                if op == "<":
                    m = np.less(a, b)
                elif op == "<=":
                    m = np.less_equal(a, b)
                elif op == ">":
                    m = np.greater(a, b)
                else:
                    m = np.greater_equal(a, b)
                return np.asarray(m, dtype=float)

            return cmp
        return left

    def addsub():
        node = muldiv()
        while peek().kind == "op" and peek().text in "+-":
            op = take().text
            right = muldiv()
            if op == "+":
                node = (lambda env, a=node, b=right: a(env) + b(env))
            else:
                node = (lambda env, a=node, b=right: a(env) - b(env))
        return node

    def muldiv():
        node = unary()
        while peek().kind == "op" and peek().text in "*/":
            op = take().text
            right = unary()
            if op == "*":
                node = (lambda env, a=node, b=right: a(env) * b(env))
            else:
                node = (lambda env, a=node, b=right: a(env) / b(env))
        return node

    def unary():
        t = peek()
        if t.kind == "op" and t.text == "-":
            take()
            node = unary()
            return lambda env, a=node: -a(env)
        if t.kind == "op" and t.text == "+":
            take()
            return unary()
        return power()

    def power():
        base = atom()
        if peek().kind == "op" and peek().text == "^":
            take()
            expo = unary()
            return lambda env, a=base, b=expo: np.power(a(env), b(env))
        return base

    def atom():
        t = peek()
        if t.kind == "num":
            take()
            val = float(t.text)
            return lambda env, v=val: v
        if t.kind == "name":
            take()
            name = t.text
            if name == "pi":
                return lambda env: np.pi
            if peek().kind == "op" and peek().text == "(":
                take()
                if name in _FUNCS2:
                    a = comparison()
                    take(text=",")
                    b = comparison()
                    take(text=")")
                    f = _FUNCS2[name]
                    return lambda env, a=a, b=b, f=f: f(a(env), b(env))
                arg = comparison()
                take(text=")")
                if name in _FUNCS:
                    f = _FUNCS[name]
                    return lambda env, a=arg, f=f: f(a(env))
                if name == "Cantor":
                    return lambda env, a=arg: cantor(np.asarray(a(env), dtype=float))
                raise ScenarioParseError(f"unknown function {name!r}", line, t.col + 1)
            variables.add(name)
            return lambda env, n=name: env[n]
        if t.kind == "op" and t.text == "(":
            take()
            node = comparison()
            take(text=")")
            return node
        raise ScenarioParseError(f"unexpected token {t.text!r}", line, t.col + 1)

    node = comparison()
    if peek().kind != "end":
        t = peek()
        raise ScenarioParseError(f"trailing input {t.text!r}", line, t.col + 1)
    return Expr(node, variables, src)


def compile_field(src, line=None, cantor_spec=None):
    """Comma-separated component expressions -> (pts, t) -> (n, ncomp)."""
    parts = _split_top(src)
    exprs = [parse_expr(p, line, cantor_spec) for p in parts]

    def fn(pts, t):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        env = {"x1": pts[:, 0], "t": t}
        if pts.shape[1] > 1:
            env["x2"] = pts[:, 1]
        cols = [np.broadcast_to(np.asarray(e(env), dtype=float), (len(pts),)).copy()
                for e in exprs]
        return np.column_stack(cols)

    return fn, exprs


def compile_scalar(src, line=None, cantor_spec=None, extra=()):
    """Single expression -> (pts, t) -> (n,)."""
    e = parse_expr(src, line, cantor_spec)

    def fn(pts, t=0.0, **kw):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        env = {"x1": pts[:, 0], "t": t}
        if pts.shape[1] > 1:
            env["x2"] = pts[:, 1]
        env.update(kw)
        return np.broadcast_to(np.asarray(e(env), dtype=float), (len(pts),)).copy()

    return fn, e


def compile_uv(src, line=None):
    """Expression in (k, u) -> vectorized fn(k, u) (flux forms)."""
    e = parse_expr(src, line)

    def fn(k, u):
        k = np.asarray(k, dtype=float)
        u = np.asarray(u, dtype=float)
        out = np.asarray(e({"k": k, "u": u}), dtype=float)
        shape = np.broadcast_shapes(k.shape, u.shape)
        if out.shape != shape or out is k or out is u:
            # broadcast, and never hand back the caller's array (a bare `u`)
            out = np.broadcast_to(out, shape).copy()
        return out if out.ndim else out[()]

    return fn, e


def compile_of_t(src, line=None):
    e = parse_expr(src, line)

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
