import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divchain.cantor import MIDDLE_THIRDS, cantor_function
from divchain.errors import ScenarioParseError
from divchain.exprs import (_tokenize, compile_field, compile_of_t, compile_scalar, compile_uv,
                            parse_expr)


def ev(src, **env):
    return parse_expr(src)({k: np.asarray(v, dtype=float) for k, v in env.items()})


def test_arithmetic_and_precedence():
    assert ev("1 + 2*3") == 7.0
    assert ev("2^3 + 1") == 9.0
    assert ev("-x1^2", x1=2.0) == -4.0
    assert ev("(1+2)*(3-1)") == 6.0
    assert ev("7/2") == 3.5


def test_functions():
    assert ev("sign(-3)") == -1.0
    assert ev("H(2)") == 1.0 and ev("H(-2)") == 0.0 and ev("H(0)") == 0.5
    assert ev("abs(-2.5)") == 2.5
    assert np.isclose(ev("sin(pi/2)"), 1.0)
    assert np.isclose(ev("exp(0)"), 1.0)
    assert ev("min(2, 3)") == 2.0 and ev("max(2, 3)") == 3.0
    assert np.isclose(ev("Cantor(0.5)"), 0.5)


def test_comparisons_give_masks():
    got = parse_expr("x1 < 0")({"x1": np.array([-1.0, 0.0, 1.0])})
    assert np.array_equal(got, [1.0, 0.0, 0.0])


def test_vectorized_compilation():
    fn, _ = compile_scalar("sign(x1)*t + x1^2")
    pts = np.array([[-2.0], [3.0]])
    assert np.allclose(fn(pts, 2.0), [-2 + 4, 2 + 9])
    f2, exprs = compile_field("x1*t, x2")
    assert len(exprs) == 2
    out = f2(np.array([[1.0, 5.0]]), 3.0)
    assert np.allclose(out, [[3.0, 5.0]])
    fu, _ = compile_uv("k*u*(1-u)")
    assert np.allclose(fu(2.0, np.array([0.5, 1.0])), [0.5, 0.0])
    ft, _ = compile_of_t("1+t^2")
    assert np.allclose(ft(np.array([0.0, 2.0])), [1.0, 5.0])


def broadcasting_uv(e):
    """compile_uv's fn as it was: np.broadcast_shapes on every call."""
    def fn(k, u):
        k = np.asarray(k, dtype=float)
        u = np.asarray(u, dtype=float)
        out = np.asarray(e({"k": k, "u": u}), dtype=float)
        shape = np.broadcast_shapes(k.shape, u.shape)
        if out.shape != shape or out is k or out is u:
            out = np.broadcast_to(out, shape).copy()
        return out if out.ndim else out[()]
    return fn


@pytest.mark.parametrize("src", ["k*u*(1-u)", "k*u^2/2", "u", "k", "0.25", "1 + 2"])
@pytest.mark.parametrize("k, u", [
    (1.5, [0.1, 0.7, 1.0]),                                   # a scalar k
    (1.5, 0.3),                                               # both scalars
    ([[1.0, 0.5, 2.0], [2.0, 2.0, 1.0]], [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),  # equal shapes
    ([[1.0], [0.5]], [0.1, 0.9, 0.4]),                        # (n, 1) against (m,)
    ([1.0, 0.5, 2.0], 0.6),                                   # a scalar u
])
def test_compile_uv_matches_the_broadcasting_form(src, k, u):
    fn, e = compile_uv(src)
    k, u = np.asarray(k, dtype=float), np.asarray(u, dtype=float)
    got, want = fn(k, u), broadcasting_uv(e)(k, u)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.all(got == want)
    # never the caller's array, not even for a bare `u` or `k`
    assert got is not u and got is not k


@pytest.mark.parametrize("src", ["x1", "x2", "t", "-0.5", "x1 < 0.5", "x2 * t"])
def test_compile_scalar_returns_a_fresh_n_array(src):
    # a bare variable or a constant is copied; a computed result is its own array
    pts, t = np.array([[0.25, 1.0], [0.75, 2.0]]), np.array([3.0, 4.0])
    want = {"x1": [0.25, 0.75], "x2": [1.0, 2.0], "t": [3.0, 4.0], "-0.5": [-0.5, -0.5],
            "x1 < 0.5": [1.0, 0.0], "x2 * t": [3.0, 8.0]}[src]
    out = compile_scalar(src)[0](pts, t)
    assert out.shape == (2,) and out.flags.writeable
    out += 10.0
    assert np.array_equal(pts, [[0.25, 1.0], [0.75, 2.0]]) and np.array_equal(t, [3.0, 4.0])
    assert np.array_equal(out - 10.0, want)


@pytest.mark.parametrize("src, dim", [("1, x1*t", 2), ("x2 - t, 0", 2), ("-x1*t^2", 1)])
def test_compile_field_matches_column_stack(src, dim):
    fn, exprs = compile_field(src, dim=dim)
    pts = np.random.default_rng(3).uniform(-1, 1, (9, dim))
    for t in (0.0, -1.5, np.linspace(-2, 2, 9)):
        env = {"x1": pts[:, 0], "t": t, **({"x2": pts[:, 1]} if dim == 2 else {})}
        want = np.column_stack([np.broadcast_to(np.asarray(e(env), dtype=float),
                                                (len(pts),)).copy() for e in exprs])
        got = fn(pts, t)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_parse_errors_carry_positions():
    with pytest.raises(ScenarioParseError) as e:
        parse_expr("1 + $", line=7)
    assert e.value.line == 7 and e.value.col == 5
    with pytest.raises(ScenarioParseError):
        parse_expr("sin(1")
    with pytest.raises(ScenarioParseError):
        parse_expr("unknownfn(1)")
    with pytest.raises(ScenarioParseError):
        parse_expr("1 2")


def test_only_a_constant_zero_divisor_is_a_parse_error():
    assert parse_expr("1/(2-1)")({}) == 1.0
    with np.errstate(all="ignore"):     # a divisor with variables is left to the values
        assert np.isnan(parse_expr("x1/(t-t)")({"x1": np.zeros(3), "t": np.zeros(3)})).all()


@pytest.mark.parametrize("compile_fn, src", [(compile_scalar, "x1 + k"),
                                             (compile_field, "x1, y"),
                                             (compile_uv, "k*u*(1-w)"),
                                             (compile_of_t, "t*x1")])
def test_unknown_variables_are_parse_errors(compile_fn, src):
    # each value names the variables it may use; any other name is an error
    # on the value's line, before anything is evaluated
    with pytest.raises(ScenarioParseError, match=r"^line 4: unknown variable") as e:
        compile_fn(src, 4)
    assert e.value.col is None


# -- the closure-building parser this module's tree compiler replaced -------
# It builds each closure while parsing; the tree-compiled expressions must
# give the same values bit for bit, with the same shape and dtype.

_REF_FUNCS = {
    "sign": np.sign,
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "H": lambda x: np.where(x > 0, 1.0, np.where(x < 0, 0.0, 0.5)),
}
_REF_FUNCS2 = {
    "min": np.minimum,
    "max": np.maximum,
}


def ref_parse_expr(src, line=None, cantor_spec=None):
    toks = _tokenize(src, line)
    pos = [0]
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
            start = pos[0]
            right = unary()
            # a divisor without variables (a variable is a KeyError here) that is 0
            if op == "/":
                try:
                    with np.errstate(all="ignore"):
                        zero = right({}) == 0
                except KeyError:
                    zero = False
                if zero:
                    raise ScenarioParseError("division by a constant zero", line,
                                             toks[start].col + 1)
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
                if name in _REF_FUNCS2:
                    a = comparison()
                    take(text=",")
                    b = comparison()
                    take(text=")")
                    f = _REF_FUNCS2[name]
                    return lambda env, a=a, b=b, f=f: f(a(env), b(env))
                arg = comparison()
                take(text=")")
                if name in _REF_FUNCS:
                    f = _REF_FUNCS[name]
                    return lambda env, a=arg, f=f: f(a(env))
                if name == "Cantor":
                    return lambda env, a=arg: cantor(np.asarray(a(env), dtype=float))
                raise ScenarioParseError(f"unknown function {name!r}", line, t.col + 1)
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
    return node


def _envs():
    """Arrays for every variable name, with t also as a scalar and at 0."""
    rng = np.random.default_rng(3)
    arr = {n: rng.uniform(-2.5, 2.5, 40) for n in ("x1", "x2", "t", "k", "u", "v")}
    arr["x1"][:6] = [0.0, -0.0, 1.0, 1.0 / 3.0, 2.0 / 3.0, 1.5]
    yield arr
    yield dict(arr, t=0.7)
    yield dict(arr, t=0.0)
    yield {n: np.float64(0.25) for n in arr}


def _outcome(fn, env):
    # the value, or the error a Python float raises (t / t at t = 0.0)
    try:
        return fn(env)
    except ArithmeticError as exc:
        return repr(exc)


def _same(src, cantor_spec=None):
    new = parse_expr(src, cantor_spec=cantor_spec)
    ref = ref_parse_expr(src, cantor_spec=cantor_spec)
    with np.errstate(all="ignore"):
        for env in _envs():
            a, b = _outcome(new, env), _outcome(ref, env)
            assert type(a) is type(b), src
            if isinstance(b, str):
                assert a == b, src
                continue
            assert np.shape(a) == np.shape(b) and np.asarray(a).dtype == np.asarray(b).dtype, src
            assert np.array_equal(a, b, equal_nan=True), src


def _bundled_expressions(monkeypatch):
    """(source, cantor spec) of every expression the bundled scenarios parse."""
    from divchain import exprs
    from divchain.cli import bundled_paths
    from divchain.scenario import load

    seen = []
    inner = exprs.parse_expr

    def recording(src, line=None, cantor_spec=None):
        seen.append((src, cantor_spec))
        return inner(src, line, cantor_spec)

    monkeypatch.setattr(exprs, "parse_expr", recording)
    for path in bundled_paths():
        load(path)
    return seen


def test_tree_compiler_matches_reference_on_bundled_corpus(monkeypatch):
    seen = _bundled_expressions(monkeypatch)
    assert len({s for s, _ in seen}) >= 70
    for src, spec in seen:
        _same(src, spec)


_ATOMS = st.sampled_from(["x1", "x2", "t", "u", "k", "pi", "0", "1", "2", "0.5", "3",
                          "1e-3", "2.5e1", ".25"])


def _compound(children):
    pair = st.tuples(children, children)
    return st.one_of(
        st.builds("({})".format, children),
        st.builds("-{}".format, children),
        st.builds("+{}".format, children),
        st.builds(lambda op, ab: f"{ab[0]} {op} {ab[1]}",
                  st.sampled_from(["+", "-", "*", "/", "^", "<", "<=", ">", ">="]), pair),
        st.builds(lambda f, a: f"{f}({a})",
                  st.sampled_from(["sign", "abs", "sin", "cos", "exp", "sqrt", "H",
                                   "Cantor"]), children),
        st.builds(lambda f, ab: f"{f}({ab[0]}, {ab[1]})", st.sampled_from(["min", "max"]),
                  pair),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_ATOMS, _compound, max_leaves=12))
def test_tree_compiler_matches_reference_on_generated_expressions(src):
    try:
        ref_parse_expr(src)
    except ScenarioParseError as exc:        # "a < b < c" is not in the grammar
        with pytest.raises(ScenarioParseError) as got:
            parse_expr(src)
        assert str(got.value) == str(exc)
        return
    _same(src)


@pytest.mark.parametrize("src", ["1 + $", "sin(1", "unknownfn(1)", "1 2", "neg(1)", "(",
                                 "min(1)", "sin(1, 2)", "2 *", ")", "x1 < 1 < 2", "^2",
                                 "pi(1)", "Cantor()", "x1 / 0", "1/(+0.0)", "2 * t / ((0))",
                                 "1/(1-1)", "x1/(2*0)", "t/sin(0)", "u/(1 < 0)",
                                 "k/Cantor(0)", "1/(-0)", "(1/(pi-pi))*t"])
def test_parse_errors_match_reference(src):
    with pytest.raises(ScenarioParseError) as ref:
        ref_parse_expr(src, line=3)
    with pytest.raises(ScenarioParseError) as got:
        parse_expr(src, line=3)
    assert (str(got.value), got.value.col) == (str(ref.value), ref.value.col)


POLY_DEGREES = [
    # (expression, degree in t, degree in x1)
    ("3", 0, 0),
    ("pi", 0, 0),
    ("t", 1, 0),
    ("x1", 0, 1),
    ("-t + 2*t", 1, 0),
    ("t*Cantor(x1)", 1, None),
    ("x1*(1+t)", 1, 1),
    ("(1+t^2)*sign(x1)", 2, None),
    ("x1^2*t^3 - t", 3, 2),
    ("t*t*x1", 2, 1),
    ("(1+t)*(x1-t)*x1", 2, 2),
    ("t/2", 1, 0),
    ("(t + x1)^3", 3, 3),
    ("t^(2)", 2, 0),
    ("t^0", 0, 0),
    ("x1^0.5*t", 1, None),
    ("x1/(1+x1)*t^2", 2, None),
    ("sign(t)", None, 0),
    ("sign(t-0.3)", None, 0),
    ("H(t)", None, 0),
    ("abs(t)", None, 0),
    ("min(t, 1)", None, 0),
    ("max(x1, t)", None, None),
    ("t < 1", None, 0),
    ("x1 >= 0", 0, None),
    ("exp(t)", None, 0),
    ("sqrt(t)", None, 0),
    ("t^0.5", None, 0),
    ("t^-1", None, 0),
    ("1/t", None, 0),
    ("t^2^2", None, 0),
    ("2^t", None, 0),
    ("t^x1", None, None),
    ("t^1e400", None, 0),
]


@pytest.mark.parametrize("src,deg_t,deg_x1", POLY_DEGREES)
def test_poly_degree_table(src, deg_t, deg_x1):
    e = parse_expr(src)
    assert (e.poly_degree("t"), e.poly_degree("x1")) == (deg_t, deg_x1)
