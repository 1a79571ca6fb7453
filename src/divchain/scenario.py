"""Declarative scenario files: the one reader of the format.

Format: '#' comments, [section] headers, key = value lines.  Values are
expressions in the grammar of exprs.py, lists separated by ',' or '|' or
';' depending on the key (documented in docs/scenario-format.md).  Every
key an experiment reads is parsed and checked when the Scenario is built,
so loading a file (`divchain validate`) rejects exactly what running it
would; the runner only executes the values built here.  Errors name the
line of the offending key.  Loading runs no solve and no adaptive
quadrature: it evaluates the flux, the entropy and the initial data on
probe grids, so that a value that is not finite there is an error naming
its line.  It also makes the solver's checks on each march: that its work
fits the solver's bound, before anything is allocated, and that the cell
averages of its initial data lie in the invariant region.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

import numpy as np

from .bvfunc import BVFunction, Piece
from .cantor import CantorPart, IFSSpec, MIDDLE_THIRDS
from .chainrule import ScalarFunction, green_indicators
from .conslaw import EntropyPair, FluxSpec, GridState
from .conslaw.diagnostics import kato_cells
from .conslaw.solver import DEFAULT_CFL, MAX_TRAJECTORY_FLOATS, in_invariant_region, step_count
from .errors import (BoundaryError, GeometryError, NotOnJumpSetError, ScenarioParseError,
                     ScenarioValidationError)
from .exprs import compile_field, compile_of_t, compile_scalar, compile_uv
from .field import ParamField, moll_point
from .geometry import Domain
from .measure import RadonMeasure
from .rectifiable import GraphCurve, JumpPoint, RectifiableSet, Segment

EXPERIMENTS = ("chain", "w11", "bv-scalar", "product", "anzellotti", "green",
               "moll", "sigma", "conslaw", "kato")


def _number(text, line):
    text = text.strip()
    try:
        if "/" in text:
            a, b = text.split("/")
            value = float(a) / float(b)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioParseError(f"not a number: {text!r}", line) from exc
    if not np.isfinite(value):
        raise ScenarioValidationError(f"line {line}: {text!r} is not a finite number")
    return value


def _interval(text, line):
    ends = text.split("..")
    if len(ends) != 2:
        raise ScenarioParseError(f"expected 'a .. b', got {text!r}", line)
    return (_number(ends[0], line), _number(ends[1], line))


def _positive(text, line, key):
    value = _number(text, line)
    if value <= 0:
        raise ScenarioValidationError(f"line {line}: {key} must be > 0")
    return value


def _numbers(text, line, key=None, n=None):
    """Comma-separated numbers; with n given, exactly n of them."""
    values = [_number(v, line) for v in text.split(",") if v.strip()]
    if n is not None and len(values) != n:
        raise ScenarioValidationError(f"line {line}: {key} needs {n} number(s)")
    return values


def _count(value, line, key):
    if not (value >= 1 and value.is_integer()):
        raise ScenarioValidationError(f"line {line}: {key} needs integers >= 1, got {value:g}")
    return int(value)


def _flag(sec, key, line):
    text = sec.get(key, "false").lower()
    if text not in ("true", "false"):
        raise ScenarioParseError(f"{key} must be true or false, got {text!r}", line)
    return text == "true"


def _of_x1(text, line, cantor_spec=None):
    """An expression in x1 alone, as a function of an array of abscissae."""
    f, _ = compile_scalar(text, line, cantor_spec, dim=1)
    return lambda x: f(np.asarray(x)[:, None])


def _finite_on(fn, probe, line, key, var):
    """fn, once its values at the probe points are all finite."""
    with np.errstate(all="ignore"):
        vals = np.broadcast_to(np.asarray(fn(probe), dtype=float), probe.shape)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ScenarioValidationError(f"line {line}: {key} is not finite at "
                                      f"{var} = {probe[bad[0]]:g}")
    return fn


def _initial_datum(text, line, key, domain):
    """u0 in x1, checked on the 33 cell centres of the domain's probe grid."""
    return _finite_on(_of_x1(text, line), domain.grid(33)[:, 0], line, key, "x1")


def _check_march(flux, domain, T, ncells, cfl, rows, line, data):
    """At load, the checks of the solver on a march of `rows` data to time T
    on ncells cells: its work, rows x (nsteps + 1) x ncells cell states, fits
    MAX_TRAJECTORY_FLOATS (the error names `line`), and each (key, line, fn)
    of data has cell averages in the invariant region u_range.  rows is 1 for
    a [conslaw] datum and 2 for a [kato] data pair: the Kato sweep marches all
    pairs at once, 2 x pairs rows of ncells + 2 floats, keeping only the
    interface cells, and the bound is on its work per pair."""
    (lo, hi), = domain.bounds
    steps = step_count(flux, T, (hi - lo) / ncells, cfl)
    if rows * (steps + 1) * ncells > MAX_TRAJECTORY_FLOATS:
        raise ScenarioValidationError(
            f"line {line}: the march to T = {T:g} (cfl {cfl:g}, max |dahat_du| {flux.M:.3g}) "
            f"holds {rows} x {steps + 1:.3g} x {ncells:.3g} floats (data x time levels x "
            f"cells), more than {MAX_TRAJECTORY_FLOATS:.3g}")
    for key, ln, fn in data:
        if not in_invariant_region(flux, GridState.from_function(domain, ncells, fn).averages):
            raise ScenarioValidationError(
                f"line {ln}: {key} has cell averages outside the invariant region "
                f"u_range = {flux.u_range[0]:g} .. {flux.u_range[1]:g}")


def _pieces_1d(raw, section, key, n, cantor_spec=None):
    """The n '|'-separated pieces in x1 of a 1-D piecewise function."""
    texts, ln = raw.require(section, key).split("|"), raw.line(section, key)
    if len(texts) != n:
        raise ScenarioValidationError(f"line {ln}: {key} needs {n} '|'-separated entries")
    return [_of_x1(t.strip(), ln, cantor_spec) for t in texts]


class RawScenario:
    def __init__(self, sections, lines):
        self.sections = sections
        self.lines = lines      # (section, key) -> line number, for error messages

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def line(self, section, key):
        return self.lines.get((section, key))

    def require(self, section, key):
        v = self.get(section, key)
        if v is None:
            raise ScenarioValidationError(f"[{section}] {key} is required")
        return v


def parse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


def parse_text(text):
    sections = {}
    lines = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.strip().startswith("["):
            name = line.strip()
            if not name.endswith("]"):
                raise ScenarioParseError("unterminated section header", ln, len(line))
            current = name[1:-1].strip()
            if current in sections:
                raise ScenarioParseError(f"duplicate section [{current}]", ln)
            sections[current] = {}
            continue
        if current is None:
            raise ScenarioParseError("content before first section", ln)
        if "=" not in line:
            raise ScenarioParseError("expected 'key = value'", ln, len(line))
        key, val = line.split("=", 1)
        key = key.strip()
        if key in sections[current]:
            raise ScenarioParseError(f"duplicate key {key!r} in [{current}]", ln)
        sections[current][key] = val.strip()
        lines[(current, key)] = ln
    if "scenario" not in sections:
        raise ScenarioParseError("missing [scenario] section", 1)
    return RawScenario(sections, lines)


# -- builders -----------------------------------------------------------

def build_domain(raw: RawScenario) -> Domain:
    dim_ln = raw.line("scenario", "dim")
    dim = _number(raw.require("scenario", "dim"), dim_ln)
    if dim not in (1, 2):
        raise ScenarioValidationError(f"line {dim_ln}: dim must be 1 or 2")
    dim = int(dim)
    spec = raw.require("scenario", "domain")
    ln = raw.line("scenario", "domain")
    axes = [a for a in spec.split(";") if a.strip()]
    if len(axes) != dim:
        raise ScenarioValidationError(f"line {ln}: domain needs {dim} interval(s)")
    bounds = tuple(_interval(a, ln) for a in axes)
    try:
        return Domain(dim, bounds)
    except ValueError as exc:
        raise ScenarioValidationError(f"line {ln}: domain: {exc}") from exc


def _parse_points(text, ln):
    pts, nus = [], []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        fields = item.split(":")
        if len(fields) != 2:
            raise ScenarioParseError(f"expected 'x : nu', got {item!r}", ln)
        pts.append(_number(fields[0], ln))
        nus.append(_number(fields[1], ln))
    # a measure keeps one component per key: the second point's mass would be lost
    seen = {}
    for x in pts:
        key = JumpPoint(x).key()
        if key in seen:
            raise ScenarioValidationError(f"line {ln}: points {seen[key]!r} and {x!r} agree to "
                                          "12 decimals, so they would be one jump point")
        seen[key] = x
    return pts, nus


def _parse_curves(text, ln, cantor_spec=None):
    curves = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        words = item.split()
        kind = words[0]
        if kind not in ("vline", "hline", "graph"):
            raise ScenarioParseError(f"unknown curve kind {kind!r}", ln)
        try:
            i_from = words.index("from")
            a = _number(words[i_from + 1], ln)
            b = _number(words[i_from + 3], ln)
            side = int(_number(words[words.index("side") + 1], ln))
            if kind == "graph":
                i_d = words.index("d")
                expr_txt = " ".join(words[1:i_d])
                f = _of_x1(expr_txt, ln, cantor_spec)
                df = _of_x1(" ".join(words[i_d + 1:i_from]), ln, cantor_spec)
                curves.append(GraphCurve(f, df, a, b, side, label=expr_txt))
            else:
                curves.append(Segment(("vline", "hline").index(kind), _number(words[1], ln),
                                      a, b, side))
        except (ValueError, IndexError) as exc:
            raise ScenarioParseError(f"malformed curve spec {item!r}", ln) from exc
    return curves


def build_singular(raw: RawScenario, domain: Domain, cantor_spec=None):
    sec = raw.sections.get("singular")
    if not sec:
        return RectifiableSet.empty(domain.dim)
    if domain.dim == 1:
        ln = raw.line("singular", "points")
        pts, nus = _parse_points(sec.get("points", ""), ln)
        lo, hi = domain.bounds[0]
        if not all(lo < p < hi for p in pts):
            raise ScenarioValidationError(f"line {ln}: a singular point lies outside the domain")
        return RectifiableSet(1, pts, nus)
    curves = _parse_curves(sec.get("curves", ""), raw.line("singular", "curves"), cantor_spec)
    for c in curves:
        s = np.linspace(c.s0, c.s1, 9)
        if not np.all(domain.contains_points(c.points(s))):
            raise ScenarioValidationError("singular curve exits the domain")
    return RectifiableSet(2, pieces=curves)


def build_cantor_spec(raw: RawScenario):
    base = raw.get("field", "cantor_base") or raw.get("u", "cantor_base")
    if base is None:
        return MIDDLE_THIRDS
    ln = raw.line("field", "cantor_base") or raw.line("u", "cantor_base")
    try:
        return IFSSpec(*_interval(base, ln))
    except ValueError as exc:
        raise ScenarioValidationError(f"line {ln}: {exc}") from exc


def build_field(raw: RawScenario, domain: Domain, singular: RectifiableSet,
                cantor_spec) -> ParamField:
    sec = raw.sections.get("field")
    if not sec:
        raise ScenarioValidationError("[field] section is required for this experiment")
    ln = lambda k: raw.line("field", k)
    dim = domain.dim
    b_fn, b_exprs = compile_field(raw.require("field", "b"), ln("b"), cantor_spec, dim)
    M = _number(raw.require("field", "M"), ln("M"))
    t_range = _interval(sec.get("t_range", "-4 .. 4"), ln("t_range"))
    kinks = _numbers(sec.get("t_kinks", ""), ln("t_kinks"))
    exprs = list(b_exprs)       # everything the primitive B integrates in t
    diva = None
    if "diva" in sec:
        diva, e = compile_scalar(sec["diva"], ln("diva"), cantor_spec, dim)
        exprs.append(e)
    b_plus = b_minus = None
    if not singular.is_empty:
        b_plus, bp_exprs = compile_field(raw.require("field", "b_plus"), ln("b_plus"),
                                         cantor_spec, dim)
        b_minus, bm_exprs = compile_field(raw.require("field", "b_minus"), ln("b_minus"),
                                          cantor_spec, dim)
        exprs += bp_exprs + bm_exprs
    divc_part = None
    divc_mult = None
    if "divc_mass" in sec:
        if domain.dim != 1:
            raise ScenarioValidationError(f"line {ln('divc_mass')}: divc_mass needs dim = 1")
        mass = _number(sec["divc_mass"], ln("divc_mass"))
        divc_part = CantorPart(cantor_spec, mass)
        if "divc_multiplier" in sec:
            divc_mult, e = compile_of_t(sec["divc_multiplier"], ln("divc_multiplier"))
            exprs.append(e)
    lip = compile_scalar(sec["g1"], ln("g1"), cantor_spec, dim)[0] if "g1" in sec else None
    envelope = _build_envelope(raw, domain, singular, cantor_spec)
    degrees = [e.poly_degree("t") for e in exprs]
    return ParamField(domain, b_fn, sup_bound=M, singular_set=singular,
                      b_plus=b_plus, b_minus=b_minus, diva=diva,
                      divc_part=divc_part, divc_multiplier=divc_mult,
                      lipschitz_div=lip, t_kinks=kinks, t_range=t_range,
                      sigma_envelope=envelope,
                      t_degree=None if None in degrees else max(degrees))


def _build_envelope(raw, domain, singular, cantor_spec):
    sec = raw.sections.get("field", {})
    ac = None
    jumps = None
    cantor = None
    if "envelope_ac" in sec:
        ac, _ = compile_scalar(sec["envelope_ac"], raw.line("field", "envelope_ac"),
                               cantor_spec, domain.dim)
    if "envelope_jump" in sec and not singular.is_empty:
        g, _ = compile_scalar(sec["envelope_jump"], raw.line("field", "envelope_jump"),
                              cantor_spec, domain.dim)
        jumps = RadonMeasure.from_jump(domain, singular, lambda pts, nus: g(pts)).jumps
    if "envelope_cantor_mass" in sec:
        cantor = CantorPart(cantor_spec, _number(sec["envelope_cantor_mass"],
                                                 raw.line("field", "envelope_cantor_mass")))
    if ac is None and jumps is None and cantor is None:
        return None
    return RadonMeasure(domain, ac=ac, ac_singular=singular, jumps=jumps, cantor=cantor)


def build_u(raw: RawScenario, domain: Domain, cantor_spec) -> BVFunction:
    sec = raw.sections.get("u")
    if not sec:
        raise ScenarioValidationError("[u] section is required for this experiment")
    ln = lambda k: raw.line("u", k)
    amp = _number(sec["cantor_amplitude"], ln("cantor_amplitude")) \
        if "cantor_amplitude" in sec else 0.0
    cantor = CantorPart(cantor_spec, amp) if amp != 0.0 else None      # D^c u
    sup = _number(sec["sup"], ln("sup")) if "sup" in sec else None

    if domain.dim == 1:
        bps, nus = _parse_points(sec.get("breaks", ""), ln("breaks"))
        values = _pieces_1d(raw, "u", "pieces", len(bps) + 1, cantor_spec)
        grads = _pieces_1d(raw, "u", "grads", len(bps) + 1, cantor_spec)
        return BVFunction.piecewise_1d(domain, bps, values, grads, normals=nus,
                                       cantor=cantor, sup_bound=sup)

    pieces = []
    for rtxt in raw.require("u", "regions").split("|"):
        cond_txt, _, rest = rtxt.partition("):")
        val_txt, found, grad_txt = rest.partition("grad")
        if not found:
            raise ScenarioValidationError(f"line {ln('regions')}: malformed region: "
                                          f"{rtxt.strip()!r}")
        cond, _ = compile_scalar(cond_txt.strip().lstrip("("), ln("regions"), cantor_spec)
        val, _ = compile_scalar(val_txt.strip(), ln("regions"), cantor_spec)
        grad, _ = compile_field(grad_txt, ln("regions"), cantor_spec)
        pieces.append(Piece(lambda pts, cond=cond: cond(pts) > 0.5, val,
                            lambda pts, grad=grad: grad(pts, 0.0)))
    jump = RectifiableSet.empty(2)
    u_plus = u_minus = None
    if "jump_curves" in sec:
        jump = RectifiableSet(2, pieces=_parse_curves(sec["jump_curves"],
                                                      ln("jump_curves"), cantor_spec))
        u_plus, _ = compile_scalar(raw.require("u", "u_plus"), ln("u_plus"), cantor_spec)
        u_minus, _ = compile_scalar(raw.require("u", "u_minus"), ln("u_minus"), cantor_spec)
    return BVFunction(domain, pieces, jump, u_plus=u_plus, u_minus=u_minus,
                      sup_bound=sup)


def build_product_fn(raw: RawScenario) -> ScalarFunction:
    if "product" not in raw.sections:
        raise ScenarioValidationError(f"line {raw.line('scenario', 'experiments')}: the "
                                      f"product experiment needs a [product] section")
    h, _ = compile_of_t(raw.require("product", "h"), raw.line("product", "h"))
    dh, _ = compile_of_t(raw.require("product", "dh"), raw.line("product", "dh"))
    sup_dh = _number(raw.require("product", "sup_dh"), raw.line("product", "sup_dh"))
    return ScalarFunction(h, dh, sup_dh)


def build_flux(raw: RawScenario, domain: Domain) -> FluxSpec:
    sec = raw.sections.get("conslaw")
    if not sec:
        raise ScenarioValidationError("[conslaw] section required")
    ln = lambda k: raw.line("conslaw", k)
    bps, nus = _parse_points(sec.get("k_breaks", ""), ln("k_breaks"))
    values = _pieces_1d(raw, "conslaw", "k_pieces", len(bps) + 1)
    grads = [lambda x: np.zeros_like(np.asarray(x, dtype=float)) for _ in values]
    k = BVFunction.piecewise_1d(domain, bps, values, grads, normals=nus)
    ahat, ahat_e = compile_uv(raw.require("conslaw", "ahat"), ln("ahat"))
    dahat, dahat_e = compile_uv(raw.require("conslaw", "dahat_du"), ln("dahat_du"))
    u_range = _interval(raw.require("conslaw", "u_range"), ln("u_range"))
    crit_vals = _numbers(sec.get("critical", ""), ln("critical"))
    return FluxSpec(k, ahat, dahat, u_range, critical=lambda kv: tuple(crit_vals),
                    ahat_degree=ahat_e.poly_degree("u"),
                    speed_degree=dahat_e.poly_degree("u"),
                    lines=(ln("ahat"), ln("dahat_du")))


def build_conslaw_run(raw: RawScenario, domain: Domain, flux: FluxSpec):
    sec = raw.sections["conslaw"]           # build_flux has required the section
    ln = lambda k: raw.line("conslaw", k)
    num = lambda k, default=None: _number(sec.get(k, default), ln(k))
    cfl = num("cfl", str(DEFAULT_CFL))
    if not 0.0 < cfl < 1.0:
        raise ScenarioValidationError(f"line {ln('cfl')}: cfl must be in (0, 1)")
    shock = (num("shock_left"), num("shock_right")) \
        if "shock_left" in sec and "shock_right" in sec else None
    if shock and shock[0] == shock[1]:
        raise ScenarioValidationError(f"line {ln('shock_right')}: shock_right "
                                      f"must differ from shock_left")
    key = "inject_expansion_shock"      # uL, uR, x0 of a deliberate non-entropic solution
    expansion = _numbers(sec[key], ln(key), key, 3) if key in sec else None
    S, _ = compile_of_t(sec.get("entropy_S", "t^2/2"), ln("entropy_S"))
    dS, dS_e = compile_of_t(sec.get("entropy_dS", "t"), ln("entropy_dS"))
    d2S, _ = compile_of_t(sec.get("entropy_d2S", "1"), ln("entropy_d2S"))
    us = np.linspace(*flux.u_range, 101)        # the u grid where FluxSpec probes the flux
    for key, fn in (("entropy_S", S), ("entropy_dS", dS), ("entropy_d2S", d2S)):
        _finite_on(fn, us, ln(key), key, "t")
    kgrid = _numbers(sec.get("kinetic_grid", "6, 10, 14"), ln("kinetic_grid"),
                     "kinetic_grid", 3)
    u0 = _initial_datum(raw.require("conslaw", "u0"), ln("u0"), "u0", domain)
    T = _positive(raw.require("conslaw", "T"), ln("T"), "T")
    ncells = _count(num("ncells", "200"), ln("ncells"), "ncells")
    _check_march(flux, domain, T, ncells, cfl, 1, ln("T"), [("u0", ln("u0"), u0)])
    return SimpleNamespace(
        u0=u0, T=T, cfl=cfl, ncells=ncells,
        kinetic=_flag(sec, "run_kinetic", ln("run_kinetic")),
        kinetic_grid=[_count(v, ln("kinetic_grid"), "kinetic_grid") for v in kgrid],
        kinetic_strict=_flag(sec, "kinetic_strict", ln("kinetic_strict")),
        shock=shock, expansion_shock=expansion,
        entropy=EntropyPair(S, dS, d2S, dS_degree=dS_e.poly_degree("t")),
        resid_slack=num("resid_slack", "1e-7"), resid_constant=num("resid_constant", "2.0"))


def build_kato(raw: RawScenario, domain: Domain, flux: FluxSpec):
    sec = raw.sections.get("kato", {})
    ln = lambda k: raw.line("kato", k)
    T = _positive(raw.require("kato", "T"), ln("T"), "T")
    dx_list = [_positive(v, ln("dx_list"), "dx_list")
               for v in raw.require("kato", "dx_list").split(",")]
    if max(dx_list) > domain.bounds[0][1] - domain.bounds[0][0]:
        raise ScenarioValidationError(f"line {ln('dx_list')}: a dx exceeds the domain length")
    pairs, data = [], []
    for i in range(1, len(sec)):
        ka, kb = (f"u0_a{i}", f"u0_b{i}") if i > 1 else ("u0_a", "u0_b")
        if ka not in sec:
            break
        if kb not in sec:
            raise ScenarioValidationError(f"line {ln(ka)}: {ka} needs {kb}")
        pairs.append(tuple(_initial_datum(sec[key], ln(key), key, domain) for key in (ka, kb)))
        data += [(key, ln(key), fn) for key, fn in zip((ka, kb), pairs[-1])]
    if not pairs:
        raise ScenarioValidationError("[kato] needs at least one data pair")
    for dx in dx_list:          # the work per pair, 2 rows, of kato_check's sweep per dx
        _check_march(flux, domain, T, kato_cells(domain, dx), DEFAULT_CFL, 2, ln("dx_list"),
                     data)
    return SimpleNamespace(T=T, dx_list=dx_list, pairs=pairs)


def build_omegas(raw: RawScenario, domain: Domain, singular: RectifiableSet):
    """[green] omegas: ("box", ((lo, hi), ...)) and, in 2-D, ("disc", ((cx, cy), r))."""
    ln = raw.line("green", "omegas")
    omegas = []
    for item in raw.get("green", "omegas", "").split(";"):
        words = item.split()
        if not words:
            continue
        if words[0] == "box":
            parts = [p for p in " ".join(words[1:]).split("x") if p.strip()]
            bounds = tuple(_interval(p, ln) for p in parts)
            if len(bounds) != domain.dim:
                raise ScenarioValidationError(f"line {ln}: box needs {domain.dim} interval(s)")
            omegas.append(("box", bounds))
        elif words[0] == "disc":
            nums = [_number(w, ln) for w in words[1:]]
            if domain.dim != 2 or len(nums) != 3 or nums[2] <= 0:
                raise ScenarioValidationError(f"line {ln}: disc needs dim = 2 and three "
                                              f"numbers 'cx cy r' with r > 0")
            omegas.append(("disc", (tuple(nums[:2]), nums[2])))
        else:
            raise ScenarioValidationError(f"line {ln}: unknown omega kind {words[0]!r}")
        try:        # a box narrower than the indicators' ramps is a ValueError
            green_indicators(domain, singular, omegas[-1])
        except (GeometryError, ValueError) as exc:
            raise ScenarioValidationError(f"line {ln}: {item.strip()}: {exc}") from exc
    if not omegas:
        raise ScenarioValidationError("[green] omegas required for green experiment")
    return omegas


def build_moll(raw: RawScenario, domain: Domain, singular: RectifiableSet):
    sec = raw.sections.get("moll", {})
    ln = lambda k: raw.line("moll", k)
    points = [_numbers(item, ln("points"), "points", domain.dim)
              for item in sec.get("points", ", ".join("0" * domain.dim)).split(";")]
    eps = _numbers(sec.get("eps", "0.1, 0.05, 0.025"), ln("eps"))
    if not eps or min(eps) <= 0 or any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ScenarioValidationError(f"line {ln('eps')}: eps must be > 0 and strictly "
                                      f"decreasing")
    for p in points:        # the run takes the normal there, and the widest ball
        try:
            moll_point(domain, singular, p, eps[0])
        except (NotOnJumpSetError, BoundaryError) as exc:     # the defaults have no line
            key = "eps" if isinstance(exc, BoundaryError) and ln("eps") else "points"
            where = f"line {ln(key)}" if ln(key) else "[moll] points"
            raise ScenarioValidationError(f"{where}: {exc}") from exc
    return SimpleNamespace(points=points, t=_number(sec.get("t", "1"), ln("t")), eps=eps)


def build_sigma_samples(raw: RawScenario, field: ParamField):
    ln = raw.line("field", "sigma_t_samples")
    lo, hi = field.t_range
    samples = _numbers(raw.get("field", "sigma_t_samples", ""), ln)
    if not all(lo <= t <= hi for t in samples):
        raise ScenarioValidationError(f"line {ln}: sigma_t_samples must lie in t_range "
                                      f"{lo:g} .. {hi:g}")
    return samples or list(np.linspace(lo, hi, 5))


class Scenario:
    """Fully built scenario: constructed objects plus the raw config."""

    def __init__(self, raw: RawScenario):
        self.raw = raw
        self.id = raw.require("scenario", "id")
        if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", self.id):     # it names a directory
            raise ScenarioValidationError(
                f"line {raw.line('scenario', 'id')}: id {self.id!r} is not a letter or digit "
                f"followed by letters, digits, '.', '_' and '-'")
        self.domain = build_domain(raw)
        exps = [e.strip() for e in raw.require("scenario", "experiments").split(",")]
        ln = raw.line("scenario", "experiments")
        for e in exps:
            if e not in EXPERIMENTS:
                raise ScenarioValidationError(f"line {ln}: unknown experiment {e!r}")
            # w11 scans the level sets of a 1-D u; the conservation-law harness is 1-D
            if e in ("w11", "conslaw", "kato") and self.domain.dim != 1:
                raise ScenarioValidationError(f"line {ln}: {e} needs dim = 1")
        self.experiments = exps
        self.cantor_spec = build_cantor_spec(raw)
        self.is_cantor = (raw.get("field", "divc_mass") is not None
                          or raw.get("u", "cantor_amplitude") is not None)
        default_abs = "1e-5" if self.is_cantor else "1e-7"
        default_rel = "1e-5" if self.is_cantor else "1e-6"
        self.tol_abs = _positive(raw.get("scenario", "tol_abs", default_abs),
                                 raw.line("scenario", "tol_abs"), "tol_abs")
        self.tol_rel = _positive(raw.get("scenario", "tol_rel", default_rel),
                                 raw.line("scenario", "tol_rel"), "tol_rel")

        needs_field = any(e in exps for e in
                          ("chain", "w11", "bv-scalar", "product", "anzellotti",
                           "green", "moll", "sigma"))
        self.singular = build_singular(raw, self.domain, self.cantor_spec) \
            if needs_field else RectifiableSet.empty(self.domain.dim)
        self.field = build_field(raw, self.domain, self.singular, self.cantor_spec) \
            if needs_field else None
        needs_u = any(e in exps for e in ("chain", "w11", "bv-scalar", "product",
                                          "anzellotti"))
        self.u = build_u(raw, self.domain, self.cantor_spec) if needs_u else None
        self.sigma_samples = build_sigma_samples(raw, self.field) if needs_field else None
        self.h = build_product_fn(raw) if "product" in exps else None
        self.omegas = build_omegas(raw, self.domain, self.singular) if "green" in exps else None
        self.moll = build_moll(raw, self.domain, self.singular) if "moll" in exps else None
        self.flux = build_flux(raw, self.domain) if ("conslaw" in exps or "kato" in exps) \
            else None
        self.conslaw = build_conslaw_run(raw, self.domain, self.flux) \
            if "conslaw" in exps else None
        self.kato = build_kato(raw, self.domain, self.flux) if "kato" in exps else None
        if self.flux and self.flux.speed_mismatch:  # after the checks of the march
            raise ScenarioValidationError(self.flux.speed_mismatch)
        self.fake_scale = None
        if "negative" in raw.sections:
            self.fake_scale = _number(raw.require("negative", "fake_scale"),
                                      raw.line("negative", "fake_scale"))


def load(path) -> Scenario:
    return Scenario(parse_file(path))
