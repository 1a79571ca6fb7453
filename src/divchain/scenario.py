"""Declarative scenario files: parsing and object construction.

Format: '#' comments, [section] headers, key = value lines.  Values are
expressions in the grammar of exprs.py, lists separated by ',' or '|' or
';' depending on the key (documented in docs/scenario-format.md).  Parse
errors carry line numbers; validation never runs numerics.
"""

from __future__ import annotations

import numpy as np

from .bvfunc import BVFunction, Piece
from .cantor import CantorPart, IFSSpec, MIDDLE_THIRDS
from .chainrule import ScalarFunction
from .errors import ScenarioParseError, ScenarioValidationError
from .exprs import compile_field, compile_of_t, compile_scalar, compile_uv
from .field import ParamField
from .geometry import Domain
from .measure import RadonMeasure
from .rectifiable import GraphCurve, HorizontalSegment, RectifiableSet, VerticalSegment

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
    if ".." not in text:
        raise ScenarioParseError(f"expected 'a .. b', got {text!r}", line)
    a, b = text.split("..")
    return (_number(a, line), _number(b, line))


def _positive(text, line, key):
    value = _number(text, line)
    if value <= 0:
        raise ScenarioValidationError(f"line {line}: {key} must be > 0")
    return value


class RawScenario:
    def __init__(self, sections, lines, path="<string>"):
        self.sections = sections
        self.lines = lines      # key -> line number, for late errors
        self.path = path

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
        return parse_text(fh.read(), path=path)


def parse_text(text, path="<string>"):
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
    return RawScenario(sections, lines, path)


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
        raise ScenarioValidationError(f"domain needs {dim} interval(s)")
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
        if ":" not in item:
            raise ScenarioParseError(f"expected 'x : nu', got {item!r}", ln)
        x, nu = item.split(":")
        pts.append(_number(x, ln))
        nus.append(_number(nu, ln))
    return pts, nus


def _parse_curves(text, ln, cantor_spec=None):
    curves = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        words = item.split()
        kind = words[0]
        try:
            if kind in ("vline", "hline"):
                c = _number(words[1], ln)
                i_from = words.index("from")
                a = _number(words[i_from + 1], ln)
                b = _number(words[i_from + 3], ln)
                side = _number(words[words.index("side") + 1], ln)
                cls = VerticalSegment if kind == "vline" else HorizontalSegment
                curves.append(cls(c, a, b, int(side)))
            elif kind == "graph":
                i_d = words.index("d")
                expr_txt = " ".join(words[1:i_d])
                i_from = words.index("from")
                dexpr_txt = " ".join(words[i_d + 1:i_from])
                a = _number(words[i_from + 1], ln)
                b = _number(words[i_from + 3], ln)
                side = _number(words[words.index("side") + 1], ln)
                f, _ = compile_scalar(expr_txt, ln, cantor_spec)
                df, _ = compile_scalar(dexpr_txt, ln, cantor_spec)
                curves.append(GraphCurve(lambda s, f=f: f(np.asarray(s)[:, None]),
                                         lambda s, df=df: df(np.asarray(s)[:, None]),
                                         a, b, int(side), label=expr_txt))
            else:
                raise ScenarioParseError(f"unknown curve kind {kind!r}", ln)
        except (ValueError, IndexError) as exc:
            raise ScenarioParseError(f"malformed curve spec {item!r}", ln) from exc
    return curves


def build_singular(raw: RawScenario, domain: Domain, cantor_spec=None):
    sec = raw.sections.get("singular")
    if not sec:
        return RectifiableSet.empty(domain.dim)
    if domain.dim == 1:
        text = sec.get("points", "")
        pts, nus = _parse_points(text, raw.line("singular", "points"))
        for p in pts:
            lo, hi = domain.bounds[0]
            if not (lo < p < hi):
                raise ScenarioValidationError(f"singular point {p} outside the domain")
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
    b_fn, b_exprs = compile_field(raw.require("field", "b"), ln("b"), cantor_spec)
    if len(b_exprs) != domain.dim:
        raise ScenarioValidationError("field b needs one component per axis")
    M = _number(raw.require("field", "M"), ln("M"))
    t_range = _interval(sec.get("t_range", "-4 .. 4"), ln("t_range"))
    kinks = [_number(v, ln("t_kinks")) for v in sec.get("t_kinks", "").split(",") if v.strip()]
    exprs = list(b_exprs)       # everything the primitive B integrates in t
    diva = None
    if "diva" in sec:
        diva_fn, e = compile_scalar(sec["diva"], ln("diva"), cantor_spec)
        diva = lambda pts, t: diva_fn(pts, t)
        exprs.append(e)
    b_plus = b_minus = None
    if not singular.is_empty:
        b_plus, bp_exprs = compile_field(raw.require("field", "b_plus"), ln("b_plus"), cantor_spec)
        b_minus, bm_exprs = compile_field(raw.require("field", "b_minus"), ln("b_minus"),
                                          cantor_spec)
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
    lip = None
    if "g1" in sec:
        g1_fn, _ = compile_scalar(sec["g1"], ln("g1"), cantor_spec)
        lip = lambda pts: g1_fn(pts)
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
        f, _ = compile_scalar(sec["envelope_ac"], raw.line("field", "envelope_ac"), cantor_spec)
        ac = lambda pts: f(pts)
    if "envelope_jump" in sec and not singular.is_empty:
        g, _ = compile_scalar(sec["envelope_jump"], raw.line("field", "envelope_jump"),
                              cantor_spec)
        jumps = RadonMeasure.from_jump(domain, singular, lambda pts, nus: g(pts)).jumps
    if "envelope_cantor_mass" in sec:
        cantor = CantorPart(cantor_spec, _number(sec["envelope_cantor_mass"],
                                                 raw.line("field", "envelope_cantor_mass")))
    if ac is None and jumps is None and cantor is None:
        return None
    return RadonMeasure(domain, ac=ac, ac_singular=None if singular.is_empty else singular,
                        jumps=jumps, cantor=cantor)


def build_u(raw: RawScenario, domain: Domain, cantor_spec) -> BVFunction:
    sec = raw.sections.get("u")
    if not sec:
        raise ScenarioValidationError("[u] section is required for this experiment")
    ln = lambda k: raw.line("u", k)
    cantor = None
    amp = 0.0
    if "cantor_amplitude" in sec:
        amp = _number(sec["cantor_amplitude"], ln("cantor_amplitude"))
        cantor = CantorPart(cantor_spec, 1.0)
    sup = _number(sec["sup"], ln("sup")) if "sup" in sec else None

    if domain.dim == 1:
        bps, nus = _parse_points(sec.get("breaks", ""), ln("breaks"))
        piece_txt = [p.strip() for p in raw.require("u", "pieces").split("|")]
        grad_txt = [p.strip() for p in raw.require("u", "grads").split("|")]
        if len(piece_txt) != len(bps) + 1 or len(grad_txt) != len(piece_txt):
            raise ScenarioValidationError("need len(breaks)+1 pieces and matching grads")
        values = []
        grads = []
        degrees = []
        for ptxt, gtxt in zip(piece_txt, grad_txt):
            pf, pe = compile_scalar(ptxt, ln("pieces"), cantor_spec)
            gf, _ = compile_scalar(gtxt, ln("grads"), cantor_spec)
            values.append(lambda x, pf=pf: pf(np.asarray(x)[:, None]))
            grads.append(lambda x, gf=gf: gf(np.asarray(x)[:, None]))
            degrees.append(pe.poly_degree("x1"))
        return BVFunction.piecewise_1d(domain, bps, values, grads, normals=nus,
                                       cantor=cantor, cantor_amplitude=amp, sup_bound=sup,
                                       degrees=degrees)

    regions = [r.strip() for r in raw.require("u", "regions").split("|")]
    pieces = []
    for rtxt in regions:
        if "):" not in rtxt or "grad" not in rtxt:
            raise ScenarioValidationError(f"malformed region: {rtxt!r}")
        cond_txt, rest = rtxt.split("):", 1)
        cond_txt = cond_txt.strip().lstrip("(")
        val_txt, grad_txt = rest.split("grad", 1)
        cond, _ = compile_scalar(cond_txt, ln("regions"), cantor_spec)
        val, _ = compile_scalar(val_txt.strip(), ln("regions"), cantor_spec)
        gparts = [g.strip() for g in grad_txt.split(",")]
        if len(gparts) != 2:
            raise ScenarioValidationError("2D regions need 'grad g1, g2'")
        g1, _ = compile_scalar(gparts[0], ln("regions"), cantor_spec)
        g2, _ = compile_scalar(gparts[1], ln("regions"), cantor_spec)
        pieces.append(Piece(
            lambda pts, cond=cond: cond(pts) > 0.5,
            lambda pts, val=val: val(pts),
            lambda pts, g1=g1, g2=g2: np.column_stack([g1(pts), g2(pts)])))
    jump = RectifiableSet.empty(2)
    u_plus = u_minus = None
    if "jump_curves" in sec:
        jump = RectifiableSet(2, pieces=_parse_curves(sec["jump_curves"],
                                                      ln("jump_curves"), cantor_spec))
        up, _ = compile_scalar(raw.require("u", "u_plus"), ln("u_plus"), cantor_spec)
        um, _ = compile_scalar(raw.require("u", "u_minus"), ln("u_minus"), cantor_spec)
        u_plus = lambda pts: up(pts)
        u_minus = lambda pts: um(pts)
    return BVFunction(domain, pieces, jump, u_plus=u_plus, u_minus=u_minus,
                      sup_bound=sup)


def build_product_fn(raw: RawScenario) -> ScalarFunction:
    sec = raw.sections.get("product")
    if not sec:
        raise ScenarioValidationError("[product] section required for product experiment")
    h, _ = compile_of_t(raw.require("product", "h"), raw.line("product", "h"))
    dh, _ = compile_of_t(raw.require("product", "dh"), raw.line("product", "dh"))
    sup_dh = _number(raw.require("product", "sup_dh"), raw.line("product", "sup_dh"))
    return ScalarFunction(h, dh, sup_dh)


def build_flux(raw: RawScenario, domain: Domain):
    from .conslaw import FluxSpec
    sec = raw.sections.get("conslaw")
    if not sec:
        raise ScenarioValidationError("[conslaw] section required")
    ln = lambda k: raw.line("conslaw", k)
    bps, nus = _parse_points(sec.get("k_breaks", ""), ln("k_breaks"))
    piece_txt = [p.strip() for p in raw.require("conslaw", "k_pieces").split("|")]
    if len(piece_txt) != len(bps) + 1:
        raise ScenarioValidationError("need len(k_breaks)+1 k_pieces")
    values = []
    for ptxt in piece_txt:
        pf, _ = compile_scalar(ptxt, ln("k_pieces"))
        values.append(lambda x, pf=pf: pf(np.asarray(x)[:, None]))
    grads = [lambda x: np.zeros_like(np.asarray(x, dtype=float)) for _ in values]
    k = BVFunction.piecewise_1d(domain, bps, values, grads, normals=nus)
    ahat, ahat_e = compile_uv(raw.require("conslaw", "ahat"), ln("ahat"))
    dahat, dahat_e = compile_uv(raw.require("conslaw", "dahat_du"), ln("dahat_du"))
    u_range = _interval(raw.require("conslaw", "u_range"), ln("u_range"))
    crit_vals = [_number(v, ln("critical")) for v in sec.get("critical", "").split(",")
                 if v.strip()]
    return FluxSpec(k, ahat, dahat, u_range, critical=lambda kv: tuple(crit_vals),
                    ahat_degree=ahat_e.poly_degree("u"),
                    speed_degree=dahat_e.poly_degree("u"))


class Scenario:
    """Fully built scenario: constructed objects plus the raw config."""

    def __init__(self, raw: RawScenario):
        self.raw = raw
        self.id = raw.require("scenario", "id")
        self.domain = build_domain(raw)
        exps = [e.strip() for e in raw.require("scenario", "experiments").split(",")]
        for e in exps:
            if e not in EXPERIMENTS:
                raise ScenarioValidationError(f"unknown experiment {e!r}")
        if "w11" in exps and self.domain.dim != 1:
            raise ScenarioValidationError(f"line {raw.line('scenario', 'experiments')}: "
                                          f"w11 needs dim = 1")
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
        self.h = build_product_fn(raw) if ("product" in exps or "anzellotti" in exps) \
            and "product" in raw.sections else None
        self.flux = build_flux(raw, self.domain) if ("conslaw" in exps or "kato" in exps) \
            else None
        self.fake_scale = None
        if "negative" in raw.sections:
            self.fake_scale = _number(raw.require("negative", "fake_scale"),
                                      raw.line("negative", "fake_scale"))

    def sigma_samples(self):
        txt = self.raw.get("field", "sigma_t_samples", "")
        ln = self.raw.line("field", "sigma_t_samples")
        vals = [_number(v, ln) for v in txt.split(",") if v.strip()]
        if not vals:
            lo, hi = self.field.t_range if self.field else (-1, 1)
            vals = list(np.linspace(lo, hi, 5))
        return vals


def load(path) -> Scenario:
    return Scenario(parse_file(path))
