"""Static checks.  Every name imported in src/divchain is read somewhere in its
module: names listed in __all__ and imports marked "# noqa: F401" (aliases
that a benchmark tracer rebinds) are re-exports, not waste.  Every name a
package exports in __all__ is read by some module of src/divchain other than
an __init__, so the package holds no code that only the tests call.  And
every defaulted parameter in src/divchain is passed by some call there, so
the package has no option that only its default ever sets."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "divchain"


def names_read(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def exported(tree):
    """The names listed in the module's __all__."""
    return {e.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for e in node.value.elts if isinstance(e, ast.Constant)}


def unused_imports(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = names_read(tree) | exported(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                out.append((node.lineno, name))
    return out


def test_no_unused_imports():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py")) for line, name in unused_imports(path)]
    assert not found, "imported but never read:\n" + "\n".join(found)


def test_lint_sees_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import os\nimport sys  # noqa: F401\nfrom .a import b, c as d\n"
                   "__all__ = ['d']\nprint(b)\n")
    assert unused_imports(mod) == [(1, "os")]


def unread_exports(init, src):
    """Names in init's __all__, dunders aside, that no module under src other
    than an __init__ reads."""
    read = set().union(*(names_read(ast.parse(p.read_text(encoding="utf-8")))
                         for p in src.rglob("*.py") if p.name != "__init__.py"))
    names = exported(ast.parse(init.read_text(encoding="utf-8")))
    return sorted(n for n in names if not n.startswith("__") and n not in read)


def test_no_export_is_test_only():
    found = [f"{init.relative_to(SRC)}: {name}"
             for init in (SRC / "__init__.py", SRC / "conslaw" / "__init__.py")
             for name in unread_exports(init, SRC)]
    assert not found, "exported but read by no src module:\n" + "\n".join(found)


def test_lint_sees_a_test_only_export(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "__init__.py").write_text("from .a import used, unread\n"
                                          "__all__ = ['used', 'unread', '__version__']\n")
    (tmp_path / "a.py").write_text("def used():\n    pass\n\n\ndef unread():\n    pass\n")
    (tmp_path / "sub" / "__init__.py").write_text("from ..a import unread\nunread()\n")
    (tmp_path / "sub" / "b.py").write_text("from ..a import used\nused()\n")
    assert unread_exports(tmp_path / "__init__.py", tmp_path) == ["unread"]


def defaulted_params(tree):
    """(function, parameter, positional index or None, line) for each defaulted
    parameter of a module-level function or method.  A method's index counts
    from its first argument after self, and __init__ goes by its class name."""
    fns = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            fns.append((node, node.name, 0))
        elif isinstance(node, ast.ClassDef):
            fns += [(f, node.name if f.name == "__init__" else f.name,
                     0 if any(getattr(d, "id", "") == "staticmethod" for d in f.decorator_list)
                     else 1) for f in node.body if isinstance(f, ast.FunctionDef)]
    out = []
    for fn, name, shift in fns:
        a = fn.args
        pos = a.posonlyargs + a.args
        out += [(name, arg.arg, i - shift, fn.lineno) for i, arg in enumerate(pos)
                if i >= len(pos) - len(a.defaults)]
        out += [(name, arg.arg, None, fn.lineno)
                for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def calls_by_name(trees):
    """Name called -> (keywords passed, most positional arguments, whether some
    call unpacks *args or **kwargs); a call obj.f(...) goes by f."""
    seen = {}
    for tree in trees:
        for n in ast.walk(tree):
            if not (isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))):
                continue
            name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            kws, npos, star = seen.get(name, (set(), 0, False))
            star |= any(isinstance(a, ast.Starred) for a in n.args) \
                or any(k.arg is None for k in n.keywords)
            seen[name] = (kws | {k.arg for k in n.keywords}, max(npos, len(n.args)), star)
    return seen


def unset_options(src):
    """'path:line: function(parameter)' for each defaulted parameter that no
    call of that name under src passes, by keyword or by position."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.rglob("*.py"))}
    seen = calls_by_name(trees.values())
    out = []
    for path, tree in trees.items():
        for name, param, index, line in defaulted_params(tree):
            kws, npos, star = seen.get(name, (set(), 0, False))
            if not (star or param in kws or (index is not None and npos > index)):
                out.append(f"{path.relative_to(src)}:{line}: {name}({param})")
    return out


# Defaulted parameters that no src call passes, and why each stays.
OPTION_EXEMPT = {
    "main(argv)": "the console script calls main() to read sys.argv; tests pass argv",
    "green_check(w0)": "tests run the Gauss-Green closure at narrower widths, 0.02 and 0.03",
    "singular_set_check(radii)": "a test checks the density ratios at two radii",
    "weak_divergence(tol_rel)": "tests tighten the oracle to 1e-11 and refine it 1e-8 to 1e-12",
}


def test_every_option_is_set_by_src():
    found = unset_options(SRC)
    extra = [f for f in found if f.split(": ", 1)[1] not in OPTION_EXEMPT]
    assert not extra, "defaulted but passed by no src call:\n" + "\n".join(extra)
    # an exemption whose option went away, or that src now sets, goes too
    assert sorted(f.split(": ", 1)[1] for f in found) == sorted(OPTION_EXEMPT)


def test_lint_sees_an_unset_option(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, tol=1e-9, n=3, *, k=2):\n    pass\n\n\n"
        "class C:\n    def __init__(self, side=1, axis=0):\n        pass\n\n"
        "    def m(self, w=1.0):\n        pass\n\n"
        "    @staticmethod\n    def s(v=0):\n        pass\n")
    (tmp_path / "b.py").write_text("from .a import C, f\nf(1, 2e-9)\nf(1, k=3)\nC(-1)\n"
                                   "C.s(1)\nargs = ()\nC().m(*args)\n")
    assert unset_options(tmp_path) == ["a.py:1: f(n)", "a.py:6: C(axis)"]
