"""Static checks.  Every name imported in src/divchain is read somewhere in its
module: names listed in __all__ and imports marked "# noqa: F401" (aliases
that a benchmark tracer rebinds) are re-exports, not waste.  And every name a
package exports in __all__ is read by some module of src/divchain other than
an __init__, so the package holds no code that only the tests call."""

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
