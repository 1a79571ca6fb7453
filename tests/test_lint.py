"""Static check: every name imported in src/divchain is read somewhere in its
module.  Names listed in __all__ and imports marked "# noqa: F401" (aliases
that a benchmark tracer rebinds) are re-exports, not waste."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "divchain"


def unused_imports(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
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
