"""Checks a linter would make, on the package's own source and metadata."""

import ast
import tomllib
from pathlib import Path

import sqlcalib

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sqlcalib"


def test_version_is_read_from_the_package():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "sqlcalib.__version__"}
    assert isinstance(sqlcalib.__version__, str)


def _traced_names() -> dict[str, set[str]]:
    """The names that perfbench/tracer.py's TARGETS wraps, by module: the
    first argument of each `Target(...)`, "sqlcalib.<module>:<name>[.attr]"."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    traced: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target":
            module, name = node.args[0].value.split(":")
            traced.setdefault(module, set()).add(name.split(".")[0])
    return traced


def _unread_imports(path: Path) -> set[str]:
    """Names that a module-level import of `path` binds and the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_unread_import_is_a_tracer_target():
    traced = _traced_names()
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        unread = _unread_imports(path)
        assert unread <= traced.get(f"sqlcalib.{path.stem}", set()), path.name


def _references(node: ast.AST, name: str) -> int:
    """The loads of `name` in `node`, as a bare name or as an attribute."""
    return sum(isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute)
               and n.attr == name for n in ast.walk(node))


def test_one_record_parser():
    """`_fields` applies its rules by their helpers, with no inline
    `type(x) is float` test, and is read only by `_checked`, which
    `_record_from_obj` calls."""
    tree = ast.parse((PACKAGE / "records.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not any(isinstance(n, ast.Compare) and _references(n, "type")
                   for n in ast.walk(functions["_fields"]))
    assert _references(functions["_record_from_obj"], "_checked") == 1
    assert _references(tree, "_fields") == _references(functions["_checked"], "_fields") == 1
    for path in PACKAGE.glob("*.py"):
        if path.name != "records.py":
            assert _references(ast.parse(path.read_text(encoding="utf-8")), "_fields") == 0, path
