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


def _functions(path: Path) -> dict[str, ast.FunctionDef]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_one_record_parser():
    """A record has one form, its line: `records` defines no dataclass or
    named tuple. `load_dataset`, `write_dataset` and `label`'s pair reader
    read through `_line`, which calls `_checked` once. `_fields` applies its
    rules by their helpers, with no inline `type(x) is float` test, and is
    read only by `_checked`."""
    tree = ast.parse((PACKAGE / "records.py").read_text(encoding="utf-8"))
    assert _references(tree, "dataclass") == _references(tree, "NamedTuple") == 0
    functions = _functions(PACKAGE / "records.py")
    for reader in (functions["load_dataset"], functions["write_dataset"],
                   _functions(PACKAGE / "cli.py")["_pair_from_obj"]):
        assert _references(reader, "_line") == 1, reader.name
    assert _references(functions["_line"], "_checked") == 1
    assert not any(isinstance(n, ast.Compare) and _references(n, "type")
                   for n in ast.walk(functions["_fields"]))
    assert _references(tree, "_fields") == _references(functions["_checked"], "_fields") == 1
    for path in PACKAGE.glob("*.py"):
        if path.name != "records.py":
            assert _references(ast.parse(path.read_text(encoding="utf-8")), "_fields") == 0, path


def test_one_serialization_rule():
    """A JSON object sqlcalib writes is `asdict` of the object it records,
    plus the one key that names it: `dataset` for `write_report_json`,
    `kind` for `save_calibrator`. Neither writer reads a field of its
    object or sets a key by subscript."""
    for module, writer, key in (("report.py", "write_report_json", "dataset"),
                                ("calibrate.py", "save_calibrator", "kind")):
        function = _functions(PACKAGE / module)[writer]
        (obj,) = [node for node in ast.walk(function) if isinstance(node, ast.Dict)]
        assert [getattr(k, "value", k) for k in obj.keys] == [key, None], writer
        assert isinstance(obj.values[1], ast.Call) and obj.values[1].func.id == "asdict", writer
        record = function.args.args[0].arg
        assert not any(isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == record
                       or isinstance(node, ast.Subscript) for node in ast.walk(function)), writer


def test_one_equality_rule():
    """`label` compares results by one rule: `tables_equal` compares row and
    column multisets and sorts nothing, and `_INT_FLOAT_LIMIT`, the bound
    below which a float's canonical string agrees with Python equality, is
    read only by `canonical_cell` and `_raw_floats`."""
    tree = ast.parse((PACKAGE / "execmatch.py").read_text(encoding="utf-8"))
    tables_equal = _functions(PACKAGE / "execmatch.py")["tables_equal"]
    assert _references(tables_equal, "sorted") == _references(tables_equal, "sort") == 0
    readers = {getattr(node, "name", None) for node in tree.body
               if not isinstance(node, ast.Assign) and _references(node, "_INT_FLOAT_LIMIT")}
    assert readers == {"canonical_cell", "_raw_floats"}
    for path in PACKAGE.glob("*.py"):
        if path.name != "execmatch.py":
            module = ast.parse(path.read_text(encoding="utf-8"))
            assert _references(module, "_INT_FLOAT_LIMIT") == 0, path
