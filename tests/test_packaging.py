"""pyproject.toml declares what the package needs and provides.

The declared runtime dependencies are exactly the third-party modules
imported under src/tsvqvco: none missing and none unused.  Every console
script must point at an importable
callable.  The package is layered: on the design path geometry,
inductance, transformer and analysis, and on the run path netlist,
engine, metrology and topologies, each import only the package modules
below them; the device models import nothing from the package but the
error types.  A parameter block checks itself once, in __post_init__, and
is frozen so that the check still holds where it is used; only the
netlist, built up one element at a time, has a validate() to call.
"""
import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "tsvqvco"


def project_table() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def imported_top_level_modules() -> set[str]:
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared():
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
                .replace("-", "_")
                for req in project_table()["dependencies"]}
    third_party = {name for name in imported_top_level_modules()
                   if name not in sys.stdlib_module_names
                   and name not in ("__future__", "tsvqvco")}
    assert third_party, "the package imports numpy"
    assert third_party <= declared, ("undeclared",
                                      sorted(third_party - declared))
    assert declared <= third_party, ("unused", sorted(declared - third_party))


def test_script_targets_import():
    for name, target in project_table().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


# The design path, the device models and the run path, each with the
# package modules it may import.  A layer reaches only the layers below it.
ALLOWED_PACKAGE_IMPORTS = {
    "geometry": {"errors"},
    "inductance": {"errors", "geometry"},
    "transformer": {"errors", "geometry", "inductance"},
    "analysis": {"errors", "transformer"},
    "devices": {"errors"},
    "netlist": {"devices", "errors"},
    "engine": {"devices", "errors", "netlist"},
    "metrology": {"analysis", "devices", "engine", "errors", "netlist"},
    "topologies": {"analysis", "devices", "engine", "errors", "netlist",
                   "transformer"},
}


def package_imports(module: str) -> set[str]:
    path = PACKAGE_DIR / f"{module}.py"
    internal = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level > 0 or name.split(".")[0] == "tsvqvco":
                internal.add(name.removeprefix("tsvqvco."))
        elif isinstance(node, ast.Import):
            internal.update(a.name.removeprefix("tsvqvco.") for a in node.names
                            if a.name.split(".")[0] == "tsvqvco")
    return internal


@pytest.mark.parametrize("module", sorted(ALLOWED_PACKAGE_IMPORTS))
def test_package_layering(module):
    assert package_imports(module) == ALLOWED_PACKAGE_IMPORTS[module]


def package_classes():
    """Every class defined under src/tsvqvco, with its method names."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                yield node, {f.name for f in node.body
                             if isinstance(f, ast.FunctionDef)}


def is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", "") == "dataclass"
               and any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                       for k in d.keywords)
               for d in cls.decorator_list)


def test_only_the_netlist_has_a_validate_method():
    assert {cls.name for cls, methods in package_classes()
            if "validate" in methods} == {"Netlist"}


def test_every_self_checking_block_is_frozen():
    # a Segment checks itself too, but freezing it would slow every
    # segment build of the sweep and nothing mutates one
    unfrozen = {cls.name for cls, methods in package_classes()
                if "__post_init__" in methods and not is_frozen_dataclass(cls)}
    assert unfrozen == {"Segment"}
