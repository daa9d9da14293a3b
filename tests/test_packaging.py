"""pyproject.toml declares what the package needs and provides.

The declared runtime dependencies are exactly the third-party modules
imported under src/tsvqvco: none missing and none unused.  Every console
script must point at an importable
callable.  The package is layered: on the design path geometry,
inductance, transformer and analysis, and on the run path netlist,
engine, metrology and topologies, each import only the package modules
below them, and topologies nothing of the half-circuit analysis; the
device models import nothing from the package but the error types.  No
package module imports an underscore name from another: a private name
has its own module as its one reader.  A parameter block checks itself once, in __post_init__, and is frozen so
that the check still holds where it is used; no class has a validate()
to call.  The netlist, built up one element at a time, is
checked by the engine's MNA walk, the one reader of its element kinds.
"""
import ast
import importlib
import re
import sys
import typing
from pathlib import Path

import pytest

from tsvqvco import netlist

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
    "metrology": {"engine", "errors", "netlist"},
    "topologies": {"devices", "engine", "errors", "netlist", "transformer"},
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


def test_no_private_name_crosses_a_module():
    """Names like inductance._pack stay in their module; a third-party
    private such as numpy.linalg._umath_linalg is not the package's."""
    crossings = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "tsvqvco"):
                crossings += [f"{path.stem}: {node.module}.{a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert crossings == []


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


def test_no_class_has_a_validate_method():
    assert {cls.name for cls, methods in package_classes()
            if "validate" in methods} == set()


def element_isinstance_sites():
    """(module, top-level class or function) of every isinstance call
    under src/tsvqvco whose class argument names a netlist element."""
    elements = {cls.__name__ for cls in typing.get_args(netlist.Element)}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", "") == "isinstance"
                        and len(node.args) == 2):
                    names = {getattr(n, "id", getattr(n, "attr", None))
                             for n in ast.walk(node.args[1])}
                    if names & elements:
                        yield path.stem, getattr(top, "name", None)


def test_only_the_mna_walk_reads_element_kinds():
    """A second reader of the element kinds would have to agree with the
    stamps on every kind's terminals; the walk checks what it stamps."""
    assert set(element_isinstance_sites()) == {("engine", "_System")}


def test_every_self_checking_block_is_frozen():
    unfrozen = {cls.name for cls, methods in package_classes()
                if "__post_init__" in methods and not is_frozen_dataclass(cls)}
    assert unfrozen == set()
