"""Every public name is reached by the package itself or by the acceptance contract.

A name exported from `pggsim/__init__.py` that only unit tests call is API
kept alive for its own tests; it is deleted instead, with those tests.
"""

import ast
from pathlib import Path

import pytest

import pggsim

PACKAGE = Path(pggsim.__file__).parent
CONTRACT = [Path(__file__).parent / name for name in ("test_acceptance.py", "conftest.py")]


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def referenced_names(tree):
    """Names read as ast.Name or ast.Attribute, outside the definition of the same name."""
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr != own:
                found.add(node.attr)
    return found


def package_references():
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            found |= referenced_names(ast.parse(path.read_text()))
    return found


def contract_imports():
    found = set()
    for path in CONTRACT:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pggsim"):
                found.update(alias.name for alias in node.names)
    return found


REACHED = package_references() | contract_imports()


@pytest.mark.parametrize("name", exported_names())
def test_export_is_reached_outside_unit_tests(name):
    assert name in REACHED, f"{name} is used only by unit tests; delete it with them"
