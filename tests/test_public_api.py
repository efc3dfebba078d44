"""Every public name and class member is reached by the package or by the acceptance contract.

A name exported from `pggsim/__init__.py` that only unit tests call is API
kept alive for its own tests; it is deleted instead, with those tests. The
same holds for what an exported class's body defines, other than `__init__`
and `__post_init__`: each member must be read somewhere by its name, as an
attribute. A keyword in a call writes a field and does not count. Like the
rest of the scan this goes by name, not type, and a call of `len` reads the
name `__len__`.
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


def exported_members():
    """(class, member) for every name defined in the body of an exported class."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    found = []
    for node in init.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        wanted = {alias.name for alias in node.names}
        module = ast.parse((PACKAGE / f"{node.module}.py").read_text())
        for cls in module.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in wanted):
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.AnnAssign):
                    names = [item.target.id]
                elif isinstance(item, ast.Assign):
                    names = [target.id for target in item.targets]
                else:
                    continue
                found += [(cls.name, name) for name in names
                          if name not in ("__init__", "__post_init__")]
    return found


def member_reads(tree):
    """Names loaded as attributes; a call of `len` reads `__len__`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len":
            found.add("__len__")
    return found


MEMBERS_READ = set().union(*(
    member_reads(ast.parse(path.read_text()))
    for path in [*PACKAGE.glob("*.py"), *CONTRACT] if path.name != "__init__.py"
))


@pytest.mark.parametrize("cls, member", [
    pytest.param(cls, member, id=f"{cls}.{member}") for cls, member in exported_members()
])
def test_class_member_is_reached_outside_unit_tests(cls, member):
    assert member in MEMBERS_READ, f"{cls}.{member} is used only by unit tests; delete it with them"
