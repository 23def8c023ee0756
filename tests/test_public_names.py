"""Every public name of the package is reached from the package itself.

A name in a module's ``__all__`` must be used (as a name or an attribute)
somewhere in the package's source, unless its docstring says it is kept as a
test oracle.
"""

import ast
from pathlib import Path

import supercrit

PACKAGE = Path(supercrit.__file__).parent


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _public(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _docstrings(tree) -> dict:
    return {node.name: ast.get_docstring(node) or "" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_every_public_name_is_used_in_the_package_or_is_an_oracle():
    modules = _modules()
    used = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreached = [f"{module}.{name}" for module, tree in modules.items()
                 for name in _public(tree)
                 if name not in used and "oracle" not in _docstrings(tree).get(name, "")]
    assert unreached == []
