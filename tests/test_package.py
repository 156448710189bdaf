"""The public names of `src/ktgw`: each one is there for the package's own
use, not only for the tests.  Test-only helpers live in `tests/oracles.py`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ktgw"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def exported(tree):
    """The names in the module's `__all__`, or none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "__all__"):
            return ast.literal_eval(node.value)
    return []


def definitions(tree, name):
    """The top-level statements that define name: a def, a class or an
    assignment to it."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        if name in names:
            found.append(node)
    return found


def loads(tree, name, skip):
    """Whether name is read, as a bare name or an attribute, anywhere in
    tree outside the statements in skip.  Strings do not count."""
    stack = [node for node in tree.body if node not in skip]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and node.id == name and isinstance(
                node.ctx, ast.Load):
            return True
        if isinstance(node, ast.Attribute) and node.attr == name and \
                isinstance(node.ctx, ast.Load):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


@pytest.mark.parametrize("module", [m for m in TREES if exported(TREES[m])])
def test_every_exported_name_is_used_in_the_package(module):
    tree = TREES[module]
    unused = []
    for name in exported(tree):
        own = definitions(tree, name)
        assert own, f"{module}.__all__ names {name}, which it does not define"
        if not any(loads(other, name, own if other is tree else ())
                   for other in TREES.values()):
            unused.append(name)
    assert unused == [], f"{module} exports names that no module calls"
