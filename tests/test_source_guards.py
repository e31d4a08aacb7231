"""Source guards: properties of the library's code itself.

One root finder: ``mpmath.polyroots`` and ``numpy.roots`` are each called
from exactly one place under ``src/quadrics``, ``univariate.complex_roots``,
so every numeric polynomial root goes through the same seeded solve.
"""

import ast
import os

import quadrics

PACKAGE = os.path.dirname(os.path.abspath(quadrics.__file__))


def _uses(attr: str, modules: set):
    """(file, enclosing function) for every reference to ``<module>.attr``
    (``mp.polyroots``, ``numpy.roots``, ...) and every bare name ``attr``
    bound by ``from <module> import attr``."""
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        imported = {alias.asname or alias.name
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] in modules
                    for alias in node.names if alias.name == attr}

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if (isinstance(node, ast.Attribute) and node.attr == attr
                    and isinstance(node.value, ast.Name) and node.value.id in modules):
                found.append((name, func))
            elif isinstance(node, ast.Name) and node.id in imported:
                found.append((name, func))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(tree, None)
    return found


def test_polyroots_is_called_only_in_complex_roots():
    assert _uses("polyroots", {"mp", "mpmath"}) == [("univariate.py", "complex_roots")]


def test_numpy_roots_is_called_only_in_complex_roots():
    assert _uses("roots", {"np", "numpy"}) == [("univariate.py", "complex_roots")]
