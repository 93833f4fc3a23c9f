"""Package census: every definition in src/subeq is reached from the package.

A function, class or method that only tests reach is a second API beside
the one that tasks use.  The census parses each module of src/subeq and
asks that every non-dunder definition be named, as an identifier (not
inside a string), in some module of the package outside its own body and
outside ``__init__.py``, whose exports are not a use.  A name read only
inside other unreached definitions does not count, so a chain of
definitions that only tests reach is named whole.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "subeq"

# Definitions kept although no module of the package names them.
ALLOWED = {
    "jets.sigma_k": "test oracle of the Garding roots and their residuals",
    "manifolds.radial_hessian_eigs": "test oracle of radial batch_jets",
    "subequations.audit_PNT": "test oracle of the audit's P/N suite",
    "solver.comparison_check": "acceptance criterion 5; ROADMAP item 6 decides it",
    "manifolds.GridFunction.from_callable": "test fixture",
    "properties.truncate_shift": "test fixture",
    "subequations.whole_space": "test fixture",
}


def _definitions(tree, prefix=""):
    """(qualified name, node) of every non-dunder function and class of a
    module, and of every method of its classes."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node, f"{prefix}{node.name}.")


def _names(node, skip):
    """Identifiers read in node, as names or attributes, outside the
    subtrees whose ids are in skip; an import is not a read."""
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) in skip:
            continue
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        stack.extend(ast.iter_child_nodes(n))


def unreached(src=SRC):
    """Qualified names (module.name) of the definitions that no module of
    the package reaches."""
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(src.glob("*.py")) if p.stem != "__init__"}
    defs = {f"{mod}.{q}": node for mod, tree in trees.items() for q, node in _definitions(tree)}
    dead = set()
    while True:
        skip = {id(defs[q]) for q in dead if q not in ALLOWED}
        total = Counter(name for tree in trees.values() for name in _names(tree, skip))
        now = set()
        for q, node in defs.items():
            inside = 0 if id(node) in skip else sum(n == node.name for n in _names(node, skip))
            if total[node.name] <= inside:
                now.add(q)
        if now == dead:
            return dead
        dead = now


def test_every_definition_is_reached():
    assert sorted(unreached() - ALLOWED.keys()) == []


def test_allowed_definitions_are_still_unreached():
    # an entry goes once the package reaches its definition, or deletes it
    assert sorted(ALLOWED.keys() - unreached()) == []
