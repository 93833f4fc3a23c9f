"""Package census: every definition in src/subeq is reached from the
package, and every default is one that some caller sets.

A function, class or method that only tests reach is a second API beside
the one that tasks use.  The census parses each module of src/subeq and
asks that every non-dunder definition be named, as an identifier (not
inside a string), in some module of the package outside its own body and
outside ``__init__.py``, whose exports are not a use.  A name read only
inside other unreached definitions does not count, so a chain of
definitions that only tests reach is named whole.

Likewise a defaulted parameter or dataclass field that only tests set is
a setting no run can reach, and each such knob doubles the configurations
to test.  The default census asks that each be set by some call in
src/subeq or in the benchmark (perfbench/*.py, not its tests): a call
whose callee's name matches the function's (a constructor's, the class
name) and which passes the value by keyword, or positionally, or passes
``*``/``**`` arguments, which may set any of its callee's values.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "subeq"
CALLERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

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


# Defaulted values kept although no call in the package or the benchmark
# sets them.
UNSET_ALLOWED = {
    "subequations.audit_PNT.n": "test oracle of the audit's P/N suite",
    "subequations.audit_PNT.seed": "test oracle of the audit's P/N suite",
    "solver.comparison_check.K": "test oracle; ROADMAP item 6 decides comparison_check",
    "properties.ahlfors_violation_check.membership_tol":
        "ROADMAP item 5 reads candidates at an O(h^2) tolerance",
    "properties.ahlfors_violation_check.boundary_mask":
        "ROADMAP item 5 reads the outer rim as infinity",
    "cli.pn_audit_suite.seed": "run_audit passes it through a loop variable",
    "cli.solver_oracle_suite.seed": "run_audit passes it through a loop variable",
}


def _is_dataclass(node):
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any("dataclass" in (getattr(d, "id", None), getattr(d, "attr", None))
               for d in decorators)


def _defaults(tree, prefix=""):
    """(qualified name, callee name, value name, positional index or None)
    of every defaulted parameter of a function or method and every
    defaulted init field of a dataclass in a module; a method's index
    skips self, and __init__ and fields go by their class's name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                          and "ClassVar" not in ast.unparse(s.annotation)]
                for i, f in enumerate(fields):
                    if f.value is not None and "init=False" not in ast.unparse(f.value):
                        yield f"{prefix}{node.name}.{f.target.id}", node.name, f.target.id, i
            yield from _defaults(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            pos = a.posonlyargs + a.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            skip = int(bool(prefix) and not static and bool(pos) and pos[0].arg in ("self", "cls"))
            callee = prefix.rstrip(".").split(".")[-1] if node.name == "__init__" else node.name
            first = len(pos) - len(a.defaults)
            for i, arg in enumerate(pos[first:], first):
                yield f"{prefix}{node.name}.{arg.arg}", callee, arg.arg, i - skip
            for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                if d is not None:
                    yield f"{prefix}{node.name}.{arg.arg}", callee, arg.arg, None
            yield from _defaults(node, f"{prefix}{node.name}.")


def _calls(paths):
    """(callee name, positional count, keyword names, passes * or **) of
    every call in the files."""
    for path in paths:
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Call):
                f = n.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                star = (any(isinstance(x, ast.Starred) for x in n.args)
                        or any(k.arg is None for k in n.keywords))
                yield name, len(n.args), {k.arg for k in n.keywords}, star


def unset_defaults(src=SRC, callers=CALLERS):
    """Qualified names (module.function.value) of the defaulted values that
    no call in callers sets."""
    calls = list(_calls(callers))
    out = set()
    for path in sorted(src.glob("*.py")):
        for q, callee, value, i in _defaults(ast.parse(path.read_text(), str(path))):
            if not any(name == callee and (star or value in kws or (i is not None and n > i))
                       for name, n, kws, star in calls):
                out.add(f"{path.stem}.{q}")
    return out


def test_every_default_is_set_by_a_caller():
    assert sorted(unset_defaults() - UNSET_ALLOWED.keys()) == []


def test_allowed_defaults_are_still_unset():
    # an entry goes once a caller sets its value, or the value stops being settable
    assert sorted(UNSET_ALLOWED.keys() - unset_defaults()) == []
