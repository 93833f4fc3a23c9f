"""The numeric policy: one settable tolerance, and where it reaches."""
import dataclasses
import inspect

from subeq import cli, jets, khasminskii, manifolds, properties, solver, subequations
from subeq.manifolds import FlatBox
from subeq.policy import DEFAULT_POLICY, NumericPolicy
from subeq.profiles import Profile
from subeq.solver import ProblemSpec
from subeq.subequations import laplace


def test_membership_tol_is_the_one_field():
    assert [f.name for f in dataclasses.fields(NumericPolicy)] == ["membership_tol"]


def test_names_the_benchmark_reads():
    M = FlatBox(1, [(0.0, 1.0)], 1 / 8)
    spec = ProblemSpec(laplace(Profile.linear(1.0), m=1), M, {"side": 0.0},
                       policy=NumericPolicy(membership_tol=1e-6))
    assert DEFAULT_POLICY.membership_tol == 1e-8
    assert DEFAULT_POLICY.convergence_tol == 1e-10
    assert spec.policy.membership_tol == 1e-6
    assert spec.conv_tol() == 1e-10


def test_policy_reaches_only_what_tol_sets():
    # the public callables that take a policy: those `subeq run --tol` reaches
    takers = sorted(
        f"{mod.__name__.rsplit('.', 1)[1]}.{name}"
        for mod in (cli, jets, khasminskii, manifolds, properties, solver, subequations)
        for name, obj in vars(mod).items()
        if not name.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == mod.__name__
        and "policy" in inspect.signature(obj).parameters)
    assert takers == ["khasminskii.build_potential", "khasminskii.ekeland_potential",
                      "properties.ahlfors_falsification_suite",
                      "properties.ahlfors_violation_check", "properties.inf_capacity",
                      "solver.ProblemSpec"]
