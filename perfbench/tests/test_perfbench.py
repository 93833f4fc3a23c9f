"""Tests for the benchmark's own logic.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from measure import covered, self_time, tail_percentile  # noqa: E402
from spans import Recorder  # noqa: E402


# -- self time ---------------------------------------------------------------


def test_self_time_without_children_is_the_duration():
    assert self_time(1.0, 4.0, []) == 3.0


def test_self_time_nested_children():
    # a child with its own grandchild: only the direct child intervals count
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_overlapping_children_count_once():
    # (1,4) and (3,6) overlap on (3,4); (2,3) lies inside the first
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (2.0, 3.0)]) == pytest.approx(5.0)
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (2.0, 3.0)]) == pytest.approx(5.0)
    # a child inside another must not cut the union short
    assert self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0), (4.0, 4.5)]) == pytest.approx(6.0)


def test_self_time_clips_children_to_the_span():
    assert self_time(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0), (6.0, 7.0)]) == pytest.approx(1.0)


def test_self_time_touching_children():
    assert self_time(0.0, 4.0, [(1.0, 2.0), (2.0, 3.0)]) == pytest.approx(2.0)


# -- tail percentile -----------------------------------------------------------


def test_tail_omitted_below_eleven_samples():
    assert tail_percentile(range(10)) is None
    assert tail_percentile([]) is None


def test_tail_keeps_ten_samples_beyond():
    q, v, n = tail_percentile(range(11))
    assert n == 11 and v == 0 and q == 9
    for n in (11, 18, 35, 99, 100, 505):
        xs = list(range(n))
        q, v, _ = tail_percentile(xs)
        assert sum(1 for x in xs if x > v) >= 10
        if q < 90:  # the next percentile up would leave fewer than 10 beyond
            rank = -(-(q + 1) * n // 100)
            assert n - rank < 10


def test_tail_caps_at_p90():
    q, v, n = tail_percentile(range(1000))
    assert (q, v, n) == (90, 899, 1000)


# -- seeded inputs ---------------------------------------------------------------


@pytest.mark.parametrize("workload", ["khasminskii_sinh", "capacity_sinh"])
def test_seed_zero_reproduces_committed_scenarios(workload, tmp_path):
    committed = json.loads((ROOT / "scenarios" / f"{workload}.json").read_text())
    inv = inputs.write_inputs(ROOT, workload, 0, tmp_path)
    assert json.loads(Path(inv["argv"][1]).read_text()) == committed


def test_seed_zero_library_and_audit_inputs(tmp_path):
    inv = inputs.write_inputs(ROOT, "dirichlet_box2d", 0, tmp_path)
    assert json.loads(Path(inv["input"]).read_text()) == {"h": 1 / 32, "a": 1.0}
    assert inputs.write_inputs(ROOT, "audit", 0, tmp_path)["argv"][-2:] == ["--seed", "0"]


def test_other_seeds_stay_in_range_and_repeat():
    base = json.loads((ROOT / "scenarios" / "khasminskii_sinh.json").read_text())
    for seed in range(1, 30):
        sc = inputs.scenario(ROOT, "khasminskii_sinh", seed)
        assert sc == inputs.scenario(ROOT, "khasminskii_sinh", seed)
        assert abs(sc["manifold"]["n"] - base["manifold"]["n"]) <= inputs.KH_N_SPREAD
        assert np.all(np.abs(np.subtract(sc["params"]["radii"], base["params"]["radii"]))
                      <= inputs.KH_RADIUS_SHIFT + 1e-9)
        cap = inputs.scenario(ROOT, "capacity_sinh", seed)["params"]["radii"]
        assert len(cap) == 101 and np.all(np.diff(cap) > 0)
        assert cap[-1] <= 102.0
        a = inputs.box_problem(seed)["a"]
        assert inputs.BOX_A_RANGE[0] <= a <= inputs.BOX_A_RANGE[1]


def test_last_node_of_the_capacity_grid():
    assert run._last_node(1.0, 102.0, 2021, 102.0) == pytest.approx(102.0)
    assert run._last_node(1.0, 102.0, 2021, 101.6) == pytest.approx(101.6)
    assert run._last_node(1.0, 102.0, 2021, 101.62) == pytest.approx(101.6)


# -- wrappers ----------------------------------------------------------------------


def _snapshot():
    import subeq.cli
    import subeq.subequations as su

    mods = {k: dict(vars(m)) for k, m in sys.modules.items()
            if k == "subeq" or k.startswith("subeq.")}
    return mods, su.Subequation.__dict__["value"], dict(subeq.cli._TASKS)


@pytest.mark.parametrize("traced", [False, True])
def test_wrappers_restore_the_original_attributes(traced):
    import subeq._kernels as K
    import subeq.cli as cli
    import subeq.khasminskii as kh
    import subeq.subequations as su

    before_mods, before_value, before_tasks = _snapshot()
    rec = Recorder("t", spans_on=traced)
    rec.install()
    rec.probe_task(cli._TASKS, "capacity", is_item=True)
    assert kh.solve_obstacle is not before_mods["subeq.khasminskii"]["solve_obstacle"]
    assert (K.vector_node_solve is not before_mods["subeq._kernels"]["vector_node_solve"]) == traced
    rec.uninstall()
    after_mods, after_value, after_tasks = _snapshot()
    assert after_value is before_value
    assert after_tasks == before_tasks
    for name, attrs in before_mods.items():
        for key, val in attrs.items():
            assert after_mods[name][key] is val, f"{name}.{key} not restored"
    assert su.Subequation.value is before_value


def test_traced_solve_records_spans_and_counts():
    from subeq.manifolds import RadialModel
    from subeq.profiles import Profile
    from subeq.solver import ProblemSpec
    from subeq.subequations import laplace
    import subeq.properties as props

    M = RadialModel.uniform(2, "sinh", 1.0, 4.0, 41)
    spec = ProblemSpec(laplace(Profile.linear(1.0), m=2), M, {"inner": 0.0, "outer": -1.0})
    rec = Recorder("t", spans_on=True)
    rec.install()
    try:
        _, cert = props.perron_dirichlet(spec)
    finally:
        rec.uninstall()
    assert cert.passed
    assert len(rec.solves) == 1 and rec.solves[0][1]
    assert rec.counts["cert_sweeps"] == cert.counts["sweeps"]
    assert rec.counts["g_evals"] >= rec.counts["node_solves"] > 0
    names = {s[0] for s in rec.spans}
    assert {"solver.solve", "_kernels.sweep", "_kernels.node_solve", "_ir.lower"} <= names
    for name, start, end, parent in rec.spans:
        assert end >= start
        if parent >= 0:
            assert rec.spans[parent][1] <= start and end <= rec.spans[parent][2]
    metrics = run.layer_metrics({"spans": rec.span_records(), "counts": dict(rec.counts)})
    assert metrics["_kernels.sweeps"][0] == cert.counts["sweeps"]
    assert metrics["solver.solves"][0] == 1


# -- the contract file ---------------------------------------------------------------


def test_benchmark_json_names_what_the_runs_print():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake = {"setups": [0.1], "runs": [{"ok": True, "t_task": 1.0, "t_end": 2.0,
                                       "maxrss_kb": 1000, "solves": [[0.5, True, "numpy", 3]],
                                       "failures": []}]}
    e2e = run.end_to_end(fake)["metrics"]
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in bench["end_to_end"])
    layers = run.layer_metrics({"spans": [], "counts": {}})
    layers["trace.run_s"] = (None, "s")
    for m in bench["per_layer"]:
        assert layers[m["name"]][1] == m["unit"], m["name"]
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
