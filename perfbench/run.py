"""Time-to-certificate benchmark for subeq.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout.  Closed loop: one client and one child
process at a time, BLAS threads pinned to 1.  Each child imports subeq from
``src``, runs the workload once on inputs generated from the seed, and the
outputs are checked against the workload's oracle.  A run first starts a
few set-up-only children (they stop at the first call into the task), then
full children until ``--seconds`` is spent, and reports medians.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the children also record layer
spans and the line carries the per-layer metrics.  The lines before it
print every metric by name and unit, with the tail percentiles and sample
counts.  ``--all`` runs every workload untraced and traced, prints both
and the tracing overhead, and writes ``perfbench/baseline.json`` with an
environment block.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from measure import median, self_time, tail_percentile  # noqa: E402
from spans import ENGINE_GROUPS  # noqa: E402

SETUP_CHILDREN = 5        # set-up-only children per run
MIN_CHILDREN = 2          # full children per run, whatever --seconds says
CHILD_TIMEOUT = 150.0     # seconds; a child past this counts as failed
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
CAPACITY_TOL = 1e-8

# counts that must repeat exactly between two traced children at one seed
EXACT_COUNTS = ("_kernels.sweeps", "_kernels.node_solves", "_kernels.g_evals",
                "_kernels.residual_checks", "subequations.value_calls",
                "subequations.value_jets", "manifolds.batch_jets_calls",
                "solver.solves", "khasminskii.stages", "properties.capacitor_solves")


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def spawn(root: Path, work: Path, inv: dict, run_id: str, trace: bool,
          setup_only: bool) -> dict:
    """Run one child to completion; return its timings and result."""
    work.mkdir(parents=True, exist_ok=True)
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps({
        "root": str(root), "run_id": run_id, "trace": trace,
        "setup_only": setup_only, "invocation": inv,
        "out": str(work / "out"), "result": str(result_path)}))
    env = dict(os.environ, **BLAS_PIN)
    log = work / "child.log"
    t_spawn = time.monotonic()
    try:
        with open(log, "wb") as fh:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                  cwd=root, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    t_exit = time.monotonic()
    res = json.loads(result_path.read_text()) if code == 0 and result_path.exists() else None
    if res is None:
        tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
        print(f"[perfbench] child {run_id} failed ({code}):\n{tail}", file=sys.stderr)
        return {"ok": False, "wall_s": t_exit - t_spawn}
    res.update(ok=True, wall_s=t_exit - t_spawn,
               setup_s=res["t_task"] - t_spawn if res["t_task"] is not None else None)
    return res


def check_outputs(workload: str, inv: dict, res: dict, out_dir: Path) -> list:
    """The workload's output checks; returns the failures found."""
    if not res["ok"]:
        return ["child process failed"]
    fails = []
    if res["exit_code"] != 0:
        fails.append(f"exit code {res['exit_code']}")
    if workload == "dirichlet_box2d":
        if not res["certified"]:
            fails.append("certificate not passed")
        if not res["oracle_error"] <= res["oracle_bound"]:
            fails.append(f"oracle error {res['oracle_error']:.3e} > {res['oracle_bound']:.3e}")
        return fails
    report_path = out_dir / "report.json"
    if not report_path.exists():
        return fails + ["no report.json"]
    report = json.loads(report_path.read_text())
    if workload == "khasminskii_sinh":
        if not (report.get("passed") and all(c["passed"] for c in report["certificates"])):
            fails.append("certificate not passed")
        for st in report.get("stages", []):
            if not (st.get("monotone") and st["gap"] <= st["gap_target"]):
                fails.append(f"stage {st.get('stage')} not monotone within its gap target")
        if not report.get("stages"):
            fails.append("no stages reported")
    elif workload == "capacity_sinh":
        if not report.get("monotone_trace"):
            fails.append("capacity trace not monotone")
        mf, params = inv["scenario"]["manifold"], inv["scenario"]["params"]
        r_last = _last_node(mf["r_lo"], mf["r_hi"], mf["n"], report["trace"]["radii"][-1])
        expect = 1.0 / (r_last - params["r_K"])
        if not abs(report["estimate"] - expect) <= CAPACITY_TOL:
            fails.append(f"capacity {report['estimate']!r} != 1/(R_last - r_K) = {expect!r}")
    elif workload == "audit":
        certs = report.get("certificates", [])
        if len(certs) != 4 or not all(c["passed"] for c in certs):
            fails.append("audit suites not all passed")
    return fails


def _last_node(r_lo, r_hi, n, radius):
    """The outermost node of the uniform radial grid at or inside ``radius``."""
    h = (r_hi - r_lo) / (n - 1)
    k = int((radius - r_lo) / h + 1e-9)
    while k + 1 < n and r_lo + (k + 1) * h <= radius + 1e-12:
        k += 1
    return r_lo + k * (r_hi - r_lo) / (n - 1)


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop over children of one workload for about ``seconds``."""
    base = root / ".perfbench_work" / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    t_begin = time.monotonic()
    deadline = t_begin + seconds
    try:
        inv = inputs.write_inputs(root, workload, seed, base / "inputs")
        setups, runs, failures = [], [], []
        for k in range(SETUP_CHILDREN):
            res = spawn(root, base / f"setup{k}", inv, f"{workload}/{seed}/setup{k}",
                        trace=False, setup_only=True)
            if res["ok"] and res["setup_s"] is not None:
                setups.append(res["setup_s"])
            else:
                failures.append(f"setup{k}: child failed")
        last = 0.0
        while len(runs) < MIN_CHILDREN or time.monotonic() + last <= deadline:
            k = len(runs)
            work = base / f"run{k}"
            res = spawn(root, work, inv, f"{workload}/{seed}/run{k}",
                        trace=trace, setup_only=False)
            res["failures"] = check_outputs(workload, inv, res, work / "out")
            failures += [f"run{k}: {f}" for f in res["failures"]]
            if res["ok"] and res["setup_s"] is not None:
                setups.append(res["setup_s"])
            if trace and res["ok"]:
                res["layers"] = layer_metrics(res)
                del res["spans"]
            runs.append(res)
            last = res["wall_s"]
            shutil.rmtree(work, ignore_errors=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass
    return {"workload": workload, "seed": seed, "trace": trace, "setups": setups,
            "runs": runs, "failures": failures,
            "elapsed_s": time.monotonic() - t_begin}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(run: dict) -> dict:
    ok = [r for r in run["runs"] if r["ok"] and r["t_end"] is not None]
    run_s = [r["t_end"] - r["t_task"] for r in ok]
    solve_ms = [1e3 * s[0] for r in ok for s in r["solves"]]
    rss = [r["maxrss_kb"] * 1024 / 1e6 for r in ok]
    attempted = len(run["runs"]) + sum(len(r.get("solves", [])) for r in run["runs"])
    failed = (sum(1 for r in run["runs"] if r["failures"])
              + sum(1 for r in run["runs"] for s in r.get("solves", []) if not s[1]))
    return {
        "metrics": {
            "setup_s": (median(run["setups"]) if run["setups"] else None, "s"),
            "run_s": (median(run_s) if run_s else None, "s"),
            "peak_rss_mb": (median(rss) if rss else None, "MB"),
            "solve_ms_p50": (median(solve_ms) if solve_ms else None, "ms"),
        },
        "samples": {"setup_s": len(run["setups"]), "run_s": len(run_s),
                    "solve_ms": len(solve_ms)},
        "run_s_samples": run_s,
        "run_s_tail": tail_percentile(run_s),
        "solve_ms_tail": tail_percentile(solve_ms),
        "attempted": attempted, "failed": failed,
        "engines": dict(Counter(s[2] for r in ok for s in r["solves"])),
    }


def layer_metrics(res: dict) -> dict:
    """Per-layer metrics of one traced child, from its spans and counters."""
    spans, counts = res["spans"], Counter(res["counts"])
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i, (name, _s, _e, parent, _run) in enumerate(spans):
        by_name[name].append(i)
        if parent >= 0:
            children[parent].append(i)

    def n(group):
        return len(by_name[group])

    def busy(group):
        return sum(spans[i][2] - spans[i][1] for i in by_name[group])

    def own(group):
        return sum(self_time(spans[i][1], spans[i][2],
                             [(spans[c][1], spans[c][2]) for c in children[i]])
                   for i in by_name[group])

    def has_ancestor(i, group):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == group:
                return True
            p = spans[p][3]
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    # a generic-engine (Jacobi) sweep is a node-solve call made by the solver
    jacobi = [i for i in by_name["_kernels.node_solve"]
              if spans[i][3] < 0 or spans[spans[i][3]][0] != "_kernels.sweep"]
    sweeps = n("_kernels.sweep") + len(jacobi)
    sweep_s = busy("_kernels.sweep") + sum(spans[i][2] - spans[i][1] for i in jacobi)
    init_s = certify_s = 0.0
    for i in by_name["solver.solve"]:
        _, s, e, _, _ = spans[i]
        eng = [c for c in children[i] if spans[c][0] in ENGINE_GROUPS]
        init_s += (spans[eng[0]][1] if eng else e) - s
        certify_s += e - (spans[eng[-1]][2] if eng else e)
    solves = n("solver.solve")
    stages = counts["stages"]
    value_s = busy("subequations.value")
    return {
        "_kernels.sweeps": (sweeps, "count"),
        "_kernels.sweep_s": (sweep_s, "s"),
        "_kernels.productive_sweep_frac": (
            ratio(counts["productive_sweeps"], sweeps), "ratio"),
        "_kernels.node_solves": (counts["node_solves"], "count"),
        "_kernels.node_solve_s": (busy("_kernels.node_solve"), "s"),
        "_kernels.g_evals": (counts["g_evals"], "count"),
        "_kernels.g_evals_per_node_solve": (
            ratio(counts["g_evals"], counts["node_solves"]), "ratio"),
        "_kernels.residual_checks": (n("_kernels.residual"), "count"),
        "_kernels.residual_s": (busy("_kernels.residual"), "s"),
        "solver.solves": (solves, "count"),
        "solver.solve_s": (busy("solver.solve"), "s"),
        "solver.self_s": (own("solver.solve"), "s"),
        "solver.init_s": (init_s, "s"),
        "solver.certify_s": (certify_s, "s"),
        "solver.sweeps_per_solve": (ratio(counts["cert_sweeps"], solves), "ratio"),
        "solver.verify_s": (busy("solver.verify"), "s"),
        "solver.barrier_s": (busy("solver.barrier"), "s"),
        "_ir.lower_s": (busy("_ir.lower"), "s"),
        "_ir.lowered_frac": (ratio(counts["lowered"], n("_ir.lower")), "ratio"),
        "subequations.value_calls": (n("subequations.value"), "count"),
        "subequations.value_jets": (counts["value_jets"], "count"),
        "subequations.value_s": (value_s, "s"),
        "subequations.jets_per_s": (ratio(counts["value_jets"], value_s), "1/s"),
        "subequations.distance_s": (busy("subequations.distance"), "s"),
        "manifolds.batch_jets_calls": (n("manifolds.batch_jets"), "count"),
        "manifolds.batch_jets_s": (busy("manifolds.batch_jets"), "s"),
        "jets.garding_s": (busy("jets.garding"), "s"),
        "jets.eig_s": (busy("jets.eig"), "s"),
        "khasminskii.build_s": (busy("khasminskii.build"), "s"),
        "khasminskii.self_s": (own("khasminskii.build"), "s"),
        "khasminskii.stages": (stages, "count"),
        "khasminskii.solves_per_stage": (ratio(sum(
            1 for i in by_name["solver.solve"] if has_ancestor(i, "khasminskii.build")),
            stages), "ratio"),
        "properties.capacity_s": (busy("properties.capacity"), "s"),
        "properties.capacitor_solves": (sum(
            1 for i in by_name["solver.solve"] if has_ancestor(i, "properties.capacity")),
            "count"),
        "reports.write_s": (busy("reports.write"), "s"),
        "reports.bytes": (counts["report_bytes"], "B"),
        "cli.validate_s": (busy("cli.validate"), "s"),
    }


def per_layer(run: dict) -> dict:
    """Median layer times over the traced children; counts must agree."""
    ok = [r for r in run["runs"] if r["ok"] and "layers" in r]
    out, mismatched = {}, []
    if not ok:
        return {"metrics": {}, "mismatched": ["no traced child finished"]}
    for name, (_, unit) in ok[0]["layers"].items():
        vals = [r["layers"][name][0] for r in ok]
        if len(set(vals)) == 1:
            out[name] = (vals[0], unit)
            continue
        if name in EXACT_COUNTS:
            mismatched.append(f"{name}: {vals}")
        out[name] = (median(vals), unit)
    traced = [r["t_end"] - r["t_task"] for r in ok if r["t_end"] is not None]
    out["trace.run_s"] = (median(traced) if traced else None, "s")
    return {"metrics": out, "mismatched": mismatched, "children": len(ok)}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _fmt_tail(tail, unit):
    if tail is None:
        return "omitted (fewer than 11 samples)"
    q, v, n = tail
    return f"{v:.6g} {unit} (p{q} of {n} samples)"


def print_end_to_end(workload: str, e2e: dict):
    m = e2e["metrics"]
    print(f"== {workload}: end to end, {e2e['samples']['run_s']} runs, "
          f"{e2e['samples']['setup_s']} set-ups, {e2e['samples']['solve_ms']} solves")
    for name, (val, unit) in m.items():
        print(f"  {name:<16} {val!r} {unit}")
    print(f"  {'run_s samples':<16} {[round(x, 4) for x in e2e['run_s_samples']]}")
    print(f"  {'run_s tail':<16} {_fmt_tail(e2e['run_s_tail'], 's')}")
    print(f"  {'solve_ms_p90':<16} {_fmt_tail(e2e['solve_ms_tail'], 'ms')}")
    print(f"  {'failed_frac':<16} {e2e['failed']}/{e2e['attempted']} = "
          f"{e2e['failed'] / e2e['attempted']!r} ratio")
    print(f"  {'engines':<16} {e2e['engines']}")


def print_layers(workload: str, layers: dict):
    print(f"== {workload}: per layer (traced, median of {layers.get('children', 0)} children)")
    for name, (val, unit) in layers["metrics"].items():
        print(f"  {name:<34} {val!r} {unit}")
    for mm in layers["mismatched"]:
        print(f"  COUNT MISMATCH {mm}")


def environment(runs) -> dict:
    """Versions, engines, CPUs, the BLAS pin and the solver tolerances."""
    def version(mod):
        try:
            return importlib.import_module(mod).__version__
        except ImportError:
            return None

    policy = next((r["policy"] for run in runs for r in run["runs"] if r["ok"]), None)
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "numba_imports": version("numba") is not None,
        "solve_engines": {run["workload"]: end_to_end(run)["engines"] for run in runs
                          if not run["trace"]},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
        "policy": policy,
    }


def result_line(e2e: dict, correct: bool, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": e2e["attempted"], "failed": e2e["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "subeq" / "__init__.py").is_file():
        print("perfbench: run from the root of a subeq checkout (no src/subeq here)",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(root, args.seed, args.seconds)
    if args.workload is None:
        ap.error("give --workload NAME or --all")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    run = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    e2e = end_to_end(run)
    for f in run["failures"]:
        print(f"  FAILED {f}")
    if args.trace:
        layers = per_layer(run)
        print_layers(args.workload, layers)
        correct = not run["failures"] and not layers["mismatched"]
        measured, listed = layers["metrics"], bench["per_layer"]
    else:
        print_end_to_end(args.workload, e2e)
        correct = not run["failures"]
        measured, listed = e2e["metrics"], bench["end_to_end"]
    # the result line carries exactly the metrics BENCHMARK.json lists
    metrics = {m["name"]: measured.get(m["name"], (None, m["unit"])) for m in listed}
    print(result_line(e2e, correct and all(v is not None for v, _ in metrics.values()),
                      metrics))
    return 0


def run_all(root: Path, seed: int, seconds: float) -> int:
    runs, summary = [], {}
    for workload in inputs.WORKLOADS:
        plain = run_workload(root, workload, seed, seconds, trace=False)
        traced = run_workload(root, workload, seed, seconds, trace=True)
        runs += [plain, traced]
        e2e, layers = end_to_end(plain), per_layer(traced)
        print_end_to_end(workload, e2e)
        print_layers(workload, layers)
        overhead = None
        if e2e["metrics"]["run_s"][0] is not None and layers["metrics"]["trace.run_s"][0]:
            overhead = layers["metrics"]["trace.run_s"][0] - e2e["metrics"]["run_s"][0]
        print(f"  {'tracing overhead':<34} {overhead!r} s")
        for f in plain["failures"] + traced["failures"]:
            print(f"  FAILED {f}")
        summary[workload] = {
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e["metrics"].items()},
            "samples": e2e["samples"],
            "run_s_tail": e2e["run_s_tail"], "solve_ms_p90": e2e["solve_ms_tail"],
            "failed_frac": e2e["failed"] / e2e["attempted"],
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers["metrics"].items()},
            "tracing_overhead_s": overhead,
            "count_mismatches": layers["mismatched"],
            "failures": plain["failures"] + traced["failures"],
        }
    out = {"seed": seed, "seconds": seconds, "environment": environment(runs),
           "workloads": summary}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {HERE / 'baseline.json'}")
    return 0 if all(not w["failures"] and not w["count_mismatches"]
                    for w in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
