"""One benchmark child: set up one workload, run it once, record what it did.

    python3 perfbench/child.py SPEC.json

``SPEC.json`` is written by ``run.py``.  The child imports subeq from the
checkout's ``src``, installs the recorder's hooks, runs the workload and
writes a result file: when the task started and ended, every solve's
latency and certificate, the peak RSS and, in traced runs, the spans.  A
set-up-only child stops at the first call into the task.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np


def peak_rss_kb() -> int:
    """Peak RSS of this process image.

    VmHWM belongs to the address space made at exec; ``ru_maxrss`` would
    also carry the parent's peak, inherited across fork and exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_cli(rec, inv, out_dir):
    import subeq.cli as cli

    argv = list(inv["argv"]) + ["--out", str(out_dir)]
    if argv[0] == "audit":
        rec.probe_task(cli, "run_audit")
    else:
        rec.probe_task(cli._TASKS, inv["scenario"]["task"], is_item=True)
    return {"exit_code": cli.main(argv)}


def run_library(rec, inv):
    """Dirichlet problem for the Laplacian on [0,1]^2, boundary data e^{ax}cos(ay)."""
    import subeq.solver as solver
    from spans import clock
    from subeq.manifolds import FlatBox
    from subeq.profiles import Profile
    from subeq.subequations import laplace

    p = json.loads(Path(inv["input"]).read_text())
    a, h = p["a"], p["h"]

    def exact(c):
        return np.exp(a * c[:, 0]) * np.cos(a * c[:, 1])

    M = FlatBox(2, [(0.0, 1.0), (0.0, 1.0)], h)
    spec = solver.ProblemSpec(laplace(Profile.linear(0.0), m=2), M, {"side": exact})
    rec.probe_task(solver, "perron_dirichlet")
    u, cert = solver.perron_dirichlet(spec)
    rec.task_end = clock()
    err = float(np.abs(u.values - exact(M.coords)).max())
    # discrete maximum principle: |error| <= (max truncation error) / 8 on
    # the unit square, truncation (h^2/12)(u_xxxx + u_yyyy) <= h^2 a^4 e^a / 6
    bound = M.h.max() ** 2 * a**4 * np.exp(a) / 48 + 10 * spec.policy.membership_tol
    return {"exit_code": 0, "certified": bool(cert.passed),
            "oracle_error": err, "oracle_bound": float(bound)}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    from spans import Recorder, SetupDone
    from subeq.policy import DEFAULT_POLICY

    rec = Recorder(spec["run_id"], spans_on=spec["trace"])
    rec.setup_only = spec["setup_only"]
    rec.install()
    inv = spec["invocation"]
    result = {}
    try:
        if inv["kind"] == "cli":
            result = run_cli(rec, inv, Path(spec["out"]))
        else:
            result = run_library(rec, inv)
    except SetupDone:
        result = {"exit_code": 0}
    finally:
        rec.uninstall()
    result.update({
        "t_task": rec.task_start, "t_end": rec.task_end, "solves": rec.solves,
        "counts": dict(rec.counts),
        "maxrss_kb": peak_rss_kb(),
        "policy": {"convergence_tol": DEFAULT_POLICY.convergence_tol,
                   "membership_tol": DEFAULT_POLICY.membership_tol},
    })
    if rec.spans_on:
        result["spans"] = rec.span_records()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
