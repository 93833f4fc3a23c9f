"""Seeded inputs for the benchmark workloads.

Seed 0 reproduces the committed inputs exactly: the scenario files under
``scenarios/``, ``a = 1`` for the 2-D Dirichlet problem and ``--seed 0``
for the audit.  Other seeds vary the inputs only inside ranges where every
certificate still passes and the amount of work stays about the same.  The
program receives only the files and arguments written here.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("khasminskii_sinh", "capacity_sinh", "dirichlet_box2d", "audit")

# khasminskii_sinh: grid size and the offsets of the exhaustion radii
KH_N_SPREAD = 4          # n in [n0 - 4, n0 + 4]
KH_RADIUS_SHIFT = 0.02   # each radius moves by at most this much
# capacity_sinh: each exhaustion radius moves down by at most this much
CAP_RADIUS_SHIFT = 0.45
# dirichlet_box2d: boundary data e^{ax} cos(ay)
BOX_H = 1.0 / 32
BOX_A_RANGE = (0.75, 1.25)


def scenario(root: Path, workload: str, seed: int) -> dict:
    """The scenario dict for a CLI scenario workload at ``seed``."""
    sc = json.loads((root / "scenarios" / f"{workload}.json").read_text())
    if seed == 0:
        return sc
    rng = random.Random(seed)
    params = sc["params"]
    if workload == "khasminskii_sinh":
        sc["manifold"]["n"] += rng.randint(-KH_N_SPREAD, KH_N_SPREAD)
        params["radii"] = [round(r + rng.uniform(-KH_RADIUS_SHIFT, KH_RADIUS_SHIFT), 6)
                           for r in params["radii"]]
    elif workload == "capacity_sinh":
        params["radii"] = [round(r - rng.uniform(0.0, CAP_RADIUS_SHIFT), 6)
                           for r in params["radii"]]
    else:
        raise ValueError(f"no scenario for workload {workload!r}")
    sc["seed"] = seed
    return sc


def box_problem(seed: int) -> dict:
    """Parameters of the library workload: Laplace on [0,1]^2 at h = 1/32."""
    a = 1.0 if seed == 0 else round(random.Random(seed).uniform(*BOX_A_RANGE), 6)
    return {"h": BOX_H, "a": a}


def write_inputs(root: Path, workload: str, seed: int, work: Path) -> dict:
    """Write the inputs of one workload into ``work``; return how to run it.

    The result is ``{"kind": "cli", "argv": [...], ...}`` for the CLI
    workloads and ``{"kind": "library", "input": path}`` for the library one.
    ``argv`` lacks the ``--out`` option, which each child adds.
    """
    work.mkdir(parents=True, exist_ok=True)
    if workload in ("khasminskii_sinh", "capacity_sinh"):
        sc = scenario(root, workload, seed)
        path = work / f"{workload}.json"
        path.write_text(json.dumps(sc, indent=2) + "\n")
        return {"kind": "cli", "argv": ["run", str(path), "--no-plots"],
                "scenario": sc}
    if workload == "dirichlet_box2d":
        path = work / "dirichlet_box2d.json"
        path.write_text(json.dumps(box_problem(seed)) + "\n")
        return {"kind": "library", "input": str(path)}
    if workload == "audit":
        return {"kind": "cli", "argv": ["audit", "--no-plots", "--seed", str(seed)]}
    raise ValueError(f"unknown workload {workload!r}")
