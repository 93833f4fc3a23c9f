"""Machine-checkable reports emitted by audits, solvers and checkers.

A ``Certificate`` collects per-node residual arrays, worst violations,
an iteration trace and the parameters that produced it.  Serialization
to report.json + CSV sidecars lives in :mod:`subeq.reports`.  A
certificate holds no wall time: the runner (:mod:`subeq.cli`) times each
task or audit suite and writes the ``timing.txt`` sidecar, so repeated
runs give byte-identical certificates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Certificate:
    name: str
    passed: bool
    tolerance: float
    worst: dict = field(default_factory=dict)      # label -> float
    counts: dict = field(default_factory=dict)     # label -> int
    params: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)  # label -> ndarray (CSV sidecar)
    trace: list = field(default_factory=list)      # list of per-stage dicts
    notes: list = field(default_factory=list)

    def merge_child(self, child: "Certificate", prefix: str) -> None:
        self.passed = self.passed and child.passed
        for k, v in child.worst.items():
            self.worst[f"{prefix}.{k}"] = v
        for k, v in child.counts.items():
            self.counts[f"{prefix}.{k}"] = v
        self.notes.extend(f"{prefix}: {n}" for n in child.notes)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "tolerance": self.tolerance,
            "worst": {k: _jsonify(v) for k, v in self.worst.items()},
            "counts": {k: int(v) for k, v in self.counts.items()},
            "params": {k: _jsonify(v) for k, v in self.params.items()},
            "trace": [_jsonify(t) for t in self.trace],
            "notes": list(self.notes),
            "residual_arrays": sorted(self.residuals.keys()),
        }


def _jsonify(v):
    if isinstance(v, dict):
        return {k: _jsonify(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonify(x) for x in v]
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (np.bool_,)):
        return bool(v)
    return v
