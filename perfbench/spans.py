"""Layer spans and counters, recorded from outside subeq.

A ``Recorder`` replaces each layer's public function at every module
attribute where a caller looks it up (``subeq.khasminskii.solve_obstacle``,
``subeq.solver.lower``, ``Subequation.value`` and so on) with a wrapper that
times the call and counts its work.  ``uninstall`` puts every original back.

Untraced runs install only the probes that the end-to-end metrics need: the
solve calls (latency and certificate) and the report writer (end of the
run).  Traced runs install every hook and also keep one span per call:
``[name, start, end, parent index]``, held in memory and written out when
the child ends.  A hook whose group is already open on the stack calls
straight through, so recursion and the solver's own nested calls (for
example ``perron_dirichlet`` handing over to ``solve_obstacle``) count once.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# One clock for spans and for the cross-process set-up stamp: on Linux
# time.monotonic is CLOCK_MONOTONIC, shared by parent and child.
clock = time.monotonic

# (defining module, attribute, span group, traced runs only)
HOOKS = (
    ("subeq.solver", "perron_dirichlet", "solver.solve", False),
    ("subeq.solver", "solve_obstacle", "solver.solve", False),
    ("subeq.reports", "write_report", "reports.write", False),
    ("subeq.solver", "verify_subharmonic", "solver.verify", True),
    ("subeq.solver", "comparison_check", "solver.verify", True),
    ("subeq.solver", "make_barrier", "solver.barrier", True),
    ("subeq._kernels", "sweep_line_numpy", "_kernels.sweep", True),
    ("subeq._kernels", "sweep_line", "_kernels.sweep", True),
    ("subeq._kernels", "residual_line_numpy", "_kernels.residual", True),
    ("subeq._kernels", "residual_line", "_kernels.residual", True),
    ("subeq._kernels", "vector_node_solve", "_kernels.node_solve", True),
    ("subeq._ir", "lower", "_ir.lower", True),
    ("subeq.subequations", "Subequation.value", "subequations.value", True),
    ("subeq.subequations", "distance_to_boundary", "subequations.distance", True),
    ("subeq.manifolds", "batch_jets", "manifolds.batch_jets", True),
    ("subeq.jets", "garding_eigenvalues_batch", "jets.garding", True),
    ("subeq.jets", "eigenvalues_sym_batch", "jets.eig", True),
    ("subeq.khasminskii", "build_potential", "khasminskii.build", True),
    ("subeq.properties", "inf_capacity", "properties.capacity", True),
    ("subeq.cli", "_validate", "cli.validate", True),
)

# groups whose direct children mark the solver's engine phase
ENGINE_GROUPS = ("_kernels.sweep", "_kernels.residual", "_kernels.node_solve")


class SetupDone(Exception):
    """Raised by the task probe in set-up-only children."""


class Recorder:
    def __init__(self, run_id: str, spans_on: bool):
        self.run_id = run_id
        self.spans_on = spans_on
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.solves = []         # [seconds, certified, engine, sweeps]
        self.task_start = None
        self.task_end = None
        self.setup_only = False
        self._stack = []
        self._open_groups = set()
        self._conv_tol = 0.0
        self._jacobi_v0 = None
        self._patches = []       # (owner, name, original, is_dict_item)

    # -- spans -----------------------------------------------------------
    def span_records(self):
        return [[n, s, e, p, self.run_id] for n, s, e, p in self.spans]

    def _wrap(self, group, orig, before=None, after=None):
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if group in rec._open_groups:
                return orig(*args, **kwargs)
            if before is not None:
                args = before(args, kwargs)
            rec._open_groups.add(group)
            t0 = clock()
            idx = -1
            if rec.spans_on:
                idx = len(rec.spans)
                rec.spans.append([group, t0, t0, rec._stack[-1] if rec._stack else -1])
                rec._stack.append(idx)
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = clock()
                rec._open_groups.discard(group)
                if idx >= 0:
                    rec.spans[idx][2] = t1
                    rec._stack.pop()
            if after is not None:
                after(out, t0, t1)
            return out

        return wrapper

    # -- per-hook work counting -----------------------------------------
    def _before_solve(self, args, kwargs):
        spec = args[0] if args else kwargs["spec"]
        self._conv_tol = spec.conv_tol()
        return args

    def _after_solve(self, out, t0, t1):
        cert = out[1]
        sweeps = int(cert.counts.get("sweeps", 0))
        self.solves.append([t1 - t0, bool(cert.passed),
                            str(cert.params.get("engine")), sweeps])
        self.counts["cert_sweeps"] += sweeps

    def _after_report(self, out, t0, t1):
        self.task_end = t1
        if self.spans_on:
            self.counts["report_bytes"] += sum(
                f.stat().st_size for f in Path(out).parent.iterdir() if f.is_file())

    def _after_sweep(self, out, t0, t1):
        if out[0] > self._conv_tol:
            self.counts["productive_sweeps"] += 1

    def _before_node_solve(self, args, kwargs):
        G, v0 = args[0], args[1]
        counts = self.counts
        counts["node_solves"] += int(np.size(v0))
        # called by the solver itself, not by a line sweep: one Jacobi sweep
        # of the generic engine
        self._jacobi_v0 = None if "_kernels.sweep" in self._open_groups else v0

        def counted(v):
            counts["g_evals"] += int(np.size(v))
            return G(v)

        return (counted,) + tuple(args[1:])

    def _after_node_solve(self, out, t0, t1):
        if self._jacobi_v0 is not None:
            self.counts["jacobi_sweeps"] += 1
            if np.abs(out - self._jacobi_v0).max(initial=0.0) > self._conv_tol:
                self.counts["productive_sweeps"] += 1

    def _after_lower(self, out, t0, t1):
        if out is not None:
            self.counts["lowered"] += 1

    def _before_value(self, args, kwargs):
        r = args[2] if len(args) > 2 else kwargs["r"]
        self.counts["value_jets"] += int(np.size(r))
        return args

    def _after_build(self, out, t0, t1):
        cert = out[1]
        self.counts["stages"] += int(cert.counts.get("stages", len(cert.trace)))

    def _hook_fns(self, group):
        return {
            "solver.solve": (self._before_solve, self._after_solve),
            "reports.write": (None, self._after_report),
            "_kernels.sweep": (None, self._after_sweep),
            "_kernels.node_solve": (self._before_node_solve, self._after_node_solve),
            "_ir.lower": (None, self._after_lower),
            "subequations.value": (self._before_value, None),
            "khasminskii.build": (None, self._after_build),
        }.get(group, (None, None))

    # -- installing and restoring -------------------------------------------
    def _patch(self, owner, name, new, is_item=False):
        old = owner[name] if is_item else getattr(owner, name)
        self._patches.append((owner, name, old, is_item))
        if is_item:
            owner[name] = new
        else:
            setattr(owner, name, new)

    def install(self):
        """Wrap every hooked function at each place subeq looks it up."""
        importlib.import_module("subeq.cli")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "subeq" or k.startswith("subeq."))]
        for modname, attr, group, traced_only in HOOKS:
            if traced_only and not self.spans_on:
                continue
            home = sys.modules[modname]
            before, after = self._hook_fns(group)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(group, getattr(cls, meth), before, after))
                continue
            # a later version may drop a function (say the numba kernels);
            # the benchmark must still run on both sides of such a change
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(group, orig, before, after)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, name, wrapper)

    def probe_task(self, owner, name, is_item=False):
        """Mark the start of the workload's task at its first call."""
        orig = owner[name] if is_item else getattr(owner, name)
        rec = self

        @functools.wraps(orig)
        def task(*args, **kwargs):
            rec.task_start = clock()
            if rec.setup_only:
                raise SetupDone
            return orig(*args, **kwargs)

        self._patch(owner, name, task, is_item)

    def uninstall(self):
        while self._patches:
            owner, name, old, is_item = self._patches.pop()
            if is_item:
                owner[name] = old
            else:
                setattr(owner, name, old)
