"""Configuration-driven scenario runner and audit suite.

    subeq run <scenario.json> [--out DIR] [--tol X] [--seed N] [--no-plots]
    subeq audit [--out DIR] [--seed N] [--no-plots]

Exit codes: 0 pass; 2 certified property failure (witness written);
3 numerical non-convergence; 4 input error; audit: 1 on any suite failure.
Diagnostics go to stderr; machine output goes to report.json + sidecars.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import Certificate
from .errors import (
    ConvergenceError,
    DomainError,
    InputError,
    NumericalError,
    SubeqError,
)
from .jets import MAX_DIM, DenseView
from .khasminskii import (
    PairKh,
    Schedule,
    build_potential,
    ekeland_potential,
    log_transform,
    punctured_example_check,
)
from .manifolds import (
    FlatBox,
    GridFunction,
    PuncturedEuclidean,
    RadialModel,
)
from .policy import DEFAULT_POLICY, NumericPolicy
from .profiles import AProfile, Profile
from .properties import (
    Outcome,
    ahlfors_falsification_suite,
    inf_capacity,
    stochastic_completeness,
)
from .reports import write_report
from .solver import ProblemSpec, perron_dirichlet, solve_obstacle
from . import subequations as SU

_DOCS = Path(__file__).resolve().parent / "docs"


# ---------------------------------------------------------------------------
# schema validation (dependency-free subset of JSON schema)
# ---------------------------------------------------------------------------


class _Spec(dict):
    """A scenario file's JSON object: a missing key is an InputError naming it."""

    def __missing__(self, key):
        raise InputError(f"missing key '{key}'")


def _object(spec, what, kind=dict):
    if not isinstance(spec, kind):
        noun = "an object" if kind is dict else "an array"
        raise InputError(f"{what} spec must be {noun}, got {spec!r}")
    return spec


def _load_schema():
    path = _DOCS / "scenario_schema.json"
    return json.loads(path.read_text())


def _validate(obj, schema, where="scenario"):
    t = schema.get("type")
    if t == "object":
        if not isinstance(obj, dict):
            raise InputError(f"{where}: expected object")
        for key in schema.get("required", []):
            if key not in obj:
                raise InputError(f"{where}: missing required key '{key}'")
        props = schema.get("properties", {})
        for key, val in obj.items():
            if key in props:
                _validate(val, props[key], f"{where}.{key}")
    elif t == "array":
        if not isinstance(obj, list):
            raise InputError(f"{where}: expected array")
        item = schema.get("items")
        if item:
            for i, v in enumerate(obj):
                _validate(v, item, f"{where}[{i}]")
    elif t == "number":
        if not isinstance(obj, (int, float)) or isinstance(obj, bool):
            raise InputError(f"{where}: expected number")
    elif t == "integer":
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise InputError(f"{where}: expected integer")
    elif t == "string":
        if not isinstance(obj, str):
            raise InputError(f"{where}: expected string")
    if "enum" in schema and obj not in schema["enum"]:
        raise InputError(f"{where}: '{obj}' not one of {schema['enum']}")


# ---------------------------------------------------------------------------
# spec parsers
# ---------------------------------------------------------------------------


def parse_profile(spec) -> Profile:
    if isinstance(spec, (int, float)):
        return Profile.constant(float(spec))
    kind = _object(spec, "profile").get("kind")
    if kind == "linear":
        return Profile.linear(spec["slope"])
    if kind == "constant":
        return Profile.constant(spec["value"])
    if kind == "table":
        return Profile.table(spec["r"], spec["v"])
    raise InputError(f"unknown profile kind '{kind}'")


def parse_aprofile(spec) -> AProfile:
    kind = _object(spec, "quasilinear coefficient").get("kind")
    if kind == "k_laplacian":
        return AProfile.k_laplacian(spec["k"])
    if kind == "mean_curvature":
        return AProfile.mean_curvature()
    if kind == "constant":
        return AProfile.constant(spec.get("c", 1.0))
    raise InputError(f"unknown quasilinear coefficient kind '{kind}'")


_NAMED_FN = {
    "neg_log1p": lambda r: -np.log1p(r),
    "cosh_r": np.cosh,
    "two_over_r_minus_one": lambda r: 2.0 / r - 1.0,
    "zero": lambda r: np.zeros_like(r),
}


def parse_fn(spec):
    """Scalar field spec -> callable on the first coordinate."""
    if isinstance(spec, (int, float)):
        return lambda r, c=float(spec): np.full_like(np.asarray(r, dtype=float), c)
    kind = _object(spec, "function").get("kind")
    if kind == "constant":
        return parse_fn(spec["value"])
    if kind == "poly":
        coeffs = list(spec["coeffs"])
        return lambda r: np.polyval(coeffs[::-1], np.asarray(r, dtype=float))
    if kind == "table":
        rr, vv = np.asarray(spec["r"], float), np.asarray(spec["v"], float)
        return lambda r: np.interp(r, rr, vv)
    if kind == "named":
        if spec["name"] not in _NAMED_FN:
            raise InputError(f"unknown named function '{spec['name']}'")
        return _NAMED_FN[spec["name"]]
    raise InputError(f"unknown function kind '{kind}'")


def parse_manifold(spec):
    kind = spec["kind"]
    if kind == "flat_box":
        return FlatBox(spec["m"], spec["bounds"], spec["h"])
    if kind == "radial":
        return RadialModel.uniform(spec["m"], spec["warp"], spec["r_lo"],
                                   spec["r_hi"], spec["n"])
    if kind == "punctured":
        return PuncturedEuclidean(spec["m"], spec["r_min"], spec["r_max"],
                                  spec["n"], spec.get("spacing", "log"))
    raise InputError(f"unknown manifold kind '{kind}'")


def parse_subequation(spec, m: int, M=None) -> SU.Subequation:
    kind = _object(spec, "subequation")["kind"]
    if kind == "eikonal":
        return SU.eikonal(parse_profile(spec.get("xi", 1.0)), m=m)
    if kind == "laplace":
        return SU.laplace(parse_profile(spec["f"]), m=m)
    if kind == "hessian_branch":
        return SU.hessian_branch(spec["k"], parse_profile(spec["f"]), m=m)
    if kind == "sigma_branch":
        return SU.sigma_branch(spec["j"], spec["k"], parse_profile(spec["f"]), m=m)
    if kind == "plurisub":
        return SU.plurisub_trace(spec["k"], parse_profile(spec["f"]), m=m)
    if kind == "quasilinear":
        return SU.quasilinear(parse_aprofile(spec["a"]), parse_profile(spec["f"]), m=m)
    if kind == "inf_laplacian":
        return SU.inf_laplacian(parse_profile(spec.get("f", 0.0)), m=m)
    if kind == "linear_jetequiv":
        return SU.linear_jetequiv(np.asarray(spec["T"], float),
                                  None if "W" not in spec else np.asarray(spec["W"], float),
                                  spec.get("B", 0.0), spec.get("b", 1.0),
                                  parse_profile(spec.get("f", {"kind": "linear", "slope": 0.0})),
                                  m=m)
    if kind in ("intersect", "union"):
        parts = [parse_subequation(s, m, M) for s in _object(spec["parts"], f"{kind} parts", list)]
        return (SU.intersect if kind == "intersect" else SU.union)(*parts)
    if kind == "dual":
        return SU.dual(parse_subequation(spec["of"], m, M))
    if kind == "obstacle":
        if M is None:
            raise InputError("obstacle subequation needs a manifold context")
        g = parse_fn(spec["g"])(M.coords[:, 0])
        return SU.obstacle(parse_subequation(spec["of"], m, M), g)
    raise InputError(f"unknown subequation kind '{kind}'")


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


def _boundary_from(spec):
    """Boundary data by tag: a number, or a function spec (``parse_fn``)
    read at the first coordinate on every grid."""
    out = {}
    for tag, val in _object(spec, "boundary").items():
        try:
            if isinstance(val, dict):
                fn = parse_fn(val)
                out[tag] = lambda c, fn=fn: fn(c if c.ndim == 1 else c[:, 0])
            else:
                out[tag] = float(val)
        except (TypeError, ValueError):
            raise InputError(f"boundary value on '{tag}' must be a number or an "
                             f"object, got {val!r}") from None
    return out


def _node_columns(M):
    """The CSV columns that place each node of M: ``coord`` on a grid with
    one coordinate, ``x0`` ... ``x{m-1}`` on a box with m >= 2."""
    c = M.coords
    return {"coord": c[:, 0]} if c.shape[1] == 1 else {f"x{a}": x for a, x in enumerate(c.T)}


def _task_dirichlet(sc, M, F, params, policy):
    spec = ProblemSpec(F, M, _boundary_from(params["boundary"]), policy=policy)
    u, cert = perron_dirichlet(spec)
    payload = {"task": "dirichlet", "passed": cert.passed}
    arrays = {"u": {**_node_columns(M), "u": u.values}}
    if "oracle" in params:
        ref = parse_fn(params["oracle"])(M.coords[:, 0])
        err = float(np.abs(u.values - ref).max())
        payload["oracle_Linf_error"] = err
        arrays["u"]["oracle"] = ref
    plot = [{"name": "solution", "series": [("u", M.coords[:, 0], u.values)],
             "title": "Dirichlet solution", "xlabel": "r", "ylabel": "u"}]
    return payload, [cert], arrays, plot, 0 if cert.passed else 3


def _task_obstacle(sc, M, F, params, policy):
    g = parse_fn(params["g"])(M.coords[:, 0])
    spec = ProblemSpec(F, M, _boundary_from(params["boundary"]),
                       obstacle=GridFunction(M, g), policy=policy)
    u, cert = solve_obstacle(spec)
    payload = {"task": "obstacle", "passed": cert.passed}
    arrays = {"u": {**_node_columns(M), "u": u.values, "g": g}}
    plot = [{"name": "solution", "series": [("u", M.coords[:, 0], u.values),
                                            ("g", M.coords[:, 0], g)],
             "title": "Obstacle problem", "xlabel": "x", "ylabel": "u"}]
    return payload, [cert], arrays, plot, 0 if cert.passed else 3


def _task_khasminskii(sc, M, F, params, policy):
    h = parse_fn(params.get("h", {"kind": "named", "name": "neg_log1p"}))(M.r)
    pair = PairKh(M, GridFunction(M, h))
    sched = Schedule(eps=params.get("eps", 0.5), i_max=params.get("i_max", 3),
                     radii=tuple(params["radii"]) if "radii" in params else ())
    xi = parse_profile(params["xi"]) if "xi" in params else None
    w, cert = build_potential(F, pair, sched, xi=xi, policy=policy)
    payload = {"task": "khasminskii", "passed": cert.passed,
               "stages": cert.trace}
    arrays = {"w": {"r": M.r, "w": w.values, "h": h}}
    plot = [{"name": "potential", "series": [("w", M.r, w.values), ("h", M.r, h)],
             "title": "Khas'minskii potential", "xlabel": "r", "ylabel": "w"}]
    return payload, [cert], arrays, plot, 0 if cert.passed else 3


def _task_ahlfors(sc, M, F, params, policy):
    verdicts, summary = ahlfors_falsification_suite(
        F, M, params.get("r_K", float(M.r[1])),
        seed=sc.get("seed", 0), policy=policy)
    payload = {"task": "ahlfors", "summary": summary,
               "verdicts": [v.to_json_dict() for v in verdicts],
               "passed": summary["fails"] == 0}
    arrays = {}
    code = 0
    for i, v in enumerate(verdicts):
        if v.result is Outcome.FAILS and v.witness is not None:
            arrays[f"witness_{i}"] = {"r": v.witness.manifold.coords[:, 0],
                                      "u": v.witness.values}
            code = 2
    return payload, [], arrays, [], code


def _task_capacity(sc, M, F, params, policy):
    # an increasing trace or a failed capacitor raises ConvergenceError (exit 3)
    cap, trace = inf_capacity(params["r_K"], params["radii"], M, policy=policy)
    payload = {"task": "capacity", "estimate": cap, "trace": trace,
               "monotone_trace": True, "passed": True}
    arrays = {"trace": {"radius": trace["radii"], "lipschitz": trace["lipschitz"]}}
    plot = [{"name": "capacity_trace",
             "series": [("|du|_inf", trace["radii"], trace["lipschitz"])],
             "title": "infinity-capacity trace", "xlabel": "R_j", "ylabel": "Lip"}]
    return payload, [], arrays, plot, 0


def _task_stochastic(sc, M, F, params, policy):
    v = stochastic_completeness(params["warp"], params["m"],
                                params.get("lam", 1.0),
                                tuple(params.get("r_range", (0.1, 30.0))))
    payload = {"task": "stochastic", "verdict": v.to_json_dict(),
               "passed": v.result is not Outcome.INCONCLUSIVE}
    arrays = {}
    code = 0
    if v.result is Outcome.FAILS:
        code = 2
        arrays["witness"] = {"r": v.witness.manifold.r, "u": v.witness.values}
    elif v.result is Outcome.INCONCLUSIVE:
        code = 3
    return payload, [v.certificate] if v.certificate else [], arrays, [], code


def _task_duality_audit(sc, M, F, params, policy):
    cert = duality_involution_suite(seed=sc.get("seed", 0),
                                    n=params.get("n", 10_000),
                                    ms=tuple(params.get("ms", (2, 3, 4))))
    return ({"task": "duality_audit", "passed": cert.passed}, [cert], {}, [],
            0 if cert.passed else 1)


def _task_garding_audit(sc, M, F, params, policy):
    cert = garding_identity_suite(seed=sc.get("seed", 0),
                                  n=params.get("n", 1000),
                                  m_max=params.get("m_max", 6))
    return ({"task": "garding_audit", "passed": cert.passed}, [cert], {}, [],
            0 if cert.passed else 1)


def _task_ekeland(sc, M, F, params, policy):
    h = parse_fn(params.get("h", {"kind": "named", "name": "neg_log1p"}))(M.r)
    pair = PairKh(M, GridFunction(M, h))
    w, cert = ekeland_potential(pair, policy=policy)
    payload = {"task": "ekeland", "passed": cert.passed}
    arrays = {"w": {"r": M.r, "w": w.values, "h": h}}
    plot = [{"name": "potential", "series": [("w", M.r, w.values), ("h", M.r, h)],
             "title": "Ekeland potential", "xlabel": "r", "ylabel": "w"}]
    return payload, [cert], arrays, plot, 0 if cert.passed else 3


def _task_log_transform(sc, M, F, params, policy):
    g = parse_fn(params.get("gfun", {"kind": "named", "name": "cosh_r"}))(M.r)
    w, cert = log_transform(GridFunction(M, g), params.get("lam", 1.0),
                            params.get("mu", 0.5))
    payload = {"task": "log_transform", "passed": cert.passed}
    arrays = {"w": {"r": M.r, "w": w.values, "g": g}}
    return payload, [cert], arrays, [], 0 if cert.passed else 3


def _task_punctured(sc, M, F, params, policy):
    cert = punctured_example_check(params["m"], params.get("lam", 1.0),
                                   M=M if isinstance(M, PuncturedEuclidean) else None,
                                   tol=policy.membership_tol)
    payload = {"task": "punctured_check", "passed": cert.passed,
               "K_interval": cert.params["K_interval"]}
    return payload, [cert], {}, [], 0 if cert.passed else 3


_TASKS = {
    "dirichlet": _task_dirichlet,
    "obstacle": _task_obstacle,
    "khasminskii": _task_khasminskii,
    "ahlfors": _task_ahlfors,
    "capacity": _task_capacity,
    "stochastic": _task_stochastic,
    "duality_audit": _task_duality_audit,
    "garding_audit": _task_garding_audit,
    "ekeland": _task_ekeland,
    "log_transform": _task_log_transform,
    "punctured_check": _task_punctured,
}


# tasks whose checks carry fixed bounds of their own (identity, derivative
# and O(h^2) witness bounds), not the membership / comparison tolerances
_FIXED_TOL_TASKS = ("duality_audit", "garding_audit", "log_transform", "stochastic")
# the largest --tol, above the loosest band any check is certified at (the
# O(h^2) stochastic witness band, 3.9e-3); a huge one passes every check
MAX_TOL = 1e-2


def _check_seed(seed):
    # np.random.default_rng takes non-negative seeds only
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")


def run_scenario(path, out_dir=None, tol=None, seed=None, plots=True):
    sc = json.loads(Path(path).read_text(), object_hook=_Spec)
    _validate(sc, _load_schema())
    if seed is not None:
        sc["seed"] = seed
    _check_seed(sc.setdefault("seed", 0))
    policy = DEFAULT_POLICY
    if tol is not None:
        if not 0 < tol <= MAX_TOL:  # also rejects nan
            raise InputError(f"--tol must be positive and at most {MAX_TOL:g}, got {tol!r}")
        if sc["task"] in _FIXED_TOL_TASKS:
            raise InputError(f"--tol does not apply to task '{sc['task']}'")
        policy = NumericPolicy(membership_tol=tol)
    task = sc["task"]
    out_dir = Path(out_dir or sc.get("out", f"out_{task}"))
    M = parse_manifold(sc["manifold"]) if "manifold" in sc else None
    F = None
    if "subequation" in sc:
        if M is None:
            raise InputError("a subequation spec needs a manifold for its dimension")
        F = parse_subequation(sc["subequation"], sc["manifold"]["m"], M)
    params = sc.get("params", _Spec())
    t0 = time.perf_counter()
    payload, certs, arrays, plot_specs, code = _TASKS[task](sc, M, F, params, policy)
    payload["scenario"] = {k: v for k, v in sc.items() if k != "out"}
    payload["version"] = __version__
    if tol is not None:
        payload["tol_override"] = tol
    write_report(out_dir, payload, certs, arrays, plot_specs if plots else [],
                 timing={"task": time.perf_counter() - t0})
    print(f"[subeq] task={task} passed={payload.get('passed')} -> {out_dir}/report.json",
          file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# built-in audit suites
# ---------------------------------------------------------------------------


def _catalog(m):
    lin = Profile.linear(1.0)
    xi1 = Profile.table([-1.0, 0.0], [1.0, 0.0])
    cat = [
        SU.eikonal(1.0, m=m),
        SU.eikonal(xi1, m=m),
        SU.laplace(lin, m=m),
        SU.hessian_branch(1, lin, m=m),
        SU.hessian_branch(m, lin, m=m),
        SU.plurisub_trace(max(1, m - 1), lin, m=m),
        SU.sigma_branch(1, min(2, m), lin, m=m),
        SU.quasilinear(AProfile.mean_curvature(), lin, m=m),
        SU.inf_laplacian(0.0, m=m),
    ]
    return cat


def duality_involution_suite(seed=0, n=10_000, ms=(2, 3, 4)) -> Certificate:
    """For every catalog member: dual values satisfy G~(J) = -G(-J) within
    1e-9, dual(dual F) classifies like F off the band |G| <= 1e-9, and
    intersections dualize to unions (sampled).  One sample of n jets per m
    is shared by the nine members and the De Morgan check."""
    if n < 1 or not ms:
        raise InputError("duality audit needs n >= 1 jets and a non-empty 'ms', "
                         f"got n={n}, ms={list(ms)}")
    tol = 1e-9
    rng = np.random.default_rng(seed)
    worst_ident = 0.0
    worst_invol = 0
    worst_demorgan = 0
    checked = 0
    for m in ms:
        ident, invol, demorgan, members = _duality_checks(rng, n, m, tol)
        worst_ident = max(worst_ident, ident)
        worst_invol += invol
        worst_demorgan += demorgan
        checked += members
    return Certificate(
        name="duality_involution", tolerance=tol,
        passed=bool(worst_ident <= tol and worst_invol == 0 and worst_demorgan == 0),
        worst={"dual_identity": worst_ident},
        counts={"involution_sign_flips": worst_invol,
                "demorgan_mismatches": worst_demorgan,
                "members_checked": checked, "jets_per_member": n},
        params={"seed": seed, "ms": list(ms)},
    )


def _duality_checks(rng, n, m, tol):
    """The duality suite at dimension m on one fresh sample J and its
    negation -J, whose spectrum is decomposed anew: the worst identity
    gap, the involution sign flips, the De Morgan mismatches and the
    number of members checked."""
    r, p, A = SU._random_jets(rng, n, m)
    J, Jneg = DenseView(None, r, p, A), DenseView(None, -r, -p, -A)
    ident, invol = 0.0, 0
    catalog = _catalog(m)
    for F in catalog:
        Fd = F.dual()
        ident = max(ident, float(np.abs(Fd._value(J) + F._value(Jneg)).max()))
        g0 = F._value(J)
        g2 = Fd.dual()._value(J)
        off_band = np.abs(g0) > tol
        invol += int((np.sign(g0[off_band]) != np.sign(g2[off_band])).sum())
    E = SU.eikonal(1.0, m=m)
    L = SU.laplace(Profile.linear(1.0), m=m)
    lhs = SU.dual(SU.intersect(L, E))._value(J)
    rhs = SU.union(SU.dual(L), SU.dual(E))._value(J)
    return ident, invol, int((np.abs(lhs - rhs) > tol).sum()), len(catalog)


def garding_identity_suite(seed=0, n=1000, m_max=6, tol=1e-9) -> Certificate:
    """mu_j^(k)(-A) = -mu_{k-j+1}^(k)(A) and PSD monotonicity on random data."""
    if n < 1 or not (2 <= m_max <= MAX_DIM):
        raise InputError(f"Garding audit needs n >= 1 and 2 <= m_max <= {MAX_DIM}, "
                         f"got n={n}, m_max={m_max}")
    rng = np.random.default_rng(seed)
    worst_dual = 0.0
    worst_mono = 0.0
    for m in range(2, m_max + 1):
        B = rng.standard_normal((n, m, m))
        A = B + np.transpose(B, (0, 2, 1))
        C = rng.standard_normal((n, m, m))
        P = np.einsum("nik,njk->nij", C, C) / m
        chains = [DenseView(None, None, None, S) for S in (A, -A, A + P)]
        for k in range(1, m + 1):
            mu, mu_neg, mu_p = (J.garding(k) for J in chains)
            worst_dual = max(worst_dual, float(np.abs(mu_neg + mu[:, ::-1]).max()))
            worst_mono = max(worst_mono, float((mu - mu_p).max()))
    return Certificate(
        name="garding_identity", tolerance=tol,
        passed=bool(worst_dual <= tol and worst_mono <= tol),
        worst={"duality_identity": worst_dual, "monotonicity_violation": worst_mono},
        counts={"samples": n, "m_max": m_max},
        params={"seed": seed},
    )


def pn_audit_suite(seed=0) -> Certificate:
    """``audit_PNT`` of every catalog member for m = 2, 3: one sample of
    20,000 jets per m, drawn and decomposed once for all nine members."""
    cert = Certificate(name="pn_audits", passed=True, tolerance=DEFAULT_POLICY.membership_tol)
    for m in (2, 3):
        views = SU._pnt_views(m, 20_000, seed)
        for F in _catalog(m):
            cert.merge_child(SU._audit_PNT(F, views, seed), f"{F.meta.tag}[m={m}]")
        del views  # freed before the next m's sample is drawn
    return cert


def solver_oracle_suite(seed=0) -> Certificate:
    """Analytic-oracle solves: 1-D affine, the radial harmonic annulus, the
    two obstacle cases, and the radial capacitor."""
    cert = Certificate(name="solver_oracles", passed=True, tolerance=5e-3)
    lin0 = Profile.linear(0.0)
    M1 = FlatBox(1, [(0.0, 1.0)], 1 / 100)
    u, c = perron_dirichlet(ProblemSpec(SU.laplace(lin0, m=1), M1,
                                        {"side": lambda x: x}))
    err = float(np.abs(u.values - M1.coords[:, 0]).max())
    cert.worst["affine_1d"] = err
    cert.passed &= c.passed and err <= 1e-10
    M2 = PuncturedEuclidean(3, 1.0, 2.0, 201, spacing="log")
    u, c = perron_dirichlet(ProblemSpec(SU.laplace(lin0, m=3), M2,
                                        {"inner": 1.0, "outer": 0.0}))
    err = float(np.abs(u.values - (2.0 / M2.r - 1.0)).max())
    cert.worst["annulus_m3"] = err
    cert.passed &= c.passed and err <= 5e-3
    Mo = FlatBox(1, [(0.0, 1.0)], 1 / 400)
    x = Mo.coords[:, 0]
    Fo = SU.hessian_branch(1, lin0, m=1)
    u, c = solve_obstacle(ProblemSpec(Fo, Mo, {"side": lambda xx: xx**2},
                                      obstacle=GridFunction(Mo, x**2)))
    cert.worst["obstacle_active"] = float(np.abs(u.values - x**2).max())
    cert.passed &= c.passed and cert.worst["obstacle_active"] <= 1e-3
    u, c = solve_obstacle(ProblemSpec(Fo, Mo, {"side": -0.25},
                                      obstacle=GridFunction(Mo, -(x - 0.5)**2)))
    cert.worst["obstacle_inactive"] = float(np.abs(u.values + 0.25).max())
    cert.passed &= c.passed and cert.worst["obstacle_inactive"] <= 1e-3
    Mc = RadialModel.uniform(2, "sinh", 1.0, 11.0, 201)
    u, c = perron_dirichlet(ProblemSpec(SU.inf_laplacian(0.0, m=2), Mc,
                                        {"inner": 0.0, "outer": 1.0}))
    cert.worst["capacitor_affine"] = float(np.abs(u.values - (Mc.r - 1) / 10).max())
    cert.passed &= c.passed and cert.worst["capacitor_affine"] <= 1e-8
    cert.passed = bool(cert.passed)
    return cert


def run_audit(out_dir="out_audit", seed=0):
    _check_seed(seed)
    suites, timing = [], {}
    for suite in (duality_involution_suite, garding_identity_suite,
                  pn_audit_suite, solver_oracle_suite):
        t0 = time.perf_counter()
        suites.append(suite(seed=seed))
        timing[suites[-1].name] = time.perf_counter() - t0
    all_pass = all(s.passed for s in suites)
    print(f"{'suite':<24}{'passed':<8}worst", file=sys.stderr)
    for s in suites:
        worst = ", ".join(f"{k}={v:.2e}" for k, v in list(s.worst.items())[:3])
        print(f"{s.name:<24}{str(s.passed):<8}{worst}", file=sys.stderr)
    write_report(out_dir, {"task": "audit", "passed": all_pass, "seed": seed},
                 suites, timing=timing)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="subeq", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    runp = sub.add_parser("run", help="run a scenario file")
    runp.add_argument("scenario")
    runp.add_argument("--tol", type=float, default=None)
    auditp = sub.add_parser("audit", help="run the built-in audit suites")
    for p in (runp, auditp):
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--no-plots", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.cmd == "run":
            return run_scenario(args.scenario, args.out, args.tol, args.seed,
                                not args.no_plots)
        return run_audit(args.out or "out_audit", args.seed or 0)
    except (InputError, DomainError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 4
    except (ConvergenceError, NumericalError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except SubeqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
