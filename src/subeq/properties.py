"""Desk-scale deciders for Ahlfors, Liouville, capacity and completeness.

The underlying properties are universally quantified, so a checker can only
falsify or accumulate certified evidence: every decider returns a
three-valued ``Verdict`` with provenance.  A ``Fails`` verdict always
carries a concrete witness; a ``Holds`` verdict carries the certificate of
the evidence that produced it (and, for search-based deciders, means "no
violation found under the documented generator").
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .certificates import Certificate
from .errors import ConvergenceError, InputError, SubeqError
from .khasminskii import radial_khasminskii_test
from .manifolds import (
    GridFunction,
    ModelManifold,
    RadialModel,
    _RadialBase,
    _grow_mask,
    volume_growth_test,
)
from .policy import DEFAULT_POLICY, NumericPolicy
from .profiles import Profile
from .solver import ProblemSpec, perron_dirichlet, verify_subharmonic
from .subequations import Subequation, below_zero_cap, inf_laplacian, laplace, union


class Outcome(enum.Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class Verdict:
    property_name: str
    result: Outcome
    provenance: str
    witness: GridFunction | dict | None = None
    certificate: Certificate | None = None
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.result is Outcome.FAILS and self.witness is None:
            raise InputError("a Fails verdict requires a witness")
        if self.result is Outcome.HOLDS and self.certificate is None:
            raise InputError("a Holds verdict requires a certificate")

    def to_json_dict(self) -> dict:
        return {
            "property": self.property_name,
            "result": self.result.value,
            "provenance": self.provenance,
            "has_witness": self.witness is not None,
            "notes": list(self.notes),
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(),
        }


def _boundary_of(M: ModelManifold, U: np.ndarray) -> np.ndarray:
    """Nodes bounding the open node set U: outside-U neighbors plus the
    manifold boundary inside U."""
    return (~U & _grow_mask(M, U)) | (U & ~M.interior_mask)


def ahlfors_violation_check(F_dual: Subequation, U, u: GridFunction,
                            membership_tol: float | None = None,
                            boundary_mask=None,
                            policy: NumericPolicy = DEFAULT_POLICY) -> Verdict:
    """Check one candidate u against the Ahlfors property of F_dual.

    Membership is verified for H = F_dual ∪ {r <= 0} at the interior nodes
    of U (nodes where u <= 0 are automatically members).  With a valid
    certificate, the verdict Fails iff the interior sup exceeds the
    boundary sup of u^+ by more than the policy's membership_tol; a broken
    membership certificate yields Inconclusive ("membership-fail"), never
    Fails.

    ``boundary_mask`` overrides the computed boundary of U: passing only the
    inner rim renders the outer grid rim as "at infinity" (the reading used
    when U stands for the exterior X \\ K of a complete model).
    """
    M = u.manifold
    tol = policy.membership_tol
    membership_tol = tol if membership_tol is None else membership_tol
    U = np.asarray(U, dtype=bool)
    uv = u.values
    if np.any(~np.isfinite(uv[U])):
        raise InputError("candidate must be finite on U")
    if not np.any(uv[U] > 0):
        return Verdict("ahlfors", Outcome.HOLDS, "candidate-check",
                       certificate=Certificate(
                           name="ahlfors_candidate", passed=True, tolerance=tol,
                           notes=["candidate nowhere positive: not in scope"]))
    H = union(F_dual, below_zero_cap(F_dual.m))
    inner = U & M.interior_mask
    cert = verify_subharmonic(H, u, M, tol=membership_tol, region=inner)
    bd = _boundary_of(M, U) if boundary_mask is None else np.asarray(boundary_mask, dtype=bool)
    sup_boundary_plus = float(np.maximum(uv[bd], 0.0).max(initial=0.0))
    sup_all = float(uv[U | bd].max(initial=-np.inf))
    gap = sup_all - sup_boundary_plus
    cert.worst["sup_gap"] = gap
    cert.params["sup_boundary_plus"] = sup_boundary_plus
    cert.params["sup_closure"] = sup_all
    if not cert.passed:
        return Verdict("ahlfors", Outcome.INCONCLUSIVE, "membership-fail",
                       certificate=None, witness=None,
                       notes=[f"membership violation {cert.worst['membership_violation']:.3e}"
                              " invalidates the candidate, not the property"])
    if gap > tol:
        return Verdict("ahlfors", Outcome.FAILS, "candidate-check",
                       witness=u, certificate=cert,
                       notes=[f"interior sup exceeds boundary sup+ by {gap:.3e}"])
    return Verdict("ahlfors", Outcome.HOLDS, "candidate-check", certificate=cert,
                   notes=["no violation from this candidate"])


def liouville_check(F_dual: Subequation, u: GridFunction,
                    M: ModelManifold | None = None,
                    membership_tol: float | None = None) -> Verdict:
    """Fails iff u >= 0 is bounded, dual-membership holds everywhere, and u
    is nonconstant beyond 1e-8 (a Liouville witness)."""
    M = M or u.manifold
    uv = u.values
    if np.any(uv < -1e-12):
        raise InputError("liouville candidates must be non-negative")
    cert = verify_subharmonic(F_dual, u, M, tol=membership_tol)
    spread = float(uv.max() - uv.min())
    cert.worst["spread"] = spread
    if cert.passed and spread > 1e-8:
        return Verdict("liouville", Outcome.FAILS, "candidate-check",
                       witness=u, certificate=cert,
                       notes=[f"nonconstant witness with spread {spread:.3e}"])
    if not cert.passed:
        return Verdict("liouville", Outcome.INCONCLUSIVE, "membership-fail",
                       notes=["candidate is not F-subharmonic at tolerance"])
    return Verdict("liouville", Outcome.HOLDS, "candidate-check", certificate=cert)


def inf_capacity(r_K: float, exhaustion_radii, M: _RadialBase,
                 policy: NumericPolicy = DEFAULT_POLICY):
    """Infinity-capacity estimate of K = {r <= r_K} via F_inf capacitors.

    Solves u_j = 0 on ∂K, 1 on ∂D_j for each exhaustion radius, records the
    discrete Lipschitz constants |du_j| (non-increasing in j), and returns
    (last value, trace).  Radii within two grid spacings of r_K are
    dropped, and K covering the whole grid returns 0 by convention.
    An outer radius rounds down to the grid node below it; r_K is not
    rounded.  A non-finite r_K or radius, an r_K below the grid's first
    radius or inside the grid between two nodes, a radius beyond its last
    one, or radii that decrease is an InputError (nodes and the grid's
    ends are read within the 1e-12 of ``sub_range``).  The
    capacitors are nested sub-ranges of M, so their presolves share one
    forward elimination.  A capacitor whose certificate fails, or a
    Lipschitz trace that increases, is a numerical failure
    (ConvergenceError).
    """
    if not isinstance(M, _RadialBase):
        raise InputError("capacity estimates run on radial models")
    r_K, given = float(r_K), np.asarray(exhaustion_radii, dtype=float).ravel().tolist()
    first, last = float(M.r[0]), float(M.r[-1])
    for name, v in [("r_K", r_K)] + [("radius", R) for R in given]:
        if not np.isfinite(v):
            raise InputError(f"capacity: {name} {v!r} is not finite")
    if r_K < first - 1e-12:
        raise InputError(f"capacity: r_K {r_K!r} is below the grid's first radius {first!r}")
    j = int(np.searchsorted(M.r, r_K))
    if 0 < j < M.r.size and min(r_K - M.r[j - 1], M.r[j] - r_K) > 1e-12:
        raise InputError(f"capacity: r_K {r_K!r} is not a grid node: it lies between "
                         f"the nodes {float(M.r[j - 1])!r} and {float(M.r[j])!r}")
    for R in given:
        if R > last + 1e-12:
            raise InputError(f"capacity: radius {R!r} is beyond the grid's last radius {last!r}")
    for R, R_next in zip(given, given[1:]):
        if R_next < R:
            raise InputError(f"capacity: radii decrease from {R!r} to {R_next!r}; "
                             "an exhaustion does not decrease")
    radii = [R for R in given if R > r_K + 2 * M.min_spacing()]
    if not radii:
        return 0.0, {"lipschitz": [], "radii": [], "note": "no exterior: cap 0 by convention"}
    F = inf_laplacian(0.0, m=M.m)
    lips = []
    for R in radii:
        subM, _ = M.sub_range(r_K, R)
        u, cert = perron_dirichlet(ProblemSpec(
            F, subM, {"inner": 0.0, "outer": 1.0}, policy=policy))
        if not cert.passed:
            worst = ", ".join(f"{k} {v:.3e}" for k, v in cert.worst.items())
            raise ConvergenceError(f"capacitor at R = {R:g} failed its certificate ({worst})")
        du = np.abs(np.diff(u.values) / np.diff(subM.r))
        lips.append(float(du.max()))
    up = np.diff(lips) > 1e-10
    if up.any():
        i = int(np.argmax(up))
        raise ConvergenceError("capacitor Lipschitz trace increases from "
                               f"R = {radii[i]:g} to R = {radii[i + 1]:g}")
    return lips[-1], {"lipschitz": lips, "radii": [float(R) for R in radii]}


def truncate_shift(u: GridFunction, c: float) -> GridFunction:
    """Node-wise max(u - c, 0): transports witnesses across profiles f."""
    return GridFunction(u.manifold, np.maximum(u.values - c, 0.0))


# ---------------------------------------------------------------------------
# stochastic completeness
# ---------------------------------------------------------------------------


def _combine_oracles(ode_verdict: str, vol_verdict: str) -> tuple:
    """Decision table for the two sufficient oracles; the volume test is
    sufficient for Holds, never for Fails, so Pass-from-volume with
    Fail-from-ODE is an internal contradiction."""
    if ode_verdict == "Pass":
        return Outcome.HOLDS, "radial-ode"
    if ode_verdict == "Fail":
        if vol_verdict == "Diverges":
            return Outcome.INCONCLUSIVE, "cross-oracle-contradiction"
        return Outcome.FAILS, "radial-ode"
    if vol_verdict == "Diverges":
        return Outcome.HOLDS, "volume-growth"
    return Outcome.INCONCLUSIVE, "both-oracles-inconclusive"


def stochastic_completeness(warp, m: int, lam: float = 1.0,
                            r_range=(0.1, 30.0)) -> Verdict:
    """Verdict for the Liouville property of {tr A >= lam r} on a radial model
    (stochastic completeness), decided by the radial Khas'minskii ODE and the
    volume-growth oracles (the latter out to r = min(r_range[-1], 8)).

    A Fails verdict attaches the bounded increasing radial solution,
    normalized, as a nonconstant Liouville witness, re-verified on a grid at
    a discretization-aware tolerance.
    """
    ode_v, r_grid, w_ode, ode_trace = radial_khasminskii_test(warp, m, lam, r_range)
    try:
        vol_v, vol_trace = volume_growth_test(warp, m, min(float(r_range[-1]), 8.0))
    except SubeqError as e:  # domain failures leave the volume oracle silent
        vol_v, vol_trace = "Inconclusive", {"error": str(e)}
    result, provenance = _combine_oracles(ode_v, vol_v)
    notes = [f"ode={ode_v}", f"volume={vol_v}"]
    if result is Outcome.HOLDS:
        cert = Certificate(
            name="stochastic_completeness", passed=True, tolerance=0.0,
            params={"ode": ode_trace, "volume": vol_trace, "lam": lam, "m": m})
        witness = None
        if ode_v == "Pass":
            witness = {"khasminskii_w": w_ode, "r": r_grid}
            cert.notes.append("attached w solves Delta w <= lam w and diverges")
        return Verdict("stochastic_completeness", result, provenance,
                       witness=witness, certificate=cert, notes=notes)
    if result is Outcome.FAILS:
        # bounded solution, even reflection through the pole, normalized
        M = RadialModel(m, warp, r_grid)
        witness = GridFunction(M, w_ode / np.abs(w_ode).max())
        F = laplace(Profile.linear(lam), m=m)
        htol = 10.0 * float(np.diff(r_grid).max()) ** 2 * max(1.0, lam)
        check = liouville_check(F.dual(), witness, M, membership_tol=htol)
        v = Verdict("stochastic_completeness", Outcome.FAILS, provenance,
                    witness=witness, certificate=check.certificate, notes=notes)
        v.notes.append(f"witness re-verified at O(h^2) tolerance {htol:.2e}: "
                       f"{check.result.value}")
        return v
    return Verdict("stochastic_completeness", result, provenance, notes=notes)


# ---------------------------------------------------------------------------
# falsification suite for the main duality direction
# ---------------------------------------------------------------------------

# random bump candidates of the suite: N_RANDOM // 2 per dual-harmonic solve
N_RANDOM = 8


def ahlfors_falsification_suite(F: Subequation, M: _RadialBase, r_K: float, seed: int = 0,
                                policy: NumericPolicy = DEFAULT_POLICY):
    """Candidate-witness search for the Ahlfors property of dual(F) on X \\ K.

    Candidates follow the witness shapes of the duality proofs: dual-harmonic
    solver outputs with depressed boundary data, their truncations above
    interior levels, and random bump perturbations (the bumps are expected to
    fail membership, exercising the certificate discipline).  Returns
    (verdicts, summary).
    """
    rng = np.random.default_rng(seed)
    Fd = F.dual()
    subM, _ = M.sub_range(r_K, None)
    U = np.ones(subM.n_nodes, dtype=bool)
    U[0] = False  # ∂K stays out of the open set
    verdicts = []

    def check(u_vals, label):
        u = GridFunction(subM, u_vals)
        v = ahlfors_violation_check(Fd, U, u, policy=policy)
        v.notes.append(f"candidate={label}")
        verdicts.append(v)
        return v

    # dual-harmonic solves with depressed inner data
    for inner in (0.5, 1.0):
        try:
            sol, cert = perron_dirichlet(ProblemSpec(
                Fd, subM, {"inner": 0.0, "outer": inner}, policy=policy))
        except SubeqError as e:
            verdicts.append(Verdict("ahlfors", Outcome.INCONCLUSIVE, "solver-error",
                                    notes=[f"candidate=solve[{inner}]", str(e)]))
            continue
        check(sol.values, f"solve[outer={inner}]")
        for c in (0.25 * inner, 0.5 * inner):
            check(np.maximum(sol.values - c, 0.0), f"truncate[{c:g}]")
        for _ in range(N_RANDOM // 2):
            at = rng.integers(2, subM.n_nodes - 2)
            width = max(3, subM.n_nodes // 20)
            prof = np.exp(-0.5 * ((np.arange(subM.n_nodes) - at) / width) ** 2)
            bump = 0.3 * inner * prof
            check(np.maximum(sol.values + bump, 0.0), f"bump[{at}]")
    summary = {
        "fails": sum(v.result is Outcome.FAILS for v in verdicts),
        "holds": sum(v.result is Outcome.HOLDS for v in verdicts),
        "inconclusive": sum(v.result is Outcome.INCONCLUSIVE for v in verdicts),
        "candidates": len(verdicts),
    }
    return verdicts, summary
