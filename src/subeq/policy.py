"""Central numeric policy.

Every tolerance used by the library lives here so that test suites and
reports are reproducible.  Operations take an optional ``policy`` argument
and fall back to ``DEFAULT_POLICY``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericPolicy:
    # generic absolute floor
    abs_tol: float = 1e-10
    # fiberwise membership band for contains()/certificates
    membership_tol: float = 1e-8
    # solver sweep termination: max node change between sweeps
    convergence_tol: float = 1e-10
    # certified comparison slack
    comparison_tol: float = 1e-8
    # orthonormality check for frames
    frame_tol: float = 1e-10
    # Garding root residual scale: |P(t)| <= garding_tol * (1 + |A|^k)
    garding_tol: float = 1e-10
    # bisection value-space resolution floor (relative); near machine ulp so
    # node residuals can reach the membership band even at Lipschitz ~ 2/h^2
    root_value_tol: float = 1e-15
    # strict-subharmonicity margin used by barrier certification
    barrier_margin: float = 1e-6

    def with_(self, **kw) -> "NumericPolicy":
        return replace(self, **kw)


DEFAULT_POLICY = NumericPolicy()
