"""Central numeric policy: ``membership_tol``, the one tolerance a run sets.

It is the band of every membership check and the comparison and Ahlfors
sup-gap slack; ``subeq run --tol`` sets it, and the operations it reaches
take a ``policy`` falling back to ``DEFAULT_POLICY``.  Other tolerances
are constants of the modules that read them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class NumericPolicy:
    # fiberwise membership band of certificates, and the comparison slack
    membership_tol: float = 1e-8
    # solver steps: a step can be accepted when its max node change is within it
    convergence_tol: ClassVar[float] = 1e-10


DEFAULT_POLICY = NumericPolicy()
