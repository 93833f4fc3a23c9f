"""The line engine's evaluator of a subequation tree.

Every defining value reads ``F._value`` on a jet view, the Newton step's
included: on line grids ``LineStencil.view`` writes every radial jet.
``lower`` is kept as the named point where the line engine takes F's
evaluator.
"""
from __future__ import annotations

from . import subequations as SU


def lower(F: SU.Subequation):
    """F's evaluator ``F._value(J)`` at a jet view J."""
    return F._value
