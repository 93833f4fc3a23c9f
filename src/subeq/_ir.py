"""Lowering of subequation trees to the line evaluator of the policy steps.

On radial grids (and 1-D boxes) a discrete jet is determined by the node
value v, the radial differences du and d2, and the angular Hessian
eigenvalue aa = du g'/g; every member's defining function reads them
through a ``jets.RadialView``.  Every tree lowers: a jet-equivalence maps
the view's dense radial-frame jet (p, A), and members with per-node rows
read them at the node ids, as the tree evaluator does.
"""
from __future__ import annotations

from . import subequations as SU
from .jets import RadialView


def lower(F: SU.Subequation):
    """Vectorized line evaluator ``g(nodes, v, du, aa, d2, gdn)`` for F.

    ``gdn`` is the gradient magnitude seen by the gradient constraints (the
    eikonal); the remaining members read |du|.
    """
    value, m = F._value, F.m
    return lambda nodes, v, du, aa, d2, gdn: value(RadialView(nodes, v, du, aa, d2, gdn, m))
