"""Lowering of subequation trees to the line evaluator of the sweep engine.

On radial grids (and 1-D boxes) a discrete jet is determined by the node
value v, the radial differences du and d2, and the angular Hessian
eigenvalue aa = du g'/g; every member's defining function reads them
through a ``jets.RadialView``.  Trees with jet-equivalences (which map
dense jets) or per-node rows of another grid's length do not lower; the
solver runs the generic vectorized engine on them.
"""
from __future__ import annotations

from . import subequations as SU
from .jets import RadialView


def lower(F: SU.Subequation, n_nodes: int):
    """Vectorized line evaluator ``g(nodes, v, du, aa, d2, gdn)`` for F.

    ``gdn`` is the gradient magnitude seen by the gradient constraints (the
    eikonal); the remaining members read |du|.  Returns None when the tree
    does not lower.
    """
    if not _lowers(F, n_nodes):
        return None
    value, m = F._value, F.m
    return lambda nodes, v, du, aa, d2, gdn: value(RadialView(nodes, v, du, aa, d2, gdn, m))


def _lowers(F, n_nodes):
    if isinstance(F, SU._JetEquiv):
        return False
    if isinstance(F, SU._MinMax):
        return all(_lowers(q, n_nodes) for q in F.parts)
    return F.rows is None or F.rows.shape[0] == n_nodes
