"""subeq: nonlinear potential theory on model manifolds.

Fully nonlinear degenerate-elliptic subequations with Dirichlet duality,
Perron-style monotone solvers for Dirichlet and obstacle problems, and
constructors/checkers for Khas'minskii potentials and Ahlfors/Liouville
properties on desk-scale model manifolds.
"""

__version__ = "0.1.0"

from .certificates import Certificate
from .jets import sigma_k
from .khasminskii import (
    PairKh,
    Schedule,
    build_potential,
    ekeland_potential,
    log_transform,
    punctured_example_check,
    radial_khasminskii_test,
)
from .manifolds import (
    FlatBox,
    GridFunction,
    PuncturedEuclidean,
    RadialModel,
    radial_hessian_eigs,
    volume_growth_test,
)
from .policy import DEFAULT_POLICY, NumericPolicy
from .profiles import AProfile, Profile
from .properties import (
    Outcome,
    Verdict,
    ahlfors_violation_check,
    inf_capacity,
    liouville_check,
    stochastic_completeness,
    truncate_shift,
)
from .solver import (
    ProblemSpec,
    comparison_check,
    make_barrier,
    perron_dirichlet,
    solve_obstacle,
    verify_subharmonic,
)
from .subequations import (
    JetEquivalence,
    Subequation,
    apply_jet_equivalence,
    audit_PNT,
    distance_to_boundary,
    dual,
    eikonal,
    eikonal_relaxed,
    hessian_branch,
    inf_laplacian,
    intersect,
    laplace,
    linear_jetequiv,
    obstacle,
    plurisub_trace,
    quasilinear,
    sigma_branch,
    union,
    whole_space,
)
