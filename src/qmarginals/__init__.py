"""Construction of multipartite density matrices with prescribed marginals.

Library layout:

* ``tensorcore``   tensor-structured linear algebra and seeded randomness
* ``projections``  least-squares projections (marginal sets, spectra, PSD cone)
* ``constructive`` direct bipartite constructions with controlled rank
* ``solvers``      Douglas-Rachford, alternating projections, projected gradient
* ``entropy``      von Neumann / Renyi entropies and gradients
* ``oracle``       pseudo-inverse ground truth for the affine projections
* ``cli``          command-line front end (``qmarginals ...``)
"""

from .constructive import (
    IsospectralDecomposition,
    greedy_minmatch,
    interlace_decomposition,
    pure_state_from_isospectral,
    rank_k_roots_of_unity,
    rank_one_downdate,
    rank_sweep,
)
from .entropy import grad_renyi, grad_von_neumann_objective, renyi, von_neumann
from .oracle import (
    VectorizedConstraints,
    pseudoinverse_projection,
    variational_inequality_check,
    vectorize_constraints,
)
from .projections import (
    ConsistencyReport,
    ConstraintSet,
    MarginalConstraint,
    check_consistency,
    project_bipartite_affine,
    project_intersection,
    project_marginals,
    project_psd,
    project_spectrum,
)
from .solvers import (
    SolveOptions,
    SolveReport,
    marginal_residual,
    nspg_minimize,
    solve_feasible,
    solve_with_rank_cap,
    solve_with_spectrum,
)
from .tensorcore import (
    DensityMatrix,
    SystemDims,
    as_spectrum,
    hermitize,
    kron,
    numerical_rank,
    partial_trace,
    random_density,
    random_probability_vector,
    random_unitary,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
