"""Generalized A_r quantum statistics toolkit.

Ladder-operator Fock representations, Bargmann coherent-state calculus,
droplet (Husimi) densities, the coherent-state star product and Moyal
bracket, and the chiral boson theory on the droplet edge.
"""

from .algebra import (
    FockBasis,
    HamiltonianSpec,
    LadderOperators,
    RelationReport,
    StatisticsSpec,
    enumerate_basis,
    fermionic_dimension,
    hamiltonian,
    hamiltonian_from_commutators,
    ladder_matrices,
    large_k_commutator_deviation,
    number_operator,
    structure_function,
    verify_triple_relations,
)
from .bargmann import (
    CoherentVector,
    MetricMatrix,
    QuadratureRule,
    build_quadrature,
    coefficient,
    coherent_vector,
    differential_realization_check,
    distance_hessian,
    distance_sq,
    integrate,
    measure_density,
    measure_normalization,
    metric,
    monomial_moment,
    orthonormality_gram,
    overlap,
    overlap_from_vectors,
)
from .droplet import (
    DropletProfile,
    DropletSpec,
    density_operator,
    droplet_profile,
    husimi,
    husimi_from_matrix,
    mean_occupation,
    potential_symbol,
    step_profile_check,
)
from .edge import (
    EdgeField,
    ModeAlgebra,
    action_value,
    build_mode_algebra,
    eom_residual,
    evaluate_field,
    hilbert_dimensions,
    mode_commutator_residual,
    periodicity_residual,
    sample_field,
)
from .starprod import (
    ConvergenceStudy,
    Symbol,
    convergence_study,
    moyal_bracket,
    standard_pair,
    star_exact,
    star_first_order,
    star_quadrature,
    symbol_of,
)

__version__ = "0.1.0"
