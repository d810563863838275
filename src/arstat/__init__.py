"""Generalized A_r quantum statistics toolkit.

Ladder-operator Fock representations, Bargmann coherent-state calculus,
droplet (Husimi) densities, the coherent-state star product and Moyal
bracket, and the chiral boson theory on the droplet edge.

The five layer modules load on first use.  Importing the package registers
each of them in ``sys.modules`` behind ``importlib.util.LazyLoader``, so a
module body (and its numpy or SciPy imports) runs on the first attribute
access.  ``arstat.algebra``, ``arstat.droplet`` and ``arstat.edge`` import
only numpy and load SciPy inside the functions that build sparse matrices
or need ``gammaln``; ``arstat.bargmann`` imports it at module level, and
``arstat.starprod`` imports ``bargmann``.  The names re-exported here
resolve through the module ``__getattr__``.
"""


def _lazy(layer: str):
    # imported here, so the package namespace holds only what it exports
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


algebra = _lazy("algebra")
bargmann = _lazy("bargmann")
droplet = _lazy("droplet")
edge = _lazy("edge")
starprod = _lazy("starprod")
del _lazy

_EXPORTS = {
    "algebra": (
        "FockBasis",
        "HamiltonianSpec",
        "LadderOperators",
        "RelationReport",
        "StatisticsSpec",
        "enumerate_basis",
        "fermionic_dimension",
        "hamiltonian",
        "hamiltonian_from_commutators",
        "ladder_matrices",
        "large_k_commutator_deviation",
        "number_operator",
        "structure_function",
        "verify_triple_relations",
    ),
    "bargmann": (
        "CoherentVector",
        "MetricMatrix",
        "QuadratureRule",
        "build_quadrature",
        "coefficient",
        "coherent_vector",
        "differential_realization_check",
        "distance_hessian",
        "distance_sq",
        "integrate",
        "measure_density",
        "measure_normalization",
        "metric",
        "monomial_moment",
        "orthonormality_gram",
        "overlap",
        "overlap_from_vectors",
    ),
    "droplet": (
        "DropletProfile",
        "DropletSpec",
        "density_operator",
        "droplet_profile",
        "husimi",
        "husimi_from_matrix",
        "mean_occupation",
        "potential_symbol",
        "step_profile_check",
    ),
    "edge": (
        "EdgeField",
        "ModeAlgebra",
        "action_value",
        "build_mode_algebra",
        "eom_residual",
        "evaluate_field",
        "hilbert_dimensions",
        "mode_commutator_residual",
        "periodicity_residual",
        "sample_field",
    ),
    "starprod": (
        "ConvergenceStudy",
        "Symbol",
        "convergence_study",
        "moyal_bracket",
        "standard_pair",
        "star_exact",
        "star_first_order",
        "star_quadrature",
        "symbol_of",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}
del _EXPORTS

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # read from the layer module on every access, so a patched layer
    # function is what ``arstat.<name>`` returns
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # the layers, any submodule loaded since, the exports and the dunders;
    # not the private lookup table
    public = [name for name in globals() if not name.startswith("_") or name.startswith("__")]
    return sorted({*public, *__all__})
