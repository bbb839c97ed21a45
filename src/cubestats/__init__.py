"""Exact subcube statistics for vertex subsets of the hypercube.

The central quantity is the fraction of d-dimensional subcubes of Q_n
meeting a vertex set A in exactly s vertices.  The package computes it
exactly, maximizes it by exhaustive search at small n, encloses the
large-n limit between certified lower-bound constructions and Turán
upper bounds, and verifies the supporting number theory.

``cubestats.X`` imports the module defining X on first use (PEP 562), so
asking only for bounds, Turán densities or residue sums loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines, space-separated
_NAMES = {
    "approx": "ApproxCheck ApproxSpec approx_construct check_approx third_layer_check",
    "bounds": "LambdaBounds Witness best_bounds c_d c_dk c_star c_star_enumerated"
    " expected_single_fraction two_adic_split",
    "constructions": "ConstructionResult bernoulli_set build_construction layered_set"
    " mod_weight_set parity_set perturb_parity perturbation_preserves spanning_fraction"
    " syndrome_set turan_extremal_set weight_top_bottom_set",
    "cube": "MASK_CAP Subcube VertexSet binomial enumerate_subcubes subcube_count"
    " subcube_vertices",
    "errors": "CapabilityError CertificateError DomainError",
    "exhaustive": "exhaustive_lambda",
    "gf2": "GF2Matrix gf2_rank",
    "hadamard": "HadamardMatrix hadamard_matrix hadamard_paley hadamard_sylvester",
    "johnson": "CliqueCertificate JohnsonGraph OmegaResult hadamard_to_clique johnson_adjacent"
    " max_clique omega verify_clique",
    "residues": "ResidueSumTable q_binsum residue_table thm32_q verify_prop31 verify_thm32",
    "stats": "LayeredSpec SubcubeDistribution distribution distribution_fast lambda_of_set"
    " layered_distribution",
    "turan": "lambda_d2_closed_form turan_density turan_edges turan_parts",
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the module that owns ``name``, or is ``name``, and bind it and
    its public names here, so that later lookups of them skip this function."""
    module = _OWNER.get(name, name)
    if module not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    owner = importlib.import_module(f".{module}", __package__)
    globals().update({module: owner}, **{n: getattr(owner, n) for n in _NAMES[module].split()})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, *_NAMES})
