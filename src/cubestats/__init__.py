"""Exact subcube statistics for vertex subsets of the hypercube.

The central quantity is the fraction of d-dimensional subcubes of Q_n
meeting a vertex set A in exactly s vertices.  The package computes it
exactly, maximizes it by exhaustive search at small n, encloses the
large-n limit between certified lower-bound constructions and Turán
upper bounds, and verifies the supporting number theory.
"""

__version__ = "0.1.0"

from .approx import ApproxCheck, ApproxSpec, approx_construct, check_approx, third_layer_check
from .constructions import (
    ConstructionResult,
    bernoulli_set,
    best_bounds,
    build_construction,
    c_d,
    c_dk,
    c_star,
    c_star_enumerated,
    expected_single_fraction,
    layered_set,
    mod_weight_set,
    parity_set,
    perturb_parity,
    perturbation_preserves,
    spanning_fraction,
    syndrome_set,
    turan_extremal_set,
    two_adic_split,
    weight_top_bottom_set,
)
from .cube import (
    MASK_CAP,
    Subcube,
    VertexSet,
    binomial,
    enumerate_subcubes,
    subcube_count,
    subcube_vertices,
)
from .errors import CapabilityError, CertificateError, DomainError
from .exhaustive import exhaustive_lambda
from .gf2 import GF2Matrix, gf2_rank
from .hadamard import HadamardMatrix, hadamard_matrix, hadamard_paley, hadamard_sylvester
from .johnson import (
    CliqueCertificate,
    JohnsonGraph,
    OmegaResult,
    hadamard_to_clique,
    johnson_adjacent,
    max_clique,
    omega,
    verify_clique,
)
from .residues import (
    ResidueSumTable,
    q_binsum,
    residue_table,
    thm32_q,
    verify_prop31,
    verify_thm32,
)
from .stats import (
    LambdaBounds,
    LayeredSpec,
    SubcubeDistribution,
    distribution,
    distribution_fast,
    lambda_of_set,
    layered_distribution,
)
from .turan import lambda_d2_closed_form, turan_density, turan_edges, turan_parts
