"""Eigenvectors and spectral radii of order-preserving multi-homogeneous maps.

The library computes positive and nonnegative eigenpairs of mappings
F = (F_1, ..., F_d) on products of nonnegative orthants that satisfy
F_i(alpha (x) x) = (prod_j alpha_j^{A_ij}) F_i(x), together with the
Collatz-Wielandt machinery that brackets the weighted spectral radius
r_b = prod_i lambda_i^{b_i}:

- ``cones``       product vectors, scaling algebra, block norms
- ``metrics``     weighted Hilbert / Thompson metrics on the open cone
- ``maps``        map families, closure algebra, structure verification
- ``homogeneity`` spectral radius, Perron weights, contraction weight search,
                  the per-map regime and weight policy (``analyze_homogeneity``)
- ``graphs``      index graphs, path existence condition, dual graphs
- ``solver``      bracketed power method, continuation, certificates
- ``cli``         the ``mhspectral`` batch front end
"""

from .cones import (
    NormSpec,
    ProductVector,
    ShapeSpec,
    as_weight_vector,
    block_norms,
    matrix_power_scale,
    normalize,
    ones_vector,
    partial_order_compare,
    random_interior,
    scale_blocks,
    weighted_norm_product,
)
from .graphs import (
    IndexGraph,
    build_dual_graph,
    build_graph,
    check_existence_condition,
    is_strongly_connected,
    probe_vector,
)
from .homogeneity import (
    HomogeneityAnalysis,
    PerronStructureError,
    WeightSearchResult,
    analyze_homogeneity,
    contraction_weights,
    is_irreducible,
    is_primitive,
    lipschitz_bound,
    perron_weights,
    spectral_radius,
)
from .maps import (
    EigenPair,
    MapInstance,
    compose,
    dual,
    euler_residual,
    evaluate,
    hadamard,
    has_kink,
    irrex_map,
    jacobian_at,
    linear_map,
    max_example_map,
    motivating_map,
    nonirr_map,
    numeric_jacobian,
    pq_singular_map,
    shifted,
    singular_map,
    tensor_eigen_map,
    tight_equality_pair,
    tight_map,
    verify_multihomogeneous,
    verify_order_preserving,
    weighted_sum,
)
from .metrics import RatioExtrema, hilbert_metric, ratio_extrema, thompson_metric
from .solver import (
    CONVERGED,
    DIVERGED,
    MAX_ITER,
    Certificate,
    DeltaSchedule,
    ExpansiveMapError,
    SolveReport,
    SolverConfig,
    bonsall_estimate,
    certify_uniqueness,
    check_dirr,
    cw_bounds,
    delta_continuation,
    find_dirr,
    power_method,
    residual,
)

__version__ = "0.1.0"
