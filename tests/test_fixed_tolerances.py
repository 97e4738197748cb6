"""The tolerances of the analysis are constants: no function or config takes them as arguments."""

import numpy as np
import pytest

from mhspectral import cli
from mhspectral.cones import NormSpec, ProductVector, ShapeSpec, as_weight_vector, ones_vector
from mhspectral.graphs import build_dual_graph, build_graph
from mhspectral.homogeneity import (
    contraction_weights,
    is_irreducible,
    is_primitive,
    perron_weights,
    spectral_radius,
)
from mhspectral.maps import has_kink, motivating_map
from mhspectral.solver import (
    SolverConfig,
    certify_uniqueness,
    check_dirr,
    find_dirr,
    power_method,
    residual,
)

A = np.array([[0.0, 2.0], [0.125, 0.0]])
L = np.ones((2, 2))
SHAPE = ShapeSpec((1, 1))


def _solved():
    F = motivating_map()
    return F, power_method(F, None, SolverConfig(norms=NormSpec.euclidean(2)))


# each call passes one removed keyword at the value it used to default to
REMOVED = {
    "spectral_radius-tol": lambda: spectral_radius(A, tol=1e-13),
    "spectral_radius-shift": lambda: spectral_radius(A, shift=1e-8),
    "perron_weights-tol": lambda: perron_weights(A, tol=1e-10),
    "perron_weights-shift": lambda: perron_weights(A, shift=1e-8),
    "perron_weights-positivity_ratio": lambda: perron_weights(A, positivity_ratio=1e-12),
    "contraction_weights-margin_tol": lambda: contraction_weights(A, margin_tol=1e-12),
    "is_irreducible-pattern_tol": lambda: is_irreducible(A, pattern_tol=1e-12),
    "is_primitive-pattern_tol": lambda: is_primitive(A, pattern_tol=1e-12),
    "certify_uniqueness-pattern_tol": lambda: certify_uniqueness(*_solved(), pattern_tol=1e-12),
    "check_dirr-pattern_tol": lambda: check_dirr(L, 0, 1, SHAPE, pattern_tol=1e-12),
    "find_dirr-pattern_tol": lambda: find_dirr(L, SHAPE, pattern_tol=1e-12),
    "residual-floor": lambda: residual(
        motivating_map(), ones_vector(motivating_map().shape), [1.0, 1.0], NormSpec.euclidean(2), floor=1e-15
    ),
    "SolverConfig-cycle_window": lambda: SolverConfig(norms=NormSpec.euclidean(2), cycle_window=2),
    "SolverConfig-keep_iterates": lambda: SolverConfig(norms=NormSpec.euclidean(2), keep_iterates=False),
    "build_graph-t_grid": lambda: build_graph(motivating_map(), t_grid=(1e2, 1e4, 1e6)),
    "build_graph-slope_tol": lambda: build_graph(motivating_map(), slope_tol=0.01),
    "build_dual_graph-t_grid": lambda: build_dual_graph(motivating_map(), t_grid=(1e-2, 1e-4, 1e-6)),
    "build_dual_graph-slope_tol": lambda: build_dual_graph(motivating_map(), slope_tol=0.01),
    "has_kink-tol": lambda: has_kink(motivating_map(), ones_vector(motivating_map().shape), tol=1e-3),
    "as_weight_vector-normalized": lambda: as_weight_vector([0.5, 0.5], 2, normalized=False),
    "approx_pos-floor": lambda: ProductVector([[1.0]]).approx_pos(floor=1e-14),
    "dump_json-indent": lambda: cli.dump_json({}, indent=2),
}


@pytest.mark.parametrize("call", REMOVED.values(), ids=REMOVED.keys())
def test_a_removed_tolerance_keyword_is_a_type_error(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()
