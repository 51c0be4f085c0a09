"""heisgeo: exact discrete Heisenberg geometry, coverings and ergodic averages.

The public names below are re-exported lazily (PEP 562): a submodule is
imported on first access to one of its names, so `import heisgeo` loads
no numerical code and a CLI command loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "ContinuousPoint", "LatticePoint", "as_continuous",
        "continuous_identity", "dilate", "dist_eq_exact", "dist_le_exact",
        "generator", "homogeneous_norm", "inverse", "lattice_identity",
        "metric_d", "multiply", "offset_exact", "point_from_json",
        "point_to_json",
    ),
    "covering": (
        "BoundgenResult", "Carpet", "Chain", "ColourPartition",
        "DiscreteMeasure", "HeightParams", "HeightResult", "MassBound",
        "Stack", "besicovitch_select", "boundgen_select", "colour_partition",
        "covering_net", "is_incremental", "is_sphere_separated",
        "is_well_separated", "maintech_chain", "selection_multiplicity",
        "sphere_pair_distance", "stack_height",
    ),
    "ergodic": (
        "AverageResult", "MaximalCheck", "MaximalExperiment", "WeightedAction",
        "action_from_spec", "ball_label_counts", "boundary_weight_ratio",
        "convergence_rows", "discrete_maximal_check", "make_quotient_action",
        "make_torus_action",
        "maximal_inequality_experiment", "nsfc_ratio", "orbit_transitive",
        "rn_derivative", "weighted_average",
    ),
    "separation": (
        "DEFAULT_CLOSEBALL_C", "DEFAULT_CLOSEBALL_R", "ChainConfig",
        "CloseballResult", "LssConfig", "LssResult", "certify_chain",
        "closeball_witness", "intersection_search", "lss_bound", "lss_check",
        "random_lss_config",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"balls", "errors", "spherequad"}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
