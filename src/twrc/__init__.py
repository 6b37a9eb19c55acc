"""Rate-region toolkit for the half-duplex Gaussian two-way relay channel.

Computes the cut-set outer bound (per-ray and weighted LPs), closed-form dual
bounds with feasibility certificates, achievable regions of the known relaying
protocols, region geometry (sweeps, containment, gaps), and the direct-link
capacity thresholds.
"""

import importlib

from .core import (
    ZERO_SHARES,
    ChannelGains,
    LinkCaps,
    TimeShares,
    ValidationError,
    cap,
    db_to_linear,
    linear_to_db,
    link_capacities,
    validate_gains,
)
from .lp import LinearProgram, LpSolution, SolverError, dual_of, solve_lp
from .outer import (
    DualPoint,
    OuterPoint,
    Thresholds,
    WeightedBound,
    analytic_rb_bound,
    analytic_weighted_bound,
    capacity_thresholds,
    dual_point_feasible,
    one_way_bound,
    one_way_bound_ab,
    outer_ratio_bound,
    outer_weighted_bound,
    ratio_bound_lp,
    rb_dual_point,
    weighted_bound_lp,
)
from .achievable import (
    BoundaryPoint,
    FlowVars,
    PowerSplit,
    comabc_boundary,
    hbc_boundary,
    mabc_boundary,
    six_state_boundary,
    six_state_df_boundary,
)
from .region import (
    GainsMismatchError,
    Region,
    SweepError,
    contains,
    convex_hull,
    hausdorff_distance,
    max_radial_gap,
    ray_grid,
    support_along_ray,
    sweep_region,
    symmetric_rate,
)

# twrc.cli loads on first use: imported here eagerly, it would already be in
# sys.modules when ``python -m twrc.cli`` runs it, and runpy warns about that.
_CLI_NAMES = ("PRESETS", "Scenario", "load_scenario", "preset_scenario",
              "protocol_evaluator", "run_compare", "run_thresholds")


def __getattr__(name: str):
    if name == "cli" or name in _CLI_NAMES:
        # import_module, not ``from . import cli``: that would re-enter this hook
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ZERO_SHARES", "ChannelGains", "LinkCaps", "TimeShares", "ValidationError",
    "cap", "db_to_linear", "linear_to_db", "link_capacities", "validate_gains",
    "LinearProgram", "LpSolution", "SolverError", "dual_of", "solve_lp",
    "DualPoint", "OuterPoint", "Thresholds", "WeightedBound",
    "analytic_rb_bound", "analytic_weighted_bound", "capacity_thresholds",
    "dual_point_feasible", "one_way_bound", "one_way_bound_ab",
    "outer_ratio_bound", "outer_weighted_bound", "ratio_bound_lp",
    "rb_dual_point", "weighted_bound_lp",
    "BoundaryPoint", "FlowVars", "PowerSplit", "comabc_boundary",
    "hbc_boundary", "mabc_boundary", "six_state_boundary",
    "six_state_df_boundary",
    "GainsMismatchError", "Region", "SweepError", "contains", "convex_hull",
    "hausdorff_distance", "max_radial_gap", "ray_grid", "support_along_ray",
    "sweep_region", "symmetric_rate",
    "PRESETS", "Scenario", "load_scenario", "preset_scenario",
    "protocol_evaluator", "run_compare", "run_thresholds",
]

__version__ = "0.1.0"
