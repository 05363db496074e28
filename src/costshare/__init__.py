"""Shapley cost-shared broadcast routing on metric graphs.

Agents at graph vertices each route a path to the root and split every
edge's cost evenly among its users.  The package simulates two dynamics —
equilibrium-paced (tree-follow moves restore a balanced equilibrium after
every arrival or departure event) and arrival-only (nobody ever reroutes) —
and certifies the equilibrium cost against a hierarchy of online dual
partitions.  Adversarial and random instance generators plus a CLI round
out the toolkit.
"""

from .errors import (
    ClosureViolationError,
    ConfigError,
    CostshareError,
    EngineInvariantError,
    MetricError,
    VerificationError,
)
from .rationals import format_rational, parse_rational
from .metric import (
    ROOT,
    MetricInstance,
    euclidean_instance,
    explicit_metric,
    instance_from_dict,
    instance_to_dict,
    metric_closure,
    mst_cost,
)
from .routing import (
    BestResponse,
    EquilibriumVerdict,
    RoutingState,
    add_terminal,
    best_response,
    find_improving_tree_move,
    initial_state,
    is_improving_tree_move,
    potential,
    prune_departures,
    shared_cost,
    solution_cost,
    tree_follow_move,
    verify_equilibrium,
    with_revealed,
)
from .duals import (
    AccountingReport,
    ChargeMap,
    DualFamily,
    StateClass,
    classify,
    compute_charges,
    dual_lower_bound,
    logn_accounting,
)
from .dynamics import (
    ArrivalEvent,
    ArrivalItem,
    DepartureEvent,
    EpochRecord,
    MoveRecord,
    RunResult,
    SelectedMove,
    check_schedule,
    run_epoch_eqp,
    run_eqp,
    run_noneqp,
    schedule_from_jsonable,
    schedule_to_jsonable,
    select_tree_move,
)
from .instances import (
    EuclideanRun,
    GmFamily,
    PoaFixture,
    SteinerGapFixture,
    build_gm,
    build_poa_fixture,
    build_random_euclidean,
    build_sigma,
    build_steiner_gap_fixture,
)

__version__ = "0.1.0"

__all__ = [
    "CostshareError", "ConfigError", "MetricError", "EngineInvariantError",
    "ClosureViolationError", "VerificationError",
    "parse_rational", "format_rational",
    "ROOT", "MetricInstance", "metric_closure", "euclidean_instance",
    "explicit_metric", "mst_cost",
    "instance_to_dict", "instance_from_dict",
    "RoutingState", "BestResponse", "EquilibriumVerdict",
    "initial_state", "with_revealed", "add_terminal", "prune_departures",
    "shared_cost", "solution_cost", "potential",
    "best_response", "verify_equilibrium", "is_improving_tree_move",
    "find_improving_tree_move", "tree_follow_move",
    "DualFamily", "ChargeMap", "StateClass", "AccountingReport",
    "compute_charges", "classify", "dual_lower_bound",
    "logn_accounting",
    "ArrivalItem", "ArrivalEvent", "DepartureEvent", "check_schedule",
    "schedule_to_jsonable", "schedule_from_jsonable",
    "SelectedMove", "select_tree_move", "MoveRecord", "EpochRecord",
    "RunResult", "run_epoch_eqp", "run_eqp", "run_noneqp",
    "GmFamily", "PoaFixture", "SteinerGapFixture", "EuclideanRun",
    "build_gm", "build_sigma", "build_poa_fixture",
    "build_steiner_gap_fixture", "build_random_euclidean",
    "__version__",
]
