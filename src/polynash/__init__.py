"""Exact pure Nash equilibria for congestion games on integral polymatroids.

Players split integer demands over shared resources subject to player-
specific submodular capacity constraints; each unit on a resource pays a
player-specific, load-dependent price. The solver inserts demand units one
at a time and settles after each insertion through single-unit best-response
moves, always in exact integer arithmetic. A brute-force oracle, instance
generators, JSON serialization, and a CLI round out the package.
"""

from .bestresponse import (
    SwapStep,
    extend_best_response,
    feasible_additions,
    is_best_response,
    local_improvement,
    ordered_greedy,
    repair_best_response,
)
from .errors import (
    AdmissibilityError,
    ContractError,
    CostTableRangeError,
    EnumerationTooLargeError,
    GameError,
    GenerationError,
    InfeasibleTruncationError,
    InvariantError,
    MalformedInputError,
    ParseError,
    ValidationError,
)
from .game import (
    CostTable,
    GameInstance,
    Profile,
    WeightedGround,
    check_convex,
    find_ssc_violation,
    induced_weights,
    private_cost,
)
from .generators import (
    MatroidSpec,
    gen_matroid_game,
    gen_random,
    gen_singleton,
    random_convex_table,
    random_rank,
)
from .oracle import (
    VerificationReport,
    brute_force_best_response,
    enumerate_strategies,
    exhaustive_pne_search,
    verify_pne,
)
from .rank import (
    RankFunction,
    TightSets,
    enumerate_base,
    member_base,
    member_polytope,
    tight_sets,
    validate_rank,
)
from .serialize import (
    FORMAT_VERSION,
    check_trace,
    parse_instance,
    parse_profile,
    write_instance,
    write_profile,
    write_trace,
)
from .solver import (
    SolverPolicy,
    Trace,
    TraceEvent,
    compute_pne,
    improving_players,
    insertion_step_bound,
    iteration_bound,
    marginal_vector,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "ContractError",
    "CostTable",
    "CostTableRangeError",
    "EnumerationTooLargeError",
    "FORMAT_VERSION",
    "GameError",
    "GameInstance",
    "GenerationError",
    "InfeasibleTruncationError",
    "InvariantError",
    "MalformedInputError",
    "MatroidSpec",
    "ParseError",
    "Profile",
    "RankFunction",
    "SolverPolicy",
    "SwapStep",
    "TightSets",
    "Trace",
    "TraceEvent",
    "ValidationError",
    "VerificationReport",
    "WeightedGround",
    "brute_force_best_response",
    "check_convex",
    "check_trace",
    "compute_pne",
    "enumerate_base",
    "enumerate_strategies",
    "exhaustive_pne_search",
    "extend_best_response",
    "feasible_additions",
    "find_ssc_violation",
    "gen_matroid_game",
    "gen_random",
    "gen_singleton",
    "improving_players",
    "induced_weights",
    "insertion_step_bound",
    "is_best_response",
    "iteration_bound",
    "local_improvement",
    "marginal_vector",
    "member_base",
    "member_polytope",
    "ordered_greedy",
    "parse_instance",
    "parse_profile",
    "private_cost",
    "random_convex_table",
    "random_rank",
    "repair_best_response",
    "tight_sets",
    "validate_rank",
    "verify_pne",
    "write_instance",
    "write_profile",
    "write_trace",
]
