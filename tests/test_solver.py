"""The insertion solver: marginal costs, bounds, policies, and run invariants."""

import random
from collections import Counter
from operator import sub
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynash import (
    CostTableRangeError,
    GameInstance,
    InvariantError,
    MalformedInputError,
    Profile,
    RankFunction,
    SolverPolicy,
    SwapStep,
    compute_pne,
    extend_best_response,
    improving_players,
    induced_weights,
    insertion_step_bound,
    iteration_bound,
    local_improvement,
    marginal_vector,
    private_cost,
    verify_pne,
)
import polynash
from polynash import bestresponse, rank, solver
from polynash.generators import gen_random, gen_singleton, random_convex_table
from polynash.serialize import write_profile, write_trace
from polynash.solver import (
    EVENT_DEMAND_INCREASE,
    EVENT_EQUILIBRIUM,
    EVENT_GREEDY_EXTEND,
    EVENT_IMPROVEMENT_MOVE,
)

from helpers import assert_index_rule, shared_pool_instance


def test_two_player_split_across_resources():
    g = shared_pool_instance()
    profile, trace = compute_pne(g, SolverPolicy(debug_assertions=True))
    assert profile.strategies == ((1, 0), (0, 1))
    assert [private_cost(g, profile, i) for i in range(2)] == [1, 1]
    assert verify_pne(g, profile).is_pne
    assert not trace.improvement_moves()


def test_arrival_displaces_a_settled_player_in_one_move():
    # player 0 settles on a; player 1's arrival there makes a expensive for
    # player 0, who must shift its unit to b in a single improvement move
    f = RankFunction((0, 1, 1, 1))
    g = GameInstance(
        ("a", "b"),
        (1, 1),
        (f, f),
        (((0, 1, 10), (0, 3, 3)), ((0, 1, 2), (0, 9, 9))),
    )
    profile, trace = compute_pne(g, SolverPolicy(debug_assertions=True))
    assert profile.strategies == ((0, 1), (1, 0))
    assert [private_cost(g, profile, i) for i in range(2)] == [3, 1]
    assert verify_pne(g, profile).is_pne
    moves = trace.improvement_moves()
    assert len(moves) == 1
    move = moves[0]
    assert (move.player, move.from_resource, move.to_resource) == (0, 0, 1)
    assert move.marginal_sorted == (3, 2)  # strictly below the (10, 2) before it


def test_zero_demand_game_has_an_empty_trace():
    f = RankFunction((0, 1, 1, 1))
    g = GameInstance(("a", "b"), (0, 0), (f, f), (((0,), (0,)), ((0,), (0,))))
    profile, trace = compute_pne(g)
    assert profile.strategies == ((0, 0), (0, 0))
    assert trace.events == ()


def test_single_player_solve_is_pure_greedy():
    g = gen_random(17, 1, 4, 3)
    profile, trace = compute_pne(g, SolverPolicy(debug_assertions=True))
    assert not trace.improvement_moves()
    assert verify_pne(g, profile).is_pne
    kinds = {e.kind for e in trace.events}
    assert kinds == {EVENT_DEMAND_INCREASE, EVENT_GREEDY_EXTEND, EVENT_EQUILIBRIUM}


def test_marginal_vector_two_case_rule():
    f = RankFunction((0, 3, 3, 3))
    linear = tuple(range(7))
    g = GameInstance(("a", "b"), (2, 1), (f, f), ((linear, linear), (linear, linear)))
    # player 0 keeps two units on a, player 1 one more: load 3
    # on the overloaded resource: c(3)*2 - c(2)*1 = 4 for each of player 0's
    # units, c(3)*1 - c(2)*0 = 3 for player 1's
    assert marginal_vector(g, ((2, 0), (1, 0)), 0) == (4, 4, 3)
    # elsewhere: c(2)*1 - c(1)*0 = 2
    assert marginal_vector(g, ((1, 0), (0, 0)), 1) == (2,)
    assert marginal_vector(g, ((0, 0), (0, 0)), None) == ()
    # one unit each on the overloaded a, load 2: c(2)*1 - c(1)*0 = 2; player
    # 0's two units on b, load 2, elsewhere: c(3)*2 - c(2)*1 = 4 each
    assert marginal_vector(g, ((1, 2), (1, 0)), 0) == (4, 4, 2, 2)


def test_marginal_vector_is_nonincreasing_with_one_value_per_unit():
    g = gen_random(5, 3, 3, 2)
    profile, _ = compute_pne(g)
    mv = marginal_vector(g, profile.strategies, 0)
    assert list(mv) == sorted(mv, reverse=True)
    assert len(mv) == g.total_demand


def test_marginal_vector_range_errors_keep_their_messages():
    f = RankFunction((0, 3))
    g = GameInstance(("a",), (2,), (f,), (((0, 1, 2),),))
    assert marginal_vector(g, ((2,),), 0) == (3, 3)
    with pytest.raises(CostTableRangeError) as err:
        marginal_vector(g, ((3,),), 0)
    assert str(err.value) == "load 3 outside cost table of length 3"
    with pytest.raises(CostTableRangeError) as err:
        marginal_vector(g, ((2,),))
    assert str(err.value) == (
        "player 0 cost table on resource 0 covers loads up to 2, marginal "
        "evaluation needs 3"
    )


def test_marginal_vector_takes_one_strategy_of_m_counts_per_player():
    g = _arrival_game()  # two players, two resources
    assert marginal_vector(g, ((0, 1), (1, 0)), 1) == (3, 2)
    wrong = [
        # one count for two resources used to price only the first resource
        (((1,), (0,)), "strategy counts must have length 2, got 1"),
        (((1, 0, 0), (0, 1)), "strategy counts must have length 2, got 3"),
        (((1, 0), (0, 1), (0, 0)), "3 strategies for 2 players"),
        (((0.5, 0), (0, 1)), "strategy counts must be integers, got 0.5"),
        (((-1, 0), (0, 1)), "strategy counts must be nonnegative"),
    ]
    for strategies, message in wrong:
        with pytest.raises(MalformedInputError) as err:
            marginal_vector(g, strategies)
        assert str(err.value) == message


def test_iteration_bound_examples():
    f1 = RankFunction((0, 1, 1, 1))
    g1 = GameInstance(
        ("a", "b"), (1, 1), (f1, f1), (((0, 1, 2), (0, 1, 2)), ((0, 1, 2), (0, 1, 2)))
    )
    assert iteration_bound(g1) == 8  # 2^2 * 2^1 * 1^2
    zero = GameInstance(("a", "b"), (0,), (f1,), (((0,), (0,)),))
    assert iteration_bound(zero) == 0
    f2 = RankFunction(tuple(min(bin(mask).count("1") * 2, 2) for mask in range(16)))
    tables = tuple(tuple(range(7)) for _ in range(4))
    g2 = GameInstance(
        ("a", "b", "c", "d"), (2, 2, 2), (f2, f2, f2), (tables, tables, tables)
    )
    assert iteration_bound(g2) == 3456  # 3^3 * 4^2 * 2^3
    assert insertion_step_bound(g2) == 3 * (4 * 2) ** 2


def test_improving_players_on_an_equilibrium_is_empty():
    g = shared_pool_instance()
    profile, _ = compute_pne(g)
    assert improving_players(g, profile) == []


def test_improving_players_flags_the_disturbed_player():
    f = RankFunction((0, 1, 1, 1))
    flat = (1, 1, 1)  # player 0 pays the same price everywhere
    linear = (0, 1, 2)
    g = GameInstance(("a", "b"), (1, 1), (f, f), ((flat, flat), (linear, linear)))
    stacked = Profile(((1, 0), (1, 0)))
    assert improving_players(g, stacked) == [1]


def test_holder_only_mover_scan_gives_the_same_bytes_as_the_full_scan():
    # debug_assertions tests every player and asserts the locality lemma;
    # without it only holders of the overloaded resource are tested
    moves = 0
    for seed in range(75):  # every (n, m) with n, m <= 5, demands up to 3
        n, m, max_demand = 1 + seed % 5, 1 + seed // 5 % 5, 1 + seed // 25
        for family in ("convex_nondecreasing", "truncated_ssc"):
            g = gen_random(seed, n, m, max_demand, family)
            for selection in ("min_index", "round_robin", "seeded_random"):
                outputs = []
                for debug in (False, True):
                    policy = SolverPolicy(selection, seed=seed, debug_assertions=debug)
                    profile, trace = compute_pne(g, policy)
                    outputs.append(write_profile(g, profile) + write_trace(g, trace))
                    moves += len(trace.improvement_moves())
                assert outputs[0] == outputs[1], (seed, family, selection)
    assert moves > 0


def test_the_debug_check_asserts_the_locality_lemma():
    f = RankFunction((0, 1, 1, 1))
    flat = (1, 1, 1, 1)
    linear = (0, 1, 2, 3)
    g = GameInstance(("a", "b"), (1, 1), (f, f), ((flat, flat), (linear, linear)))
    stacked = Profile(((1, 0), (1, 0)))
    sats = [rank.tight_sets(f, x).saturated for x in stacked.strategies]

    def check(over, found):
        kept = marginal_vector(g, stacked.strategies, over)
        solver._check_state(g, stacked, over, kept, sats, found)

    # with a overloaded, player 1 holds it and moves its unit to b
    check(0, (1, SwapStep(remove=(0, 1), add=(1, 1), improvement=1)))
    # every player is tested: nobody holds b, yet player 1 could improve
    with pytest.raises(InvariantError) as err:
        check(1, (None, None))
    assert str(err.value) == (
        "player 1 can improve without using the overloaded resource 1; "
        "strategies=((1, 0), (1, 0)) loads=(2, 0)"
    )


def test_round_robin_and_seeded_random_policies_also_settle():
    for seed in range(20):
        g = gen_random(seed, 3, 3, 2)
        for selection in ("round_robin", "seeded_random"):
            policy = SolverPolicy(selection, seed=seed, debug_assertions=True)
            profile, _ = compute_pne(g, policy)
            assert verify_pne(g, profile).is_pne


def test_round_robin_deals_units_cyclically_skipping_finished_players():
    f = RankFunction((0, 3, 3, 3))
    tables = tuple(tuple(range(8)) for _ in range(2))
    g = GameInstance(("a", "b"), (1, 3, 2), (f, f, f), (tables, tables, tables))
    _, trace = compute_pne(g, SolverPolicy("round_robin", debug_assertions=True))
    inserted = [e.player for e in trace.events if e.kind == EVENT_DEMAND_INCREASE]
    assert inserted == [0, 1, 2, 1, 2, 1]


def test_round_robin_order_matches_the_cursor_rule():
    def cursor_order(demands):
        # the first player from the cursor on, cyclically, with units left;
        # the cursor then moves past that player
        left, n, cursor, order = list(demands), len(demands), 0, []
        for _ in range(sum(demands)):
            i = next(k % n for k in range(cursor, cursor + n) if left[k % n])
            left[i] -= 1
            cursor = i + 1
            order.append(i)
        return order

    rng, policy = random.Random(0), SolverPolicy("round_robin")
    for _ in range(20_000):
        demands = tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 7)))
        order = list(solver._insertion_order(policy, demands))
        assert order == cursor_order(demands), demands


def test_policy_rejects_unknown_selection():
    with pytest.raises(MalformedInputError):
        SolverPolicy("fastest_first")
    for seed in (1.9, "1"):
        with pytest.raises(MalformedInputError) as err:
            SolverPolicy("seeded_random", seed=seed)
        assert str(err.value) == f"seeds must be integers, got {seed!r}"
    assert SolverPolicy("seeded_random", seed=2.0).seed == 2


def test_repeated_runs_are_identical():
    # one solve leaves nothing behind that a later solve in the process reads
    g = gen_random(33, 3, 3, 3)
    for selection in ("min_index", "round_robin", "seeded_random"):
        policy = SolverPolicy(selection, seed=12)
        first = compute_pne(g, policy)
        compute_pne(gen_random(34, 3, 3, 3), policy)
        second = compute_pne(g, policy)
        assert first[1].improvement_moves(), selection
        assert first == second, selection
        assert write_profile(g, first[0]) + write_trace(g, first[1]) == (
            write_profile(g, second[0]) + write_trace(g, second[1])
        ), selection
    policy = SolverPolicy("seeded_random", seed=12, debug_assertions=True)
    assert compute_pne(g, policy) == compute_pne(g, policy)


def _replay(g, trace):
    """Rebuild the per-insertion profiles from the trace alone."""
    strategies = [[0] * g.m for _ in range(g.n)]
    checkpoints = []
    for e in trace.events:
        if e.kind == EVENT_GREEDY_EXTEND:
            strategies[e.player][e.to_resource] += 1
        elif e.kind == EVENT_IMPROVEMENT_MOVE:
            strategies[e.player][e.from_resource] -= 1
            strategies[e.player][e.to_resource] += 1
        elif e.kind == EVENT_EQUILIBRIUM:
            checkpoints.append(
                (e.outer, Profile(tuple(tuple(s) for s in strategies)))
            )
    return checkpoints


def test_every_insertion_ends_in_a_prefix_equilibrium():
    for seed in (2, 9, 14, 27, 40):
        g = gen_random(seed, 3, 3, 3)
        profile, trace = compute_pne(g, SolverPolicy(debug_assertions=True))
        checkpoints = _replay(g, trace)
        assert checkpoints[-1][1] == profile
        for outer, prefix_profile in checkpoints:
            demands = [sum(s) for s in prefix_profile.strategies]
            assert sum(demands) == outer
            reduced = GameInstance(g.resources, tuple(demands), g.ranks, g.costs)
            reduced.check_profile(prefix_profile)
            assert verify_pne(reduced, prefix_profile).is_pne


def test_improvement_moves_are_local_and_counted_within_bounds():
    moves_seen = 0
    for seed in range(60):
        g = gen_random(seed, 3, 2, 3)
        profile, trace = compute_pne(g, SolverPolicy(debug_assertions=True))
        assert verify_pne(g, profile).is_pne
        per_step = trace.moves_per_insertion()
        assert sum(per_step.values()) <= iteration_bound(g)
        assert all(count <= insertion_step_bound(g) for count in per_step.values())
        for e in trace.improvement_moves():
            moves_seen += 1
            assert e.from_resource != e.to_resource
            assert e.player is not None and e.unit is not None
    assert moves_seen > 0  # the batch must actually exercise the repair path


def test_trace_marginals_strictly_decrease_within_each_insertion():
    for seed in (4, 13, 31, 44, 57):
        g = gen_random(seed, 3, 2, 3)
        _, trace = compute_pne(g)
        previous = None
        for e in trace.events:
            if e.kind == EVENT_GREEDY_EXTEND:
                previous = e.marginal_sorted
            elif e.kind == EVENT_IMPROVEMENT_MOVE:
                assert previous is not None
                assert e.marginal_sorted < previous
                previous = e.marginal_sorted


def test_default_solve_moves_without_best_response_tests_or_repairs(monkeypatch):
    # the exchange that shows a holder can improve is the move itself
    def forbidden(*args, **kwargs):
        raise AssertionError("called during a default-policy solve")

    monkeypatch.setattr(solver, "repair_best_response", forbidden)
    monkeypatch.setattr(solver, "is_best_response", forbidden, raising=False)
    monkeypatch.setattr(bestresponse, "is_best_response", forbidden)
    # nor from weight rows: the settle state prices its moves from the loads
    monkeypatch.setattr(solver, "induced_weights", forbidden)
    monkeypatch.setattr(bestresponse, "induced_weights", forbidden)
    moves = 0
    for seed in range(30):
        g = gen_random(seed, 3, 3, 3)
        profile, trace = compute_pne(g)
        assert verify_pne(g, profile).is_pne
        moves += len(trace.improvement_moves())
    assert moves > 0


def test_mover_search_tests_holders_in_index_order_and_stops_at_the_first(
    monkeypatch,
):
    # one unit each, all four on a: player 0 never minds a crowd on a, players
    # 1 and 2 both prefer b once a holds four units, player 3 arrives last
    ranks = tuple(RankFunction((0, 1, 1, 1)) for _ in range(4))
    stay = ((0, 1, 1, 1, 1), (0, 9, 9, 9, 9))
    crowd_averse = ((0, 1, 2, 3, 10), (0, 5, 5, 5, 5))
    late = ((0, 1, 1, 1, 1), (0, 5, 5, 5, 5))
    g = GameInstance(
        ("a", "b"), (1, 1, 1, 1), ranks, (stay, crowd_averse, crowd_averse, late)
    )
    tested = []
    real = solver._SettleState.exchange

    def recording(self, i):
        tested.append(i)
        return real(self, i)

    monkeypatch.setattr(solver._SettleState, "exchange", recording)
    profile, trace = compute_pne(g)
    # insertions 1-3 test the holders of a; after insertion 4 the search
    # stops at player 1 without testing 2 or 3, and after the move only
    # player 1 holds b
    assert tested == [0, 0, 1, 0, 1, 2, 0, 1, 1]
    moves = trace.improvement_moves()
    assert [(e.player, e.from_resource, e.to_resource) for e in moves] == [(1, 0, 1)]
    assert profile.strategies == ((1, 0), (0, 1), (1, 0), (1, 0))


def test_debug_solve_scans_every_state_and_rederives_each_move(monkeypatch):
    calls = []
    for name in ("improving_players", "enumerate_base", "repair_best_response"):

        def recording(*args, _real=getattr(solver, name), _name=name, **kwargs):
            calls.append((_name, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(solver, name, recording)
    scan = ("improving_players", {})
    optimum = ("enumerate_base", {})
    repair = ("repair_best_response", {})
    expected = []
    for seed in range(30):
        g = gen_random(seed, 3, 3, 3)
        _, trace = compute_pne(g, SolverPolicy(debug_assertions=True))
        # a full scan at every state; before each move, the enumeration that
        # confirms the mover was optimal one unit earlier, and its repair
        for e in trace.events:
            if e.kind == EVENT_GREEDY_EXTEND:
                expected.append(scan)
            elif e.kind == EVENT_IMPROVEMENT_MOVE:
                expected += [optimum, repair, scan]
    assert calls == expected
    assert repair in calls


def _arrival_game():
    """The game of test_arrival_displaces_a_settled_player_in_one_move.

    Player 0 settles on a; player 1's arrival there, at insertion 2, makes
    player 0 move its unit from a to b.
    """
    f = RankFunction((0, 1, 1, 1))
    return GameInstance(
        ("a", "b"),
        (1, 1),
        (f, f),
        (((0, 1, 10), (0, 3, 3)), ((0, 1, 2), (0, 9, 9))),
    )


def test_a_move_off_another_resource_breaks_an_always_on_invariant(monkeypatch):
    # player 0's real move is a -> b; the fake exchange moves its unit from b
    real = solver._SettleState.exchange

    def off_b(self, i):
        swap = real(self, i)
        return swap and SwapStep(remove=(1, 1), add=(0, 2), improvement=1)

    monkeypatch.setattr(solver._SettleState, "exchange", off_b)
    with pytest.raises(InvariantError) as err:
        compute_pne(_arrival_game())
    assert str(err.value) == (
        "improvement move leaves resource 1, expected the overloaded resource 0"
    )


def test_every_other_always_on_move_invariant_names_itself(monkeypatch):
    real_move = solver._SettleState.move
    off_a = SwapStep(remove=(0, 1), add=(1, 1), improvement=1)

    def staying_move(self, j, from_r, to_r):
        return real_move(self, j, from_r, from_r)

    def drifting_move(self, j, from_r, to_r):
        unit = real_move(self, j, from_r, to_r)
        self.loads[0] += 1
        return unit

    broken = [
        # player 0, alone on a after insertion 1, is offered a move off it
        (
            (solver._SettleState, "exchange", lambda self, i: off_a),
            "the extra unit on resource 0 belongs to the mover 0 itself; "
            "strategies=[(1, 0), (0, 0)]",
        ),
        (
            (solver, "insertion_step_bound", lambda g: 0),
            "improvement moves after insertion 2 exceeded the bound 0",
        ),
        (
            (solver, "iteration_bound", lambda g: 0),
            "total improvement moves exceeded the bound 0",
        ),
        # the unit stays on a, which keeps the extra unit
        (
            (solver._SettleState, "move", staying_move),
            "loads (2, 0) are not the settled loads (1, 0) plus one unit on "
            "resource 1",
        ),
        # the strategies are right, the tracked loads one unit high on a
        (
            (solver._SettleState, "move", drifting_move),
            "tracked loads (2, 1) are not the loads (1, 1) summed from the "
            "strategies",
        ),
    ]
    for (target, name, fake), message in broken:
        with monkeypatch.context() as patched:
            patched.setattr(target, name, fake)
            with pytest.raises(InvariantError) as err:
                compute_pne(_arrival_game())
        assert str(err.value) == message
    profile, _ = compute_pne(_arrival_game())
    assert profile.strategies == ((0, 1), (1, 0))


def test_a_unit_is_numbered_by_its_insertion_and_keeps_its_number():
    # player 0 places unit 1 on b and unit 2 on c; each arrival of player 1
    # moves player 0's unit 2, first off c, then off a, while unit 1 stays on b
    f0 = RankFunction((0, 1, 2, 2, 2, 2, 2, 2))
    f1 = RankFunction((0, 2, 2, 2, 1, 2, 2, 2))
    costs0 = ((1, 3, 5, 8, 12), (1, 1, 2, 3, 5), (1, 2, 4, 6, 8))
    costs1 = ((2, 3, 5, 8, 11), (3, 5, 8, 12, 17), (1, 1, 2, 4, 6))
    g = GameInstance(("a", "b", "c"), (2, 2), (f0, f1), (costs0, costs1))
    profile, trace = compute_pne(g)
    steps = [
        (e.kind, e.player, e.unit, e.from_resource, e.to_resource)
        for e in trace.events
        if e.kind in (EVENT_GREEDY_EXTEND, EVENT_IMPROVEMENT_MOVE)
    ]
    assert steps == [
        (EVENT_GREEDY_EXTEND, 0, 1, None, 1),
        (EVENT_GREEDY_EXTEND, 0, 2, None, 2),
        (EVENT_GREEDY_EXTEND, 1, 1, None, 2),
        (EVENT_IMPROVEMENT_MOVE, 0, 2, 2, 0),
        (EVENT_GREEDY_EXTEND, 1, 2, None, 0),
        (EVENT_IMPROVEMENT_MOVE, 0, 2, 0, 1),
    ]
    assert profile.strategies == ((0, 2, 0), (1, 0, 1))


def test_a_move_names_the_first_placed_unit_on_the_resource_it_leaves():
    labelled = 0
    for seed in range(60):
        g = gen_random(seed, 3, 2, 3)
        _, trace = compute_pne(g, SolverPolicy("round_robin"))
        homes = [[] for _ in range(g.n)]  # each player's units, by number
        for e in trace.events:
            if e.kind == EVENT_GREEDY_EXTEND:
                homes[e.player].append(e.to_resource)
                assert e.unit == len(homes[e.player])
            elif e.kind == EVENT_IMPROVEMENT_MOVE:
                units = homes[e.player]
                assert e.unit == units.index(e.from_resource) + 1
                labelled += e.unit > 1
                units[e.unit - 1] = e.to_resource
    assert labelled > 0


def _reference_move(g, p, over):
    """First improvable player of the full scan, with its fresh exchange.

    By the locality lemma every improvable player holds a unit on ``over``.
    """
    reference = improving_players(g, p)
    assert all(p.strategies[k][over] for k in reference), (p, over)
    if not reference:
        return None, None
    k = reference[0]
    x = p.strategies[k]
    a = tuple(load - own for load, own in zip(p.loads(g.m), x))
    return k, local_improvement(g.ranks[k], x, induced_weights(g, k, a))


def _free_split_game(seed, n, m):
    """A ``gen_singleton`` game: n players, m resources, demands up to 10."""
    rng = random.Random(seed)
    demands = [rng.randint(1, 10) for _ in range(n)]
    sets = [rng.sample(range(m), rng.randint(1, m)) for _ in range(n)]
    total = sum(demands)
    costs = [
        [random_convex_table(rng, total + 1).values for _ in range(m)]
        for _ in range(n)
    ]
    return gen_singleton(sets, demands, costs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    max_demand=st.integers(1, 3),
    family=st.sampled_from(("convex_nondecreasing", "truncated_ssc", "free_split")),
    selection=st.sampled_from(("min_index", "round_robin", "seeded_random")),
)
def test_settle_state_agrees_with_fresh_weights_and_the_reference_scan(
    seed, n, m, max_demand, family, selection
):
    # free-split games hold chains up to 10 long, so the settle state's prices
    # meet positions far past the gen_random demand cap of 3
    if family == "free_split":
        g = _free_split_game(seed, min(n, 4), min(m, 4))
    else:
        g = gen_random(seed, n, m, max_demand, family)
    insertions, searches, states = [], [], []
    real_insert, real_first_move = (
        solver._SettleState.insert,
        solver._SettleState.first_move,
    )

    def insert(self, i):
        x, loads = self.strategies[i], tuple(self.loads)
        r = real_insert(self, i)
        insertions.append((i, x, loads, r))
        states.append(self)
        return r

    def first_move(self, over):
        # every state is searched once: its homes and loads match its strategies
        for homes, x in zip(self.homes, self.strategies):
            assert Counter(homes) == Counter({r: c for r, c in enumerate(x) if c})
        assert self.loads == [sum(column) for column in zip(*self.strategies)]
        # each player's two kept prices per resource are positions x_r and
        # x_r + 1 of its fresh weight rows
        for i, x in enumerate(self.strategies):
            rows = induced_weights(g, i, tuple(map(sub, self.loads, x))).weights
            top = [row[c - 1] if c else None for row, c in zip(rows, x)]
            nxt = [row[c] if c < len(row) else None for row, c in zip(rows, x)]
            assert (self.top[i], self.nxt[i]) == (top, nxt), (i, x, self.loads)
        # the kept marginal vector is the one recomputed from the strategies
        assert self.over == over
        assert self.marginals() == marginal_vector(g, self.strategies, over)
        p = Profile(tuple(self.strategies))
        found = real_first_move(self, over)
        searches.append((p, over, found))
        states.append(self)
        return found

    with (
        patch.object(solver._SettleState, "insert", insert),
        patch.object(solver._SettleState, "first_move", first_move),
    ):
        compute_pne(g, SolverPolicy(selection, seed=seed))
    assert len(insertions) == g.total_demand
    assert searches and all(state is states[0] for state in states)
    for i, x, loads, r in insertions:
        w = induced_weights(g, i, tuple(map(sub, loads, x)))
        grown = x[:r] + (x[r] + 1,) + x[r + 1 :]
        assert extend_best_response(g.ranks[i], w, x) == grown, (i, x, loads)
    for p, over, found in searches:
        assert found == _reference_move(g, p, over), (p, over)


def test_a_default_solve_runs_no_tight_set_pass(monkeypatch):
    # the settle state steps its slack words, so every tight-set pass of a
    # solve comes from the debug checks, at least one per state
    passes, states = [], []
    real_pass, real_first_move = rank.tight_sets, solver._SettleState.first_move

    def tight_pass(f, x):
        passes.append(x)
        return real_pass(f, x)

    def first_move(self, over):
        states.append(over)
        return real_first_move(self, over)

    for module in (polynash, rank, bestresponse, solver):
        if getattr(module, "tight_sets", None) is real_pass:
            monkeypatch.setattr(module, "tight_sets", tight_pass)
    monkeypatch.setattr(solver._SettleState, "first_move", first_move)
    for seed in range(40):
        g = gen_random(seed, 4, 3, 3)
        profile, trace = compute_pne(g)
        assert passes == [], seed
        states.clear()
        assert compute_pne(g, SolverPolicy(debug_assertions=True)) == (profile, trace)
        assert len(passes) >= len(states) > 0, seed
        passes.clear()


def test_the_debug_solve_compares_the_settle_search_with_the_reference_scan(
    monkeypatch,
):
    # the crippled search misses the arrival game's one move
    g = _arrival_game()
    monkeypatch.setattr(
        solver._SettleState, "first_move", lambda self, over: (None, None)
    )
    compute_pne(g)  # without the comparison the missed move goes unnoticed
    with pytest.raises(InvariantError, match="settle search found"):
        compute_pne(g, SolverPolicy(debug_assertions=True))


def test_the_debug_solve_checks_the_mover_was_optimal_one_unit_earlier(monkeypatch):
    # player 0 settles on b, where its price stays flat; player 1's cheapest
    # unit is on a, but the crippled insertion puts it on b
    f = RankFunction((0, 1, 1, 1))
    g = GameInstance(
        ("a", "b"), (1, 1), (f, f), (((0, 5, 5), (0, 1, 1)), ((0, 1, 2), (0, 3, 3)))
    )
    real = solver._SettleState.insert

    def misplaced(self, i):
        if i == 0:
            return real(self, i)
        self._step(i, None, 1)
        return 1

    monkeypatch.setattr(solver._SettleState, "insert", misplaced)
    profile, _ = compute_pne(g)  # the move that follows hides the fault
    assert profile.strategies == ((0, 1), (1, 0))
    with pytest.raises(InvariantError) as err:
        compute_pne(g, SolverPolicy(debug_assertions=True))
    assert str(err.value) == (
        "mover 1's strategy (0, 1) was not minimum-weight before the unit on "
        "resource 1 (weight 3, optimum 1)"
    )


def test_the_debug_solve_names_an_improvable_player_who_holds_the_extra_unit(
    monkeypatch,
):
    # player 0's first unit belongs on a, where it costs 1; the crippled
    # insertion puts it on b, where no opponent holds a unit
    real = solver._SettleState.insert

    def misplaced(self, i):
        if i or self.homes[0]:
            return real(self, i)
        self._step(i, None, 1)
        return 1

    monkeypatch.setattr(solver._SettleState, "insert", misplaced)
    g = _arrival_game()
    with pytest.raises(InvariantError) as err:
        compute_pne(g)
    assert str(err.value) == (
        "the extra unit on resource 1 belongs to the mover 0 itself; "
        "strategies=[(0, 1), (0, 0)]"
    )
    with pytest.raises(InvariantError) as err:
        compute_pne(g, SolverPolicy(debug_assertions=True))
    assert str(err.value) == (
        "the extra unit on resource 1 belongs to the improvable player 0 itself; "
        "strategies=[(0, 1), (0, 0)]"
    )


def test_the_debug_solve_compares_the_kept_marginals_with_the_recomputed_vector(
    monkeypatch,
):
    # the crippled kept vector loses its lowest unit, and still decreases
    real = solver._SettleState.marginals
    monkeypatch.setattr(solver._SettleState, "marginals", lambda self: real(self)[:-1])
    g = _arrival_game()
    _, trace = compute_pne(g)  # without the comparison the loss goes unnoticed
    assert trace.events[-1].marginal_sorted == (3,)
    with pytest.raises(InvariantError) as err:
        compute_pne(g, SolverPolicy(debug_assertions=True))
    assert str(err.value) == (
        "kept marginal vector () is not the recomputed (1,); "
        "strategies=[(1, 0), (0, 0)] overloaded=0"
    )


def test_the_debug_solve_compares_each_kept_sat_with_a_tight_set_pass(monkeypatch):
    # the crippled step marks a resource the game does not have as saturated,
    # which no addition or exchange loop reads
    real = solver._SettleState._step

    def crippled(self, i, from_r, to_r):
        unit = real(self, i, from_r, to_r)
        self.sat[i] |= 1 << self.g.m
        return unit

    g = _arrival_game()
    expected = compute_pne(g)
    monkeypatch.setattr(solver._SettleState, "_step", crippled)
    assert compute_pne(g) == expected  # without the comparison the flag goes unnoticed
    with pytest.raises(InvariantError) as err:
        compute_pne(g, SolverPolicy(debug_assertions=True))
    # x = (1, 0) fills {a} and {a, b}
    assert str(err.value) == (
        "player 0 keeps sat(x) 7 at x=(1, 0), a tight-set pass gives 3"
    )


def test_improving_players_refuses_a_profile_of_another_player_count():
    # three strategies used to raise IndexError, and one was answered with
    # [0], as if it were a game of one player
    g = gen_random(0, 2, 2, 2)
    profile, _ = compute_pne(g)
    for strategies in (profile.strategies + ((1, 0),), profile.strategies[:1]):
        with pytest.raises(MalformedInputError) as err:
            improving_players(g, Profile(strategies))
        assert str(err.value) == f"profile has {len(strategies)} players, instance has 2"


def test_marginal_vector_takes_resource_indices_by_the_one_input_rule():
    g = gen_random(0, 2, 2, 2)
    profile, _ = compute_pne(g)
    assert_index_rule(
        lambda r: marginal_vector(g, profile.strategies, r), "resource indices"
    )
