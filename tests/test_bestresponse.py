"""Greedy ideals, demand-increase extension, load-increase repair, local search."""

import random

import pytest

from polynash import (
    ContractError,
    GameInstance,
    InfeasibleTruncationError,
    MalformedInputError,
    Profile,
    RankFunction,
    WeightedGround,
    enumerate_base,
    extend_best_response,
    feasible_additions,
    is_best_response,
    local_improvement,
    ordered_greedy,
    repair_best_response,
)
import polynash
from polynash import bestresponse, rank, solver
from polynash.generators import gen_random

from helpers import (
    assert_index_rule,
    bounded_random_rank,
    feasible_vectors,
    hamming,
    min_weight,
    random_admissible_rows,
)

F_AB = RankFunction((0, 2, 1, 2))
W_AB = WeightedGround(((1, 5), (2,)))


def test_greedy_on_the_worked_example():
    best, minima = min_weight(F_AB.values, 2, W_AB.weights)  # oracle first
    assert best == 3 and minima == [(1, 1)]
    result = ordered_greedy(F_AB, 2, W_AB)
    assert result == (1, 1)
    assert W_AB.ideal_weight(result) == 3


def test_greedy_zero_demand_and_infeasible_demand():
    assert ordered_greedy(F_AB, 0, W_AB) == (0, 0)
    with pytest.raises(InfeasibleTruncationError):
        ordered_greedy(F_AB, 3, W_AB)


def test_greedy_tie_break_prefers_low_resource_index():
    flat = WeightedGround(((4, 4), (4,)))
    assert ordered_greedy(F_AB, 2, flat) == (2, 0)
    assert ordered_greedy(F_AB, 1, flat) == (1, 0)


def test_feasible_additions_examples():
    assert feasible_additions(F_AB, (1, 0)) == [(0, 2), (1, 1)]
    assert feasible_additions(F_AB, (1, 1)) == []  # full base, nothing extends
    assert feasible_additions(F_AB, (0, 1)) == [(0, 1)]  # chain of b is exhausted


def test_extend_on_the_worked_example():
    # (1, 0) is the weight-1 optimum at demand 1; the cheap addition is b
    best1, minima1 = min_weight(F_AB.values, 1, W_AB.weights)
    assert (1, 0) in minima1 and best1 == 1
    extended = extend_best_response(F_AB, W_AB, (1, 0))
    assert extended == (1, 1)
    best2, _ = min_weight(F_AB.values, 2, W_AB.weights)
    assert W_AB.ideal_weight(extended) == best2


def test_extend_from_empty_picks_the_cheapest_feasible_element():
    assert extend_best_response(F_AB, W_AB, (0, 0)) == (1, 0)


def test_extend_single_chain_always_grows_it():
    f = RankFunction((0, 3))
    w = WeightedGround(((2, 4, 9),))
    x = (0,)
    for expected in ((1,), (2,), (3,)):
        x = extend_best_response(f, w, x)
        assert x == expected
    with pytest.raises(InfeasibleTruncationError):
        extend_best_response(f, w, x)


def test_local_improvement_examples():
    assert local_improvement(F_AB, (1, 1), W_AB) is None  # optimal already
    swap = local_improvement(F_AB, (2, 0), W_AB)
    assert swap is not None
    assert swap.remove == (0, 2) and swap.add == (1, 1) and swap.improvement == 3
    # unique base at full demand: nothing to improve
    modular = RankFunction((0, 2, 1, 3))
    w = WeightedGround(((1, 2), (9,)))
    assert local_improvement(modular, (2, 1), w) is None


def test_local_improvement_rejects_vectors_outside_the_polytope():
    with pytest.raises(ContractError):
        local_improvement(F_AB, (0, 2), W_AB)  # b alone holds one unit
    with pytest.raises(ContractError):
        local_improvement(F_AB, (2, 1), W_AB)  # a and b together hold two
    assert feasible_additions(F_AB, (0, 2)) == []  # nothing extends it either


def test_repair_keeps_an_ideal_that_is_still_optimal():
    w_new = WeightedGround(((5, 5), (2,)))  # chain of a lifted: 1,5 -> 5,5
    repaired, swap = repair_best_response(F_AB, (1, 1), 0, W_AB, w_new)
    assert repaired == (1, 1) and swap is None


def test_repair_moves_one_unit_between_singleton_chains():
    f = RankFunction((0, 1, 1, 2))
    w_old = WeightedGround(((1,), (2,)))
    w_new = WeightedGround(((3,), (2,)))
    repaired, swap = repair_best_response(f, (1, 0), 0, w_old, w_new)
    assert repaired == (0, 1)
    assert swap.remove == (0, 1) and swap.add == (1, 1) and swap.improvement == 1


def test_repair_rejects_unrelated_weight_changes():
    changed_elsewhere = WeightedGround(((1, 5), (7,)))
    with pytest.raises(ContractError):
        repair_best_response(F_AB, (1, 1), 0, W_AB, changed_elsewhere)
    dropped = WeightedGround(((0, 5), (2,)))
    with pytest.raises(ContractError):
        repair_best_response(F_AB, (1, 1), 0, W_AB, dropped)
    overtaking = WeightedGround(((6, 6), (2,)))  # position 1 above old position 2
    with pytest.raises(ContractError):
        repair_best_response(F_AB, (1, 1), 0, W_AB, overtaking)


def _random_ground(rng, full_rank_cap=6):
    f = bounded_random_rank(rng, rng.randint(1, 4), full_rank_cap=full_rank_cap)
    d = rng.randint(0, f.rank_of_all)
    lengths = [min(f.singleton(r), d) for r in range(f.m)]
    w = WeightedGround(random_admissible_rows(rng, lengths))
    return f, d, w


def test_greedy_matches_the_exhaustive_minimum_with_optimal_prefixes():
    rng = random.Random(21)
    for _ in range(150):
        f, d, w = _random_ground(rng)
        result = ordered_greedy(f, d, w)
        prefix = (0,) * f.m
        # replay the greedy one step at a time and check each prefix
        for k in range(1, d + 1):
            prefix = extend_best_response(f, w, prefix)
            best, _ = min_weight(f.values, k, w.weights)
            assert w.ideal_weight(prefix) == best
        assert prefix == result


def test_extension_is_optimal_and_hamming_one_from_any_optimum():
    rng = random.Random(22)
    for _ in range(150):
        f, d, w = _random_ground(rng)
        if d == f.rank_of_all:
            continue
        lengths = [min(f.singleton(r), d + 1) for r in range(f.m)]
        w = WeightedGround(random_admissible_rows(rng, lengths))
        _, minima = min_weight(f.values, d, w.weights)
        x = rng.choice(minima)
        y = extend_best_response(f, w, x)
        assert hamming(x, y) == 1
        best_next, _ = min_weight(f.values, d + 1, w.weights)
        assert w.ideal_weight(y) == best_next


def _shifted(rng, w, resource):
    """Admissible single-chain lift bounded by the next position's old weight."""
    rows = [list(row) for row in w.weights]
    row = rows[resource]
    prev = None
    for t in range(len(row)):
        ceiling = row[t + 1] if t + 1 < len(row) else row[t] + rng.randint(0, 4)
        lifted = rng.randint(row[t], ceiling)
        if prev is not None:
            lifted = max(lifted, prev)
        row[t] = lifted
        prev = lifted
    rows[resource] = row
    return WeightedGround(tuple(tuple(r) for r in rows))


def test_repair_is_optimal_and_hamming_zero_or_two():
    rng = random.Random(23)
    cases = 0
    while cases < 200:
        f, d, w_old = _random_ground(rng)
        if d == 0:
            continue
        candidates = [r for r in range(f.m) if w_old.length(r) > 0]
        if not candidates:
            continue
        r_star = rng.choice(candidates)
        w_new = _shifted(rng, w_old, r_star)
        _, minima = min_weight(f.values, d, w_old.weights)
        x = rng.choice(minima)
        repaired, swap = repair_best_response(f, x, r_star, w_old, w_new)
        dist = hamming(x, repaired)
        assert dist in (0, 2)
        assert (swap is None) == (dist == 0)
        best_new, _ = min_weight(f.values, d, w_new.weights)
        assert w_new.ideal_weight(repaired) == best_new
        cases += 1


def test_local_improvement_is_none_exactly_on_optima():
    rng = random.Random(24)
    for _ in range(80):
        f, d, w = _random_ground(rng, full_rank_cap=5)
        best, minima = min_weight(f.values, d, w.weights)
        for x in enumerate_base(f, d):
            swap = local_improvement(f, x, w)
            if x in minima:
                assert swap is None
            else:
                assert swap is not None
                assert swap.improvement >= 1


def test_is_best_response_weighs_rising_prices_against_alternatives():
    f = RankFunction((0, 2, 1, 2))
    table = (0, 1, 2, 4)
    g = GameInstance(("a", "b"), (2, 1), (f, f), ((table, table), (table, table)))
    # player 1 sits on b; player 0 should split rather than stack both units on a
    assert not is_best_response(g, Profile(((2, 0), (0, 1))), 0)
    assert is_best_response(g, Profile(((1, 1), (0, 1))), 0)


def test_is_best_response_examples():
    from polynash import compute_pne

    g = gen_random(3, 1, 3, 3)  # single player
    profile, _ = compute_pne(g)
    assert is_best_response(g, profile, 0)
    # a deliberately bad strategy is flagged
    f = RankFunction((0, 2, 1, 2))
    table = (0, 1, 2, 3)
    g2 = GameInstance(("a", "b"), (2,), (f,), ((table, table),))
    assert not is_best_response(g2, Profile(((2, 0),)), 0)
    assert is_best_response(g2, Profile(((1, 1),)), 0)
    # zero demand is trivially settled
    g3 = GameInstance(("a",), (0,), (RankFunction((0, 1)),), (((0,),),))
    assert is_best_response(g3, Profile(((0,),)), 0)


def test_is_best_response_rejects_strategies_outside_the_polytope():
    table = (0, 1, 2, 3, 4)
    g = GameInstance(("a", "b"), (2,), (F_AB,), ((table, table),))
    with pytest.raises(ContractError):
        is_best_response(g, Profile(((0, 2),)), 0)


def test_the_demand_range_messages():
    with pytest.raises(MalformedInputError) as err:
        ordered_greedy(F_AB, -1, W_AB)
    assert str(err.value) == "demand must be nonnegative"
    exceeds = "demand 3 exceeds the rank 2 of the full resource set"
    with pytest.raises(InfeasibleTruncationError) as err:
        ordered_greedy(F_AB, 3, W_AB)
    assert str(err.value) == exceeds
    with pytest.raises(InfeasibleTruncationError) as err:
        extend_best_response(F_AB, W_AB, (1, 1))  # a full base grows to 3
    assert str(err.value) == exceeds


def _one_player_on(f):
    return GameInstance(("a", "b"), (2,), (f,), (((0, 1, 2), (0, 1, 2)),))


def test_the_outside_the_polytope_message():
    g = _one_player_on(F_AB)
    message = "count vector (0, 2) lies outside the polytope"  # b alone holds one
    with pytest.raises(ContractError) as err:
        local_improvement(F_AB, (0, 2), W_AB)
    assert str(err.value) == message
    settle = solver._SettleState(g)
    settle._step(0, None, 1)
    with pytest.raises(ContractError) as err:
        settle._step(0, None, 1)  # the slack word's guard bit on {b} clears
    assert str(err.value) == message
    assert settle.strategies == [(0, 1)] and settle.loads == [0, 1]


def test_the_no_feasible_addition_message():
    f = RankFunction((0, 1, 2, 3))  # a alone 1, b alone 2, both 3
    with pytest.raises(ContractError) as err:
        # demand 3 is within the rank, but (2, 0) already overfills a
        extend_best_response(f, WeightedGround(((1,), (1, 2))), (2, 0))
    assert str(err.value) == "count vector (2, 0) lies outside the polytope"
    message = "no feasible addition exists; the demand exceeds the ground rank"
    settle = solver._SettleState(_one_player_on(F_AB))
    settle.insert(0), settle.insert(0)
    assert settle.strategies == [(1, 1)]  # a full base: a and b together hold 2
    with pytest.raises(InfeasibleTruncationError) as err:
        settle.insert(0)
    assert str(err.value) == message


def test_is_best_response_refuses_a_player_or_profile_the_game_does_not_have():
    # player 5 and a one-strategy profile used to raise IndexError
    g = gen_random(0, 2, 2, 2)
    profile, _ = solver.compute_pne(g)
    for i in (5, 2, -1):
        with pytest.raises(MalformedInputError, match=f"^player index {i} out of range$"):
            is_best_response(g, profile, i)
    with pytest.raises(MalformedInputError, match="^profile has 1 players, instance has 2$"):
        is_best_response(g, Profile(profile.strategies[:1]), 0)


def test_is_best_response_takes_player_indices_by_the_one_input_rule():
    # 1.0 used to raise TypeError: tuple indices must be integers
    g = gen_random(0, 2, 2, 2)
    profile, _ = solver.compute_pne(g)
    assert_index_rule(lambda i: is_best_response(g, profile, i), "player indices")


def test_ordered_greedy_takes_its_demand_by_the_one_input_rule():
    assert_index_rule(lambda d: ordered_greedy(F_AB, d, W_AB), "demands")


def test_repair_takes_its_shifted_resource_by_the_one_input_rule():
    # "0" used to raise TypeError; a resource out of range stays a broken contract
    def repair(r):
        return repair_best_response(F_AB, (1, 1), r, W_AB, W_AB)

    assert_index_rule(repair, "resource indices")
    with pytest.raises(ContractError, match="^shifted resource 2 out of range$"):
        repair(2.0)


def test_the_public_best_responses_run_no_tight_set_pass(monkeypatch):
    # each reads sat(x) and every sat(x - e_r) it needs off one slack word
    passes, reads = [], []
    real_pass, real_read = rank.tight_sets, rank._SlackWords.sat_less

    def tight_pass(f, x):
        passes.append(x)
        return real_pass(f, x)

    def sat_less(self, i, r):
        reads.append(r)
        return real_read(self, i, r)

    for module in (polynash, rank, bestresponse, solver):
        if getattr(module, "tight_sets", None) is real_pass:
            monkeypatch.setattr(module, "tight_sets", tight_pass)
    monkeypatch.setattr(rank._SlackWords, "sat_less", sat_less)
    rng = random.Random(24)
    for _ in range(150):
        f, d, _ = _random_ground(rng)
        d = min(d, f.rank_of_all - 1)  # so that x can grow by one unit
        w = WeightedGround(random_admissible_rows(rng, [f.singleton(r) for r in range(f.m)]))
        ordered_greedy(f, d, w)
        x = rng.choice(feasible_vectors(f.values, d))
        local_improvement(f, x, w)
        extend_best_response(f, w, x)
    for seed in range(20):
        g = gen_random(seed, 3, 3, 3)
        profile, _ = solver.compute_pne(g)
        for i in range(g.n):
            is_best_response(g, profile, i)
    assert passes == [] and reads
