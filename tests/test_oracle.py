"""Brute-force oracle: agreement with the greedy path, existence, caps."""

import random

import pytest

from polynash import (
    EnumerationTooLargeError,
    GameInstance,
    MalformedInputError,
    Profile,
    RankFunction,
    brute_force_best_response,
    compute_pne,
    enumerate_strategies,
    exhaustive_pne_search,
    induced_weights,
    ordered_greedy,
    private_cost,
    verify_pne,
)
from polynash import oracle
from polynash.generators import gen_random, random_rank

from helpers import SCALE_SHIFTS, assert_index_rule, feasible_vectors, fitting_shift, shared_pool_instance


def test_single_player_oracle_matches_the_greedy_optimum():
    for seed in range(30):
        g = gen_random(seed, 1, 3, 3)
        empty = Profile(((0,) * g.m,))
        strategy, cost = brute_force_best_response(g, empty, 0)
        w = induced_weights(g, 0, (0,) * g.m)
        greedy = ordered_greedy(g.ranks[0], g.demands[0], w)
        assert cost == w.ideal_weight(greedy)
        assert private_cost(g, Profile((strategy,)), 0) == cost


def test_oracle_zero_demand_and_unique_base():
    f = RankFunction((0, 1, 0, 1))
    g = GameInstance(("a", "b"), (1,), (f,), (((0, 1), (0, 1)),))
    strategy, cost = brute_force_best_response(g, Profile(((1, 0),)), 0)
    assert strategy == (1, 0) and cost == 1  # the only feasible base
    g0 = GameInstance(("a",), (0,), (RankFunction((0, 2)),), (((5,),),))
    strategy, cost = brute_force_best_response(g0, Profile(((0,),)), 0)
    assert strategy == (0,) and cost == 0


def test_verify_pne_on_the_two_player_example():
    g = shared_pool_instance()
    profile, _ = compute_pne(g)
    assert verify_pne(g, profile).is_pne
    stacked = Profile(((1, 0), (1, 0)))
    report = verify_pne(g, stacked)
    assert not report.is_pne
    assert len(report.violations) >= 1
    player, current, best, witness = report.violations[0]
    assert current > best
    assert witness in ((0, 1), (1, 0))


def test_verify_pne_empty_game():
    g = GameInstance((), (), (), ())
    assert verify_pne(g, Profile(())).is_pne


def test_exhaustive_search_on_the_two_player_example():
    g = shared_pool_instance()
    found = [p.strategies for p in exhaustive_pne_search(g)]
    assert found == [((0, 1), (1, 0)), ((1, 0), (0, 1))]


def test_exhaustive_search_single_player_returns_all_optima():
    f = RankFunction((0, 1, 1, 1))
    flat = (1, 1)
    g = GameInstance(("a", "b"), (1,), (f,), ((flat, flat),))
    found = [p.strategies for p in exhaustive_pne_search(g)]
    assert found == [((0, 1),), ((1, 0),)]


def test_equilibria_exist_and_contain_the_solver_output():
    for seed in range(25):
        g = gen_random(seed, 2, 3, 2)
        found = exhaustive_pne_search(g)
        assert found, f"no equilibrium found for seed {seed}"
        profile, _ = compute_pne(g)
        assert profile in found


def test_profile_cap_is_read_at_call_time(monkeypatch):
    g = gen_random(2, 3, 3, 3)
    monkeypatch.setattr(oracle, "PROFILE_CAP", 1)
    with pytest.raises(EnumerationTooLargeError, match="exceed the cap 1$"):
        exhaustive_pne_search(g)
    monkeypatch.undo()
    assert exhaustive_pne_search(g)


def test_zero_is_an_enumeration_cap(monkeypatch):
    g = gen_random(2, 3, 3, 3)
    monkeypatch.setattr(oracle, "STRATEGY_CAP", 0)
    with pytest.raises(EnumerationTooLargeError, match="more than 0 strategies"):
        enumerate_strategies(g, 0)
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "PROFILE_CAP", 0)
    with pytest.raises(EnumerationTooLargeError, match="exceed the cap 0$"):
        exhaustive_pne_search(g)


def test_oracle_and_greedy_agree_against_random_opponents():
    rng = random.Random(99)
    for seed in range(30):
        g = gen_random(seed, 2, 3, 3)
        base = [list(enumerate_strategies(g, i)) for i in range(g.n)]
        profile = Profile(tuple(rng.choice(base[i]) for i in range(g.n)))
        for i in range(g.n):
            strategy, cost = brute_force_best_response(g, profile, i)
            loads = profile.loads(g.m)
            a = tuple(loads[r] - profile.strategies[i][r] for r in range(g.m))
            w = induced_weights(g, i, a)
            greedy = ordered_greedy(g.ranks[i], g.demands[i], w)
            assert w.ideal_weight(greedy) == cost


def _one_player(values, d):
    f = RankFunction(values)
    prices = tuple(range(d + 1))
    names = tuple(f"r{k}" for k in range(f.m))
    return GameInstance(names, (d,), (f,), ((prices,) * f.m,))


def test_strategies_match_a_product_scan_on_random_ranks():
    # most candidates the walk reaches break some subset capacity
    rng = random.Random(5)
    for _ in range(80):
        f = random_rank(rng, rng.randint(1, 5), max_chain=rng.randint(1, 2))
        for d in {0, rng.randint(1, f.rank_of_all), f.rank_of_all}:
            expected = feasible_vectors(f.values, d)
            assert enumerate_strategies(_one_player(f.values, d), 0) == expected


def test_strategies_match_a_product_scan_on_tables_scaled_across_field_widths():
    # at demand d, min(f(U), d) has exactly the feasible vectors of f
    rng = random.Random(6)
    for _ in range(40):
        f = random_rank(rng, rng.randint(1, 5))
        for s in SCALE_SHIFTS:
            scaled = tuple(v << fitting_shift(f.values, s) for v in f.values)
            d = rng.randint(0, min(scaled[-1], 6))
            expected = feasible_vectors(tuple(min(v, d) for v in scaled), d)
            assert enumerate_strategies(_one_player(scaled, d), 0) == expected


def test_verify_pne_refuses_a_profile_of_another_player_count():
    # one strategy for two players used to raise IndexError
    g = gen_random(0, 2, 2, 2)
    profile, _ = compute_pne(g)
    for strategies in (profile.strategies[:1], profile.strategies + ((1, 0),)):
        with pytest.raises(MalformedInputError) as err:
            verify_pne(g, Profile(strategies))
        assert str(err.value) == f"profile has {len(strategies)} players, instance has 2"


def test_brute_force_best_response_refuses_a_player_or_profile_the_game_does_not_have():
    # a one-strategy profile used to raise IndexError for player 1, and
    # player -1 was answered for the last player
    g = gen_random(0, 2, 2, 2)
    profile, _ = compute_pne(g)
    with pytest.raises(MalformedInputError, match="^profile has 1 players, instance has 2$"):
        brute_force_best_response(g, Profile(profile.strategies[:1]), 1)
    for i in (2, -1):
        with pytest.raises(MalformedInputError, match=f"^player index {i} out of range$"):
            brute_force_best_response(g, profile, i)


def test_brute_force_best_response_takes_player_indices_by_the_one_input_rule():
    g = gen_random(0, 2, 2, 2)
    profile, _ = compute_pne(g)
    assert_index_rule(
        lambda i: brute_force_best_response(g, profile, i), "player indices"
    )
