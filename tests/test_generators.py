"""Instance families: free-split games, matroid games, seeded random games."""

import random

import pytest

from polynash import (
    GenerationError,
    MalformedInputError,
    MatroidSpec,
    check_convex,
    compute_pne,
    enumerate_base,
    find_ssc_violation,
    gen_matroid_game,
    gen_random,
    gen_singleton,
    validate_rank,
    verify_pne,
    write_instance,
)
from polynash import generators
from polynash.generators import (
    _random_ssc_table,
    matroid_total_demand,
    random_convex_table,
    random_rank,
)

from helpers import (
    graphic_rank_reference,
    partition_rank_reference,
    uniform_rank_reference,
)


def _convex_costs(rng, players, m, total):
    return [
        [random_convex_table(rng, total + 1).values for _ in range(m)]
        for _ in range(players)
    ]


def test_singleton_rank_tables():
    rng = random.Random(0)
    costs = _convex_costs(rng, 1, 2, 2)
    g = gen_singleton([[0]], [2], costs, resource_names=("a", "b"))
    f = g.ranks[0]
    assert (f((0b01)), f(0b10), f(0b11)) == (2, 0, 2)
    assert validate_rank(f) is None
    # allowed everywhere: free split across both resources
    g2 = gen_singleton([[0, 1]], [2], costs, resource_names=("a", "b"))
    assert set(enumerate_base(g2.ranks[0], 2)) == {(0, 2), (1, 1), (2, 0)}


def test_a_negative_singleton_demand_is_named_before_any_table_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(generators, "RankFunction", lambda values: built.append(values))
    costs = _convex_costs(random.Random(0), 2, 2, 1)
    with pytest.raises(MalformedInputError, match="^player 0 has negative demand -1$"):
        gen_singleton([[0], [1]], [-1, 2], costs, resource_names=("a", "b"))
    assert built == []


def test_singleton_strategies_never_leave_the_allowed_set():
    rng = random.Random(1)
    for _ in range(20):
        n, m = rng.randint(1, 3), rng.randint(2, 4)
        demands = [rng.randint(1, 3) for _ in range(n)]
        sets = [
            rng.sample(range(m), rng.randint(1, m)) for _ in range(n)
        ]
        costs = _convex_costs(rng, n, m, sum(demands))
        g = gen_singleton(sets, demands, costs)
        for i in range(n):
            allowed = set(sets[i])
            for x in enumerate_base(g.ranks[i], g.demands[i]):
                assert all(x[r] == 0 for r in range(m) if r not in allowed)


def test_unit_demands_give_plain_singleton_congestion():
    rng = random.Random(2)
    costs = _convex_costs(rng, 2, 2, 2)
    g = gen_singleton([[0, 1], [0, 1]], [1, 1], costs)
    assert all(f.rank_of_all == 1 for f in g.ranks)
    profile, _ = compute_pne(g)
    assert verify_pne(g, profile).is_pne


def test_uniform_matroid_game():
    rng = random.Random(3)
    specs = [MatroidSpec.uniform(2)]
    total = matroid_total_demand(specs, 3)
    assert total == 2
    g = gen_matroid_game(specs, _convex_costs(rng, 1, 3, total))
    assert g.demands == (2,)
    assert g.ranks[0].values == tuple(
        min(bin(mask).count("1"), 2) for mask in range(8)
    )


def test_graphic_matroid_of_a_triangle():
    rng = random.Random(4)
    specs = [MatroidSpec.graphic([(0, 1), (1, 2), (2, 0)])]
    total = matroid_total_demand(specs, 3)
    assert total == 2  # spanning tree of the triangle
    g = gen_matroid_game(specs, _convex_costs(rng, 1, 3, total))
    f = g.ranks[0]
    assert f.rank_of_all == 2
    assert all(f.singleton(r) == 1 for r in range(3))
    # bases are exactly the spanning trees: any two of the three edges
    assert set(enumerate_base(f, 2)) == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}


def test_graphic_matroid_self_loop_contributes_nothing():
    spec = MatroidSpec.graphic([(0, 0), (0, 1)])
    f = spec.rank_table(2)
    assert f.singleton(0) == 0 and f.singleton(1) == 1
    assert f.rank_of_all == 1


def test_partition_matroid_with_unit_caps_is_free():
    spec = MatroidSpec.partition([[0], [1]], [1, 1])
    f = spec.rank_table(2)
    assert f.values == (0, 1, 1, 2)


def test_partition_blocks_must_be_disjoint():
    with pytest.raises(MalformedInputError):
        MatroidSpec.partition([[0, 1], [1]], [1, 1])


def test_matroid_tables_match_per_mask_references():
    # random multigraphs carry self-loops and parallel edges; partitions
    # leave some resources outside every block
    rng = random.Random(11)
    for _ in range(150):
        m = rng.randint(0, 8)
        rank = rng.randint(0, m + 1)
        assert MatroidSpec.uniform(rank).rank_table(m).values == uniform_rank_reference(
            rank, m
        )
        order = rng.sample(range(m), rng.randint(0, m))
        blocks = []
        while order:
            size = rng.randint(1, len(order))
            blocks.append(order[:size])
            order = order[size:]
        caps = [rng.randint(0, 3) for _ in blocks]
        table = MatroidSpec.partition(blocks, caps).rank_table(m).values
        assert table == partition_rank_reference(blocks, caps, m)
        vertices = rng.randint(1, 5)
        edges = [
            (rng.randrange(vertices), rng.randrange(vertices)) for _ in range(m)
        ]
        table = MatroidSpec.graphic(edges).rank_table(m).values
        assert table == graphic_rank_reference(edges)


def test_matroid_chains_have_unit_capacity_and_take_nondecreasing_costs():
    rng = random.Random(5)
    specs = [
        MatroidSpec.uniform(2),
        MatroidSpec.graphic([(0, 1), (1, 2), (2, 0)]),
    ]
    total = matroid_total_demand(specs, 3)
    # nondecreasing but clearly non-convex tables: allowed because every
    # single-resource capacity is at most one
    def bumpy():
        values = [0]
        for step in (3, 0, 0, 1)[: total]:
            values.append(values[-1] + step)
        return tuple(values)

    costs = [[bumpy() for _ in range(3)] for _ in specs]
    g = gen_matroid_game(specs, costs)
    assert all(g.ranks[i].singleton(r) <= 1 for i in range(g.n) for r in range(g.m))
    profile, _ = compute_pne(g)
    assert verify_pne(g, profile).is_pne


def test_random_rank_is_always_valid_with_positive_full_rank():
    rng = random.Random(6)
    for _ in range(200):
        f = random_rank(rng, rng.randint(1, 5), max_chain=rng.randint(1, 4))
        assert validate_rank(f) is None
        assert f.rank_of_all >= 1


def test_gen_random_is_deterministic_per_seed():
    a = gen_random(42, 3, 4, 3)
    b = gen_random(42, 3, 4, 3)
    assert a == b
    assert write_instance(a) == write_instance(b)
    assert gen_random(43, 3, 4, 3) != a


def test_gen_random_convex_family_passes_the_full_check():
    for seed in range(15):
        g = gen_random(seed, 2, 3, 3)
        horizon = g.total_demand // 2
        for i in range(g.n):
            for r in range(g.m):
                assert check_convex(g.costs[i][r].values)
                if horizon >= 1:
                    assert find_ssc_violation(g.costs[i][r], horizon) is None


def test_gen_random_truncated_family_validates_and_contains_non_convex_tables():
    non_convex = 0
    for seed in range(25):
        g = gen_random(seed, 2, 3, 3, "truncated_ssc")
        for i in range(g.n):
            for r in range(g.m):
                table = g.costs[i][r]
                assert find_ssc_violation(table.values, g.ranks[i].singleton(r)) is None
                if not check_convex(table.values):
                    non_convex += 1
    assert non_convex > 0


def test_gen_random_rejects_out_of_range_parameters():
    with pytest.raises(MalformedInputError):
        gen_random(0, 0, 3, 3)
    with pytest.raises(MalformedInputError):
        gen_random(0, 2, 0, 3)
    with pytest.raises(MalformedInputError):
        gen_random(0, 2, 3, 99)
    with pytest.raises(MalformedInputError):
        gen_random(0, 2, 3, 3, "concave")
    # the seed and the sizes follow the library's one integer rule
    for args, value in (
        ((1.9, 2, 2, 2), "1.9"),
        (("1", 2, 2, 2), "'1'"),
        ((1, 2.5, 2, 2), "2.5"),
        ((1, 2, 2, 2.5), "2.5"),
    ):
        with pytest.raises(MalformedInputError) as err:
            gen_random(*args)
        assert str(err.value) == f"seeds and sizes must be integers, got {value}"
    assert gen_random(1.0, True, 2, 2.0) == gen_random(1, 1, 2, 2)


def test_ssc_table_rejection_budget_raises_cleanly():
    rng = random.Random(7)
    with pytest.raises(GenerationError):
        _random_ssc_table(rng, 6, 3, budget=0)


def test_generated_instances_solve_to_verified_equilibria():
    for seed in range(10):
        g = gen_random(seed, 3, 3, 2, "truncated_ssc")
        profile, _ = compute_pne(g)
        assert verify_pne(g, profile).is_pne
