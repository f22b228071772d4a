"""Cost tables, load-sensitivity checks, instances, and induced chain weights."""

import operator
import random

import pytest

from polynash import (
    AdmissibilityError,
    CostTable,
    CostTableRangeError,
    GameInstance,
    MalformedInputError,
    Profile,
    RankFunction,
    ValidationError,
    WeightedGround,
    check_convex,
    find_ssc_violation,
    induced_weights,
    private_cost,
)
from polynash.generators import (
    MatroidSpec,
    gen_random,
    gen_singleton,
    random_convex_table,
)

from helpers import assert_index_rule, ssc_ok

SQUARES = tuple(k * k for k in range(12))
LINEAR = tuple(range(12))
# 4x for loads <= 2, then 4x - 1: passes the load-sensitivity check although
# its first differences 4, 4, 3, 4, ... are not nondecreasing.
KINKED = tuple(4 * k if k <= 2 else 4 * k - 1 for k in range(12))


def test_cost_table_validation():
    with pytest.raises(ValidationError) as err:
        CostTable((0, 2, 1))
    assert err.value.witness == ("decreasing", 1)
    assert str(err.value) == "cost table decreases between loads 1 and 2 (2 > 1)"
    with pytest.raises(ValidationError) as err:
        CostTable((0, -1))
    assert err.value.witness == ("negative", 1)
    assert str(err.value) == "cost table entry 1 is negative (-1)"
    with pytest.raises(ValidationError):
        CostTable(())
    table = CostTable((0, 1, 4))
    assert len(table) == 3 and table[2] == 4
    with pytest.raises(CostTableRangeError):
        table[3]


def test_find_ssc_violation_accepts_squares_and_linear():
    assert ssc_ok(SQUARES, 5)
    assert find_ssc_violation(SQUARES, 5) is None
    assert find_ssc_violation(LINEAR, 5) is None


def test_kinked_table_is_load_sensitive_but_not_convex():
    assert ssc_ok(KINKED, 5)  # independent scan agrees
    assert find_ssc_violation(KINKED, 5) is None
    assert not check_convex(KINKED)
    d = [KINKED[k + 1] - KINKED[k] for k in range(4)]
    assert d == [4, 4, 3, 4]


def test_truncated_check_at_usage_one_is_nondecreasingness():
    rng = random.Random(3)
    for _ in range(100):
        values = [rng.randint(0, 4)]
        for _ in range(5):
            values.append(values[-1] + rng.randint(0, 3))
        CostTable(values)  # nondecreasing, or construction would raise
        assert find_ssc_violation(values, 1) is None


def test_truncated_check_examples():
    assert find_ssc_violation(SQUARES, 3) is None
    table = (0, 1, 1, 5)
    assert ssc_ok(table, 2)  # independent oracle first
    assert find_ssc_violation(table, 2) is None


def test_truncated_check_finds_decelerating_jumps():
    table = (0, 1, 4, 5, 5, 5)
    assert not ssc_ok(table, 3)
    assert find_ssc_violation(table, 3) is not None


def test_acceptance_is_monotone_in_the_usage_cap():
    # a larger cap only adds quadruples, so once a table is rejected it
    # stays rejected
    rng = random.Random(4)
    rejected = 0
    for _ in range(150):
        values = [rng.randint(0, 3)]
        for _ in range(8):
            values.append(values[-1] + rng.randint(0, 3))
        accepted = [find_ssc_violation(values, u) is None for u in range(1, 10)]
        assert accepted == sorted(accepted, reverse=True), values
        rejected += not accepted[-1]
    assert rejected > 0


def test_the_witness_sits_at_the_smallest_failing_load_sum():
    # a linear table of length 2,000 with its last step made flat: only the
    # full usage at the last load sum sees the flat step
    values = (*range(1999), 1998)
    top = len(values) - 1
    quad = find_ssc_violation(values, top)
    assert quad == (0, 1, top - 1, top - 1)
    k = quad[0] + quad[2]
    assert find_ssc_violation(values[: k + 1], top) is None
    assert find_ssc_violation(values[: k + 2], top) == quad
    # ssc_ok checks a shorter one of the same shape independently
    short = (*range(9), 8)
    assert find_ssc_violation(short, 9) == (0, 1, 8, 8)
    assert ssc_ok(short[:9], 9) and not ssc_ok(short, 9)


def test_random_convex_tables_pass_the_full_check():
    rng = random.Random(5)
    for _ in range(100):
        table = random_convex_table(rng, 11)
        assert check_convex(table.values)
        assert find_ssc_violation(table, 5) is None


def _two_resource_instance(costs_p0, costs_p1, demands=(1, 1)):
    f = RankFunction((0, 1, 1, 1))
    return GameInstance(
        ("a", "b"), demands, (f, f), ((costs_p0, costs_p0), (costs_p1, costs_p1))
    )


def test_private_cost_examples():
    f = RankFunction((0, 2, 2, 2))
    linear = tuple(range(5))
    squares = tuple(k * k for k in range(5))
    g = GameInstance(("a", "b"), (2, 2), (f, f), ((linear, linear), (squares, squares)))
    empty = Profile(((0, 0), (2, 0)))
    assert private_cost(g, empty, 0) == 0
    # player 0 has one unit on a, total load there 2, linear price
    p = Profile(((1, 0), (1, 1)))
    assert private_cost(g, p, 0) == 2
    # both players stack one unit on a, square price: each pays c(2)*1 = 4
    both = Profile(((1, 1), (1, 1)))
    assert private_cost(g, both, 0) == 2 + 2  # linear player: 2 on a, 2 on b
    assert private_cost(g, both, 1) == 4 + 4


def test_induced_weights_examples():
    f = RankFunction((0, 3))
    g = GameInstance(("a",), (3,), (f,), (((SQUARES[:7]),),))
    w = induced_weights(g, 0, (1,))
    assert w.weights == ((4, 14, 30),)
    linear_g = GameInstance(("a",), (3,), (f,), ((LINEAR[:4],),))
    assert induced_weights(linear_g, 0, (0,)).weights == ((1, 3, 5),)
    const_g = GameInstance(("a",), (3,), (f,), (((5, 5, 5, 5),),))
    assert induced_weights(const_g, 0, (0,)).weights == ((5, 5, 5),)


def test_induced_weights_table_overflow():
    f = RankFunction((0, 2))
    g = GameInstance(("a",), (2,), (f,), (((0, 1, 2),),))
    with pytest.raises(CostTableRangeError):
        induced_weights(g, 0, (1,))  # needs load 3, table stops at 2


def _unvalidated_twin(g, costs):
    """``g`` with its cost tables replaced, bypassing instance validation."""
    object.__setattr__(g, "costs", tuple(tuple(map(CostTable, row)) for row in costs))
    return g


def test_induced_weights_names_the_player_of_a_short_or_decreasing_table():
    f = RankFunction((0, 3))
    decreasing = _unvalidated_twin(
        GameInstance(("a",), (3,), (f,), (((0, 1, 2, 3),),)), (((0, 0, 10, 10),),)
    )
    short = _unvalidated_twin(
        GameInstance(("a",), (3,), (f,), (((0, 1, 2, 3),),)), (((0, 0, 10),),)
    )
    with pytest.raises(AdmissibilityError) as err:
        induced_weights(decreasing, 0, (0,))
    assert str(err.value) == (
        "player 0: weights decrease along the chain of resource 0: position 2 "
        "has 20, position 3 has 10; the instance's cost tables fail the "
        "load-sensitivity requirement"
    )
    with pytest.raises(CostTableRangeError) as err:
        induced_weights(short, 0, (0,))
    assert str(err.value) == (
        "player 0 cost table on 'a' covers loads up to 2, but weights need 3"
    )


def test_weighted_ground_rejects_decreasing_chains():
    with pytest.raises(AdmissibilityError):
        WeightedGround(((3, 1),))
    w = WeightedGround(((1, 5), (2,)))
    assert w.ideal_weight((1, 1)) == 3
    assert w.ideal_weight((2, 0)) == 6
    assert w.weights[0][1] == 5


def test_instance_validation_rejects_infeasible_demand():
    f = RankFunction((0, 1, 1, 1))
    with pytest.raises(ValidationError) as err:
        GameInstance(("a", "b"), (2,), (f,), (((0, 1, 2), (0, 1, 2)),))
    assert "demand" in str(err.value)


def test_instance_validation_rejects_short_tables():
    f = RankFunction((0, 1, 1, 1))
    with pytest.raises(ValidationError) as err:
        GameInstance(("a", "b"), (1, 1), (f, f), (((0, 1), (0, 1)), ((0, 1), (0, 1))))
    assert "length" in str(err.value)


def test_instance_validation_rejects_bad_rank():
    bad = RankFunction((0, 1, 1, 3))
    with pytest.raises(ValidationError) as err:
        GameInstance(("a", "b"), (1,), (bad,), (((0, 1), (0, 1)),))
    assert "submodular" in str(err.value)
    assert err.value.witness == ("rank", 0, "submodular", 1, 2)
    assert str(err.value) == (
        "player 0 rank table is not submodular: witness subsets {a} and {b}"
    )


@pytest.mark.parametrize(
    "values, witness, message",
    [
        (
            (0, 2, 1, 1),
            ("rank", 0, "monotone", 1, 3),
            "player 0 rank table is not monotone: witness subsets {a} and {a,b}",
        ),
        (
            (1, 2, 2, 2),
            ("rank", 0, "normalized", 0, 0),
            "player 0 rank table is not normalized: witness subsets {} and {}",
        ),
        (
            (0, 2, 1, 3, 2, 3, 4, 4),
            ("rank", 0, "submodular", 2, 4),
            "player 0 rank table is not submodular: witness subsets {b} and {c}",
        ),
        (
            (0, 1, 1, 2, 1, 2, 2, 1),
            ("rank", 0, "monotone", 6, 7),
            "player 0 rank table is not monotone: witness subsets {b,c} and {a,b,c}",
        ),
    ],
)
def test_instance_validation_names_the_first_rank_witness(values, witness, message):
    f = RankFunction(values)
    names = ("a", "b", "c")[: f.m]
    with pytest.raises(ValidationError) as err:
        GameInstance(names, (1,), (f,), (((0, 1, 2),) * f.m,))
    assert err.value.witness == witness
    assert str(err.value) == message


def test_instance_validation_rejects_load_insensitive_costs():
    f = RankFunction((0, 3))
    with pytest.raises(ValidationError) as err:
        GameInstance(("a",), (3,), (f,), (((0, 1, 4, 5),),))
    assert err.value.witness[0] == "ssc"
    assert err.value.witness == ("ssc", 0, 0, (0, 1, 2, 2))
    assert str(err.value) == (
        "player 0 cost table on 'a' is not load-sensitive up to usage 3: "
        "violated at prior loads a=0, b=1 with usages x=2, y=2"
    )
    with pytest.raises(ValidationError) as err:
        GameInstance(("a",), (2,), (f,), (((0, 2, 3, 5, 6, 9),),))
    assert err.value.witness == ("ssc", 0, 0, (0, 1, 3, 3))


def test_check_profile():
    g = _two_resource_instance((0, 1, 2), (0, 1, 2))
    g.check_profile(Profile(((1, 0), (0, 1))))
    with pytest.raises(ValidationError):
        g.check_profile(Profile(((1, 1), (0, 1))))  # wrong demand for player 0


def test_profile_loads_errors_equality_and_repr():
    p = Profile([[1, 2, 0], [3, 0, 1]])
    assert p.loads() == (4, 2, 1) and p.loads(3) == (4, 2, 1)
    with pytest.raises(MalformedInputError) as err:
        p.loads(2)
    assert str(err.value) == "profile is over 3 resources, expected 2"
    empty = Profile(())
    assert empty.loads(2) == (0, 0)
    with pytest.raises(MalformedInputError) as err:
        empty.loads()
    assert str(err.value) == "resource count needed for an empty profile"
    assert Profile(((), ())).loads() == ()
    same = Profile(((1, 2, 0), (3, 0, 1)))
    assert p == same and hash(p) == hash(same)
    assert p != Profile(((1, 2, 0), (3, 1, 0)))
    assert repr(p) == "Profile(strategies=((1, 2, 0), (3, 0, 1)))"
    assert repr(empty) == "Profile(strategies=())"



def test_cost_table_refuses_entries_that_int_would_change():
    with pytest.raises(MalformedInputError, match="cost table entries must be integers, got 2.9"):
        CostTable((0, 2.9, 3.5))
    with pytest.raises(MalformedInputError, match="cost table entries must be integers, got '0'"):
        CostTable(("0", "1", True))
    assert CostTable((0.0, True, 2)).values == (0, 1, 2)
    values = (0, 1, 2)
    assert CostTable(values).values is values


def test_game_instance_refuses_a_demand_that_int_would_change():
    f, costs = RankFunction((0, 3)), (((0, 1, 2, 3),),)
    with pytest.raises(MalformedInputError, match="demands must be integers, got 1.9"):
        GameInstance(("a",), (1.9,), (f,), costs)
    with pytest.raises(MalformedInputError, match="demands must be integers, got None"):
        GameInstance(("a",), (None,), (f,), costs)
    assert GameInstance(("a",), (2.0,), (f,), costs).demands == (2,)


def test_game_instance_keeps_parts_of_the_checked_types_and_converts_the_rest():
    f, table = RankFunction((0, 3)), CostTable((0, 1, 2, 3))
    parts = (("a",), (3,), (f,), ((table,),))
    g = GameInstance(*parts)
    assert all(map(operator.is_, (g.resources, g.demands, g.ranks, g.costs), parts))

    class Name(str):
        pass

    converted = GameInstance([Name("a")], [3.0], [[0, 3]], [[(0, 1, 2, 3)]])
    assert converted == g
    assert type(converted.resources) is tuple and type(converted.resources[0]) is str
    assert type(converted.demands) is tuple and type(converted.demands[0]) is int
    assert type(converted.ranks) is tuple and type(converted.ranks[0]) is RankFunction
    assert type(converted.costs) is tuple and type(converted.costs[0]) is tuple
    assert type(converted.costs[0][0]) is CostTable
    # a row of checked tables in a list is made a tuple, its tables kept
    assert GameInstance(("a",), (3,), (f,), ([table],)).costs[0][0] is table


ONE_RESOURCE = GameInstance(("a",), (3,), (RankFunction((0, 3)),), (((0, 1, 2, 3),),))


@pytest.mark.parametrize("bad", [1.9, "1"])
@pytest.mark.parametrize(
    "what, build",
    [
        pytest.param("strategy counts", lambda v: Profile(((v, 0),)), id="Profile"),
        pytest.param("weights", lambda v: WeightedGround(((1, v),)), id="WeightedGround"),
        pytest.param(
            "count vectors",
            lambda v: WeightedGround(((1, 5),)).ideal_weight((v,)),
            id="ideal_weight",
        ),
        pytest.param(
            "opponent loads",
            lambda v: induced_weights(ONE_RESOURCE, 0, (v,)),
            id="induced_weights",
        ),
        pytest.param(
            "demands",
            lambda v: gen_singleton([[0]], [v], [[(0, 1, 2, 3)]]),
            id="gen_singleton-demand",
        ),
        pytest.param(
            "resource indices",
            lambda v: gen_singleton([[v]], [1], [[(0, 1, 2, 3)]]),
            id="gen_singleton-resource",
        ),
        pytest.param("uniform ranks", MatroidSpec.uniform, id="uniform-rank"),
        pytest.param(
            "block resources",
            lambda v: MatroidSpec.partition([[0, v]], [1]),
            id="partition-block",
        ),
        pytest.param(
            "block caps", lambda v: MatroidSpec.partition([[0]], [v]), id="partition-cap"
        ),
        pytest.param(
            "edge endpoints", lambda v: MatroidSpec.graphic([(0, v)]), id="graphic-edge"
        ),
    ],
)
def test_library_inputs_refuse_entries_that_int_would_change(what, build, bad):
    with pytest.raises(MalformedInputError) as err:
        build(bad)
    assert str(err.value) == f"{what} must be integers, got {bad!r}"


def test_vector_inputs_name_their_expected_length():
    with pytest.raises(MalformedInputError) as err:
        induced_weights(ONE_RESOURCE, 0, (0, 0))
    assert str(err.value) == "opponent loads must have length 1, got 2"
    with pytest.raises(MalformedInputError) as err:
        WeightedGround(((1, 5),)).ideal_weight(())
    assert str(err.value) == "count vectors must have length 1, got 0"
    with pytest.raises(MalformedInputError) as err:
        MatroidSpec.graphic([(0, 1, 2)])
    assert str(err.value) == "graphic edges must be vertex pairs, got (0, 1, 2)"


def test_one_pass_checks_keep_their_messages_and_coercions():
    with pytest.raises(AdmissibilityError) as err:
        WeightedGround(((1, 2), (0, 4, 3, 1)))
    assert str(err.value) == (
        "weights decrease along the chain of resource 1: position 2 has 4, "
        "position 3 has 3"
    )
    assert WeightedGround([[1.0, True], []]).weights == ((1, 1), ())
    with pytest.raises(MalformedInputError) as err:
        Profile(((1, 0), (1,)))
    assert str(err.value) == "strategies must all have the same length"
    with pytest.raises(MalformedInputError) as err:
        Profile(((1, 0), (2, -1)))
    assert str(err.value) == "strategies must be nonnegative"
    assert Profile([[1.0, True]]).strategies == ((1, 1),)
    f = RankFunction((0, 3))
    g = GameInstance(("a",), (3,), (f,), (((0, 1, 2, 3),),))
    assert induced_weights(g, 0, (0,)).weights == ((1, 3, 5),)
    with pytest.raises(CostTableRangeError) as err:
        induced_weights(g, 0, (1,))
    assert str(err.value) == (
        "player 0 cost table on 'a' covers loads up to 3, but weights need 4"
    )

def test_telescoping_identity_on_random_instances():
    rng = random.Random(6)
    for seed in range(40):
        g = gen_random(seed, 1 + seed % 3, 1 + seed % 3, 1 + seed % 3)
        for i in range(g.n):
            # random opponent loads small enough for the weight horizon
            slack = g.total_demand - g.demands[i]
            a = [0] * g.m
            for _ in range(rng.randint(0, slack)):
                a[rng.randrange(g.m)] += 1
            w = induced_weights(g, i, a)
            # any feasible own split: prefix weights must equal the exact bill
            from polynash import enumerate_base

            for x in enumerate_base(g.ranks[i], g.demands[i]):
                if any(x[r] > w.length(r) for r in range(g.m)):
                    continue
                bill = sum(
                    g.costs[i][r][a[r] + x[r]] * x[r] for r in range(g.m) if x[r]
                )
                assert w.ideal_weight(x) == bill


def test_admissibility_for_every_validated_instance():
    # weights never decrease along a chain for any reachable opponent load
    rng = random.Random(12)
    for seed in range(30):
        g = gen_random(
            seed, 1 + seed % 2, 1 + seed % 3, 1 + seed % 3, "truncated_ssc"
        )
        for i in range(g.n):
            slack = g.total_demand - g.demands[i]
            for _ in range(5):
                a = [0] * g.m
                for _ in range(rng.randint(0, slack)):
                    a[rng.randrange(g.m)] += 1
                induced_weights(g, i, a)  # would raise AdmissibilityError


def test_private_cost_refuses_a_player_or_profile_the_game_does_not_have():
    # a one-strategy profile used to raise IndexError for player 1
    g = gen_random(0, 2, 2, 2)
    profile = Profile(((1, 0), (0, 1)))
    with pytest.raises(MalformedInputError, match="^profile has 1 players, instance has 2$"):
        private_cost(g, Profile(profile.strategies[:1]), 1)
    with pytest.raises(MalformedInputError, match="^player index 2 out of range$"):
        private_cost(g, profile, 2)


def test_private_cost_takes_player_indices_by_the_one_input_rule():
    # "1" used to raise TypeError from the range test
    g = gen_random(0, 2, 2, 2)
    p = Profile(((1, 1), (1, 1)))
    assert_index_rule(lambda i: private_cost(g, p, i), "player indices")


def test_induced_weights_takes_player_indices_by_the_one_input_rule():
    g = gen_random(0, 2, 2, 2)
    assert_index_rule(lambda i: induced_weights(g, i, (0, 0)), "player indices")


def test_chain_cap_takes_player_indices_by_the_one_input_rule():
    # -1 used to answer the last player's cap, 5 to raise IndexError and "1"
    # TypeError
    g = gen_random(0, 2, 2, 2)
    assert_index_rule(lambda i: g.chain_cap(i, 0), "player indices")
    for i in (-1, 5, 2.0):
        with pytest.raises(MalformedInputError, match=f"^player index {int(i)} out of range$"):
            g.chain_cap(i, 0)


def test_cost_tables_take_loads_by_the_one_input_rule():
    c = CostTable((0, 2, 5))
    assert_index_rule(c.__getitem__, "loads")
    with pytest.raises(CostTableRangeError, match="^load 3 outside cost table of length 3$"):
        c[3.0]


def test_find_ssc_violation_takes_its_usage_cap_by_the_one_input_rule():
    # (0, 0, 1, 1) passes at usage 1 and fails at usage 2
    table = (0, 0, 1, 1)
    assert find_ssc_violation(table, 1) is None
    assert find_ssc_violation(table, 2.0) == find_ssc_violation(table, 2) is not None
    assert_index_rule(lambda u: find_ssc_violation(table, u), "usage caps")
    with pytest.raises(MalformedInputError, match="^usage caps must be integers, got '3'$"):
        find_ssc_violation(table, "3")


def test_weighted_ground_lengths_take_resource_indices_by_the_one_input_rule():
    w = WeightedGround(((1,), (1, 2)))
    assert_index_rule(w.length, "resource indices")
    with pytest.raises(MalformedInputError, match="^resource index 2 out of range$"):
        w.length(2)


def test_subset_labels_take_subset_masks_by_the_one_input_rule():
    g = gen_random(0, 2, 2, 2)
    assert_index_rule(g.subset_label, "subset masks")
    assert g.subset_label(3) == ",".join(g.resources)
    for mask in (4, -1):
        with pytest.raises(MalformedInputError, match=f"^subset mask {mask} out of range$"):
            g.subset_label(mask)


def test_profile_loads_take_the_resource_count_by_the_one_input_rule():
    # "2" used to be refused as "profile is over 2 resources, expected 2"
    with pytest.raises(MalformedInputError, match="^resource counts must be integers, got '2'$"):
        Profile(((1, 0), (0, 1))).loads("2")
    assert Profile(((1, 0), (0, 1))).loads(2.0) == (1, 1)
    assert_index_rule(Profile(((1,), (2,))).loads, "resource counts")
    assert_index_rule(Profile(()).loads, "resource counts")
