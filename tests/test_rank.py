"""Rank tables: validation, membership, and enumeration."""

import dataclasses
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynash import (
    InfeasibleTruncationError,
    MalformedInputError,
    RankFunction,
    enumerate_base,
    member_base,
    member_polytope,
    random_rank,
    tight_sets,
    validate_rank,
)
from polynash.rank import MAX_RANK_ENTRY

from helpers import assert_index_rule, bounded_random_rank, feasible_vectors, full_pair_rank_ok

F_AB = RankFunction((0, 2, 1, 2))  # two resources: a alone 2, b alone 1, both 2


def test_rank_function_rejects_bad_shapes():
    with pytest.raises(MalformedInputError):
        RankFunction((0, 1, 2))  # not a power of two
    with pytest.raises(MalformedInputError):
        RankFunction((0, -1))


def test_rank_function_refuses_entries_that_int_would_change():
    for values, shown in [
        ((0, 1.9, 1.2, 2.99), "1.9"),
        ((0, "1"), "'1'"),
        ((0, None), "None"),
        ((0, float("nan")), "nan"),
        ((0, float("inf")), "inf"),
    ]:
        with pytest.raises(MalformedInputError) as err:
            RankFunction(values)
        assert str(err.value) == f"rank table entries must be integers, got {shown}"
    assert RankFunction((0, 1.0, True, 2)).values == (0, 1, 1, 2)
    values = (0, 2, 1, 2)
    assert RankFunction(values).values is values


def test_count_vectors_refuse_entries_that_int_would_change():
    with pytest.raises(MalformedInputError, match="count vectors must be integers, got 0.5"):
        tight_sets(F_AB, (0.5, 0))
    with pytest.raises(MalformedInputError, match="count vectors must be integers, got '1'"):
        member_polytope(F_AB, ("1", 0))
    assert tight_sets(F_AB, (1.0, True)) == tight_sets(F_AB, (1, 1))


def test_rank_function_sets_its_resource_count_once_outside_its_fields():
    f = RankFunction([0, 2, 1, 2])
    assert vars(f)["m"] == 2  # computed at construction, not on every read
    assert [RankFunction((0,)).m, RankFunction((0,) * 32).m] == [0, 5]
    assert [field.name for field in dataclasses.fields(f)] == ["values"]
    assert f == F_AB and hash(f) == hash(F_AB)
    assert repr(f) == "RankFunction(values=(0, 2, 1, 2))"


@pytest.mark.parametrize(
    "top, width",
    [(0, 8), (127, 8), (128, 16), (2**15 - 1, 16), (2**15, 32), (2**31, 64), (MAX_RANK_ENTRY, 64)],
)
def test_rank_function_packs_its_entries_below_a_guard_bit(top, width):
    f = RankFunction((0, top, 1, top))
    assert vars(f)["width"] == width
    fields = [f.packed >> (mask * width) & (2**width - 1) for mask in range(4)]
    assert fields == list(f.values) and f.packed < 1 << (4 * width)


def test_rank_entries_are_capped_at_the_largest_64_bit_field():
    with pytest.raises(MalformedInputError, match=r"at most 2\*\*63 - 1 = 9223372036854775807"):
        RankFunction((0, 2**63))
    with pytest.raises(MalformedInputError, match=r"at most 2\*\*63 - 1"):
        RankFunction((0, 1, 1, int("9" * 4000)))
    f = RankFunction((0, MAX_RANK_ENTRY))
    assert validate_rank(f) is None
    tight = tight_sets(f, (MAX_RANK_ENTRY,))
    assert tight.feasible and tight.saturated == 1
    assert not tight_sets(f, (MAX_RANK_ENTRY + 1,)).feasible


def test_validate_rank_accepts_the_worked_table():
    assert full_pair_rank_ok(F_AB.values)
    assert validate_rank(F_AB) is None


def test_validate_rank_accepts_the_zero_function():
    assert validate_rank(RankFunction((0, 0, 0, 0))) is None


def test_validate_rank_reports_submodularity_violation():
    f = RankFunction((0, 1, 1, 3))
    assert not full_pair_rank_ok(f.values)
    # monotonicity holds for this table
    assert validate_rank(f) == ("submodular", 1, 2)


def test_validate_rank_reports_monotonicity_violation():
    f = RankFunction((0, 2, 1, 1))
    # f({b}) > f({a, b}); monotonicity at a holds
    assert validate_rank(f) == ("monotone", 1, 3)


def test_validate_rank_reports_normalization():
    assert validate_rank(RankFunction((1, 2))) == ("normalized", 0, 0)


def test_validate_rank_agrees_with_full_pair_scan_on_random_tables():
    rng = random.Random(2024)
    for _ in range(300):
        m = rng.randint(1, 3)
        values = [0] + [rng.randint(0, 4) for _ in range((1 << m) - 1)]
        if rng.random() < 0.3:
            values[0] = rng.randint(0, 2)
        f = RankFunction(tuple(values))
        assert (validate_rank(f) is None) == full_pair_rank_ok(f.values)


def test_member_polytope_examples():
    assert member_polytope(F_AB, (1, 1))
    assert member_polytope(F_AB, (0, 0))
    assert not member_polytope(F_AB, (0, 2))  # capacity of b alone is 1


def test_member_polytope_rejects_bad_vectors():
    with pytest.raises(MalformedInputError):
        member_polytope(F_AB, (1,))
    with pytest.raises(MalformedInputError):
        member_polytope(F_AB, (-1, 0))


def test_member_base_examples():
    assert member_base(F_AB, 2, (2, 0))
    assert not member_base(F_AB, 2, (1, 0))  # wrong sum
    assert not member_base(F_AB, 2, (0, 2))  # capacity of b exceeded
    with pytest.raises(InfeasibleTruncationError):
        member_base(F_AB, 3, (2, 1))


def test_enumerate_base_examples():
    assert enumerate_base(F_AB, 2) == [(1, 1), (2, 0)]
    assert enumerate_base(F_AB, 0) == [(0, 0)]
    with pytest.raises(InfeasibleTruncationError):
        enumerate_base(F_AB, 3)


def test_bases_nonempty_up_to_full_rank():
    rng = random.Random(7)
    for _ in range(60):
        f = bounded_random_rank(rng, rng.randint(1, 4), full_rank_cap=6)
        for d in range(f.rank_of_all + 1):
            assert enumerate_base(f, d), (f.values, d)


def test_member_base_matches_enumeration():
    rng = random.Random(9)
    for _ in range(40):
        f = bounded_random_rank(rng, rng.randint(1, 3), full_rank_cap=5)
        d = rng.randint(0, f.rank_of_all)
        listed = set(enumerate_base(f, d))
        assert listed == set(feasible_vectors(f.values, d))
        caps = [f.singleton(r) for r in range(f.m)]
        # spot-check membership of arbitrary vectors of the right sum
        for _ in range(20):
            x = tuple(rng.randint(0, max(caps + [0])) for _ in range(f.m))
            if sum(x) != d:
                continue
            assert member_base(f, d, x) == (x in listed)


@pytest.mark.parametrize(
    "call",
    [lambda d: member_base(F_AB, d, (0, 0)), lambda d: enumerate_base(F_AB, d)],
    ids=["member_base", "enumerate_base"],
)
def test_the_demand_range_messages(call):
    with pytest.raises(MalformedInputError) as err:
        call(-1)
    assert str(err.value) == "demand must be nonnegative"
    with pytest.raises(InfeasibleTruncationError) as err:
        call(3)
    assert str(err.value) == "demand 3 exceeds the rank 2 of the full resource set"


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rng=st.randoms(use_true_random=False), m=st.integers(1, 5), data=st.data())
def test_member_base_and_enumerate_base_agree_with_the_member_polytope_reference(
    rng, m, data
):
    f = random_rank(rng, m)
    d = data.draw(st.integers(0, f.rank_of_all))
    box = product(*(range(f.singleton(r) + 2) for r in range(m)))
    same_sum = [x for x in box if sum(x) == d]
    reference = [x for x in same_sum if member_polytope(f, x)]
    assert enumerate_base(f, d) == reference  # product order is ascending
    for x in same_sum:
        assert member_base(f, d, x) == (x in reference), (f.values, d, x)
    for x in reference:
        for r in range(m):
            grown = x[:r] + (x[r] + 1,) + x[r + 1 :]  # right vector, wrong sum
            assert not member_base(f, d, grown)


def test_singleton_takes_resource_indices_by_the_one_input_rule():
    f = RankFunction((0, 2, 1, 2))
    assert_index_rule(f.singleton, "resource indices")
    with pytest.raises(MalformedInputError, match="^resource index 2 out of range$"):
        f.singleton(2.0)


def test_a_rank_function_takes_subset_masks_by_the_one_input_rule():
    f = RankFunction((0, 2, 1, 2))
    assert_index_rule(f, "subset masks")
    with pytest.raises(MalformedInputError, match="^subset mask 4 out of range$"):
        f(4.0)


def test_demands_follow_the_one_input_rule():
    # each of these used to raise TypeError
    f = RankFunction((0, 2, 1, 2))
    assert_index_rule(lambda d: enumerate_base(f, d), "demands")
    assert_index_rule(lambda d: member_base(f, d, (1, 0)), "demands")
    assert enumerate_base(f, 1.0) == [(0, 1), (1, 0)]
