"""The settle state's slack words against a tight-set pass on every vector.

A settle state of one player walks random unit steps, insertions and moves,
over random polymatroids (``random_rank``, the same plus a modular part
scaled across every packed field width, and ``MatroidSpec`` tables) with up
to eight resources, and over one twelve-resource table. After every step
the sat(x) read off the player's slack word, and sat(x - e_r) for every r
that x holds, must equal the answers of a fresh :func:`tight_sets` pass;
a step must be refused exactly when ``member_polytope`` puts the stepped
vector outside the polytope, and a refused step must change nothing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynash import (
    ContractError,
    GameInstance,
    MatroidSpec,
    RankFunction,
    member_polytope,
    random_rank,
    tight_sets,
)
from polynash.solver import _SettleState

from helpers import SCALE_SHIFTS

WALKS = settings(max_examples=150, deadline=None, derandomize=True)

# walks insert at most this many units, so the cost tables stay short
MAX_UNITS = 24

# full rank 9, every resource alone 3: short walks fill its tight sets
TWELVE = random_rank(random.Random(0), 12, max_chain=2)


def _settle_on(f):
    """A settle state of one player whose polytope is that of f."""
    d = min(f.rank_of_all, MAX_UNITS)
    costs = tuple(tuple(range(d + 2)) for _ in range(f.m))
    names = tuple(f"r{k}" for k in range(f.m))
    return _SettleState(GameInstance(names, (d,), (f,), (costs,)))


def _stepped(x, remove=None, add=None):
    out = list(x)
    if remove is not None:
        out[remove] -= 1
    out[add] += 1
    return tuple(out)


def _check_reads(settle, f):
    x = settle.strategies[0]
    tight = tight_sets(f, x)
    assert tight.feasible and settle.sat[0] == tight.saturated, x
    for r, held in enumerate(x):
        if held:
            less = tuple(v - (q == r) for q, v in enumerate(x))
            assert settle._sat_less(0, r) == tight_sets(f, less).saturated, (x, r)


def _walk(f, steps):
    settle = _settle_on(f)
    _check_reads(settle, f)
    for insert, a, b in steps:
        x = settle.strategies[0]
        held = [r for r, v in enumerate(x) if v]
        to_r = b % f.m
        if insert or not held:
            if sum(x) == settle.g.demands[0]:
                continue
            from_r = None
        else:
            from_r = held[a % len(held)]
        y = _stepped(x, remove=from_r, add=to_r)
        if member_polytope(f, y):
            settle._step(0, from_r, to_r, [])
            assert settle.strategies[0] == y
        else:
            with pytest.raises(ContractError) as err:
                settle._step(0, from_r, to_r, [])
            assert str(err.value) == f"count vector {y} lies outside the polytope"
            assert settle.strategies[0] == x
        _check_reads(settle, f)


def _steps(max_size):
    step = st.tuples(st.booleans(), st.integers(0, 11), st.integers(0, 11))
    return st.lists(step, min_size=max_size // 2, max_size=max_size)


@st.composite
def small_tables(draw):
    """A polymatroid on 1 to 8 resources; perhaps a scaled modular part added."""
    m = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("random", "scaled", "uniform", "partition", "graphic")))
    if kind in ("random", "scaled"):
        f = random_rank(draw(st.randoms(use_true_random=False)), m)
        if kind == "random":
            return f
        # plus 2^s units on each resource of a set B: f stays a polymatroid,
        # its fields widen, and tight sets still form on the rest
        heavy = draw(st.integers(1, (1 << m) - 1))
        s = min(draw(st.sampled_from(SCALE_SHIFTS)), 58)  # entries stay below 2^62
        return RankFunction(
            tuple(v + ((u & heavy).bit_count() << s) for u, v in enumerate(f.values))
        )
    if kind == "uniform":
        return MatroidSpec.uniform(draw(st.integers(0, m))).rank_table(m)
    if kind == "partition":
        cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=m - 1)) if m > 1 else ())
        bounds = [0, *cuts, m]
        blocks = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        caps = [draw(st.integers(0, len(b))) for b in blocks]
        return MatroidSpec.partition(blocks, caps).rank_table(m)
    vertex = st.integers(0, 4)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=m, max_size=m))
    return MatroidSpec.graphic(edges).rank_table(m)


@WALKS
@given(small_tables(), _steps(40))
def test_slack_words_match_a_tight_set_pass_after_every_step(f, steps):
    _walk(f, steps)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_steps(30))
def test_slack_words_match_a_tight_set_pass_on_twelve_resources(steps):
    _walk(TWELVE, steps)


def test_the_slack_word_reads_sat_at_zero_off_the_rank_table():
    # a free split over {a}: b holds nothing, so {b} is tight at x = 0
    f = RankFunction((0, 2, 0, 2))
    settle = _settle_on(f)
    assert settle.sat[0] == 0b10 == tight_sets(f, (0, 0)).saturated
