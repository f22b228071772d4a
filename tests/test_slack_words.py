"""The slack-word type against the subset-by-subset reference, step by step.

Words of ``rank._SlackWords`` walk random unit steps, insertions and moves,
over random polymatroids (``random_rank``, the same plus a modular part
scaled across every packed field width, and ``MatroidSpec`` tables) with up
to eight resources, over one twelve-resource table, over words of two field
widths in one instance, and over a 64-bit table whose masks overflow the
memo budget. After every step, for each word's x:

- r is in sat(x) iff ``member_polytope`` puts x + e_r outside;
- for every r that x holds, s is in sat(x - e_r) iff it puts
  x - e_r + e_s outside; for an s outside sat(x) that vector lies below
  x + e_s, which is inside, so only the s in sat(x) need the scan;
- a step is refused exactly when it puts the stepped vector outside, and a
  refused step changes nothing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynash import ContractError, MatroidSpec, RankFunction, member_polytope, random_rank
from polynash.rank import _SlackWords

from helpers import SCALE_SHIFTS

WALKS = settings(max_examples=100, deadline=None, derandomize=True)

# full rank 9, every resource alone 3: short walks fill its tight sets
TWELVE = random_rank(random.Random(0), 12, max_chain=2)


def _stepped(x, remove=None, add=None):
    out = list(x)
    if remove is not None:
        out[remove] -= 1
    out[add] += 1
    return tuple(out)


def _scaled(f, heavy, s):
    """f plus 2^s units on each resource of the set ``heavy``: still a polymatroid."""
    return RankFunction(
        tuple(v + ((u & heavy).bit_count() << s) for u, v in enumerate(f.values))
    )


def _check_reads(words, i, f, x):
    sat = words.sat[i]
    assert 0 <= sat < 1 << f.m, (x, sat)
    for r in range(f.m):
        assert bool(sat >> r & 1) != member_polytope(f, _stepped(x, add=r)), (x, r)
    for r, held in enumerate(x):
        if held:
            less = words.sat_less(i, r)
            assert less & ~sat == 0, (x, r, less, sat)
            for s in range(f.m):
                if sat >> s & 1:
                    inside = member_polytope(f, _stepped(x, remove=r, add=s))
                    assert bool(less >> s & 1) != inside, (x, r, s)


def _walk(ranks, steps):
    """Walk the words of ``ranks`` from x = 0 by ``steps`` of (word, insert, a, b)."""
    xs = [(0,) * f.m for f in ranks]
    words = _SlackWords(ranks, xs)
    for i, f in enumerate(ranks):
        _check_reads(words, i, f, xs[i])
    for k, insert, a, b in steps:
        i = k % len(ranks)
        f, x = ranks[i], xs[i]
        held = [r for r, v in enumerate(x) if v]
        to_r = b % f.m
        from_r = None if insert or not held else held[a % len(held)]
        y = _stepped(x, remove=from_r, add=to_r)
        before = list(words.sat)
        inside = member_polytope(f, y)
        assert words.step(i, to_r, from_r) == inside, (x, from_r, to_r)
        if inside:
            xs[i] = y
        else:
            assert words.sat == before
        for j, g in enumerate(ranks):
            _check_reads(words, j, g, xs[j])
    return words


def _steps(max_size, words=1):
    step = st.tuples(
        st.integers(0, words - 1), st.booleans(), st.integers(0, 11), st.integers(0, 11)
    )
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
        # the fields widen, and tight sets still form on the other resources
        heavy = draw(st.integers(1, (1 << m) - 1))
        s = min(draw(st.sampled_from(SCALE_SHIFTS)), 58)  # entries stay below 2^62
        return _scaled(f, heavy, s)
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
def test_a_slack_word_answers_every_unit_step_after_every_step(f, steps):
    _walk((f,), steps)


@settings(max_examples=3, deadline=None, derandomize=True)
@given(_steps(16))
def test_a_slack_word_answers_every_unit_step_on_twelve_resources(steps):
    _walk((TWELVE,), steps)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), _steps(40, words=3))
def test_words_of_two_field_widths_step_side_by_side(rng, steps):
    # two 8-bit tables share one layout and its masks; the third, whose
    # entries all exceed 255 off the empty set, has 16-bit fields
    narrow, other = random_rank(rng, 5), random_rank(rng, 5)
    wide = _scaled(random_rank(rng, 5), 0b11111, 8)
    assert (narrow.width, other.width, wide.width) == (8, 8, 16)
    words = _walk((narrow, wide, other), steps)
    assert words._layouts[0] is words._layouts[2] is not words._layouts[1]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), _steps(30))
def test_masks_past_the_memo_budget_are_built_for_each_use(rng, steps):
    # a 64-bit mask is 8 bytes per entry, the whole budget of one word: the
    # first mask built is kept and every other one is built for each use
    f = _scaled(random_rank(rng, 5), 0b10101, 58)
    assert f.width == 64
    words = _walk((f,), steps)
    assert sum(map(bool, words._layouts[0][3])) == 1


def test_a_start_outside_the_polytope_is_refused():
    f = RankFunction((0, 1, 2, 2))  # a alone 1, b alone 2, both 2
    words = _SlackWords((f, f), ((1, 1), (0, 2)))
    assert words.sat == [0b11, 0b11]  # {a, b} is tight at both
    assert words.sat_less(0, 0) == words.sat_less(1, 1) == 0  # nothing is at (0, 1)
    with pytest.raises(ContractError) as err:
        _SlackWords((f,), ((2, 0),))
    assert str(err.value) == "count vector (2, 0) lies outside the polytope"


def test_the_slack_word_reads_sat_at_zero_off_the_rank_table():
    # a free split over {a}: b holds nothing, so {b} is tight at x = 0
    f = RankFunction((0, 2, 0, 2))
    words = _SlackWords((f,), ((0, 0),))
    assert words.sat == [0b10]
    assert not words.step(0, 1) and words.sat == [0b10]
    assert words.step(0, 0) and words.step(0, 0) and words.sat == [0b11]
