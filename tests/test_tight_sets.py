"""The one-pass tight-set primitive against the subset-by-subset reference.

Random polymatroids come from ``bounded_random_rank`` and random vectors
inside them from the independent product scan; every unit-step answer is
checked against ``member_polytope`` on the stepped vector: one more unit on
r fits iff r is outside sat(x), and a unit moves from r to s iff s is
outside sat(x - e_r). Best-response tests run against the exhaustive
minimum weight. Tables and vectors scaled together by 2^s reach every
packed field width, and the sat(x) read off the flag word is checked
against the union of a subset-by-subset scan's tight sets.
"""

from functools import reduce
from operator import or_

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polynash import (
    GameInstance,
    Profile,
    RankFunction,
    WeightedGround,
    feasible_additions,
    induced_weights,
    is_best_response,
    local_improvement,
    member_polytope,
    random_convex_table,
    random_rank,
    tight_sets,
)
from polynash.rank import MAX_RANK_ENTRY

from helpers import (
    SCALE_SHIFTS,
    bounded_random_rank,
    feasible_vectors,
    fitting_shift,
    ideal_weight,
    min_weight,
)

DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True)


def _stepped(x, remove=None, add=None):
    out = list(x)
    if remove is not None:
        out[remove] -= 1
    if add is not None:
        out[add] += 1
    return tuple(out)


@st.composite
def rank_and_vector(draw, max_m=4, full_rank_cap=6):
    """A random polymatroid and a random count vector inside its polytope."""
    rng = draw(st.randoms(use_true_random=False))
    f = bounded_random_rank(rng, draw(st.integers(1, max_m)), full_rank_cap)
    d = draw(st.integers(0, f.rank_of_all))
    x = draw(st.sampled_from(feasible_vectors(f.values, d)))
    return f, x


def test_tight_sets_on_the_worked_example():
    f = RankFunction((0, 2, 1, 2))  # a alone 2, b alone 1, both 2
    tight = tight_sets(f, (1, 1))  # tight: {b} and {a, b}
    assert tight.feasible and tight.saturated == 0b11
    assert not tight.can_add(0) and not tight.can_add(1)
    # a unit moves from r to s iff s is outside sat(x - e_r)
    from_b = tight_sets(f, (1, 0))  # only the empty set is tight
    assert from_b.saturated == 0 and from_b.can_add(0)  # (2, 0) is inside
    from_a = tight_sets(f, (0, 1))  # tight: {b}
    assert from_a.saturated == 0b10 and not from_a.can_add(1)  # (0, 2) overfills b
    assert from_a.can_add(0)
    assert not tight_sets(f, (0, 2)).feasible


@DIFFERENTIAL
@given(rank_and_vector())
def test_tight_sets_match_member_polytope_on_every_unit_step(case):
    f, x = case
    tight = tight_sets(f, x)
    assert tight.feasible
    for r in range(f.m):
        assert tight.can_add(r) == member_polytope(f, _stepped(x, add=r))
        if not x[r]:
            continue
        less = tight_sets(f, _stepped(x, remove=r))
        assert less.feasible
        for s in range(f.m):
            if s != r:
                swapped = _stepped(x, remove=r, add=s)
                assert less.can_add(s) == member_polytope(f, swapped)


@DIFFERENTIAL
@given(rank_and_vector(), st.data())
def test_tight_sets_detect_every_vector_outside_the_polytope(case, data):
    f, x = case
    bumped = _stepped(x, add=data.draw(st.integers(0, f.m - 1)))
    assert tight_sets(f, bumped).feasible == member_polytope(f, bumped)


def _subset_sums(x):
    return [sum(v for r, v in enumerate(x) if mask >> r & 1) for mask in range(1 << len(x))]


@st.composite
def scaled_rank_and_vector(draw, max_m=8):
    """A polymatroid and a count vector filled unit by unit while it fits,
    both times 2^s, then perhaps one more unit on one resource."""
    rng = draw(st.randoms(use_true_random=False))
    values = random_rank(rng, draw(st.integers(1, max_m))).values
    m = len(values).bit_length() - 1
    x = [0] * m
    for r in draw(st.lists(st.integers(0, m - 1), max_size=12)):
        x[r] += 1
        if any(map(int.__gt__, _subset_sums(x), values)):
            x[r] -= 1
    s = fitting_shift(values, draw(st.sampled_from(SCALE_SHIFTS)))
    x = [v << s for v in x]
    if draw(st.booleans()):
        x[draw(st.integers(0, m - 1))] += 1
    return RankFunction(tuple(v << s for v in values)), tuple(x)


# f(U) = min(|U|, 2) * 2^61 on three resources, in 64-bit fields
WIDE_UNIFORM = RankFunction(tuple(min(bin(u).count("1"), 2) << 61 for u in range(8)))


@DIFFERENTIAL
@given(scaled_rank_and_vector())
# the top field, the full set R, tight; then one more unit overfills R only
@example((WIDE_UNIFORM, (1 << 61, 1 << 61, 0)))
@example((WIDE_UNIFORM, (1 << 61, 1 << 61, 1)))
# totals past f(R) whose subset sums would not fit in their 8- or 64-bit fields
@example((RankFunction((0, 1)), (257,)))
@example((RankFunction((0, 1, 1, 1)), (0, 2**64 + 1)))
@example((RankFunction((0, MAX_RANK_ENTRY)), (2**64 + 2**63,)))
# the cap itself, on a table whose every subset is tight
@example((RankFunction((0, MAX_RANK_ENTRY, 0, MAX_RANK_ENTRY)), (MAX_RANK_ENTRY, 0)))
# f(empty set) > 0: the empty set is not tight, so x = 0 has no tight set at all
@example((RankFunction((1, 2)), (0,)))
@example((RankFunction((1, 2)), (2,)))
def test_tight_sets_on_scaled_tables_match_the_subset_scan(case):
    f, x = case
    tight = tight_sets(f, x)
    assert tight.feasible == member_polytope(f, x)
    if tight.feasible:
        sums = _subset_sums(x)
        tight_masks = [mask for mask, value in enumerate(f.values) if sums[mask] == value]
        # sat(x) is the union of the tight sets, and 0 when there are none
        assert tight.saturated == reduce(or_, tight_masks, 0)


@DIFFERENTIAL
@given(rank_and_vector())
def test_feasible_additions_match_a_per_candidate_member_check(case):
    f, x = case
    expected = [
        (r, x[r] + 1) for r in range(f.m) if member_polytope(f, _stepped(x, add=r))
    ]
    assert feasible_additions(f, x) == expected


@DIFFERENTIAL
@given(rank_and_vector())
def test_local_improvement_accepts_exactly_the_feasible_exchanges(case):
    f, x = case
    d = sum(x)
    for r in range(f.m):
        if not x[r]:
            continue
        for s in range(f.m):
            if s == r:
                continue
            # r -> s saves 3, every other improving exchange at most 2, so the
            # best exchange is r -> s exactly when that move is feasible
            rows = tuple(
                (3 if q == r else 0 if q == s else 1,) * min(f.singleton(q), d + 1)
                for q in range(f.m)
            )
            swap = local_improvement(f, x, WeightedGround(rows))
            chosen = swap is not None and (swap.remove[0], swap.add[0]) == (r, s)
            assert chosen == member_polytope(f, _stepped(x, remove=r, add=s))


def _reference_best_exchange(f, x, w):
    """Largest-saving feasible exchange by member_polytope, same tie-breaking."""
    best = None
    for r in range(f.m):
        for s in range(f.m):
            if s == r or not x[r] or x[s] + 1 > w.length(s):
                continue
            saving = w.weights[r][x[r] - 1] - w.weights[s][x[s]]
            if saving <= 0 or not member_polytope(f, _stepped(x, remove=r, add=s)):
                continue
            if best is None or saving > best[2]:
                best = (r, s, saving)
    return best


@DIFFERENTIAL
@given(rank_and_vector(), st.randoms(use_true_random=False))
def test_local_improvement_matches_the_reference_best_exchange(case, rng):
    f, x = case
    d = sum(x)
    rows = []
    for r in range(f.m):
        value, row = rng.randint(0, 5), []
        for _ in range(min(f.singleton(r), d)):
            row.append(value)
            value += rng.randint(0, 4)
        rows.append(tuple(row))
    w = WeightedGround(tuple(rows))
    swap = local_improvement(f, x, w)
    got = None if swap is None else (swap.remove[0], swap.add[0], swap.improvement)
    assert got == _reference_best_exchange(f, x, w)


@DIFFERENTIAL
@given(rank_and_vector(max_m=3, full_rank_cap=5), st.data())
def test_is_best_response_matches_the_exhaustive_optimum(case, data):
    f, x = case
    rng = data.draw(st.randoms(use_true_random=False))
    # an opponent with its own feasible strategy shifts the prices player 0 sees
    other = bounded_random_rank(rng, f.m, 5)
    y = rng.choice(feasible_vectors(other.values, rng.randint(0, other.rank_of_all)))
    length = sum(x) + sum(y) + 1
    costs = tuple(
        tuple(random_convex_table(rng, length).values for _ in range(f.m))
        for _ in range(2)
    )
    names = tuple(f"r{r}" for r in range(f.m))
    g = GameInstance(names, (sum(x), sum(y)), (f, other), costs)
    w = induced_weights(g, 0, y)
    best, _ = min_weight(f.values, sum(x), w.weights)
    assert is_best_response(g, Profile((x, y)), 0) == (ideal_weight(w.weights, x) == best)

