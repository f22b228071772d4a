"""The one-pass checks of instance validation against the full scans.

``validate_rank`` and ``find_ssc_violation`` each decide validity and name
their witness in one pass. These checks compare both answers with the
independent oracles of ``helpers``: the verdict with the full definitions,
and the witness with the list of every violation. The rank tables lie near
the boundary of validity: generated valid tables nudged by one unit, up to
eight resources so that every pair (j, k) of the packed pass is reached,
and scaled by 2^s so that the entries fill every packed field width up to
the bits next to its guard bit. Scaling by a power of two keeps validity and
every violation.
"""

from itertools import accumulate, product
from operator import sub

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polynash import RankFunction, find_ssc_violation, game, validate_rank
from polynash.generators import random_rank
from polynash.rank import MAX_RANK_ENTRY

from helpers import (
    SCALE_SHIFTS,
    _rank_violations,
    fitting_shift,
    full_pair_rank_ok,
    neighbour_bills_monotone,
    ssc_ok,
)

DIFFERENTIAL = settings(max_examples=300, deadline=None, derandomize=True)


def _scaled_rank(draw, values):
    s = fitting_shift(values, draw(st.sampled_from(SCALE_SHIFTS)))
    return RankFunction(tuple(v << s for v in values))


@st.composite
def near_valid_rank(draw, max_m=8):
    """A generated polymatroid with at most one entry moved by one unit, scaled."""
    rng = draw(st.randoms(use_true_random=False))
    values = list(random_rank(rng, draw(st.integers(1, max_m))).values)
    if draw(st.booleans()):
        mask = draw(st.integers(0, len(values) - 1))
        values[mask] = max(0, values[mask] + draw(st.sampled_from((-1, 1))))
    return _scaled_rank(draw, values)


@st.composite
def any_rank(draw, max_m=8):
    m = draw(st.integers(0, max_m))
    entries = st.integers(0, 2 + m)
    return _scaled_rank(draw, draw(st.lists(entries, min_size=1 << m, max_size=1 << m)))


def _cardinality(m):
    return [bin(mask).count("1") for mask in range(1 << m)]


@DIFFERENTIAL
@given(st.one_of(near_valid_rank(), any_rank()))
# zero and one resource: only normalization can fail
@example(RankFunction((0,)))
@example(RankFunction((1,)))
@example(RankFunction((0, 0)))
@example(RankFunction((2, 1)))
# witnesses that read the top field, mask 2^m - 1, at 64-bit width: a top
# entry at the cap breaks submodularity at (0, 1), one just below f(R - {a})
# breaks monotonicity at a
@example(RankFunction((*_cardinality(3)[:-1], MAX_RANK_ENTRY)))
@example(RankFunction((*(size << 61 for size in _cardinality(3)[:-1]), (2 << 61) - 1)))
def test_validate_rank_matches_the_full_pair_definitions(f):
    witness = validate_rank(f)
    assert (witness is None) == full_pair_rank_ok(f.values)
    if witness is not None:
        violations = _rank_violations(f)
        assert witness in violations
        assert witness == min(violations, key=_pass_order)


def _pass_order(violation):
    """Where the one pass meets a violation: normalization; then per j,
    monotonicity at j and submodularity at (j, k) for k > j; then the base."""
    prop, u, v = violation
    if prop == "normalized":
        return (-1, 0, 0)
    if prop == "monotone":
        return ((u ^ v).bit_length() - 1, 0, u)
    base = u & v
    return ((u ^ base).bit_length() - 1, (v ^ base).bit_length() - 1, base)


def test_validate_rank_catches_a_nudge_on_every_subset():
    # the uniform matroid of rank 2 on six resources stays a polymatroid when
    # one singleton rises to 2 (a weighted truncation) or one pair drops to 1
    # (a parallel pair), and breaks under every other single-entry nudge
    m = 6
    base = [min(bin(mask).count("1"), 2) for mask in range(1 << m)]
    for mask in range(1 << m):
        for delta, keeps_valid in ((1, 1), (-1, 2)):
            nudged = list(base)
            nudged[mask] += delta
            if nudged[mask] < 0:
                continue
            f = RankFunction(tuple(nudged))
            witness = validate_rank(f)
            assert (witness is None) == full_pair_rank_ok(f.values)
            assert (witness is None) == (bin(mask).count("1") == keeps_valid)
            if witness is not None:
                assert _violates(nudged, *witness)


def _violates(values, prop, u, v):
    """Whether the witness triple breaks its inequality on the table."""
    if prop == "normalized":
        return values[0] != 0
    if prop == "monotone":
        return u | v == v and values[u] > values[v]
    return values[u] + values[v] < values[u | v] + values[u & v]


@st.composite
def near_ssc_table(draw):
    """A nondecreasing walk or a convex table, with at most one entry nudged."""
    length = draw(st.integers(1, 12))
    steps = draw(st.lists(st.integers(0, 3), min_size=length - 1, max_size=length - 1))
    if draw(st.booleans()):
        steps.sort()  # convex: nondecreasing first differences
    values = [draw(st.integers(0, 3))]
    for step in steps:
        values.append(values[-1] + step)
    if draw(st.booleans()):
        k = draw(st.integers(0, length - 1))
        values[k] = max(0, values[k] + draw(st.sampled_from((-1, 1))))
    return tuple(values)


def _bill(values, load, x):
    return values[load + x] * x - values[load + x - 1] * (x - 1)


def _check_witness(values, u, quad):
    """A real violation inside the domain, at the smallest failing load sum."""
    a, b, x, y = quad
    assert 1 <= x <= y <= u and 0 <= a <= b
    assert b + y <= len(values) - 1
    assert _bill(values, a, x) > _bill(values, b, y)
    k = a + x
    assert ssc_ok(values[: k + 1], u) and not ssc_ok(values[: k + 2], u)


@DIFFERENTIAL
@given(near_ssc_table(), st.integers(0, 7))
def test_find_ssc_violation_matches_the_quadruple_scan(values, u):
    quad = find_ssc_violation(values, u)
    assert (quad is None) == ssc_ok(values, u)
    if quad is not None:
        _check_witness(values, u, quad)


@st.composite
def long_table_case(draw):
    """(values, u): up to 40 entries, a convex table or a walk with kinks
    (steps may be negative), and a usage cap on either side of the table's end."""
    size = draw(st.integers(0, 39))
    step = st.integers(draw(st.sampled_from((-1, 0))), 6)
    steps = draw(st.lists(step, min_size=size, max_size=size))
    if draw(st.booleans()):
        steps.sort()
    values = [draw(st.integers(0, 50))]
    for step in steps:
        values.append(values[-1] + step)
    return tuple(values), draw(st.integers(-1, size + 3))


@DIFFERENTIAL
@given(long_table_case())
def test_the_linear_pass_matches_the_neighbour_scan_on_long_tables(case):
    # the pass checks one usage per load sum k, the scan every usage
    values, u = case
    quad = find_ssc_violation(values, u)
    assert (quad is None) == neighbour_bills_monotone(values, u)
    if quad is not None:
        a, b, x, y = quad
        assert 1 <= x <= y <= u and 0 <= a <= b and b + y <= len(values) - 1
        assert _bill(values, a, x) > _bill(values, b, y)


@DIFFERENTIAL
@given(long_table_case())
def test_the_convex_accept_matches_the_full_pass(case):
    # convex tables with d_1 >= 0 skip the pass; every other table, kinked or
    # with negative differences, gets its answer and witness from it
    values, u = case
    expected = None
    if u >= 1 and len(values) >= 3:
        expected = game._ssc_pass(tuple(map(sub, values[1:], values[:-1])), u)
    assert find_ssc_violation(values, u) == expected


def test_the_linear_pass_matches_the_neighbour_scan_on_every_short_table():
    # every table of up to seven entries with steps in -1..3, at every usage
    # cap on either side of its end: where the usage range is cut by u, by k
    # or by the table. The quadruple scan agrees too.
    for size in range(7):
        for steps in product(range(-1, 4), repeat=size):
            values = tuple(accumulate(steps, initial=1))
            for u in range(-1, 8):
                quad = find_ssc_violation(values, u)
                assert (quad is None) == neighbour_bills_monotone(values, u), (values, u)
                assert (quad is None) == ssc_ok(values, u), (values, u)
                if quad is not None:
                    _check_witness(values, u, quad)
