"""The reader checks each value once: differential suites against the constructors.

``parse_instance`` proves every rank and cost entry an int, then hands the
tuples to the checks the public constructors share, without converting them
again. Two suites check that nothing is lost on that path:

- a written game parses back to itself, with the same ``m``, ``width`` and
  ``packed`` on every rank table, also at the field widths that border the
  one-byte packing (largest entry 127, 128, 255, 256 and 2**63 - 1);
- a mutated document fails through the reader with the exception type and
  message the public constructors give on the same values, and an entry of
  ``true`` or ``1.0``, which the constructors convert, stays a ParseError.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynash import (
    CostTable,
    GameError,
    GameInstance,
    MalformedInputError,
    ParseError,
    RankFunction,
    ValidationError,
    check_convex,
    gen_random,
    gen_singleton,
    parse_instance,
    write_instance,
)
from polynash.generators import random_convex_table, random_rank
from polynash.rank import MAX_RANK_ENTRY

from helpers import SCALE_SHIFTS, fitting_shift

FAMILIES = ("convex_nondecreasing", "truncated_ssc")

# largest rank entries at the edges of the one-byte packing and of the cap
EDGES = (127, 128, 255, 256, MAX_RANK_ENTRY)

MUTATIONS = (
    "negative rank entry",
    "negative cost entry",
    "decreasing cost table",
    "cost table not load-sensitive",
    "rank table not submodular",
)


def _reference_packing(values) -> tuple[int, int]:
    """(width, packed) by the definition: fields of 8, 16, 32 or 64 bits, top bit clear."""
    width = 8
    while max(values) >> (width - 1):
        width *= 2
    return width, sum(v << (mask * width) for mask, v in enumerate(values))


def _assert_parses_back(g: GameInstance) -> None:
    h = parse_instance(write_instance(g))
    assert h == g
    for f, e in zip(g.ranks, h.ranks):
        assert (e.m, e.width, e.packed) == (f.m, f.width, f.packed)
        assert (e.width, e.packed) == _reference_packing(f.values)
    for row in h.costs:
        for c in row:
            assert c._convex == check_convex(c)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 4),
    m=st.integers(1, 6),
    max_demand=st.integers(1, 4),
    family=st.sampled_from(FAMILIES),
)
def test_random_games_parse_back_to_themselves(seed, n, m, max_demand, family):
    _assert_parses_back(gen_random(seed, n, m, max_demand, family))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), m=st.integers(1, 5))
def test_free_split_games_parse_back_to_themselves(data, n, m):
    # demands past 127 and 255 put the tables into 16-bit fields
    demands = data.draw(st.lists(st.integers(0, 300), min_size=n, max_size=n))
    sets = [sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1))) for _ in range(n)]
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    length = sum(demands) + 1
    costs = [[random_convex_table(rng, length).values for _ in range(m)] for _ in range(n)]
    _assert_parses_back(gen_singleton(sets, demands, costs))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 3),
    m=st.integers(1, 6),
    top=st.sampled_from(EDGES),
)
def test_games_at_the_packing_edges_parse_back_to_themselves(seed, n, m, top):
    # f scaled by k and truncated at top is a polymatroid whose largest entry is top
    rng = random.Random(seed)
    ranks = []
    for _ in range(n):
        f = random_rank(rng, m)
        k = -(-top // f.rank_of_all) + rng.randint(0, 3)
        ranks.append(RankFunction(tuple(min(v * k, top) for v in f.values)))
    assert all(max(f.values) == top for f in ranks)
    demands = [rng.randint(0, 3) for _ in ranks]
    length = sum(demands) + 1
    costs = [[random_convex_table(rng, length) for _ in range(m)] for _ in ranks]
    g = GameInstance([f"r{r}" for r in range(m)], demands, ranks, costs)
    _assert_parses_back(g)


def _through_constructors(doc: dict) -> GameInstance:
    """The document's game built by the public constructors, in the reader's order.

    Player by player: the rank table, then the cost row; an error in a rank
    table's entries names its player, as the reader's does.
    """
    names = tuple(doc["resources"])
    ranks, costs = [], []
    for i, player in enumerate(doc["players"]):
        try:
            ranks.append(RankFunction(player["rank"]))
        except MalformedInputError as exc:
            raise MalformedInputError(f"player {i} {exc}") from None
        costs.append(tuple(CostTable(player["costs"][name]) for name in names))
    demands = tuple(player["demand"] for player in doc["players"])
    return GameInstance(names, demands, tuple(ranks), tuple(costs))


def _outcome(build, arg):
    """The game ``build(arg)`` returns, or the type and message of its error."""
    try:
        return build(arg)
    except GameError as exc:
        return type(exc), str(exc)


def _mutate(doc: dict, kind: str, rng: random.Random) -> None:
    """Break one table of one player of ``doc`` in place, by ``kind``."""
    player = rng.choice(doc["players"])
    rank, costs = player["rank"], player["costs"]
    # a resource the player can hold two units of, where one exists: only
    # there can a cost table fail load-sensitivity
    names = doc["resources"]
    deep = [r for r in range(len(names)) if rank[1 << r] >= 2] or range(len(names))
    table = costs[names[rng.choice(deep)]]
    if kind == "negative rank entry":
        rank[rng.randrange(len(rank))] = -rng.randint(1, 3)
    elif kind == "negative cost entry":
        table[rng.randrange(len(table))] = -rng.randint(1, 3)
    elif kind == "decreasing cost table":
        if len(table) == 1:
            table.append(0)
        k = rng.randrange(1, len(table))
        table[k - 1] = table[k] + rng.randint(1, 3)
    elif kind == "cost table not load-sensitive":
        # d_2 = 1 and d_3 = 0 fail 2 * d_3 >= d_2 at any usage cap of 2 or more
        table[:] = [0, 2, 3, 3][: len(table)] + [3] * (len(table) - 4)
    else:
        # f(U) = |U|^2 shifted into a wider field: f(a) + f(b) < f(a, b) + f({})
        shift = rng.choice(SCALE_SHIFTS)
        rank[:] = [bin(mask).count("1") ** 2 << shift for mask in range(len(rank))]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 3),
    m=st.integers(1, 5),
    family=st.sampled_from(FAMILIES),
    shift=st.sampled_from(SCALE_SHIFTS),
    kind=st.sampled_from(MUTATIONS),
)
def test_mutated_documents_fail_as_the_constructors_fail(seed, n, m, family, shift, kind):
    doc = json.loads(write_instance(gen_random(seed, n, m, 3, family)))
    # ranks scaled by 2^shift stay polymatroids, in every packed field width
    for player in doc["players"]:
        s = fitting_shift(player["rank"], shift)
        player["rank"] = [v << s for v in player["rank"]]
    _mutate(doc, kind, random.Random(seed))
    parsed = _outcome(parse_instance, json.dumps(doc))
    assert parsed == _outcome(_through_constructors, doc)
    if kind.startswith("negative") or kind == "decreasing cost table":
        assert isinstance(parsed, tuple)


@pytest.mark.parametrize(
    "kind, error, message",
    [
        (
            "negative rank entry",
            MalformedInputError,
            "player 0 rank table entries must be nonnegative",
        ),
        ("negative cost entry", ValidationError, "cost table entry 2 is negative (-2)"),
        (
            "decreasing cost table",
            ValidationError,
            "cost table decreases between loads 2 and 3 (5 > 3)",
        ),
        (
            "cost table not load-sensitive",
            ValidationError,
            "player 0 cost table on 'a' is not load-sensitive up to usage 3: "
            "violated at prior loads a=0, b=1 with usages x=2, y=2",
        ),
        (
            "rank table not submodular",
            ValidationError,
            "player 0 rank table is not submodular: witness subsets {a} and {b}",
        ),
    ],
)
def test_each_mutation_names_its_fault_on_both_paths(kind, error, message):
    doc = {
        "format_version": 1,
        "resources": ["a", "b"],
        "players": [
            {
                "demand": 3,
                "rank": [0, 3, 3, 3],
                "costs": {"a": [0, 1, 3, 6], "b": [0, 1, 2, 3]},
            }
        ],
    }
    player = doc["players"][0]
    table = player["costs"]["a"]
    if kind == "negative rank entry":
        player["rank"][2] = -1
    elif kind == "negative cost entry":
        table[2] = -2
    elif kind == "decreasing cost table":
        table[2:] = [5, 3]
    elif kind == "cost table not load-sensitive":
        table[:] = [0, 2, 3, 3]
    else:
        player["rank"] = [0, 1, 1, 4]
    for build, arg in ((parse_instance, json.dumps(doc)), (_through_constructors, doc)):
        with pytest.raises(error) as err:
            build(arg)
        assert str(err.value) == message


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    field=st.sampled_from(("rank", "costs")),
    entry=st.sampled_from((True, 1.0)),
)
def test_true_and_float_entries_stay_parse_errors(seed, field, entry):
    # the constructors convert true and 1.0 to 1; the reader refuses them by type
    rng = random.Random(seed)
    doc = json.loads(write_instance(gen_random(seed, 2, 2, 2)))
    i = rng.randrange(2)
    player = doc["players"][i]
    if field == "rank":
        values, what = player["rank"], f"player {i} rank entry"
    else:
        name = rng.choice(doc["resources"])
        values, what = player["costs"][name], f"player {i} cost entry on {name!r}"
    k = rng.randrange(len(values))
    values[k] = 1
    ones = json.loads(json.dumps(doc))
    values[k] = entry
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc))
    assert str(err.value) == f"{what} must be an integer"
    assert _outcome(_through_constructors, doc) == _outcome(_through_constructors, ones)
