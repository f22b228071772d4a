"""Documents: parsing with positions and witnesses, round trips, trace replay."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynash import (
    CostTable,
    CostTableRangeError,
    GameInstance,
    InvariantError,
    MalformedInputError,
    ParseError,
    Profile,
    RankFunction,
    SolverPolicy,
    ValidationError,
    check_trace,
    compute_pne,
    gen_random,
    parse_instance,
    parse_profile,
    private_cost,
    write_instance,
    write_profile,
    write_trace,
)
from polynash.rank import MAX_RESOURCES
from polynash.solver import (
    EVENT_DEMAND_INCREASE,
    EVENT_EQUILIBRIUM,
    EVENT_GREEDY_EXTEND,
    EVENT_IMPROVEMENT_MOVE,
    Trace,
    TraceEvent,
)

from helpers import reference_write_profile, reference_write_trace

EVENT_KINDS = (
    EVENT_DEMAND_INCREASE,
    EVENT_GREEDY_EXTEND,
    EVENT_IMPROVEMENT_MOVE,
    EVENT_EQUILIBRIUM,
)

TWO_PLAYER_DOC = {
    "format_version": 1,
    "resources": ["a", "b"],
    "players": [
        {"demand": 1, "rank": [0, 1, 1, 1], "costs": {"a": [0, 1, 2], "b": [0, 1, 2]}},
        {"demand": 1, "rank": [0, 1, 1, 1], "costs": {"a": [0, 1, 2], "b": [0, 1, 2]}},
    ],
}


def _doc(**overrides) -> bytes:
    doc = json.loads(json.dumps(TWO_PLAYER_DOC))
    doc.update(overrides)
    return json.dumps(doc).encode()


def test_parse_the_two_player_document():
    g = parse_instance(_doc())
    assert g.n == 2 and g.m == 2
    assert g.resources == ("a", "b")
    assert g.demands == (1, 1)


def test_parse_accepts_rank_maps():
    doc = json.loads(json.dumps(TWO_PLAYER_DOC))
    doc["players"][0]["rank"] = {"a": 1, "b": 1, "a,b": 1}
    doc["players"][1]["rank"] = {"": 0, "b": 1, "a": 1, "a,b": 1}
    g = parse_instance(json.dumps(doc).encode())
    assert g.ranks[0].values == (0, 1, 1, 1)
    assert g.ranks[1].values == (0, 1, 1, 1)


@pytest.mark.parametrize(
    "rank, first, second",
    [
        ({"a": 1, "b": 1, "a,b": 2, "b,a": 1}, "a,b", "b,a"),
        ({"a": 1, "b": 1, "b,a": 1, "a,b": 2}, "b,a", "a,b"),
    ],
)
def test_parse_rejects_two_rank_keys_for_one_subset(rank, first, second):
    # either key order used to parse, to (0, 1, 1, 1) or (0, 1, 1, 2)
    doc = json.loads(json.dumps(TWO_PLAYER_DOC))
    doc["players"][0]["rank"] = rank
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc).encode())
    assert str(err.value) == (
        f"player 0 rank keys {first!r} and {second!r} name the same subset"
    )


def test_parse_rejects_incomplete_rank_maps():
    doc = json.loads(json.dumps(TWO_PLAYER_DOC))
    doc["players"][0]["rank"] = {"a": 1, "b": 1}
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc).encode())
    assert "a,b" in str(err.value)


def test_parse_rejects_more_resources_than_the_cap_before_reading_ranks():
    names = [f"r{k}" for k in range(MAX_RESOURCES + 1)]
    player = {"demand": 1, "rank": {"r0": 1}, "costs": {}}
    doc = {"format_version": 1, "resources": names, "players": [player]}
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc).encode())
    assert f"cap of {MAX_RESOURCES}" in str(err.value)
    assert "missing the subset" not in str(err.value)


def test_parse_reports_syntax_positions():
    with pytest.raises(ParseError) as err:
        parse_instance(b'{"format_version": 1,\n  "resources": [}')
    assert "line 2" in str(err.value)


def test_instance_documents_reject_a_repeated_key():
    # json.loads would keep the second table and accept the document
    text = _doc().decode().replace(
        '"costs": {"a": [0, 1, 2],', '"costs": {"a": [0, 1, 2], "a": [0, 5, 9],', 1
    )
    assert text.count('"a": [0, 5, 9]') == 1
    with pytest.raises(ParseError, match="object repeats the key 'a'"):
        parse_instance(text)


def test_profile_documents_reject_a_repeated_key():
    g = parse_instance(_doc())
    text = json.dumps(
        {"format_version": 1, "players": [{"strategy": {"a": 1}}, {"strategy": {"b": 1}}]}
    ).replace('{"a": 1}', '{"a": 1, "a": 0}')
    with pytest.raises(ParseError, match="object repeats the key 'a'"):
        parse_profile(text, g)


def test_trace_documents_reject_a_repeated_key():
    g = parse_instance(_doc())
    _, trace = compute_pne(g)
    text = write_trace(g, trace).decode()
    assert check_trace(text) == (2, 0)
    tampered = text.replace(
        '{"kind":"demand_increase",', '{"kind":"improvement_move","kind":"demand_increase",', 1
    )
    with pytest.raises(ParseError, match="object repeats the key 'kind'"):
        check_trace(tampered)


def test_an_integer_past_the_digit_limit_is_a_parse_error():
    doc = json.loads(_doc())
    doc["players"][0]["demand"] = 0
    text = json.dumps(doc).replace('"demand": 0', '"demand": ' + "9" * 5000, 1)
    with pytest.raises(ParseError, match="invalid JSON: .*4300 digits"):
        parse_instance(text)


def test_deeply_nested_documents_are_parse_errors():
    # past the recursion limit, json.loads raises RecursionError
    nested = "[" * 100_000 + "]" * 100_000
    g = parse_instance(_doc())
    message = "invalid JSON: maximum recursion depth"
    with pytest.raises(ParseError, match=message):
        parse_instance(nested)
    with pytest.raises(ParseError, match=message):
        parse_profile(nested, g)
    _, trace = compute_pne(g)
    lines = write_trace(g, trace).decode().splitlines()
    with pytest.raises(ParseError, match=message):
        check_trace(nested)
    with pytest.raises(ParseError, match=message):
        check_trace("\n".join([lines[0], nested, *lines[1:]]) + "\n")


@pytest.mark.parametrize("encoded", [True, False], ids=["bytes", "str"])
@pytest.mark.parametrize("reader", ["instance", "profile", "trace"])
def test_a_leading_byte_order_mark_is_a_parse_error_at_the_first_position(reader, encoded):
    # json.loads refuses the mark, and so do the readers
    g = parse_instance(_doc())
    profile, trace = compute_pne(g)
    read, text = {
        "instance": (parse_instance, _doc().decode()),
        "profile": (lambda data: parse_profile(data, g), write_profile(g, profile).decode()),
        "trace": (check_trace, write_trace(g, trace).decode()),
    }[reader]
    read(text)
    marked = "\ufeff" + text
    with pytest.raises(ParseError) as err:
        read(marked.encode() if encoded else marked)
    assert str(err.value) == (
        "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig) (line 1, column 1)"
    )
    assert (err.value.line, err.value.column) == (1, 1)


def test_parse_rejects_wrong_version():
    with pytest.raises(ParseError):
        parse_instance(_doc(format_version=2))


def test_documents_reject_a_boolean_format_version():
    # True == 1, but a JSON boolean is not the version number
    message = "must carry format_version 1, got True"
    with pytest.raises(ParseError, match=f"instance document {message}"):
        parse_instance(_doc(format_version=True))
    g = parse_instance(_doc())
    profile, trace = compute_pne(g)
    profile_doc = write_profile(g, profile).replace(
        b'"format_version": 1', b'"format_version": true'
    )
    with pytest.raises(ParseError, match=f"profile document {message}"):
        parse_profile(profile_doc, g)
    trace_doc = write_trace(g, trace).replace(
        b'"format_version":1', b'"format_version":true', 1
    )
    with pytest.raises(ParseError, match=f"trace header {message}"):
        check_trace(trace_doc)


@pytest.mark.parametrize("names", [[1, 2], ["a", None], [["a"], "b"]])
def test_parse_rejects_resource_names_that_are_not_strings(names):
    # costs keyed by str(name), which is what a str() coercion would accept
    keyed = {str(name): [0, 1, 2] for name in names}
    players = [{"demand": 1, "rank": [0, 1, 1, 1], "costs": keyed}]
    with pytest.raises(ParseError) as err:
        parse_instance(_doc(resources=names, players=players))
    assert str(err.value) == "resources must be a list of names"


def test_parse_rejects_infeasible_demand_naming_the_player():
    doc = json.loads(json.dumps(TWO_PLAYER_DOC))
    doc["players"][1]["demand"] = 3
    with pytest.raises(ValidationError) as err:
        parse_instance(json.dumps(doc).encode())
    assert "player 1" in str(err.value)
    assert err.value.witness[0] == "infeasible_demand"


def test_parse_rejects_decreasing_cost_tables_with_witness_index():
    doc = json.loads(json.dumps(TWO_PLAYER_DOC))
    doc["players"][0]["costs"]["b"] = [2, 1, 1]
    with pytest.raises(ValidationError) as err:
        parse_instance(json.dumps(doc).encode())
    assert err.value.witness == ("decreasing", 0)


def test_parse_rejects_missing_cost_entries():
    doc = json.loads(json.dumps(TWO_PLAYER_DOC))
    del doc["players"][0]["costs"]["b"]
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc).encode())
    assert "'b'" in str(err.value)


@pytest.mark.parametrize(
    "field, entry, message",
    [
        ("rank", True, "player 1 rank entry must be an integer"),
        ("rank", 1.0, "player 1 rank entry must be an integer"),
        ("costs", False, "player 1 cost entry on 'b' must be an integer"),
        ("costs", "2", "player 1 cost entry on 'b' must be an integer"),
    ],
)
def test_parse_rejects_non_integer_array_entries(field, entry, message):
    doc = json.loads(json.dumps(TWO_PLAYER_DOC))
    if field == "rank":
        doc["players"][1]["rank"][3] = entry
    else:
        doc["players"][1]["costs"]["b"][2] = entry
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc).encode())
    assert str(err.value) == message


def test_instance_round_trip_is_structural_identity():
    for seed in range(10):
        g = gen_random(seed, 3, 3, 3)
        once = parse_instance(write_instance(g))
        assert once == g
        assert parse_instance(write_instance(once)) == once


def test_write_is_byte_deterministic():
    g1 = gen_random(8, 2, 3, 2)
    g2 = gen_random(8, 2, 3, 2)
    assert write_instance(g1) == write_instance(g2)
    p1, t1 = compute_pne(g1, SolverPolicy(seed=1))
    p2, t2 = compute_pne(g2, SolverPolicy(seed=1))
    assert write_profile(g1, p1) == write_profile(g2, p2)
    assert write_trace(g1, t1) == write_trace(g2, t2)


def test_profile_documents_round_trip_and_validate():
    g = parse_instance(_doc())
    profile, _ = compute_pne(g)
    data = write_profile(g, profile)
    doc = json.loads(data)
    assert doc["players"][0]["strategy"] == {"a": 1, "b": 0}
    assert doc["players"][1]["strategy"] == {"a": 0, "b": 1}
    assert [entry["cost"] for entry in doc["players"]] == [1, 1]
    assert doc["loads"] == {"a": 1, "b": 1}
    assert parse_profile(data, g) == profile


def test_profile_documents_for_the_empty_game():
    g = GameInstance((), (), (), ())
    doc = json.loads(write_profile(g, Profile(())))
    assert doc["players"] == [] and doc["loads"] == {}


def test_the_profile_writer_refuses_a_profile_of_another_player_count():
    # one player more used to be written as two, with its units in the loads;
    # one player fewer raised IndexError
    g = gen_random(0, 2, 2, 2)
    profile, _ = compute_pne(g)
    for strategies in (profile.strategies + ((1, 0),), profile.strategies[:1]):
        with pytest.raises(MalformedInputError) as err:
            write_profile(g, Profile(strategies))
        message = f"profile has {len(strategies)} players, instance has 2"
        assert str(err.value) == message


def test_the_profile_writer_raises_the_private_cost_error_for_loads_past_a_table():
    # the loads of three units run past player 1's table of three entries, not
    # past player 0's of five; a profile is written unchecked against the game
    f = RankFunction((0, 3))
    g = GameInstance(
        ("a",), (1, 1), (f, f), ((CostTable((0, 1, 2, 3, 4)),), (CostTable((0, 1, 2)),))
    )
    p = Profile(((1,), (2,)))
    assert private_cost(g, p, 0) == 3
    with pytest.raises(CostTableRangeError) as expected:
        private_cost(g, p, 1)
    with pytest.raises(CostTableRangeError) as err:
        write_profile(g, p)
    assert str(err.value) == str(expected.value) == "load 3 outside cost table of length 3"


def test_parse_profile_rejects_infeasible_strategies():
    g = parse_instance(_doc())
    bad = json.dumps(
        {
            "format_version": 1,
            "players": [
                {"strategy": {"a": 1, "b": 1}},
                {"strategy": {"a": 0, "b": 1}},
            ],
        }
    ).encode()
    with pytest.raises(ValidationError):
        parse_profile(bad, g)
    unknown = json.dumps(
        {
            "format_version": 1,
            "players": [
                {"strategy": {"z": 1}},
                {"strategy": {"a": 1}},
            ],
        }
    ).encode()
    with pytest.raises(ParseError):
        parse_profile(unknown, g)


def test_trace_round_trip_and_replay():
    g = gen_random(20, 3, 2, 3)
    _, trace = compute_pne(g)
    data = write_trace(g, trace)
    insertions, moves = check_trace(data)
    assert insertions == g.total_demand
    assert moves == len(trace.improvement_moves())


def test_trace_replay_rejects_a_tampered_decrease():
    g = gen_random(20, 3, 2, 3)
    _, trace = compute_pne(g)
    data = write_trace(g, trace).decode()
    lines = data.strip().split("\n")
    tampered = []
    bumped = False
    for line in lines:
        record = json.loads(line)
        if not bumped and record.get("kind") == "improvement_move":
            record["marginal"] = [v + 100 for v in record["marginal"]]
            bumped = True
        tampered.append(json.dumps(record, separators=(",", ":")))
    assert bumped, "batch must contain at least one improvement move"
    with pytest.raises(InvariantError):
        check_trace("\n".join(tampered) + "\n")


@pytest.mark.parametrize("entry", ["true", "1.0", '"1"'])
def test_trace_replay_rejects_a_marginal_entry_that_is_not_an_integer(entry):
    g = gen_random(20, 3, 2, 3)
    _, trace = compute_pne(g)
    text = write_trace(g, trace).decode()
    # the entry replaces the first entry of the first nonempty marginal vector
    text = re.sub(r'"marginal":\[\d+', f'"marginal":[{entry}', text, count=1)
    with pytest.raises(ParseError, match="^marginal entry must be an integer$"):
        check_trace(text)


def test_trace_requires_a_header():
    with pytest.raises(ParseError):
        check_trace('{"kind":"demand_increase","outer":1}\n')


def test_the_trace_writer_refuses_events_that_do_not_fit_the_game():
    # -1 used to be written as the last resource's name, 2 raised IndexError,
    # an unknown kind was written for check_trace to reject, and so were
    # player 5 and units -3 and 0 (units run 1..max(demands) = 1..2)
    g = gen_random(0, 2, 2, 2)
    move = TraceEvent(EVENT_IMPROVEMENT_MOVE, 2, 1, 0, 1, 1, 0, 0, (3, 2))
    assert b'"from":"r1","to":"r0","overloaded":"r0"' in write_trace(g, Trace((move,)))
    assert max(g.demands) == 2
    misfits = (
        ("from_resource", -1),
        ("to_resource", 2),
        ("overloaded", 2),
        ("kind", "bogus"),
        ("player", 5),
        ("player", -1),
        ("unit", -3),
        ("unit", 0),
        ("unit", 3),
    )
    for field, value in misfits:
        bad = move._replace(**{field: value})
        with pytest.raises(MalformedInputError) as err:
            write_trace(g, Trace((move, bad)))
        assert str(err.value) == (
            f"trace event 1 holds {value!r}, which is no event kind, player, unit "
            f"or resource index of the game: {bad}"
        )
    # True and "x" used to be written as they are, and so was a marginal
    # entry of "5" or 2.5, all for check_trace to reject
    non_integers = (
        ("outer", True, True),
        ("inner", "x", "x"),
        ("outer", 2.0, 2.0),
        ("marginal_sorted", ("5", 2.5), "5"),
        ("marginal_sorted", (3, 2.5), 2.5),
        ("marginal_sorted", (3, False), False),
    )
    for field, value, held in non_integers:
        bad = move._replace(**{field: value})
        with pytest.raises(MalformedInputError) as err:
            write_trace(g, Trace((move, bad)))
        assert str(err.value) == f"trace event 1 holds {held!r}, which is not an int: {bad}"
    # with both fields wrong, the first is named
    with pytest.raises(MalformedInputError, match="^trace event 0 holds True"):
        write_trace(g, Trace((TraceEvent("demand_increase", True, "x", 1, 1),)))


def test_single_player_trace_has_no_improvement_moves():
    g = gen_random(5, 1, 3, 3)
    _, trace = compute_pne(g)
    data = write_trace(g, trace).decode()
    kinds = {json.loads(line)["kind"] for line in data.strip().split("\n")}
    assert kinds == {"header", "demand_increase", "greedy_extend", "equilibrium_reached"}


# names that exercise every escape json.dumps writes: quotes, backslashes,
# control characters, non-ASCII text (BMP and astral) and the empty name
NAME_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\n\t\x00\x1f\x7féü \U0001d11e'),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=4,
)
WRITERS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def named_games(draw):
    """A game with 0-3 players over 0-3 resources with hostile names, modular ranks."""
    names = tuple(draw(st.lists(NAME_TEXT, max_size=3, unique=True)))
    m = len(names)
    caps, demands = [], []
    for _ in range(draw(st.integers(0, 3))):
        cap = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        caps.append(cap)
        demands.append(draw(st.integers(0, sum(cap))))
    total = sum(demands)
    ranks = [
        RankFunction(
            tuple(sum(c[r] for r in range(m) if mask >> r & 1) for mask in range(1 << m))
        )
        for c in caps
    ]
    slopes = st.lists(st.sampled_from((0, 1, 3, 10**30)), min_size=m, max_size=m)
    costs = [
        tuple(tuple(slope * k for k in range(total + 1)) for slope in draw(slopes))
        for _ in caps
    ]
    return GameInstance(names, tuple(demands), tuple(ranks), tuple(costs))


@WRITERS
@given(
    named_games(),
    st.sampled_from(
        (
            SolverPolicy("min_index"),
            SolverPolicy("round_robin"),
            SolverPolicy("seeded_random", seed=3),
        )
    ),
)
def test_writers_match_the_reference_encoders_on_solved_games(g, policy):
    profile, trace = compute_pne(g, policy)
    assert write_profile(g, profile) == reference_write_profile(g, profile)
    assert write_trace(g, trace) == reference_write_trace(g, trace)


@st.composite
def free_events(draw, g):
    """Events of every kind that fit g, with any mix of None fields.

    Players, units and resource fields hold values g has; some events share
    the previous marginal.
    """
    index = st.none() | st.integers(0, g.m - 1) if g.m else st.none()
    player = st.none() | st.integers(0, g.n - 1) if g.n else st.none()
    top = max(g.demands, default=0)
    unit = st.none() | st.integers(1, top) if top else st.none()
    events, marginal = [], ()
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            marginal = tuple(draw(st.lists(st.integers(-(10**20), 10**20), max_size=4)))
        events.append(
            TraceEvent(
                draw(st.sampled_from(EVENT_KINDS)),
                draw(st.integers(0, 10**6)),
                draw(st.integers(0, 10**6)),
                player=draw(player),
                unit=draw(unit),
                from_resource=draw(index),
                to_resource=draw(index),
                overloaded=draw(index),
                marginal_sorted=marginal,
            )
        )
    return Trace(tuple(events))


@WRITERS
@given(st.data())
def test_trace_writer_matches_the_reference_encoder_on_any_events(data):
    g = data.draw(named_games())
    trace = data.draw(free_events(g))
    assert write_trace(g, trace) == reference_write_trace(g, trace)
