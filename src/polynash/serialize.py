"""JSON documents for instances, profiles, and traces.

Output is byte-deterministic: UTF-8, LF line endings, fixed key order. The
resource order in a document is authoritative -- it fixes bitmask bit order
and every tie-breaking index. Instance and profile documents are single
pretty-printed objects; traces are line-delimited records, one event per
line after a header line carrying the schema version.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode
from typing import Sequence

from .errors import InvariantError, MalformedInputError, ParseError
from .game import CostTable, GameInstance, Profile, _check_fit, private_cost
from .rank import MAX_RESOURCES, RankFunction
from .solver import (
    EVENT_DEMAND_INCREASE,
    EVENT_EQUILIBRIUM,
    EVENT_GREEDY_EXTEND,
    EVENT_IMPROVEMENT_MOVE,
    Trace,
)

__all__ = [
    "FORMAT_VERSION",
    "check_trace",
    "parse_instance",
    "parse_profile",
    "write_instance",
    "write_profile",
    "write_trace",
]

FORMAT_VERSION = 1

_EVENT_KINDS = (
    EVENT_DEMAND_INCREASE,
    EVENT_GREEDY_EXTEND,
    EVENT_IMPROVEMENT_MOVE,
    EVENT_EQUILIBRIUM,
)


def _decode(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"document is not valid UTF-8: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a repeated key is an error, not an override."""
    members = dict(pairs)
    if len(members) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"invalid JSON: object repeats the key {key!r}")
            seen.add(key)
    return members


def _load_json(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from None
    except (ValueError, RecursionError) as exc:
        # an integer past the interpreter's digit limit, or nesting past the
        # recursion limit
        raise ParseError(f"invalid JSON: {exc}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _check_version(doc: dict, what: str) -> None:
    version = doc.get("format_version")
    _require(
        isinstance(version, int)
        and not isinstance(version, bool)
        and version == FORMAT_VERSION,
        f"{what} must carry format_version {FORMAT_VERSION}, got {version!r}",
    )


def _int_field(value, what: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), f"{what} must be an integer")
    return value


def _int_tuple(values: list, what: str, *args) -> tuple[int, ...]:
    """The entries of a JSON array that must all be integers (bool is a type of its own).

    Errors name ``what.format(*args)``, which is formatted only on failure.
    """
    if set(map(type, values)) <= {int}:
        return tuple(values)
    return tuple(_int_field(v, what.format(*args)) for v in values)


def _parse_rank(raw, names: Sequence[str], player: int) -> RankFunction:
    m = len(names)
    if isinstance(raw, list):
        _require(
            len(raw) == 1 << m,
            f"player {player} dense rank table has length {len(raw)}, expected {1 << m}",
        )
        return _rank_table(_int_tuple(raw, "player {} rank entry", player), player)
    _require(isinstance(raw, dict), f"player {player} rank must be an array or a map")
    index = {name: r for r, name in enumerate(names)}
    table = [None] * (1 << m)
    table[0] = 0
    keys: dict[int, str] = {}  # the key that named each subset
    for key, value in raw.items():
        _require(isinstance(key, str), f"player {player} rank keys must be strings")
        mask = 0
        if key:
            for part in key.split(","):
                _require(
                    part in index,
                    f"player {player} rank key {key!r} names unknown resource {part!r}",
                )
                bit = 1 << index[part]
                _require(
                    not mask & bit,
                    f"player {player} rank key {key!r} repeats resource {part!r}",
                )
                mask |= bit
        if mask in keys:
            raise ParseError(
                f"player {player} rank keys {keys[mask]!r} and {key!r} "
                f"name the same subset"
            )
        keys[mask] = key
        table[mask] = _int_field(value, f"player {player} rank value for {key!r}")
    for mask in range(1, 1 << m):
        if table[mask] is None:
            label = ",".join(names[r] for r in range(m) if mask >> r & 1)
            raise ParseError(
                f"player {player} rank map is missing the subset {{{label}}}"
            )
    return _rank_table(tuple(table), player)


def _rank_table(values: tuple[int, ...], player: int) -> RankFunction:
    """RankFunction(values) for ints, its entry-range errors naming the player."""
    try:
        return RankFunction._of_ints(values)
    except MalformedInputError as exc:
        raise MalformedInputError(f"player {player} {exc}") from None


def parse_instance(data: bytes | str) -> GameInstance:
    """Parse and fully validate an instance document.

    Raises ParseError with a position for syntax problems, and
    ValidationError with witness data for semantic ones (rank properties,
    cost-table requirements, infeasible demands).
    """
    doc = _load_json(_decode(data))
    _require(isinstance(doc, dict), "instance document must be a JSON object")
    _check_version(doc, "instance document")
    names_raw = doc.get("resources")
    _require(
        isinstance(names_raw, list) and all(isinstance(s, str) for s in names_raw),
        "resources must be a list of names",
    )
    names = tuple(names_raw)
    _require(len(set(names)) == len(names), "resource names must be unique")
    # checked before any rank table of 2**m entries is allocated
    _require(
        len(names) <= MAX_RESOURCES,
        f"instance names {len(names)} resources, more than the cap of {MAX_RESOURCES}",
    )
    players = doc.get("players")
    _require(isinstance(players, list), "players must be a list")
    known = set(names)
    demands: list[int] = []
    ranks: list[RankFunction] = []
    costs: list[tuple[CostTable, ...]] = []
    for i, entry in enumerate(players):
        _require(isinstance(entry, dict), f"player {i} entry must be an object")
        demands.append(_int_field(entry.get("demand"), f"player {i} demand"))
        ranks.append(_parse_rank(entry.get("rank"), names, i))
        cost_map = entry.get("costs")
        _require(isinstance(cost_map, dict), f"player {i} costs must be a map")
        # checks run per cost table build their messages only when they fail
        if not cost_map.keys() <= known:
            unknown = sorted(set(cost_map) - known)
            raise ParseError(f"player {i} costs name unknown resources {unknown}")
        row = []
        for name in names:
            if name not in cost_map:
                raise ParseError(f"player {i} costs are missing resource {name!r}")
            values = cost_map[name]
            if not isinstance(values, list):
                raise ParseError(f"player {i} cost table for {name!r} must be an array")
            entries = _int_tuple(values, "player {} cost entry on {!r}", i, name)
            row.append(CostTable._of_ints(entries))
        costs.append(tuple(row))
    return GameInstance(names, tuple(demands), tuple(ranks), tuple(costs))


def write_instance(g: GameInstance) -> bytes:
    doc = {
        "format_version": FORMAT_VERSION,
        "resources": list(g.resources),
        "players": [
            {
                "demand": g.demands[i],
                "rank": list(g.ranks[i].values),
                "costs": {
                    name: list(g.costs[i][r].values)
                    for r, name in enumerate(g.resources)
                },
            }
            for i in range(g.n)
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def write_profile(g: GameInstance, p: Profile) -> bytes:
    """The bytes of ``json.dumps(doc, indent=2)``, built from names encoded once.

    The profile must hold one strategy per player of ``g``.
    """
    _check_fit(g, p)
    loads = p.loads(g.m)
    keys = [f"{_encode(name)}: " for name in g.resources]

    def counts(values, indent: str) -> str:
        if not keys:
            return "{}"
        entries = f",\n{indent}  ".join(map(str.__add__, keys, map(str, values)))
        return f"{{\n{indent}  {entries}\n{indent}}}"

    players = ",\n".join(
        f'    {{\n      "strategy": {counts(p.strategies[i], "      ")},\n'
        f'      "cost": {private_cost(g, p, i)}\n    }}'
        for i in range(g.n)
    )
    if players:
        players = f"[\n{players}\n  ]"
    return (
        f'{{\n  "format_version": {FORMAT_VERSION},\n  "players": {players or "[]"},\n'
        f'  "loads": {counts(loads, "  ")}\n}}\n'
    ).encode("utf-8")


def parse_profile(data: bytes | str, g: GameInstance) -> Profile:
    """Parse a profile document and validate it against the instance.

    Strategy maps may omit resources (treated as zero); unknown names are an
    error. The result is checked to lie in every player's base polyhedron.
    """
    doc = _load_json(_decode(data))
    _require(isinstance(doc, dict), "profile document must be a JSON object")
    _check_version(doc, "profile document")
    players = doc.get("players")
    _require(isinstance(players, list), "players must be a list")
    _require(
        len(players) == g.n,
        f"profile has {len(players)} players, instance has {g.n}",
    )
    index = {name: r for r, name in enumerate(g.resources)}
    strategies = []
    for i, entry in enumerate(players):
        _require(isinstance(entry, dict), f"player {i} entry must be an object")
        strategy_map = entry.get("strategy")
        _require(isinstance(strategy_map, dict), f"player {i} strategy must be a map")
        counts = [0] * g.m
        for name, value in strategy_map.items():
            _require(
                name in index,
                f"player {i} strategy names unknown resource {name!r}",
            )
            counts[index[name]] = _int_field(value, f"player {i} count on {name!r}")
        strategies.append(tuple(counts))
    profile = Profile(tuple(strategies))
    g.check_profile(profile)
    return profile


def write_trace(g: GameInstance, trace: Trace) -> bytes:
    header = {
        "kind": "header",
        "format_version": FORMAT_VERSION,
        "resources": list(g.resources),
        "players": g.n,
    }
    lines = [json.dumps(header, separators=(",", ":"))]
    # the encoded fragment of each event kind, player, unit (1..max(demands))
    # and resource (None as null), refusing a value the game does not have;
    # outer, inner and the marginal entries are written as is, so ints only
    kinds = {kind: _encode(kind) for kind in _EVENT_KINDS}
    players = {None: "null", **{i: str(i) for i in range(g.n)}}
    top = max(g.demands, default=0)
    units = {None: "null", **{k: str(k) for k in range(1, top + 1)}}
    names = {None: "null", **dict(enumerate(map(_encode, g.resources)))}
    marginal, joined, ints = (), "", {int}

    def refused(value: object, what: str) -> MalformedInputError:
        k = len(lines) - 1  # the header, then one line per event written
        return MalformedInputError(
            f"trace event {k} holds {value!r}, which is {what}: {trace.events[k]}"
        )

    try:
        # each event is a named tuple, unpacked in field order
        for kind, outer, inner, player, unit, source, target, over, marginal_sorted in (
            trace.events
        ):
            if type(outer) is not int or type(inner) is not int:
                raise refused(inner if type(outer) is int else outer, "not an int")
            if marginal_sorted is not marginal:
                if not set(map(type, marginal_sorted)) <= ints:
                    value = next(v for v in marginal_sorted if type(v) is not int)
                    raise refused(value, "not an int")
                marginal = marginal_sorted
                joined = ",".join(map(str, marginal))
            lines.append(
                f'{{"kind":{kinds[kind]},"outer":{outer},"inner":{inner},'
                f'"player":{players[player]},"unit":{units[unit]},'
                f'"from":{names[source]},"to":{names[target]},'
                f'"overloaded":{names[over]},"marginal":[{joined}]}}'
            )
    except KeyError as exc:
        what = "no event kind, player, unit or resource index of the game"
        raise refused(exc.args[0], what) from None
    return ("\n".join(lines) + "\n").encode("utf-8")


def check_trace(data: bytes | str) -> tuple[int, int]:
    """Check the reported marginal vectors of a trace document decrease.

    Verifies that within each insertion the sorted marginal vector of every
    improvement move is strictly lexicographically below its predecessor's.
    It reads the trace alone and trusts the vectors the solver reported: it
    neither replays the moves nor recomputes a vector from an instance.
    Returns (insertions seen, improvement moves checked); raises
    InvariantError on the first violated decrease and ParseError on
    malformed input.
    """
    text = _decode(data)
    lines = [line for line in text.split("\n") if line]
    _require(bool(lines), "trace document is empty")
    header = _load_json(lines[0])
    _require(
        isinstance(header, dict) and header.get("kind") == "header",
        "trace must start with a header line",
    )
    _check_version(header, "trace header")
    insertions = 0
    moves = 0
    current_outer: int | None = None
    previous: tuple[int, ...] | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        record = _load_json(line)
        _require(isinstance(record, dict), f"trace line {lineno} must be an object")
        kind = record.get("kind")
        _require(kind in _EVENT_KINDS, f"trace line {lineno} has unknown kind {kind!r}")
        outer = _int_field(record.get("outer"), f"trace line {lineno} outer")
        marginal = record.get("marginal")
        _require(
            isinstance(marginal, list),
            f"trace line {lineno} must carry a marginal vector",
        )
        snapshot = tuple(_int_field(v, "marginal entry") for v in marginal)
        if kind == EVENT_GREEDY_EXTEND:
            insertions += 1
            current_outer = outer
            previous = snapshot
        elif kind == EVENT_IMPROVEMENT_MOVE:
            _require(
                current_outer == outer and previous is not None,
                f"trace line {lineno}: improvement move before its insertion",
            )
            if not snapshot < previous:
                raise InvariantError(
                    f"trace line {lineno}: sorted marginal vector did not strictly "
                    f"decrease ({previous} -> {snapshot})"
                )
            moves += 1
            previous = snapshot
    return insertions, moves
