"""Independent oracles shared by the test suite.

Everything here re-derives results from the raw definitions (full subset
pair scans, product enumeration of count vectors, direct quadruple scans)
without calling the library code paths it is used to check.
``_rank_violations`` lists every violated local rank inequality, in
increasing order of the base subset; ``validate_rank`` names one of them.
"""

from __future__ import annotations

import json
import random
from collections import deque
from itertools import product
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from polynash import RankFunction


def full_pair_rank_ok(values) -> bool:
    """Rank validity via the unrestricted definitions over every subset pair."""
    if values[0] != 0:
        return False
    size = len(values)
    for u in range(size):
        for v in range(size):
            if u | v == v and values[u] > values[v]:
                return False
            if values[u] + values[v] < values[u | v] + values[u & v]:
                return False
    return True


def _rank_violations(f: RankFunction) -> tuple[tuple[str, int, int], ...]:
    values = f.values
    m = f.m
    violations: list[tuple[str, int, int]] = []
    if values[0] != 0:
        violations.append(("normalized", 0, 0))
    for base in range(len(values)):
        free = [j for j in range(m) if not base >> j & 1]
        for idx, j in enumerate(free):
            with_j = base | 1 << j
            if values[base] > values[with_j]:
                violations.append(("monotone", base, with_j))
            for k in free[idx + 1 :]:
                with_k = base | 1 << k
                if values[with_j] + values[with_k] < values[with_j | with_k] + values[base]:
                    violations.append(("submodular", with_j, with_k))
    return tuple(violations)


def feasible_vectors(values, d) -> list[tuple[int, ...]]:
    """All count vectors summing to d inside every subset capacity (product scan)."""
    m = (len(values) - 1).bit_length()
    axes = [range(values[1 << r] + 1) for r in range(m)]
    out = []
    for x in product(*axes):
        if sum(x) != d:
            continue
        ok = True
        for mask in range(len(values)):
            if sum(x[r] for r in range(m) if mask >> r & 1) > values[mask]:
                ok = False
                break
        if ok:
            out.append(tuple(x))
    return out


def uniform_rank_reference(rank: int, m: int) -> tuple[int, ...]:
    """min(|U|, rank) for every subset U, counting members bit by bit."""
    return tuple(
        min(sum(mask >> r & 1 for r in range(m)), rank) for mask in range(1 << m)
    )


def partition_rank_reference(blocks, caps, m: int) -> tuple[int, ...]:
    """Sum over blocks of min(members of U in the block, cap), bit by bit."""
    return tuple(
        sum(
            min(sum(1 for r in b if mask >> r & 1), cap)
            for b, cap in zip(blocks, caps)
        )
        for mask in range(1 << m)
    )


def graphic_rank_reference(edges) -> tuple[int, ...]:
    """Forest size of every edge subset: vertices touched minus connected components.

    Components are counted by breadth-first search; a self-loop touches its
    vertex and adds nothing.
    """
    m = len(edges)
    out = []
    for mask in range(1 << m):
        neighbours: dict = {}
        for r in range(m):
            if mask >> r & 1:
                a, b = edges[r]
                neighbours.setdefault(a, set()).add(b)
                neighbours.setdefault(b, set()).add(a)
        seen: set = set()
        components = 0
        for start in neighbours:
            if start in seen:
                continue
            components += 1
            seen.add(start)
            queue = deque([start])
            while queue:
                for w in neighbours[queue.popleft()] - seen:
                    seen.add(w)
                    queue.append(w)
        out.append(len(neighbours) - components)
    return tuple(out)


def ideal_weight(weights, counts) -> int:
    return sum(sum(weights[r][:c]) for r, c in enumerate(counts))


def min_weight(values, d, weights) -> tuple[int, list[tuple[int, ...]]]:
    """Exhaustive minimum weight at demand d and every attaining vector."""
    vectors = feasible_vectors(values, d)
    best = min(ideal_weight(weights, x) for x in vectors)
    return best, [x for x in vectors if ideal_weight(weights, x) == best]


def hamming(x, y) -> int:
    return sum(abs(a - b) for a, b in zip(x, y))


def random_admissible_rows(
    rng: random.Random, lengths, start_cap: int = 5, step_cap: int = 4
) -> tuple[tuple[int, ...], ...]:
    """Random nondecreasing weight row per chain."""
    rows = []
    for length in lengths:
        value = rng.randint(0, start_cap)
        row = []
        for _ in range(length):
            row.append(value)
            value += rng.randint(0, step_cap)
        rows.append(tuple(row))
    return tuple(rows)


def ssc_ok(values, u) -> bool:
    """Quadruple scan of the load-sensitivity inequality, written independently."""
    top = len(values) - 1

    def marginal(load, x):
        return values[load + x] * x - values[load + x - 1] * (x - 1)

    for a in range(top + 1):
        for b in range(a, top + 1):
            for x in range(1, u + 1):
                for y in range(x, u + 1):
                    if b + y > top or a + x > top:
                        continue
                    if marginal(a, x) > marginal(b, y):
                        return False
    return True


def neighbour_bills_monotone(values, u) -> bool:
    """Marginal bills nondecreasing between every pair of neighbours in the domain.

    The O(u * L) form of the load-sensitivity check: (a, x) and its
    neighbours (a + 1, x) and (a, x + 1), each kept only when it lies in the
    domain of :func:`ssc_ok`'s quadruples.
    """
    top = len(values) - 1

    def inside(a, x):
        return 1 <= x <= u and a + x <= top

    def bill(a, x):
        return values[a + x] * x - values[a + x - 1] * (x - 1)

    for x in range(1, u + 1):
        for a in range(top + 1):
            if not inside(a, x):
                continue
            for b, y in ((a + 1, x), (a, x + 1)):
                if inside(b, y) and bill(a, x) > bill(b, y):
                    return False
    return True


# shifts that move rank entries across every packed field width (8, 16, 32
# and 64 bits) and onto the bits next to each width's guard bit
SCALE_SHIFTS = (0, 6, 7, 8, 15, 16, 31, 32, 62)


def fitting_shift(values, s: int) -> int:
    """s, lowered as far as needed to keep every entry times 2^s below 2^63."""
    return min(s, 63 - max(values).bit_length())


def bounded_random_rank(rng: random.Random, m: int, full_rank_cap: int, max_chain: int = 3):
    """Seeded valid rank function with full rank in [1, full_rank_cap]."""
    from polynash.generators import random_rank

    while True:
        f = random_rank(rng, m, max_chain=max_chain)
        if f.rank_of_all <= full_rank_cap:
            return f


def shared_pool_instance():
    """Two players, two resources, linear prices; each splits one unit freely."""
    from polynash import GameInstance, RankFunction

    f = RankFunction((0, 1, 1, 1))
    tables = ((0, 1, 2), (0, 1, 2))
    return GameInstance(("a", "b"), (1, 1), (f, f), (tables, tables))


def reference_write_profile(g, p) -> bytes:
    """Profile document bytes from a dict and ``json.dumps(indent=2)``."""
    from polynash.game import private_cost

    loads = p.loads(g.m)
    doc = {
        "format_version": 1,
        "players": [
            {
                "strategy": {
                    name: p.strategies[i][r] for r, name in enumerate(g.resources)
                },
                "cost": private_cost(g, p, i),
            }
            for i in range(g.n)
        ],
        "loads": {name: loads[r] for r, name in enumerate(g.resources)},
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _reference_event_record(g, e) -> dict:
    def name(r):
        return None if r is None else g.resources[r]

    return {
        "kind": e.kind,
        "outer": e.outer,
        "inner": e.inner,
        "player": e.player,
        "unit": e.unit,
        "from": name(e.from_resource),
        "to": name(e.to_resource),
        "overloaded": name(e.overloaded),
        "marginal": list(e.marginal_sorted),
    }


def reference_write_trace(g, trace) -> bytes:
    """Trace document bytes from one dict per line and a compact ``json`` encoder."""
    header = {
        "kind": "header",
        "format_version": 1,
        "resources": list(g.resources),
        "players": g.n,
    }
    encode = json.JSONEncoder(separators=(",", ":")).encode
    lines = [encode(header)]
    lines.extend(encode(_reference_event_record(g, e)) for e in trace.events)
    return ("\n".join(lines) + "\n").encode("utf-8")


def assert_index_rule(call, what: str) -> None:
    """``call`` refuses the index "1" by name and answers 1.0 and True as 1."""
    import pytest

    from polynash import MalformedInputError

    with pytest.raises(MalformedInputError) as err:
        call("1")
    assert str(err.value) == f"{what} must be integers, got '1'"
    assert call(1.0) == call(True) == call(1)
