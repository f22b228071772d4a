"""Instance families: free-split games, matroid games, and seeded random games.

All generation is deterministic per seed. Every construction funnels through
GameInstance, so generated instances are always fully validated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import GenerationError, InvariantError, MalformedInputError
from .game import CostTable, GameInstance, find_ssc_violation
from .rank import MAX_RESOURCES as MAX_TABLE_RESOURCES
from .rank import RankFunction, _integers, validate_rank

__all__ = [
    "MatroidSpec",
    "gen_matroid_game",
    "gen_random",
    "gen_singleton",
    "random_convex_table",
    "random_rank",
]

COST_FAMILIES = ("convex_nondecreasing", "truncated_ssc")
MAX_PLAYERS = 10
MAX_RESOURCES = 10
MAX_DEMAND = 8
RETRY_BUDGET = 64


def _block_counts(
    blocks: Sequence[Sequence[int]], caps: Sequence[int]
) -> Callable[[int], int]:
    """The partition rank U -> sum over disjoint blocks B of min(|U & B|, cap_B)."""
    masks = []
    for b in blocks:
        bits = 0
        for r in b:
            bits |= 1 << r
        masks.append(bits)
    pairs = tuple(zip(masks, caps))
    return lambda mask: sum(min((mask & b).bit_count(), cap) for b, cap in pairs)


def _forest_size(edges: Iterable[tuple[int, int]]) -> int:
    """Edges in a spanning forest of a multigraph: union-find with path halving."""
    parent: dict = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = v = parent[parent[v]]
        return v

    size = 0
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            size += 1
    return size


@dataclass(frozen=True)
class MatroidSpec:
    """One player's matroid over the resource list.

    Resources map to the ground set by index. ``uniform`` takes any set of
    at most ``rank`` resources; ``partition`` caps each block of resources
    separately; ``graphic`` treats resource j as edge j of a multigraph
    (self-loops allowed, contributing nothing). Ranks, block resources, caps
    and edge endpoints must be integers (1.0 and True are converted, 1.9 and
    "1" refused), and each edge a pair. Every induced rank table is
    subcardinal, so single-resource capacities never exceed one.
    """

    kind: str
    rank: int | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None
    caps: tuple[int, ...] | None = None
    edges: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def uniform(cls, rank: int) -> "MatroidSpec":
        (rank,) = _integers((rank,), "uniform ranks")
        if rank < 0:
            raise MalformedInputError("uniform rank must be nonnegative")
        return cls(kind="uniform", rank=rank)

    @classmethod
    def partition(
        cls, blocks: Sequence[Sequence[int]], caps: Sequence[int]
    ) -> "MatroidSpec":
        blocks = tuple(_integers(b, "block resources") for b in blocks)
        caps = _integers(caps, "block caps")
        if len(blocks) != len(caps):
            raise MalformedInputError("one cap per block required")
        if any(c < 0 for c in caps):
            raise MalformedInputError("block caps must be nonnegative")
        seen: set[int] = set()
        for b in blocks:
            for r in b:
                if r in seen:
                    raise MalformedInputError(f"resource {r} appears in two blocks")
                seen.add(r)
        return cls(kind="partition", blocks=blocks, caps=caps)

    @classmethod
    def graphic(cls, edges: Sequence[Sequence[int]]) -> "MatroidSpec":
        edges = tuple(_integers(e, "edge endpoints") for e in edges)
        for e in edges:
            if len(e) != 2:
                raise MalformedInputError(f"graphic edges must be vertex pairs, got {e}")
        return cls(kind="graphic", edges=edges)

    def rank_table(self, m: int) -> RankFunction:
        f = RankFunction(tuple(map(self._rank_of(m), range(1 << m))))
        for mask in range(1 << m):
            if f.values[mask] > mask.bit_count():
                raise InvariantError(
                    f"matroid rank table is not subcardinal at mask {mask}"
                )
        return f

    def _rank_of(self, m: int) -> Callable[[int], int]:
        """Check the spec against m resources; return its rank as a function of a mask."""
        # checked before any of the 2**m entries is evaluated
        if not 0 <= m <= MAX_TABLE_RESOURCES:
            raise MalformedInputError(
                f"matroid resource count must be in [0, {MAX_TABLE_RESOURCES}], got {m}"
            )
        if self.kind == "uniform":
            return lambda mask: min(mask.bit_count(), self.rank)
        if self.kind == "partition":
            for b in self.blocks:
                for r in b:
                    if not 0 <= r < m:
                        raise MalformedInputError(f"block resource {r} out of range")
            return _block_counts(self.blocks, self.caps)
        if self.kind == "graphic":
            if len(self.edges) != m:
                raise MalformedInputError(
                    f"graphic matroid has {len(self.edges)} edges, expected {m}"
                )
            return lambda mask: _forest_size(
                e for r, e in enumerate(self.edges) if mask >> r & 1
            )
        raise MalformedInputError(f"unknown matroid kind {self.kind!r}")


def gen_singleton(
    resource_sets: Sequence[Sequence[int]],
    demands: Sequence[int],
    costs: Sequence[Sequence[Sequence[int]]],
    resource_names: Sequence[str] | None = None,
) -> GameInstance:
    """Game where each player splits a demand freely over a private resource subset.

    Player i's rank table is d_i on every subset touching their set and 0
    elsewhere, so any split of d_i over the allowed resources is feasible.
    Demands and resource indices must be integers (1.0 and True are
    converted, 1.9 and "1" refused), and demands nonnegative.
    """
    n = len(demands)
    if n == 0 or len(resource_sets) != n or len(costs) != n:
        raise MalformedInputError("need one resource set and cost row per player")
    m = len(costs[0])
    # checked before any of the 2**m entries is built
    if m > MAX_TABLE_RESOURCES:
        raise MalformedInputError(
            f"resource count must be at most {MAX_TABLE_RESOURCES}, got {m}"
        )
    names = _resource_names(m, resource_names)
    demands = _singleton_demands(demands)
    ranks = []
    for i in range(n):
        allowed = 0
        for r in _integers(resource_sets[i], "resource indices"):
            if not 0 <= r < m:
                raise MalformedInputError(f"player {i} resource index {r} out of range")
            allowed |= 1 << r
        if allowed == 0:
            raise MalformedInputError(f"player {i} has an empty resource set")
        values = tuple(
            demands[i] if mask & allowed else 0 for mask in range(1 << m)
        )
        ranks.append(RankFunction(values))
    return GameInstance(names, demands, tuple(ranks), tuple(tuple(row) for row in costs))


def _singleton_demands(demands: Sequence[int]) -> tuple[int, ...]:
    """Demands as ints by the rule of :func:`~polynash.rank._integers`, each nonnegative.

    Checked before a demand fills a table: a rank table, or a cost table as
    long as the total demand.
    """
    demands = _integers(demands, "demands")
    for i, d in enumerate(demands):
        if d < 0:
            raise MalformedInputError(f"player {i} has negative demand {d}")
    return demands


def gen_matroid_game(
    specs: Sequence[MatroidSpec],
    costs: Sequence[Sequence[Sequence[int]]],
    resource_names: Sequence[str] | None = None,
) -> GameInstance:
    """Game whose strategies are the bases of player-specific matroids.

    Demands are pinned to each matroid's full rank. Because matroid rank
    tables are subcardinal, every chain has length at most one and merely
    nondecreasing cost tables already validate.
    """
    n = len(specs)
    if n == 0 or len(costs) != n:
        raise MalformedInputError("need one matroid and one cost row per player")
    m = len(costs[0])
    names = _resource_names(m, resource_names)
    ranks = tuple(spec.rank_table(m) for spec in specs)
    demands = tuple(f.rank_of_all for f in ranks)
    return GameInstance(names, demands, ranks, tuple(tuple(row) for row in costs))


def matroid_total_demand(specs: Sequence[MatroidSpec], m: int) -> int:
    """Sum of full ranks; the cost-table length needed is this plus one.

    Evaluates each rank on the full resource set only, so no table is built.
    """
    return sum(spec._rank_of(m)((1 << m) - 1) for spec in specs)


def _resource_names(
    m: int, resource_names: Sequence[str] | None
) -> tuple[str, ...]:
    if resource_names is None:
        return tuple(f"r{k}" for k in range(m))
    names = tuple(str(s) for s in resource_names)
    if len(names) != m:
        raise MalformedInputError(f"{len(names)} resource names for {m} resources")
    return names


def random_rank(rng: random.Random, m: int, max_chain: int = 3) -> RankFunction:
    """Random normalized monotone submodular table with full rank at least one.

    Builds a valid table (a concave function of the subset size plus capped
    block counts, truncated by a random ceiling), then tries a few random
    single-entry nudges, keeping each only if the table still validates.
    """
    if m < 1:
        raise MalformedInputError("need at least one resource")
    if max_chain < 1:
        raise MalformedInputError("max_chain must be positive")
    inc = rng.randint(1, max_chain)
    concave = [0]
    for _ in range(m):
        concave.append(concave[-1] + inc)
        inc = rng.randint(0, inc)
    order = list(range(m))
    rng.shuffle(order)
    blocks: list[list[int]] = []
    idx = 0
    while idx < m:
        size = rng.randint(1, min(3, m - idx))
        blocks.append(order[idx : idx + size])
        idx += size
    caps = [rng.randint(1, max_chain) for _ in blocks]
    ceiling = rng.randint(1, concave[m] + sum(caps))
    blocked = _block_counts(blocks, caps)
    f = RankFunction(
        tuple(
            min(concave[mask.bit_count()] + blocked(mask), ceiling)
            for mask in range(1 << m)
        )
    )
    nudged_valid = False  # an accepted nudge has just validated f
    for _ in range(rng.randint(0, 3)):
        mask = rng.randrange(1, 1 << m)
        nudged = list(f.values)
        nudged[mask] += rng.choice((-1, 1))
        if nudged[mask] < 0:
            continue
        trial = RankFunction(tuple(nudged))
        if trial.rank_of_all >= 1 and validate_rank(trial) is None:
            f, nudged_valid = trial, True
    assert nudged_valid or validate_rank(f) is None
    return f


def random_convex_table(rng: random.Random, length: int) -> CostTable:
    """Convex nondecreasing table; values stay at most 100 for length <= 10.

    Starts at a value in [0, 3] with a first step in [0, 2]; each later step
    grows by 0 or 1.
    """
    if length < 1:
        raise MalformedInputError("cost table length must be positive")
    value = rng.randint(0, 3)
    step = rng.randint(0, 2)
    out = [value]
    for _ in range(length - 1):
        value += step
        out.append(value)
        step += rng.randint(0, 1)
    return CostTable(tuple(out))


def _random_walk_table(rng: random.Random, length: int) -> CostTable:
    """Nondecreasing table: a start in [0, 3], then steps in [0, 3]."""
    values = [rng.randint(0, 3)]
    for _ in range(length - 1):
        values.append(values[-1] + rng.randint(0, 3))
    return CostTable(tuple(values))


def _random_ssc_table(
    rng: random.Random, length: int, u: int, budget: int = RETRY_BUDGET
) -> CostTable:
    """Nondecreasing table passing the u-truncated load-sensitivity check.

    Draws alternate between convex tables (which always pass) and free
    nondecreasing walks rejection-tested against the check, so non-convex
    specimens do occur.
    """
    for _ in range(budget):
        if rng.random() < 0.5:
            candidate = random_convex_table(rng, length)
        else:
            candidate = _random_walk_table(rng, length)
        if find_ssc_violation(candidate, u) is None:
            return candidate
    raise GenerationError(
        f"no load-sensitive table found in {budget} draws (length {length}, usage {u})"
    )


# each cost family's draw of one table from (rng, length, usage cap); only the
# truncated_ssc draw reads the cap, the player's most units on the resource
_FAMILY_DRAWS: dict[str, Callable[[random.Random, int, int | None], CostTable]] = {
    "convex_nondecreasing": lambda rng, length, u: random_convex_table(rng, length),
    "truncated_ssc": _random_ssc_table,
    "nondecreasing": lambda rng, length, u: _random_walk_table(rng, length),
}


def _random_costs(
    rng: random.Random,
    family: str,
    length: int,
    n: int,
    m: int,
    caps: Sequence[Sequence[int]] | None = None,
) -> tuple[tuple[CostTable, ...], ...]:
    """n rows of m tables of one length from a cost family, drawn row by row.

    ``caps[i][r]``, player i's usage cap on resource r, is read by the
    truncated_ssc draw only, which needs it.
    """
    draw = _FAMILY_DRAWS[family]
    return tuple(
        tuple(draw(rng, length, caps[i][r] if caps else None) for r in range(m))
        for i in range(n)
    )


def gen_random(
    seed: int,
    n: int,
    m: int,
    max_demand: int,
    cost_family: str = "convex_nondecreasing",
) -> GameInstance:
    """Seed-deterministic valid instance with randomized polymatroid constraints.

    Demands are uniform in [1, min(max_demand, full rank)] per player.
    ``cost_family`` picks how tables are drawn: convex nondecreasing ones
    (always load-sensitive), or tables rejection-sampled directly against
    the truncated load-sensitivity check (non-convex specimens allowed).
    The seed and the sizes must be integers (1.0 and True are converted, 1.9
    and "1" refused).
    """
    seed, n, m, max_demand = _integers((seed, n, m, max_demand), "seeds and sizes")
    if not 1 <= n <= MAX_PLAYERS:
        raise MalformedInputError(f"player count must be in [1, {MAX_PLAYERS}]")
    if not 1 <= m <= MAX_RESOURCES:
        raise MalformedInputError(f"resource count must be in [1, {MAX_RESOURCES}]")
    if not 1 <= max_demand <= MAX_DEMAND:
        raise MalformedInputError(f"max demand must be in [1, {MAX_DEMAND}]")
    if cost_family not in COST_FAMILIES:
        raise MalformedInputError(
            f"unknown cost family {cost_family!r}; expected one of {COST_FAMILIES}"
        )
    rng = random.Random(seed)
    ranks = [random_rank(rng, m, max_chain=max_demand) for _ in range(n)]
    demands = [rng.randint(1, min(max_demand, f.rank_of_all)) for f in ranks]
    caps = [[f.values[1 << r] for r in range(m)] for f in ranks]
    costs = _random_costs(rng, cost_family, sum(demands) + 1, n, m, caps)
    return GameInstance(_resource_names(m, None), tuple(demands), tuple(ranks), costs)
