"""Seeded instance documents for the benchmark's workloads.

Instance ``index`` of a run with seed ``seed`` is a pure function of the
two, so the same seed always gives the same documents and every instance in
a run is distinct. The instance's shape depends on ``index`` alone, so every
run sees the same mix of shapes and seeds change only the random draws.
Generation goes through polynash's own generators, which build (and so
validate) a ``GameInstance`` before it is written out as a document.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from polynash import generators, serialize
from polynash.game import GameInstance

FAMILIES = ("convex_nondecreasing", "truncated_ssc")


def instance_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _wide(seed: int, index: int, quick: bool) -> GameInstance:
    n, m, max_demand = (4, 5, 2) if quick else (4, 8, 3)
    return generators.gen_random(
        instance_seed(seed, index), n, m, max_demand, FAMILIES[index % 2]
    )


def _deep(seed: int, index: int, quick: bool) -> GameInstance:
    n, m, low, high = (3, 3, 2, 4) if quick else (5, 4, 4, 8)
    rng = random.Random(instance_seed(seed, index))
    demands = [rng.randint(low, high) for _ in range(n)]
    sets = [rng.sample(range(m), rng.randint(2, m)) for _ in range(n)]
    length = sum(demands) + 1
    costs = [
        [generators.random_convex_table(rng, length).values for _ in range(m)]
        for _ in range(n)
    ]
    return generators.gen_singleton(sets, demands, costs)


def _tiny(seed: int, index: int, quick: bool) -> GameInstance:
    return generators.gen_random(
        instance_seed(seed, index),
        1 + index % 3,
        1 + index % 4,
        1 + (index // 3) % 3,
        FAMILIES[index % 2],
    )


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int, bool], GameInstance]
    # documents generated by one measured set-up: about half a second of
    # work, so that the median of several set-ups is steady
    setup_documents: int

    def document(self, seed: int, index: int, quick: bool = False) -> bytes:
        return serialize.write_instance(self.make(seed, index, quick))


WORKLOADS = {
    w.name: w
    for w in (
        # The capacity oracle does most of the work: member_polytope scans all
        # 2^8 subsets for every probe of every best-response test.
        Workload("wide", _wide, 16),
        # The oracle is cheap (2^4 subsets) while demands are long: validation
        # (find_ssc_violation on tables as long as the total demand) and the
        # solver loop (one insertion per demand unit) carry the weight.
        Workload("deep", _deep, 24),
        # One to three players on one to four resources: no layer dominates,
        # so per-solve fixed costs (validation, JSON, trace building) show.
        Workload("tiny", _tiny, 800),
    )
}
