"""Brute-force ground truth for small games.

Everything here re-derives feasibility and costs from first principles,
sharing no logic with the greedy or solver code paths, so the two sides can
check each other. Enumerations are capped and fail loudly rather than
sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import le
from typing import Sequence

from .errors import EnumerationTooLargeError, MalformedInputError
from .game import GameInstance, Profile
from .rank import _index

__all__ = [
    "VerificationReport",
    "brute_force_best_response",
    "enumerate_strategies",
    "exhaustive_pne_search",
    "verify_pne",
]

STRATEGY_CAP = 10**6
PROFILE_CAP = 10**7


def _within_capacities(rank_values: tuple[int, ...], x: Sequence[int]) -> bool:
    # standalone re-check of every subset constraint, independent of rank.py:
    # sums[mask] is x's total over mask, each resource doubling the list
    sums = [0]
    for v in x:
        sums += [s + v for s in sums]
    return all(map(le, sums, rank_values))


def enumerate_strategies(g: GameInstance, i: int) -> list[tuple[int, ...]]:
    """Every feasible count vector for player i at their demand, ascending.

    Raises EnumerationTooLargeError past ``STRATEGY_CAP`` strategies.
    """
    i = _index(i, g.n, "player")
    d = g.demands[i]
    values = g.ranks[i].values
    m = g.m
    out: list[tuple[int, ...]] = []

    def walk(r: int, left: int, prefix: list[int]) -> None:
        if r == m:
            if left == 0 and _within_capacities(values, prefix):
                out.append(tuple(prefix))
                if len(out) > STRATEGY_CAP:
                    raise EnumerationTooLargeError(
                        f"player {i} has more than {STRATEGY_CAP} strategies at demand {d}"
                    )
            return
        top = min(values[1 << r], left)
        for v in range(top + 1):
            prefix.append(v)
            walk(r + 1, left - v, prefix)
            prefix.pop()

    walk(0, d, [])
    return out


def _check_profile(g: GameInstance, p: Profile) -> None:
    if (k := len(p.strategies)) != g.n:
        raise MalformedInputError(f"profile has {k} players, instance has {g.n}")


def _cost_against(
    g: GameInstance, i: int, other_loads: Sequence[int], x: Sequence[int]
) -> int:
    return sum(
        g.costs[i][r][other_loads[r] + x[r]] * x[r] for r in range(g.m) if x[r]
    )


def brute_force_best_response(
    g: GameInstance, p: Profile, i: int
) -> tuple[tuple[int, ...], int]:
    """Exhaustive minimum-cost strategy for player i against the rest of a profile.

    Ties resolve to the lexicographically smallest strategy. Returns the
    strategy together with its exact cost.
    """
    _check_profile(g, p)
    i = _index(i, g.n, "player")
    options = enumerate_strategies(g, i)
    loads = p.loads(g.m)
    others = tuple(loads[r] - p.strategies[i][r] for r in range(g.m))
    best: tuple[int, ...] | None = None
    best_cost: int | None = None
    for y in options:
        cost = _cost_against(g, i, others, y)
        if best_cost is None or cost < best_cost:
            best, best_cost = y, cost
    if best is None:
        raise MalformedInputError(f"player {i} has no feasible strategy")
    return best, best_cost


@dataclass(frozen=True)
class VerificationReport:
    """Player-by-player equilibrium audit; is_pne exactly when no violations.

    Each violation is (player, current cost, best achievable cost, one
    witnessing cheaper strategy).
    """

    is_pne: bool
    violations: tuple[tuple[int, int, int, tuple[int, ...]], ...]


def verify_pne(g: GameInstance, p: Profile) -> VerificationReport:
    """Compare every player's bill against their exhaustive optimum."""
    _check_profile(g, p)
    loads = p.loads(g.m)
    violations = []
    for i in range(g.n):
        others = tuple(loads[r] - p.strategies[i][r] for r in range(g.m))
        current = _cost_against(g, i, others, p.strategies[i])
        witness, best = brute_force_best_response(g, p, i)
        if current > best:
            violations.append((i, current, best, witness))
    return VerificationReport(is_pne=not violations, violations=tuple(violations))


def exhaustive_pne_search(g: GameInstance) -> list[Profile]:
    """All pure Nash equilibria, found by checking every joint strategy profile.

    Profiles come back in ascending lexicographic order of their strategy
    tuples.
    """
    per_player = [enumerate_strategies(g, i) for i in range(g.n)]
    total = 1
    for options in per_player:
        total *= len(options)
    if total > PROFILE_CAP:
        raise EnumerationTooLargeError(
            f"{total} joint profiles exceed the cap {PROFILE_CAP}"
        )
    found: list[Profile] = []
    for combo in product(*per_player):
        loads = [sum(x[r] for x in combo) for r in range(g.m)]
        stable = True
        for i in range(g.n):
            others = tuple(loads[r] - combo[i][r] for r in range(g.m))
            current = _cost_against(g, i, others, combo[i])
            for y in per_player[i]:
                if _cost_against(g, i, others, y) < current:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            found.append(Profile(tuple(combo)))
    return found
