"""Equilibrium computation by unit-by-unit demand insertion.

Demands enter one unit at a time. Each insertion raises the load of exactly
one resource; after it, a sequence of single-unit best-response moves lets
the players touching that resource settle again. Across those moves the
sorted vector of per-unit marginal costs strictly decreases
lexicographically, which bounds the run; the decrease, the locality of each
move, and the iteration bounds are asserted on every solve.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import sub
from typing import Iterator, NamedTuple, Sequence

from .bestresponse import SwapStep, _best_exchange, _cheapest_addition
from .bestresponse import is_best_response, repair_best_response
from .errors import ContractError, CostTableRangeError, InvariantError
from .errors import MalformedInputError
from .game import GameInstance, Profile, _check_fit, induced_weights
from .rank import _SlackWords, _checked_vector, _index, _integers
from .rank import enumerate_base, tight_sets

__all__ = [
    "SolverPolicy",
    "Trace",
    "TraceEvent",
    "compute_pne",
    "improving_players",
    "insertion_step_bound",
    "iteration_bound",
    "marginal_vector",
]

PLAYER_SELECTION_MODES = ("min_index", "round_robin", "seeded_random")

EVENT_DEMAND_INCREASE = "demand_increase"
EVENT_GREEDY_EXTEND = "greedy_extend"
EVENT_IMPROVEMENT_MOVE = "improvement_move"
EVENT_EQUILIBRIUM = "equilibrium_reached"


@dataclass(frozen=True)
class SolverPolicy:
    """How the solver breaks its one genuinely free choice, plus self-check depth.

    ``min_index`` (default) inserts a player's whole demand before the next
    player starts; ``round_robin`` deals units out cyclically;
    ``seeded_random`` draws the next player from a seeded generator.
    ``debug_assertions`` adds the expensive checks, once per state: every
    player with a unit is tested from fresh weights by
    :func:`improving_players`, each improvable one required to hold a unit on
    the overloaded resource; the first of them must have been optimal one
    unit earlier, by enumeration; and the solve's mover search must pick it
    with the exchange :func:`repair_best_response` derives for it.
    """

    player_selection: str = "min_index"
    seed: int | None = None
    debug_assertions: bool = False

    def __post_init__(self) -> None:
        if self.player_selection not in PLAYER_SELECTION_MODES:
            raise MalformedInputError(
                f"unknown player selection {self.player_selection!r}; "
                f"expected one of {PLAYER_SELECTION_MODES}"
            )
        if self.seed is not None:
            (seed,) = _integers((self.seed,), "seeds")
            object.__setattr__(self, "seed", seed)


class TraceEvent(NamedTuple):
    """One step of a solve; resource fields are indices into the instance's list.

    A named tuple, which the solve loop builds positionally, in field order.
    """

    kind: str
    outer: int
    inner: int
    player: int | None = None
    unit: int | None = None
    from_resource: int | None = None
    to_resource: int | None = None
    overloaded: int | None = None
    marginal_sorted: tuple[int, ...] = ()


@dataclass(frozen=True)
class Trace:
    events: tuple[TraceEvent, ...]

    def improvement_moves(self) -> tuple[TraceEvent, ...]:
        return tuple(e for e in self.events if e.kind == EVENT_IMPROVEMENT_MOVE)

    def moves_per_insertion(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.events:
            if e.kind == EVENT_IMPROVEMENT_MOVE:
                out[e.outer] = out.get(e.outer, 0) + 1
        return out


def marginal_vector(
    g: GameInstance,
    strategies: Sequence[Sequence[int]],
    overloaded: int | None = None,
) -> tuple[int, ...]:
    """Marginal costs of every placed unit under the two-case rule, non-increasing.

    ``strategies`` holds one count vector over ``g``'s resources per player;
    the loads are their per-resource sums. Units on the overloaded resource are priced as the
    saving of removing one own unit at the current load; units elsewhere as
    the saving of removing one own unit after the load there grows by one.
    All units one player keeps on one resource share a value. The sorted
    tuple is the quantity that must shrink lexicographically across
    improvement moves.
    """
    if len(strategies) != g.n:
        raise MalformedInputError(f"{len(strategies)} strategies for {g.n} players")
    strategies = [_checked_vector(s, g.m, "strategy counts") for s in strategies]
    if overloaded is not None:
        overloaded = _index(overloaded, g.m, "resource")
    loads = tuple(map(sum, zip(*strategies)))
    marginals: list[int] = []
    for i, strategy in enumerate(strategies):
        for r, own in enumerate(strategy):
            if own == 0:
                continue
            values = g.costs[i][r].values
            k = loads[r] + (r != overloaded)  # the load the unit is priced at
            if k >= len(values):
                raise CostTableRangeError(
                    f"load {k} outside cost table of length {len(values)}"
                    if r == overloaded
                    else f"player {i} cost table on resource {r} covers loads up to "
                    f"{len(values) - 1}, marginal evaluation needs {k}"
                )
            marginals += repeat(values[k] * own - values[k - 1] * (own - 1), own)
    return tuple(sorted(marginals, reverse=True))


def iteration_bound(g: GameInstance) -> int:
    """Global cap on improvement moves across a whole solve, as an exact integer.

    With n players, m resources and peak demand D the bound is
    n**(D+1) * m**D * D**(D+1); zero when every demand is zero.
    """
    delta = max(g.demands, default=0)
    if delta == 0:
        return 0
    return g.n ** (delta + 1) * g.m**delta * delta ** (delta + 1)


def insertion_step_bound(g: GameInstance) -> int:
    """Cap on improvement moves following any single demand insertion.

    Sums, per player, the number of distinct marginal-cost vectors the
    player can exhibit: (m * d_i) ** d_i.
    """
    return sum((g.m * d) ** d for d in g.demands)


def improving_players(g: GameInstance, p: Profile) -> list[int]:
    """Players whose strategy is not currently a best response, ascending index.

    Every player with a unit is tested by :func:`is_best_response`.
    """
    _check_fit(g, p)
    return [i for i in range(g.n) if not is_best_response(g, p, i)]


def _check_state(
    g: GameInstance,
    p: Profile,
    over: int,
    kept: tuple[int, ...],
    sats: Sequence[int],
    found: tuple[int | None, SwapStep | None],
) -> None:
    """Debug check of one state: the kept marginals, each sat(x) and the search.

    The kept marginal vector must equal :func:`marginal_vector` recomputed
    from the strategies, and each player's kept sat(x) must be the one a
    :func:`~polynash.rank.tight_sets` pass finds for x inside the polytope.
    Every player is then tested by :func:`improving_players`; by the
    locality lemma each improvable one must hold a unit on ``over``, the
    one resource whose load rose since every player was a best response.
    The extra unit on ``over`` must be an opponent's of the first of them,
    which must have been optimal one unit earlier, as
    :func:`~polynash.rank.enumerate_base` confirms under its pre-shift
    weights, and the search must find it with the exchange of its
    :func:`repair_best_response`, fresh from the instance.
    """
    marginals = marginal_vector(g, p.strategies, over)
    if kept != marginals:
        raise InvariantError(
            f"kept marginal vector {kept} is not the recomputed {marginals}; "
            f"strategies={list(p.strategies)} overloaded={over}"
        )
    for i, (x, sat) in enumerate(zip(p.strategies, sats)):
        tight = tight_sets(g.ranks[i], x)
        if not tight.feasible or tight.saturated != sat:
            raise InvariantError(
                f"player {i} keeps sat(x) {sat} at x={x}, a tight-set pass gives "
                f"{tight.saturated if tight.feasible else 'x outside the polytope'}"
            )
    reference = improving_players(g, p)
    for k in reference:
        if p.strategies[k][over] == 0:
            raise InvariantError(
                f"player {k} can improve without using the overloaded resource "
                f"{over}; strategies={p.strategies} loads={p.loads(g.m)}"
            )
    expected: tuple[int | None, SwapStep | None] = (None, None)
    if reference:
        k = reference[0]
        x = p.strategies[k]
        a = tuple(map(sub, p.loads(g.m), x))
        if a[over] == 0:
            raise InvariantError(
                f"the extra unit on resource {over} belongs to the improvable "
                f"player {k} itself; strategies={list(p.strategies)}"
            )
        pre_shift = induced_weights(g, k, a[:over] + (a[over] - 1,) + a[over + 1 :])
        weight = pre_shift.ideal_weight(x)
        best = min(map(pre_shift.ideal_weight, enumerate_base(g.ranks[k], sum(x))))
        if weight != best:
            raise InvariantError(
                f"mover {k}'s strategy {x} was not minimum-weight before the unit "
                f"on resource {over} (weight {weight}, optimum {best})"
            )
        w = induced_weights(g, k, a)
        expected = (k, repair_best_response(g.ranks[k], x, over, pre_shift, w)[1])
    if found != expected:
        raise InvariantError(
            f"settle search found (player, swap) {found}, the reference scan "
            f"{expected}; strategies={list(p.strategies)} overloaded={over}"
        )


class _SettleState:
    """One solve's position, plus what the solve has worked out about its players.

    The position is ``strategies`` (one count tuple per player), ``loads``
    (their sums), ``homes`` (the resource of each placed unit, per player,
    in placement order) and ``over``, the overloaded resource (None before
    the first insertion). :meth:`insert` and :meth:`move` pick a unit step;
    :meth:`_step` alone changes the position, and updates the kept values
    only where it changed:

    - ``top[i]`` and ``nxt[i]``, player i's prices of its top unit and of
      one more unit per resource: positions x_r and x_r + 1 of
      :func:`~polynash.game.induced_weights` at the load there (None where
      there is no such position);
    - the marginal values of the placed units (see :func:`marginal_vector`)
      as one ascending list, which each step changes only in the groups it
      reprices;
    - one slack word per player (see :class:`~polynash.rank._SlackWords`),
      which each step moves by one unit and which refuses a step out of the
      player's polytope; ``sat[i]`` is the player's sat(x).
    """

    def __init__(self, g: GameInstance) -> None:
        self.g = g
        self.strategies: list[tuple[int, ...]] = [(0,) * g.m] * g.n
        self.loads = [0] * g.m
        self.homes: list[list[int]] = [[] for _ in range(g.n)]
        self.over: int | None = None
        # per resource, each player who can hold units there: (player, costs, cap)
        self._chains = [
            [
                (i, g.costs[i][r].values, cap)
                for i, (f, d) in enumerate(zip(g.ranks, g.demands))
                if (cap := min(f.values[1 << r], d))
            ]
            for r in range(g.m)
        ]
        # one slack word per player, at x = 0, where sat(0) need not be empty
        self._words = _SlackWords(g.ranks, self.strategies)
        self.sat = self._words.sat
        self.top: list[list[int | None]] = [[None] * g.m for _ in range(g.n)]
        self.nxt: list[list[int | None]] = [[None] * g.m for _ in range(g.n)]
        for r in range(g.m):
            self._reprice(r)
        self._marginals: list[int] = []  # ascending, one entry per placed unit

    def _reprice(self, r: int) -> None:
        """Every player's two prices on resource r, at its current load."""
        load, strategies, top, nxt = self.loads[r], self.strategies, self.top, self.nxt
        # a player who can hold nothing on r keeps its two None prices there
        for i, c, cap in self._chains[r]:
            own = strategies[i][r]
            here = c[load]
            top[i][r] = own * here - (own - 1) * c[load - 1] if own else None
            nxt[i][r] = (own + 1) * c[load + 1] - own * here if own < cap else None

    def _step(self, i: int, from_r: int | None, to_r: int) -> int:
        """Move player i's unit from ``from_r`` (None: a new unit) to ``to_r``.

        ``from_r``, if given, differs from ``to_r``, which becomes ``over``.
        Returns the unit's index. Raises ContractError, before anything
        changes, if the step leaves player i's polytope.
        """
        marginals, strategies, loads = self._marginals, self.strategies, self.loads
        over, costs, x = self.over, self.g.costs[i], list(strategies[i])
        x[to_r] += 1
        # the groups the step reprices: the mover's own on to_r and from_r,
        # and for an insertion every group on the old over, which is priced
        # one load higher once it is no longer over (the mover's on to_r once)
        groups = [(i, to_r, costs[to_r].values)]
        if from_r is not None:
            x[from_r] -= 1
            groups.append((i, from_r, costs[from_r].values))
        elif over is not None:
            for j, c, _ in self._chains[over]:
                if strategies[j][over] and (j != i or over != to_r):
                    groups.append((j, over, c))
        if not self._words.step(i, to_r, from_r):
            raise ContractError(f"count vector {tuple(x)} lies outside the polytope")
        # a group's value is priced at load index L + [r != over]: take out
        # the changed groups' values before the step, put them back after it
        for j, r, c in groups:
            if own := strategies[j][r]:
                k = loads[r] + (r != over)
                at = bisect_left(marginals, own * c[k] - (own - 1) * c[k - 1])
                del marginals[at : at + own]
        homes = self.homes[i]
        loads[to_r] += 1
        if from_r is None:
            unit = len(homes)
            homes.append(to_r)
        else:
            loads[from_r] -= 1
            unit = homes.index(from_r)
            homes[unit] = to_r
        strategies[i], self.over = tuple(x), to_r
        for r in (to_r,) if from_r is None else (from_r, to_r):
            self._reprice(r)
        for j, r, c in groups:
            if own := strategies[j][r]:
                k = loads[r] + (r != to_r)
                value = own * c[k] - (own - 1) * c[k - 1]
                at = bisect_left(marginals, value)
                marginals[at:at] = [value] * own
        return unit

    def marginals(self) -> tuple[int, ...]:
        """The marginal values of all placed units, non-increasing."""
        return tuple(reversed(self._marginals))

    def insert(self, i: int) -> int:
        """Place player i's cheapest feasible extra unit; return its resource."""
        r = _cheapest_addition(self.nxt[i], self.sat[i])
        self._step(i, None, r)
        return r

    def exchange(self, i: int) -> SwapStep | None:
        """Player i's best improving exchange against the others' loads, or None."""
        return _best_exchange(self.strategies[i], self.top[i], self.nxt[i], self._words, i)

    def first_move(self, over: int) -> tuple[int, SwapStep] | tuple[None, None]:
        """The first holder of ``over`` by index with an improving exchange, and it."""
        strategies = self.strategies
        # only a player who can hold units on over is in its chain list
        for i, _, _ in self._chains[over]:
            if strategies[i][over] and (swap := self.exchange(i)) is not None:
                return i, swap
        return None, None

    def move(self, j: int, from_r: int, to_r: int) -> int:
        """Move a unit of player j from ``from_r``, the old ``over``, to ``to_r``.

        Only player j's two groups change value. Returns the unit's index.
        """
        return self._step(j, from_r, to_r)


def _insertion_order(policy: SolverPolicy, demands: tuple[int, ...]) -> Iterator[int]:
    """The player who receives each demand unit, in insertion order."""
    if policy.player_selection == "min_index":
        for i, d in enumerate(demands):
            yield from repeat(i, d)
        return
    if policy.player_selection == "round_robin":
        # pass k gives one unit to each player, by index, whose demand exceeds k
        for level in range(max(demands, default=0)):
            yield from (i for i, d in enumerate(demands) if d > level)
        return
    left, rng = list(demands), random.Random(0 if policy.seed is None else policy.seed)
    for _ in range(sum(demands)):
        i = rng.choice([k for k, d in enumerate(left) if d])
        left[i] -= 1
        yield i


def compute_pne(
    g: GameInstance, policy: SolverPolicy | None = None
) -> tuple[Profile, Trace]:
    """Insert all demand units and settle after each one; returns an equilibrium.

    The returned profile makes every player's strategy a best response. The
    trace records every insertion and every improvement move together with
    the sorted marginal-cost vector after it. The solve's position lives in
    one settle state; a ``Profile`` is built for the result and, under
    ``debug_assertions``, for each state's reference check.
    """
    policy = policy or SolverPolicy()
    events: list[TraceEvent] = []
    total_moves = 0
    total_cap = iteration_bound(g)
    step_cap = insertion_step_bound(g)
    settle = _SettleState(g)
    strategies = settle.strategies
    # a TraceEvent of all nine fields, in order, without the named tuple's
    # Python-level __new__
    event = partial(tuple.__new__, TraceEvent)

    for outer, i in enumerate(_insertion_order(policy, g.demands), 1):
        settled = tuple(settle.loads)
        over = settle.insert(i)
        unit = len(settle.homes[i])
        snapshot = settle.marginals()
        events.append(
            event((EVENT_DEMAND_INCREASE, outer, 0, i, unit, None, None, None, ()))
        )
        events.append(
            event((EVENT_GREEDY_EXTEND, outer, 0, i, unit, None, over, over, snapshot))
        )
        inner = 0
        while True:
            # the first improvable holder moves by the exchange that shows it
            j, swap = settle.first_move(over)
            if policy.debug_assertions:
                p = Profile(tuple(strategies))
                _check_state(g, p, over, snapshot, settle.sat, (j, swap))
            if swap is None:
                break
            inner += 1
            total_moves += 1
            # the always-on move invariants
            if settle.loads[over] == strategies[j][over]:
                raise InvariantError(
                    f"the extra unit on resource {over} belongs to the mover "
                    f"{j} itself; strategies={strategies}"
                )
            from_r, to_r = swap.remove[0], swap.add[0]
            if from_r != over:
                raise InvariantError(
                    f"improvement move leaves resource {from_r}, expected the "
                    f"overloaded resource {over}"
                )
            if inner > step_cap:
                raise InvariantError(
                    f"improvement moves after insertion {outer} exceeded the bound "
                    f"{step_cap}"
                )
            if total_moves > total_cap:
                raise InvariantError(
                    f"total improvement moves exceeded the bound {total_cap}"
                )
            unit = settle.move(j, from_r, to_r) + 1
            loads = tuple(map(sum, zip(*strategies)))
            if loads != settled[:to_r] + (settled[to_r] + 1,) + settled[to_r + 1 :]:
                raise InvariantError(
                    f"loads {loads} are not the settled loads {settled} "
                    f"plus one unit on resource {to_r}"
                )
            if list(loads) != settle.loads:
                raise InvariantError(
                    f"tracked loads {tuple(settle.loads)} are not the loads "
                    f"{loads} summed from the strategies"
                )
            over = to_r
            nxt = settle.marginals()
            if not nxt < snapshot:
                raise InvariantError(
                    "sorted marginal vector failed to strictly decrease: "
                    f"{snapshot} -> {nxt}"
                )
            events.append(
                event((EVENT_IMPROVEMENT_MOVE, outer, inner, j, unit, from_r, to_r, over, nxt))
            )
            snapshot = nxt
        events.append(
            event((EVENT_EQUILIBRIUM, outer, inner, None, None, None, None, over, snapshot))
        )
    return Profile(tuple(strategies)), Trace(tuple(events))
