"""Exact best responses as minimum-weight chain ideals.

A strategy of one player is an ideal of their chain ground set, and under
the induced per-element weights its total weight equals the player's
private cost. Best responses are therefore minimum-weight ideals of a fixed
size: built greedily from scratch, extended by one element when the demand
grows, and repaired by one swap when the weights of a single chain rise.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Sequence

from .errors import ContractError, InfeasibleTruncationError, MalformedInputError
from .game import GameInstance, Profile, WeightedGround, induced_weights
from .rank import (
    RankFunction,
    TightSets,
    _check_demand,
    _checked_vector,
    enumerate_base,
    tight_sets,
)

__all__ = [
    "SwapStep",
    "extend_best_response",
    "feasible_additions",
    "is_best_response",
    "local_improvement",
    "ordered_greedy",
    "repair_best_response",
]


class SwapStep(NamedTuple):
    """One improving exchange: drop the top of one chain prefix, extend another.

    ``remove`` and ``add`` are (resource, position) chain elements;
    ``improvement`` is the strictly positive weight decrease.
    """

    remove: tuple[int, int] | None
    add: tuple[int, int] | None
    improvement: int


def _require_coverage(f: RankFunction, w: WeightedGround, demand: int) -> None:
    if len(w.weights) != f.m:
        raise MalformedInputError(
            f"weights cover {len(w.weights)} resources, rank function has {f.m}"
        )
    for r in range(f.m):
        need = min(f.singleton(r), demand)
        if w.length(r) < need:
            raise MalformedInputError(
                f"weights cover only {w.length(r)} of the {need} chain positions "
                f"reachable on resource {r} at demand {demand}"
            )


def feasible_additions(f: RankFunction, counts: Sequence[int]) -> list[tuple[int, int]]:
    """Chain elements whose addition keeps every subset capacity satisfied.

    Candidates are the next free position of each chain. One
    :func:`~polynash.rank.tight_sets` pass decides them all: the position
    above r is feasible iff r lies outside every tight set. A count vector
    already outside the polytope has no feasible addition.
    """
    counts = _checked_vector(counts, f.m)
    tight = tight_sets(f, counts)
    if not tight.feasible:
        return []
    return [(r, c + 1) for r, c in enumerate(counts) if tight.can_add(r)]


def _extend_once(
    f: RankFunction, w: WeightedGround, counts: tuple[int, ...]
) -> tuple[int, ...]:
    tight = _tight_inside(f, counts)
    r = _cheapest_addition(_row_prices(w.weights, counts)[1], tight)
    return counts[:r] + (counts[r] + 1,) + counts[r + 1 :]


def _row_prices(
    rows: Sequence[Sequence[int]], counts: tuple[int, ...]
) -> tuple[list[int | None], list[int | None]]:
    """Each chain's top held weight and next free weight, None where there is none."""
    return (
        [row[c - 1] if c else None for row, c in zip(rows, counts)],
        [row[c] if c < len(row) else None for row, c in zip(rows, counts)],
    )


def _cheapest_addition(nxt: Sequence[int | None], tight: TightSets) -> int:
    """Resource of the cheapest feasible next chain position, lowest index on ties.

    ``nxt[r]`` prices the next free position on r (None when the chain is
    full); ``tight`` holds the tight sets of a vector inside the polytope.
    Raises InfeasibleTruncationError when no chain can take a unit.
    """
    best: tuple[int, int] | None = None  # (weight, resource)
    for r, wt in enumerate(nxt):
        if wt is not None and tight.can_add(r) and (best is None or wt < best[0]):
            best = (wt, r)
    if best is None:
        raise InfeasibleTruncationError(
            "no feasible addition exists; the demand exceeds the ground rank"
        )
    return best[1]


def ordered_greedy(f: RankFunction, d: int, w: WeightedGround) -> tuple[int, ...]:
    """Minimum-weight ideal with exactly d elements, one cheapest element at a time.

    Every intermediate prefix of size k is itself minimum-weight among the
    ideals of size k. Ties go to the lowest resource index.
    """
    _check_demand(f, d)
    _require_coverage(f, w, d)
    counts = (0,) * f.m
    for _ in range(d):
        counts = _extend_once(f, w, counts)
    return counts


def extend_best_response(
    f: RankFunction, w: WeightedGround, counts: Sequence[int]
) -> tuple[int, ...]:
    """Grow a minimum-weight ideal by one element, staying minimum-weight.

    The input must be minimum-weight at its own size; adding the cheapest
    feasible chain element (lowest resource index on ties) is then optimal
    at size + 1, so the result differs in exactly one coordinate by +1.
    """
    counts = _checked_vector(counts, f.m)
    d = sum(counts)
    _check_demand(f, d + 1)
    _require_coverage(f, w, d + 1)
    return _extend_once(f, w, counts)


def local_improvement(
    f: RankFunction, counts: Sequence[int], w: WeightedGround
) -> SwapStep | None:
    """Best single exchange that lowers the weight, or None when counts is optimal.

    ``counts`` must lie inside the polytope of f; a vector outside it raises
    ContractError. For such a vector None is reliable: an ideal that is not
    minimum-weight at its size always admits an improving exchange. Among
    improving exchanges the one with the largest saving wins; ties go to the
    lowest removal resource index, then the lowest addition resource index.
    One :func:`~polynash.rank.tight_sets` pass decides every exchange: a unit
    can move from r to s iff s is unsaturated or r lies in the smallest
    tight set containing s.
    """
    counts = _checked_vector(counts, f.m)
    tight = _tight_inside(f, counts)
    _require_coverage(f, w, sum(counts))
    return _best_exchange(counts, *_row_prices(w.weights, counts), tight)


def _tight_inside(f: RankFunction, x: tuple[int, ...]) -> TightSets:
    """Tight sets of x, which must lie in the polytope of f (ContractError otherwise)."""
    tight = tight_sets(f, x)
    if not tight.feasible:
        raise ContractError(f"count vector {x} lies outside the polytope")
    return tight


def _best_exchange(
    counts: tuple[int, ...],
    top: Sequence[int | None],
    nxt: Sequence[int | None],
    tight: TightSets,
) -> SwapStep | None:
    """The exchange loop of :func:`local_improvement`, on two prices per chain.

    ``top[r]`` prices the highest position ``counts`` holds on r (None when
    it holds none), ``nxt[r]`` the next free one (None when the chain is
    full). ``tight`` holds the tight sets of ``counts``, inside the polytope.
    """
    gain, best = 0, None  # the largest saving so far, and its (r, s)
    for r, w_out in enumerate(top):
        if w_out is None:
            continue
        for s, w_s in enumerate(nxt):
            # an exchange that does not beat the best saving needs no tight-set test
            if (
                w_s is not None
                and w_out - w_s > gain
                and s != r
                and tight.can_exchange(r, s)
            ):
                gain, best = w_out - w_s, (r, s)
    if best is None:
        return None
    r, s = best
    return SwapStep((r, counts[r]), (s, counts[s] + 1), gain)


class _SettleState:
    """One solve's position, plus what the solve has worked out about its players.

    The position is ``strategies`` (one count tuple per player), ``loads``
    (their per-resource sums), ``homes`` (the resource of each placed unit,
    per player, in placement order) and ``over``, the overloaded resource
    (None before the first insertion). Only :meth:`insert` and :meth:`move`
    change it, each in two coordinates at most. Each of them updates two
    kept values only where the position changed:

    - ``top[i]`` and ``nxt[i]``, player i's two prices per resource, both
      from the cost table at the current load L: x_r units on r price their
      top unit at x_r * c(L) - (x_r - 1) * c(L - 1) (None when x_r = 0) and
      one more at (x_r + 1) * c(L + 1) - x_r * c(L) (None at ``chain_cap``).
      They are positions x_r and x_r + 1 of
      :func:`~polynash.game.induced_weights`, whose range and order checks
      cannot fail on a validated instance. They depend on r's load and the
      player's own count there, so a changed load re-prices, on that
      resource alone, every player who can hold units there.
    - The marginal values of the placed units (see
      :func:`~polynash.solver.marginal_vector`), kept as one ascending list.
      The units one player keeps on one resource form a group sharing a
      value, priced at load index L + [r != over]. A move off ``over``
      keeps that index for every group but the mover's two; an insertion
      raises it for the groups on the old ``over`` and changes the
      inserter's group.

    Each player's last (x, tight sets) is kept as well, and replaced when a
    lookup brings a new x; the polytope check runs when that entry is built.
    Insertions and the mover search read it.
    """

    def __init__(self, g: GameInstance) -> None:
        self.g = g
        self.strategies: list[tuple[int, ...]] = [(0,) * g.m] * g.n
        self.loads = [0] * g.m
        self.homes: list[list[int]] = [[] for _ in range(g.n)]
        self.over: int | None = None
        self._values = [[t.values for t in row] for row in g.costs]
        # per resource, each player who can hold units there: (player, costs, cap)
        self._chains = [
            [
                (i, g.costs[i][r].values, cap)
                for i in range(g.n)
                if (cap := g.chain_cap(i, r))
            ]
            for r in range(g.m)
        ]
        self._tight: list[tuple[tuple[int, ...], TightSets] | None] = [None] * g.n
        self.top: list[list[int | None]] = [[None] * g.m for _ in range(g.n)]
        self.nxt: list[list[int | None]] = [[None] * g.m for _ in range(g.n)]
        for r in range(g.m):
            self._reprice(r)
        # each (player, resource) group's marginal value, None when empty
        self._groups: list[list[int | None]] = [[None] * g.m for _ in range(g.n)]
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

    def _drop(self, groups: list[tuple[int, int]]) -> None:
        """Take the units of each (player, resource) group out of the kept marginals."""
        marginals = self._marginals
        for i, r in groups:
            value = self._groups[i][r]
            if value is not None:
                at = bisect_left(marginals, value)
                del marginals[at : at + self.strategies[i][r]]

    def _place(self, groups: list[tuple[int, int]]) -> None:
        """Price each (player, resource) group at the current position and keep it."""
        marginals, loads, over = self._marginals, self.loads, self.over
        for i, r in groups:
            own = self.strategies[i][r]
            value = None
            if own:
                c = self._values[i][r]
                k = loads[r] + (r != over)  # the load the group is priced at
                value = own * c[k] - (own - 1) * c[k - 1]
                at = bisect_left(marginals, value)
                marginals[at:at] = [value] * own
            self._groups[i][r] = value

    def marginals(self) -> tuple[int, ...]:
        """The marginal values of all placed units, non-increasing."""
        return tuple(reversed(self._marginals))

    def tight(self, i: int, x: tuple[int, ...]) -> TightSets:
        """Tight sets of player i's strategy x, which must lie in its polytope."""
        kept = self._tight[i]
        if kept is not None and kept[0] == x:
            return kept[1]
        tight = _tight_inside(self.g.ranks[i], x)
        self._tight[i] = (x, tight)
        return tight

    def insert(self, i: int) -> int:
        """Place player i's cheapest feasible extra unit; return its resource.

        The resource becomes ``over``.
        """
        x = self.strategies[i]
        r = _cheapest_addition(self.nxt[i], self.tight(i, x))
        # the groups on the old overloaded resource and the inserter's on r
        over, changed = self.over, []
        if over is not None:
            changed = [(k, over) for k, y in enumerate(self.strategies) if y[over]]
        if over != r or not x[r]:
            changed.append((i, r))
        self._drop(changed)
        self.strategies[i] = x[:r] + (x[r] + 1,) + x[r + 1 :]
        self.loads[r] += 1
        self.homes[i].append(r)
        self.over = r
        self._reprice(r)
        self._place(changed)
        return r

    def exchange(self, i: int) -> SwapStep | None:
        """Player i's best improving exchange against the others' loads, or None."""
        x = self.strategies[i]
        return _best_exchange(x, self.top[i], self.nxt[i], self.tight(i, x))

    def first_move(self, over: int) -> tuple[int, SwapStep] | tuple[None, None]:
        """The first holder of ``over`` by index with an improving exchange, and it."""
        for i, x in enumerate(self.strategies):
            if x[over]:
                swap = self.exchange(i)
                if swap is not None:
                    return i, swap
        return None, None

    def move(self, j: int, from_r: int, to_r: int) -> int:
        """Move a unit of player j from ``from_r`` to ``to_r``; return its index.

        ``to_r`` becomes ``over``. ``from_r`` must be the old ``over``: then
        only player j's groups on the two resources change value.
        """
        changed = [(j, from_r)] if from_r == to_r else [(j, from_r), (j, to_r)]
        self._drop(changed)
        moved = list(self.strategies[j])
        moved[from_r] -= 1
        moved[to_r] += 1
        self.strategies[j] = tuple(moved)
        self.loads[from_r] -= 1
        self.loads[to_r] += 1
        unit = self.homes[j].index(from_r)
        self.homes[j][unit] = to_r
        self.over = to_r
        self._reprice(from_r)
        self._reprice(to_r)
        self._place(changed)
        return unit


def _check_shift_structure(
    shifted_resource: int, w_old: WeightedGround, w_new: WeightedGround
) -> None:
    if len(w_old.weights) != len(w_new.weights):
        raise ContractError("old and new weights cover different resource counts")
    if not 0 <= shifted_resource < len(w_old.weights):
        raise ContractError(f"shifted resource {shifted_resource} out of range")
    for r, (old_row, new_row) in enumerate(zip(w_old.weights, w_new.weights)):
        if len(old_row) != len(new_row):
            raise ContractError(f"chain length changed on resource {r}")
        if r != shifted_resource:
            if old_row != new_row:
                raise ContractError(
                    f"weights changed on resource {r}, but only resource "
                    f"{shifted_resource} may shift"
                )
            continue
        for t in range(len(old_row)):
            if new_row[t] < old_row[t]:
                raise ContractError(
                    f"shifted chain weight dropped at position {t + 1}: "
                    f"{old_row[t]} -> {new_row[t]}"
                )
            if t + 1 < len(old_row) and new_row[t] > old_row[t + 1]:
                raise ContractError(
                    f"shifted chain weight at position {t + 1} ({new_row[t]}) "
                    f"overtakes the old weight of position {t + 2} ({old_row[t + 1]})"
                )


def repair_best_response(
    f: RankFunction,
    counts: Sequence[int],
    shifted_resource: int,
    w_old: WeightedGround,
    w_new: WeightedGround,
    *,
    verify_input_optimal: bool = False,
) -> tuple[tuple[int, ...], SwapStep | None]:
    """Restore a minimum-weight ideal after the weights of one chain rise.

    The input must be minimum-weight under ``w_old``, and ``w_new`` may raise
    weights only on ``shifted_resource``'s chain, with no position overtaking
    the old weight of the position above it (the exact pattern produced when
    one more opponent unit lands on that resource). Either the input is still
    optimal (returned unchanged) or the feasible exchange with the largest
    saving moves exactly one unit off the shifted chain and restores
    optimality, so the result is at count-vector Hamming distance 0 or 2.

    ``verify_input_optimal`` re-checks the optimality precondition by
    exhaustive enumeration; intended for debugging at desk scale.
    """
    counts = _checked_vector(counts, f.m)
    _check_shift_structure(shifted_resource, w_old, w_new)
    if verify_input_optimal:
        best = min(w_old.ideal_weight(x) for x in enumerate_base(f, sum(counts)))
        if w_old.ideal_weight(counts) != best:
            raise ContractError(
                f"input ideal {counts} is not minimum-weight under the pre-shift "
                f"weights (has {w_old.ideal_weight(counts)}, optimum is {best})"
            )
    swap = local_improvement(f, counts, w_new)
    if swap is None:
        return counts, None
    repaired = list(counts)
    repaired[swap.remove[0]] -= 1
    repaired[swap.add[0]] += 1
    return tuple(repaired), swap


def is_best_response(g: GameInstance, p: Profile, i: int) -> bool:
    """Whether player i's strategy achieves their optimum against the current loads.

    The player's demand is taken as the size of their current strategy, so
    this works both for finished profiles and for partially inserted ones.
    The strategy must lie inside the player's polytope (ContractError
    otherwise); it is then optimal exactly when no single exchange improves
    it (see :func:`local_improvement`).
    """
    x = p.strategies[i]
    if sum(x) == 0:
        return True
    loads = p.loads(g.m)
    a = tuple(loads[r] - x[r] for r in range(g.m))
    return local_improvement(g.ranks[i], x, induced_weights(g, i, a)) is None
