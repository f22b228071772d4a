"""Exact best responses as minimum-weight chain ideals.

A strategy of one player is an ideal of their chain ground set, and under
the induced per-element weights its total weight equals the player's
private cost. Best responses are therefore minimum-weight ideals of a fixed
size: built greedily from scratch, extended by one element when the demand
grows, and repaired by one swap when the weights of a single chain rise.
The solver's settle state runs the same addition and exchange loops.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import ContractError, InfeasibleTruncationError, MalformedInputError
from .game import GameInstance, Profile, WeightedGround, _check_fit, induced_weights
from .rank import (
    RankFunction,
    _SlackWords,
    _check_demand,
    _checked_vector,
    _integers,
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
    above r is feasible iff r lies outside sat(counts). A count vector
    already outside the polytope has no feasible addition.
    """
    counts = _checked_vector(counts, f.m)
    tight = tight_sets(f, counts)
    if not tight.feasible:
        return []
    return [(r, c + 1) for r, c in enumerate(counts) if tight.can_add(r)]


def _row_prices(
    rows: Sequence[Sequence[int]], counts: tuple[int, ...]
) -> tuple[list[int | None], list[int | None]]:
    """Each chain's top held weight and next free weight, None where there is none."""
    return (
        [row[c - 1] if c else None for row, c in zip(rows, counts)],
        [row[c] if c < len(row) else None for row, c in zip(rows, counts)],
    )


def _cheapest_addition(nxt: Sequence[int | None], sat: int) -> int:
    """Resource of the cheapest feasible next chain position, lowest index on ties.

    ``nxt[r]`` prices the next free position on r (None when the chain is
    full); ``sat`` is sat(x) of a vector x inside the polytope, and one
    more unit fits on r iff r is outside it.
    Raises InfeasibleTruncationError when no chain can take a unit.
    """
    best: tuple[int, int] | None = None  # (weight, resource)
    for r, wt in enumerate(nxt):
        if wt is not None and not sat >> r & 1 and (best is None or wt < best[0]):
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
    d = _check_demand(f, d)
    _require_coverage(f, w, d)
    counts = (0,) * f.m
    words = _SlackWords((f,), (counts,))
    for _ in range(d):
        r = _cheapest_addition(_row_prices(w.weights, counts)[1], words.sat[0])
        words.step(0, r)  # r lies outside sat(x), so the step stays inside
        counts = counts[:r] + (counts[r] + 1,) + counts[r + 1 :]
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
    sat = _SlackWords((f,), (counts,)).sat[0]  # ContractError for counts outside
    r = _cheapest_addition(_row_prices(w.weights, counts)[1], sat)
    return counts[:r] + (counts[r] + 1,) + counts[r + 1 :]


def local_improvement(
    f: RankFunction, counts: Sequence[int], w: WeightedGround
) -> SwapStep | None:
    """Best single exchange that lowers the weight, or None when counts is optimal.

    ``counts`` must lie inside the polytope of f; a vector outside it raises
    ContractError. For such a vector None is reliable: an ideal that is not
    minimum-weight at its size always admits an improving exchange. Among
    improving exchanges the one with the largest saving wins; ties go to the
    lowest removal resource index, then the lowest addition resource index.
    A unit can move from r to s iff s lies outside sat(x - e_r), which lies
    within sat(x); see :class:`~polynash.rank.TightSets`.
    """
    counts = _checked_vector(counts, f.m)
    words = _SlackWords((f,), (counts,))  # ContractError for counts outside
    _require_coverage(f, w, sum(counts))
    return _best_exchange(counts, *_row_prices(w.weights, counts), words, 0)


def _best_exchange(
    counts: tuple[int, ...],
    top: Sequence[int | None],
    nxt: Sequence[int | None],
    words: _SlackWords,
    i: int,
) -> SwapStep | None:
    """The exchange loop of :func:`local_improvement`, on two prices per chain.

    ``top[r]`` prices the highest position ``counts`` holds on r (None when
    it holds none), ``nxt[r]`` the next free one (None when the chain is
    full). Word i of ``words`` holds x = ``counts`` inside the polytope;
    an exchange onto s in sat(x) is decided by sat(x - e_r), read off the
    word at most once per r.
    """
    sat = words.sat[i]
    gain, best = 0, None  # the largest saving so far, and its (r, s)
    for r, w_out in enumerate(top):
        if w_out is None:
            continue
        less = None  # sat(x - e_r), once an exchange needs it
        for s, w_s in enumerate(nxt):
            # an exchange that does not beat the best saving needs no capacity test
            if w_s is None or w_out - w_s <= gain or s == r:
                continue
            if sat >> s & 1:
                if less is None:
                    less = words.sat_less(i, r)
                if less >> s & 1:
                    continue
            gain, best = w_out - w_s, (r, s)
    if best is None:
        return None
    r, s = best
    # without the named tuple's Python-level __new__
    return tuple.__new__(SwapStep, ((r, counts[r]), (s, counts[s] + 1), gain))


def _check_shift_structure(
    shifted_resource: int, w_old: WeightedGround, w_new: WeightedGround
) -> None:
    if len(w_old.weights) != len(w_new.weights):
        raise ContractError("old and new weights cover different resource counts")
    if type(shifted_resource) is not int:
        (shifted_resource,) = _integers((shifted_resource,), "resource indices")
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
) -> tuple[tuple[int, ...], SwapStep | None]:
    """Restore a minimum-weight ideal after the weights of one chain rise.

    The input must be minimum-weight under ``w_old``, and ``w_new`` may raise
    weights only on ``shifted_resource``'s chain, with no position overtaking
    the old weight of the position above it (the exact pattern produced when
    one more opponent unit lands on that resource). Either the input is still
    optimal (returned unchanged) or the feasible exchange with the largest
    saving moves exactly one unit off the shifted chain and restores
    optimality, so the result is at count-vector Hamming distance 0 or 2.
    """
    counts = _checked_vector(counts, f.m)
    _check_shift_structure(shifted_resource, w_old, w_new)
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
    i = _check_fit(g, p, i)
    x = p.strategies[i]
    if sum(x) == 0:
        return True
    loads = p.loads(g.m)
    a = tuple(loads[r] - x[r] for r in range(g.m))
    return local_improvement(g.ranks[i], x, induced_weights(g, i, a)) is None
