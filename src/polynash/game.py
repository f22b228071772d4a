"""Game instances: cost tables, eager validation, private cost, induced chain weights.

A game couples players (demand + rank function + per-resource cost tables)
with a shared ordered resource list. Construction validates everything the
solver later relies on: feasible demands, well-formed rank tables, and the
load-sensitivity condition on every cost table. Instances are immutable and
all evaluation is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import gt, mul, sub
from typing import Sequence

from .errors import (
    AdmissibilityError,
    CostTableRangeError,
    MalformedInputError,
    ValidationError,
)
from .rank import RankFunction, _checked_vector, _index, _integers, member_base
from .rank import validate_rank

__all__ = [
    "CostTable",
    "GameInstance",
    "Profile",
    "WeightedGround",
    "check_convex",
    "find_ssc_violation",
    "induced_weights",
    "private_cost",
]


@dataclass(frozen=True)
class CostTable:
    """Per-unit price of a resource as a function of its total load.

    ``values[k]`` is the price charged for each unit a player keeps on the
    resource while the total load is k. Tables must hold integers, and be
    nonnegative and nondecreasing; evaluation past the end is a hard error, never
    extrapolation.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _integers(self.values, "cost table entries"))
        self._check()

    @classmethod
    def _of_ints(cls, values: tuple[int, ...]) -> CostTable:
        """``CostTable(values)`` for a tuple of ints only, with no conversion pass."""
        c = object.__new__(cls)
        object.__setattr__(c, "values", values)
        c._check()
        return c

    def _check(self) -> None:
        """The checks of ``values``, then ``_convex``: first differences nondecreasing.

        ``_convex`` is kept outside the dataclass fields, so equality, hash
        and repr see only values.
        """
        values = self.values
        if not values:
            raise ValidationError("cost table must not be empty", witness=("empty",))
        # nonnegative and nondecreasing together: c[0] >= 0 and every first
        # difference d_k >= 0; one sort gives the least d_k and the convexity
        d = list(map(sub, values[1:], values[:-1]))
        ordered = sorted(d)
        if values[0] < 0 or (d and ordered[0] < 0):
            for k, v in enumerate(values):
                if v < 0:
                    raise ValidationError(
                        f"cost table entry {k} is negative ({v})", witness=("negative", k)
                    )
            for k in range(len(values) - 1):
                if values[k] > values[k + 1]:
                    raise ValidationError(
                        f"cost table decreases between loads {k} and {k + 1} "
                        f"({values[k]} > {values[k + 1]})",
                        witness=("decreasing", k),
                    )
        object.__setattr__(self, "_convex", ordered == d)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, load: int) -> int:
        if type(load) is not int:
            (load,) = _integers((load,), "loads")
        if not 0 <= load < len(self.values):
            raise CostTableRangeError(
                f"load {load} outside cost table of length {len(self.values)}"
            )
        return self.values[load]


def _values_of(c) -> tuple[int, ...]:
    return c.values if isinstance(c, CostTable) else _integers(c, "cost table entries")


def check_convex(c) -> bool:
    """First differences nondecreasing."""
    values = _values_of(c)
    diffs = [values[k + 1] - values[k] for k in range(len(values) - 1)]
    return all(diffs[k] <= diffs[k + 1] for k in range(len(diffs) - 1))


def find_ssc_violation(c, u: int) -> tuple[int, int, int, int] | None:
    """Search for a violation of the load-sensitivity inequality within the table.

    The inequality compares the marginal bill of keeping x units at prior
    load a against keeping y units at prior load b:

        c[a+x]*x - c[a+x-1]*(x-1)  <=  c[b+y]*y - c[b+y-1]*(y-1)

    quantified over 1 <= x <= y <= u and 0 <= a <= b, restricted to the
    quadruples whose table indices exist (b + y inside the table). Returns
    None when it holds, else a violating (a, b, x, y).

    One O(L) pass decides it for a table of length L. The marginal bill must
    be nondecreasing in a along each usage x and in x at each prior load a,
    wherever both neighbours lie in the domain. That is exact, because any
    quadruple is joined inside the domain by the path
    (a, x) -> (a, y) -> (b, y). With k = a + x and d_k = c[k] - c[k-1], the
    two unit steps are

        along a:  x * d_{k+1} - (x - 1) * d_k
        along x:  (x + 1) * d_{k+1} - (x - 1) * d_k

    both linear in x. At each k the step along a runs over usages [1, h],
    h = min(u, k), and the step along x, which is the step along a plus
    d_{k+1}, over part of them. So h * d_{k+1} >= (h - 1) * d_k at every k
    is all there is to check: at k = 1 it reads d_2 >= 0, and by induction
    it gives d_{k+1} >= 0, the step along a at x = 1, at every k.

    A rejected table's witness is that step at the smallest k where the
    check fails: (a, b, x, y) = (k - h, k - h + 1, h, h). So the table cut
    to ``values[:k+1]`` is accepted, and cut to ``values[:k+2]`` it is not.

    A convex table with d_1 >= 0 is accepted without the pass: there
    h * d_{k+1} >= h * d_k >= (h - 1) * d_k at every k.
    """
    values = _values_of(c)
    if type(u) is not int:
        (u,) = _integers((u,), "usage caps")
    if u < 1 or len(values) < 3:
        return None
    # d[k - 1] = c[k] - c[k - 1]; a list, as a tuple built from a map is
    # shrunk after allocation and, once freed, kept by the interpreter in the
    # free list of its new size, so these would pile up (1.8 MB per 20,000)
    d = list(map(sub, values[1:], values[:-1]))
    if d[0] >= 0 and not any(map(gt, d, d[1:])):
        return None
    return _ssc_pass(d, u)


def _ssc_pass(d: Sequence[int], u: int) -> tuple[int, int, int, int] | None:
    """The O(L) pass of :func:`find_ssc_violation` on the first differences ``d``.

    ``d[k - 1]`` is c[k] - c[k - 1], for a table of at least three entries
    and u >= 1.
    """
    # the step sits at k = a + x in [1, top - 1]
    top = len(d)
    h = min(u, top - 1)
    tops = chain(range(1, h + 1), repeat(u, top - 1 - h))
    below = chain(range(h), repeat(u - 1, top - 1 - h))
    drops = map(gt, map(mul, below, d[:-1]), map(mul, tops, d[1:]))
    k = next(compress(range(1, top), drops), None)
    if k is None:
        return None
    h = min(u, k)
    return (k - h, k - h + 1, h, h)


@dataclass(frozen=True)
class WeightedGround:
    """Element weights on per-resource chains, nondecreasing along every chain.

    ``weights[r][t-1]`` is the weight of position t on resource r's chain.
    Weights must be integers (1.0 and True are converted, 1.9 and "1"
    refused). The nondecreasing requirement along each chain is what makes
    the greedy ideal construction exact, so it is asserted at construction.
    """

    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(_integers(row, "weights") for row in self.weights)
        object.__setattr__(self, "weights", rows)
        for r, row in enumerate(rows):
            _check_chain(r, row)

    def length(self, r: int) -> int:
        return len(self.weights[_index(r, len(self.weights), "resource")])

    def ideal_weight(self, counts: Sequence[int]) -> int:
        """Total weight of the ideal taking the first counts[r] positions per chain."""
        counts = _checked_vector(counts, len(self.weights))
        total = 0
        for r, c in enumerate(counts):
            if c > len(self.weights[r]):
                raise MalformedInputError(
                    f"count {c} outside resource {r}'s chain of length "
                    f"{len(self.weights[r])}"
                )
            total += sum(self.weights[r][:c])
        return total


@dataclass(frozen=True)
class Profile:
    """One count vector per player; loads are the per-resource sums.

    Counts must be nonnegative integers (1.0 and True are converted, 1.9 and
    "1" refused). The loads are summed once, at construction, and kept
    outside the dataclass fields, so equality, hashing and repr see only the
    strategies.
    """

    strategies: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        strategies = tuple(_integers(s, "strategy counts") for s in self.strategies)
        object.__setattr__(self, "strategies", strategies)
        if len(set(map(len, strategies))) > 1:
            raise MalformedInputError("strategies must all have the same length")
        if min(chain.from_iterable(strategies), default=0) < 0:
            raise MalformedInputError("strategies must be nonnegative")
        object.__setattr__(self, "_loads", tuple(map(sum, zip(*strategies))))

    def loads(self, m: int | None = None) -> tuple[int, ...]:
        if m is not None and type(m) is not int:
            (m,) = _integers((m,), "resource counts")
        if not self.strategies:
            if m is None:
                raise MalformedInputError("resource count needed for an empty profile")
            return (0,) * m
        width = len(self.strategies[0])
        if m is not None and m != width:
            raise MalformedInputError(f"profile is over {width} resources, expected {m}")
        return self._loads


@dataclass(frozen=True)
class GameInstance:
    """A fully validated game.

    ``resources`` fixes the bitmask bit order and every tie-breaking index.
    Validation is eager: rank tables must be normalized/monotone/submodular,
    demands integral and feasible, and every cost table nonnegative, nondecreasing, and
    load-sensitive up to that player's single-resource capacity.
    """

    resources: tuple[str, ...]
    demands: tuple[int, ...]
    ranks: tuple[RankFunction, ...]
    costs: tuple[tuple[CostTable, ...], ...]

    def __post_init__(self) -> None:
        resources = tuple(str(name) for name in self.resources)
        demands = _integers(self.demands, "demands")
        ranks = tuple(
            f if isinstance(f, RankFunction) else RankFunction(tuple(f))
            for f in self.ranks
        )
        costs = tuple(
            tuple(t if isinstance(t, CostTable) else CostTable(tuple(t)) for t in row)
            for row in self.costs
        )
        object.__setattr__(self, "resources", resources)
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "costs", costs)
        self._validate()

    def _validate(self) -> None:
        if len(set(self.resources)) != len(self.resources):
            raise ValidationError("resource names must be unique", witness=("names",))
        n, m = len(self.demands), len(self.resources)
        if len(self.ranks) != n or len(self.costs) != n:
            raise ValidationError(
                f"{n} demands but {len(self.ranks)} rank tables and "
                f"{len(self.costs)} cost rows",
                witness=("shape",),
            )
        for i, d in enumerate(self.demands):
            if d < 0:
                raise ValidationError(
                    f"player {i} has negative demand {d}", witness=("demand", i)
                )
        total = self.total_demand
        # strategy-space constraints first: they are independent of the total
        # demand, which the cost-table requirements below derive from
        for i in range(n):
            f = self.ranks[i]
            if f.m != m:
                raise ValidationError(
                    f"player {i} rank table covers {f.m} resources, expected {m}",
                    witness=("rank_shape", i),
                )
            violation = validate_rank(f)
            if violation is not None:
                prop, u, v = violation
                raise ValidationError(
                    f"player {i} rank table is not {prop}: "
                    f"witness subsets {{{self.subset_label(u)}}} and "
                    f"{{{self.subset_label(v)}}}",
                    witness=("rank", i, prop, u, v),
                )
            if self.demands[i] > f.rank_of_all:
                raise ValidationError(
                    f"player {i} demand {self.demands[i]} exceeds the rank "
                    f"{f.rank_of_all} of the full resource set",
                    witness=("infeasible_demand", i),
                )
        for i in range(n):
            f = self.ranks[i]
            if len(self.costs[i]) != m:
                raise ValidationError(
                    f"player {i} has {len(self.costs[i])} cost tables, expected {m}",
                    witness=("cost_shape", i),
                )
            for r, table in enumerate(self.costs[i]):
                if len(table.values) <= total:
                    raise ValidationError(
                        f"player {i} cost table on {self.resources[r]!r} has length "
                        f"{len(table)}, need at least {total + 1} to cover the total "
                        f"demand",
                        witness=("cost_length", i, r),
                    )
                # a convex table passes at every usage cap without the pass
                u = f.values[1 << r]
                if not table._convex and (quad := find_ssc_violation(table, u)):
                    a, b, x, y = quad
                    raise ValidationError(
                        f"player {i} cost table on {self.resources[r]!r} is not "
                        f"load-sensitive up to usage {u}: violated at prior loads "
                        f"a={a}, b={b} with usages x={x}, y={y}",
                        witness=("ssc", i, r, quad),
                    )

    @property
    def n(self) -> int:
        return len(self.demands)

    @property
    def m(self) -> int:
        return len(self.resources)

    @property
    def total_demand(self) -> int:
        return sum(self.demands)

    def subset_label(self, mask: int) -> str:
        """The names of the resources in the subset ``mask``, comma-separated."""
        if type(mask) is not int:
            (mask,) = _integers((mask,), "subset masks")
        if not 0 <= mask < 1 << self.m:
            raise MalformedInputError(f"subset mask {mask} out of range")
        return ",".join(
            self.resources[r] for r in range(self.m) if mask >> r & 1
        )

    def chain_cap(self, i: int, r: int) -> int:
        """Positions player i can ever occupy on r: min of capacity and demand."""
        demands = self.demands
        if type(i) is not int or not 0 <= i < len(demands):
            i = _index(i, len(demands), "player")
        cap, d = self.ranks[i].singleton(r), demands[i]
        return cap if cap < d else d

    def check_profile(self, p: Profile) -> None:
        """Raise unless every strategy sits in its player's base polyhedron."""
        if len(p.strategies) != self.n:
            raise ValidationError(
                f"profile has {len(p.strategies)} strategies, expected {self.n}",
                witness=("profile_shape",),
            )
        for i, strategy in enumerate(p.strategies):
            if len(strategy) != self.m:
                raise ValidationError(
                    f"player {i} strategy has length {len(strategy)}, expected {self.m}",
                    witness=("profile_shape", i),
                )
            if not member_base(self.ranks[i], self.demands[i], strategy):
                raise ValidationError(
                    f"player {i} strategy {strategy} is not a feasible split of "
                    f"demand {self.demands[i]}",
                    witness=("profile_member", i),
                )


def _check_fit(
    g: GameInstance, p: Profile | None = None, i: int | None = None
) -> int | None:
    """Raise unless ``p`` holds one strategy per player of ``g`` and ``i`` is a player.

    Returns ``i`` as an int (1.0 is converted, "1" refused), None without one.
    """
    if p is not None and (k := len(p.strategies)) != g.n:
        raise MalformedInputError(f"profile has {k} players, instance has {g.n}")
    return None if i is None else _index(i, g.n, "player")


def private_cost(g: GameInstance, p: Profile, i: int) -> int:
    """Exact bill of player i: sum over resources of price-at-load times own units."""
    i = _check_fit(g, p, i)
    loads = p.loads(g.m)
    strategy = p.strategies[i]
    return sum(
        g.costs[i][r][loads[r]] * strategy[r] for r in range(g.m) if strategy[r]
    )


def induced_weights(g: GameInstance, i: int, a: Sequence[int]) -> WeightedGround:
    """Per-element prices on player i's chains given fixed opponent loads ``a``.

    The weight of position t on resource r is the bill increase of going
    from t-1 to t own units at opponent load a_r:

        t * c(a_r + t) - (t - 1) * c(a_r + t - 1)

    so prefix sums reproduce the player's exact private cost. ``a`` holds one
    nonnegative integer per resource, checked like a count vector. Each row
    has ``chain_cap`` positions. CostTableRangeError is raised when a table is
    too short and AdmissibilityError when a row decreases (a table that is not
    load-sensitive); neither happens on a validated instance.
    """
    i = _check_fit(g, i=i)
    loads = _checked_vector(a, g.m, "opponent loads")
    rows = []
    for r, load in enumerate(loads):
        values, length = g.costs[i][r].values, g.chain_cap(i, r)
        if load + length > len(values) - 1:
            raise CostTableRangeError(
                f"player {i} cost table on {g.resources[r]!r} covers loads up to "
                f"{len(values) - 1}, but weights need {load + length}"
            )
        c = values[load : load + length + 1]  # c[t] is the price at load + t
        ups = map(mul, range(1, length + 1), c[1:])
        rows.append(tuple(map(sub, ups, map(mul, range(length), c))))
    try:
        return WeightedGround(tuple(rows))
    except AdmissibilityError as exc:
        raise AdmissibilityError(
            f"player {i}: {exc}; the instance's cost tables fail the "
            f"load-sensitivity requirement"
        ) from None


def _check_chain(r: int, row: tuple[int, ...]) -> None:
    """Raise AdmissibilityError at the first decrease along resource r's chain."""
    if any(map(gt, row, row[1:])):
        t = next(t for t in range(len(row) - 1) if row[t] > row[t + 1])
        raise AdmissibilityError(
            f"weights decrease along the chain of resource {r}: "
            f"position {t + 1} has {row[t]}, position {t + 2} has {row[t + 1]}"
        )
