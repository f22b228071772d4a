"""Integral polymatroid rank functions stored as explicit subset tables.

Subsets of the resource set are encoded as bitmasks: bit j set means resource
j is in the subset. A rank function over m resources is therefore a table of
2**m nonnegative integers indexed by bitmask. All arithmetic is exact
(Python ints), and every operation here is a pure function of immutable
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, repeat
from operator import and_, eq, gt, lt, or_, sub
from typing import Sequence

from .errors import (
    EnumerationTooLargeError,
    InfeasibleTruncationError,
    MalformedInputError,
)

MAX_RESOURCES = 20


@dataclass(frozen=True)
class RankFunction:
    """Integer set function f: 2^R -> N as an explicit bitmask-indexed table.

    Construction checks shape only; use :func:`validate_rank` to test the
    polymatroid properties (normalized, monotone, submodular). ``m`` is set
    once, outside the dataclass fields, so equality, hash and repr see only values.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(map(int, self.values))
        object.__setattr__(self, "values", values)
        size = len(values)
        if size == 0 or size & (size - 1):
            raise MalformedInputError(
                f"rank table length must be a power of two, got {size}"
            )
        if size > 1 << MAX_RESOURCES:
            raise MalformedInputError(
                f"rank table for more than {MAX_RESOURCES} resources is not supported"
            )
        if min(values) < 0:
            raise MalformedInputError("rank table entries must be nonnegative")
        object.__setattr__(self, "m", (size - 1).bit_length())

    @property
    def rank_of_all(self) -> int:
        """Value on the full resource set; the largest feasible demand."""
        return self.values[-1]

    def __call__(self, mask: int) -> int:
        if not 0 <= mask < len(self.values):
            raise MalformedInputError(f"subset mask {mask} out of range")
        return self.values[mask]

    def singleton(self, r: int) -> int:
        """Value on the single resource r; the capacity of r's chain."""
        if not 0 <= r < self.m:
            raise MalformedInputError(f"resource index {r} out of range")
        return self.values[1 << r]


def validate_rank(f: RankFunction) -> tuple[str, int, int] | None:
    """Check that f is normalized, monotone, and submodular; name a violation.

    Returns None for a polymatroid, else a witness triple of subset bitmasks:
    ``("normalized", 0, 0)``, ``("monotone", U, U + {j})`` or
    ``("submodular", U + {j}, U + {k})``.

    Monotonicity is tested on all single-element extensions (U, U + {j}) and
    submodularity on all pairs (U + {j}, U + {k}) of extensions of a common
    U; both local families are equivalent to the unrestricted definitions.

    One pass decides validity in O(m^2 * 2^m) C-level steps: for each j the
    differences d_j(U) = f(U + {j}) - f(U) over U without j must be
    nonnegative (monotone) and must not grow when any k > j joins U (the
    local submodular inequality, symmetric in j and k). The checks run in
    this order: normalization; then for each resource j in turn,
    monotonicity at j followed by submodularity at (j, k) for k = j + 1, ...,
    m - 1. The witness comes from the first check that fails, at its
    smallest base subset U.
    """
    values = f.values
    if values[0] != 0:
        return ("normalized", 0, 0)
    m = f.m
    half = len(values) >> 1
    quarter = half >> 1
    table = list(values)
    for j in range(m):
        # L[0::2] + L[1::2] rotates the bit order of a mask-indexed list: old
        # bit 0 becomes the top bit, old bit i + 1 becomes bit i. After j + 1
        # rotations position t holds mask rotl_m(t, j + 1), so the top bit is
        # bit j and the halves hold U and U + {j}.
        table = table[0::2] + table[1::2]
        diffs = list(map(sub, table[half:], table[:half]))
        if min(diffs) < 0:
            u = _mask_order(list(map(gt, repeat(0), diffs)), m - j - 1).index(True)
            return ("monotone", u, u | 1 << j)
        # after k - j more rotations position q of diffs holds base
        # U = rotl_m(rotl_{m-1}(q, k - j), j + 1), and its top bit is bit k
        for k in range(j + 1, m):
            diffs = diffs[0::2] + diffs[1::2]
            if any(map(lt, diffs[:quarter], diffs[quarter:])):
                grows = list(map(lt, diffs[:quarter], diffs[quarter:]))
                # back to the order of d_j's positions t, then to mask order
                by_t = _mask_order(grows, m - 1 - (k - j))
                u = _mask_order(by_t, m - j - 1).index(True)
                return ("submodular", u | 1 << j, u | 1 << k)
    return None


def _mask_order(low: list[bool], turns: int) -> list[bool]:
    """Flags on the lower half of a rotated list, padded and rotated back into mask order.

    ``low`` covers the positions without the top bit of a list that lacks
    ``turns`` rotations of a full cycle. The upper half is padded with False
    and the missing rotations are applied, so position t then holds mask t.
    """
    flags = low + [False] * len(low)
    for _ in range(turns):
        flags = flags[0::2] + flags[1::2]
    return flags


def _checked_vector(f: RankFunction, x: Sequence[int]) -> tuple[int, ...]:
    vec = tuple(int(v) for v in x)
    if len(vec) != f.m:
        raise MalformedInputError(f"vector has length {len(vec)}, expected {f.m}")
    if any(v < 0 for v in vec):
        raise MalformedInputError("count vectors must be nonnegative")
    return vec


@dataclass(frozen=True)
class TightSets:
    """The tight subsets {U : x(U) = f(U)} of a count vector x, from tight_sets.

    For x inside the polytope of f the tight sets are closed under union and
    intersection, so two masks answer every unit step from x:

    - ``saturated`` is their union sat(x); x + e_r stays inside exactly when
      r is outside it;
    - ``dependent(s)`` is the smallest tight set containing s, dep(x, s);
      for x_r >= 1, x - e_r + e_s stays inside exactly when s is outside
      sat(x) or r lies in dep(x, s).

    When ``feasible`` is False, x violates some capacity, ``tight`` is empty
    and the unit-step answers are meaningless.
    """

    feasible: bool
    saturated: int
    tight: tuple[int, ...]  # every tight subset, ascending

    def dependent(self, s: int) -> int:
        """dep(x, s), the smallest tight set containing s; 0 when s is unsaturated."""
        bit = 1 << s
        if not self.saturated & bit:
            return 0
        return reduce(and_, filter(bit.__and__, self.tight))

    def can_add(self, r: int) -> bool:
        """Whether one more unit on resource r keeps x inside the polytope."""
        return not self.saturated >> r & 1

    def can_exchange(self, r: int, s: int) -> bool:
        """Whether moving one of x's units from r to s keeps x inside the polytope."""
        return self.can_add(s) or bool(self.dependent(s) >> r & 1)


def tight_sets(f: RankFunction, x: Sequence[int]) -> TightSets:
    """Membership of x in the polytope of f together with its tight subsets.

    One pass over the 2**m subsets: x(U) for every U comes from a doubling
    DP (the sums over subsets of the first j + 1 resources are those of the
    first j resources, then the same plus x_j), and each is compared with
    f(U). Answers the same membership question as :func:`member_polytope`,
    which stays as the subset-by-subset reference.
    """
    vec = _checked_vector(f, x)
    values = f.values
    sums = [0]
    for v in vec:
        sums += [total + v for total in sums]
    if any(map(gt, sums, values)):
        return TightSets(False, 0, ())
    tight = tuple(compress(range(len(values)), map(eq, sums, values)))
    return TightSets(True, reduce(or_, tight, 0), tight)


def member_polytope(f: RankFunction, x: Sequence[int]) -> bool:
    """True iff the count vector x satisfies every subset capacity of f."""
    vec = _checked_vector(f, x)
    values = f.values
    for mask in range(1, len(values)):
        total = 0
        mm = mask
        while mm:
            low = mm & -mm
            total += vec[low.bit_length() - 1]
            mm ^= low
        if total > values[mask]:
            return False
    return True


def _check_demand(f: RankFunction, d: int) -> None:
    """Raise unless 0 <= d <= f(R), the range of demands f can carry."""
    if d < 0:
        raise MalformedInputError("demand must be nonnegative")
    if d > f.rank_of_all:
        raise InfeasibleTruncationError(
            f"demand {d} exceeds the rank {f.rank_of_all} of the full resource set"
        )


def member_base(f: RankFunction, d: int, x: Sequence[int]) -> bool:
    """True iff x lies in the polytope of f and its entries sum to exactly d."""
    _check_demand(f, d)
    vec = _checked_vector(f, x)
    return sum(vec) == d and tight_sets(f, vec).feasible


def enumerate_base(
    f: RankFunction, d: int, cap: int | None = None
) -> list[tuple[int, ...]]:
    """All count vectors summing to d inside every capacity, ascending lexicographically.

    Intended for desk scale; pass ``cap`` to abort once the result would
    exceed it.
    """
    _check_demand(f, d)
    m = f.m
    caps = [f.singleton(r) for r in range(m)]
    out: list[tuple[int, ...]] = []

    def walk(r: int, remaining: int, prefix: list[int]) -> None:
        if r == m:
            if remaining == 0:
                vec = tuple(prefix)
                if tight_sets(f, vec).feasible:
                    out.append(vec)
                    if cap is not None and len(out) > cap:
                        raise EnumerationTooLargeError(
                            f"more than {cap} vectors in the base polyhedron at demand {d}"
                        )
            return
        for v in range(min(caps[r], remaining) + 1):
            prefix.append(v)
            walk(r + 1, remaining - v, prefix)
            prefix.pop()

    walk(0, d, [])
    return out
