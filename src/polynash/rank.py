"""Integral polymatroid rank functions stored as explicit subset tables.

Subsets of the resource set are encoded as bitmasks: bit j set means resource
j is in the subset. A rank function over m resources is therefore a table of
2**m nonnegative integers indexed by bitmask. All arithmetic is exact
(Python ints), and every operation here is a pure function of immutable
inputs.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import ContractError, InfeasibleTruncationError, MalformedInputError

__all__ = [
    "RankFunction",
    "TightSets",
    "enumerate_base",
    "member_base",
    "member_polytope",
    "tight_sets",
    "validate_rank",
]

MAX_RESOURCES = 20
MAX_RANK_ENTRY = 2**63 - 1

# unsigned array type code for each packed field width, in bits
_TYPECODES = {array(code).itemsize * 8: code for code in "BHILQ"}


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """values as ints: 1.0 and True are converted, 1.9 and "1" are refused."""
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        return values
    for v in values:
        with suppress(TypeError, ValueError, OverflowError):
            if int(v) == v:
                continue
        raise MalformedInputError(f"{what} must be integers, got {v!r}")
    return tuple(map(int, values))


def _index(v, size: int, what: str) -> int:
    """v as an index below ``size`` by the rule of :func:`_integers`; errors name ``what``."""
    if type(v) is not int:
        (v,) = _integers((v,), f"{what} indices")
    if not 0 <= v < size:
        raise MalformedInputError(f"{what} index {v} out of range")
    return v


@dataclass(frozen=True)
class RankFunction:
    """Integer set function f: 2^R -> N as an explicit bitmask-indexed table.

    Construction checks shape only, and that every entry is an integer in
    0..``MAX_RANK_ENTRY``; use :func:`validate_rank` to test the polymatroid
    properties (normalized, monotone, submodular). Three attributes are set
    once, outside the dataclass fields, so equality, hash and repr see only
    values:

    - ``m``, the number of resources;
    - ``width``, the bit length of the largest entry plus one guard bit,
      rounded up to 8, 16, 32 or 64;
    - ``packed``, all 2^m entries in one integer: f(U) is the ``width``-bit
      field at bit U * ``width``, with its top (guard) bit clear. The passes
      over all subsets run on it, each arithmetic step covering all fields.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = _integers(self.values, "rank table entries")
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
        top = max(values)
        if top > MAX_RANK_ENTRY:
            raise MalformedInputError(
                f"rank table entries must be at most 2**63 - 1 = {MAX_RANK_ENTRY}"
            )
        width = max(8, 1 << top.bit_length().bit_length())
        fields = array(_TYPECODES[width], values)
        if sys.byteorder == "big":
            fields.byteswap()
        object.__setattr__(self, "m", (size - 1).bit_length())
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "packed", int.from_bytes(fields, "little"))

    @property
    def rank_of_all(self) -> int:
        """Value on the full resource set; the largest feasible demand."""
        return self.values[-1]

    def __call__(self, mask: int) -> int:
        if type(mask) is not int:
            (mask,) = _integers((mask,), "subset masks")
        if not 0 <= mask < len(self.values):
            raise MalformedInputError(f"subset mask {mask} out of range")
        return self.values[mask]

    def singleton(self, r: int) -> int:
        """Value on the single resource r; the capacity of r's chain."""
        if type(r) is not int or not 0 <= r < self.m:
            r = _index(r, self.m, "resource")
        return self.values[1 << r]


def validate_rank(f: RankFunction) -> tuple[str, int, int] | None:
    """Check that f is normalized, monotone, and submodular; name a violation.

    Returns None for a polymatroid, else a witness triple of subset bitmasks:
    ``("normalized", 0, 0)``, ``("monotone", U, U + {j})`` or
    ``("submodular", U + {j}, U + {k})``.

    Monotonicity is tested on all single-element extensions (U, U + {j}) and
    submodularity on all pairs (U + {j}, U + {k}) of extensions of a common
    U; both local families are equivalent to the unrestricted definitions.

    One pass decides validity in O(m^2) arithmetic steps on ``f.packed``,
    each over all 2^m fields at once. For each j, one shift and one
    subtraction with the guard bits set give d_j(U) = f(U + {j}) - f(U) for
    every U; a cleared guard bit on a field U without j is a monotonicity
    violation. For each k > j, one more shift and subtraction test
    d_j(U) >= d_j(U + {k}) (the local submodular inequality, symmetric in j
    and k). The checks run in this order: normalization; then for each
    resource j in turn, monotonicity at j followed by submodularity at
    (j, k) for k = j + 1, ..., m - 1. The witness comes from the first check
    that fails, at its smallest base subset U: the lowest flagged field.
    Each mask of the fields without k is derived from the one without k + 1,
    and at most seven table-sized integers are alive at any time.
    """
    values = f.values
    if values[0] != 0:
        return ("normalized", 0, 0)
    m, w, packed = f.m, f.width, f.packed
    size = len(values)
    guard, blank = bytes((w >> 3) - 1) + b"\x80", bytes(w >> 3)
    guards = int.from_bytes(guard * size, "little")
    # lacking: the guard bits of the fields without j, built here for j = 0.
    # Those without k follow from those without k + 1 by one shift and xor,
    # so each j derives them downwards from the lower half of the fields
    # (those without m - 1) to k = j + 1, the mask for the next j
    lacking = int.from_bytes((guard + blank) * (size >> 1), "little")
    for j in range(m):
        # field U holds 2^(w-1) + f(U + 2^j) - f(U) > 0, so no field borrows
        # from the next; for U without j the guard stays set iff d_j(U) >= 0
        diffs = ((packed >> (w << j)) | guards) - packed
        if diffs & lacking != lacking:
            u = _lowest_field((diffs & lacking) ^ lacking, w)
            return ("monotone", u, u | 1 << j)
        # d_j(U) < 2^(w-1) on the fields without j, zero on the others
        drops = diffs & (lacking - (lacking >> (w - 1)))
        diffs |= guards
        # k runs downwards, so the last failing k is the first in check order
        failed = None
        lacking = guards >> (w << (m - 1))  # the fields without m - 1
        for k in range(m - 1, j, -1):
            if k < m - 1:
                lacking ^= lacking << (w << k)  # the fields without k
            # field U holds 2^(w-1) + d_j(U) - d_j(U + 2^k) where U lacks j,
            # and is unchanged where U has j (then so has U + 2^k, as k > j)
            grows = (diffs - (drops >> (w << k))) & lacking
            if grows != lacking:
                failed = k, _lowest_field(grows ^ lacking, w)
            del grows  # before the next k builds its own
        if failed:
            k, u = failed
            return ("submodular", u | 1 << j, u | 1 << k)
    return None


def _lowest_field(flags: int, w: int) -> int:
    """The index of the lowest w-bit field in which a flag bit is set."""
    return ((flags ^ (flags - 1)).bit_length() - 1) // w


def _checked_vector(x: Iterable, m: int, what: str = "count vectors") -> tuple[int, ...]:
    """x as m nonnegative ints by the rule of :func:`_integers`; errors name ``what``."""
    vec = _integers(x, what)
    if len(vec) != m:
        raise MalformedInputError(f"{what} must have length {m}, got {len(vec)}")
    if vec and min(vec) < 0:
        raise MalformedInputError(f"{what} must be nonnegative")
    return vec


class TightSets(NamedTuple):
    """Whether a count vector x lies in a polytope, and sat(x), from tight_sets.

    For a submodular f and x inside its polytope the tight sets
    {U : x(U) = f(U)} are closed under union; ``saturated`` is that union
    sat(x), 0 if there is none or if ``feasible`` is False. One more unit
    fits on r iff r is outside sat(x), so for x_r >= 1 a unit moves from r
    to s iff s is outside sat(x - e_r). A named tuple, cheap to build.
    """

    feasible: bool
    saturated: int

    def can_add(self, r: int) -> bool:
        """Whether one more unit on resource r keeps x inside the polytope."""
        return not self.saturated >> r & 1


def tight_sets(f: RankFunction, x: Sequence[int]) -> TightSets:
    """Membership of x in the polytope of f together with sat(x).

    The start of a one-player slack word (see :class:`_SlackWords`) and one
    flag read. Answers the same membership question as
    :func:`member_polytope` (the subset-by-subset reference); sat(x) needs
    f submodular.
    """
    start = _start(f, _checked_vector(x, f.m))
    return TightSets(True, _SlackWords.read(*start)) if start else TightSets(False, 0)


def _start(f: RankFunction, x: tuple[int, ...]) -> tuple[int, int, int, int] | None:
    """The slack word of x under f, then w, ``ones`` and ``guards``; None for x outside.

    One pass over the 2**m subsets, on ``f.packed``: x(U) for every U comes
    from a doubling DP of m shifts and adds (the sums over subsets of the
    first j + 1 resources are those of the first j resources, then the same
    plus x_j), which also builds ``ones``, 1 in every field. One
    subtraction from f with the guard bits set compares every x(U) with
    f(U): x is inside iff no guard bit clears. A vector whose total exceeds
    f(R) is outside at once; otherwise every x(U) fits below the guard bit.
    """
    if sum(x) > f.rank_of_all:
        return None
    w = shift = f.width
    sums, ones = 0, 1
    for v in x:
        sums |= (sums + v * ones) << shift
        ones |= ones << shift
        shift <<= 1
    guards = ones << (w - 1)
    # field U holds 2^(w-1) + f(U) - x(U) > 0, so no field borrows from the next
    word = (f.packed | guards) - sums
    return (word, w, ones, guards) if word & guards == guards else None


class _SlackWords:
    """Count vectors x_i in the polytopes of rank tables f_i, stepped unit by unit.

    Word i is laid out like the packed table of f_i: its w-bit field U
    holds 2^(w-1) + f_i(U) - x_i(U), at least 2^(w-1) while x_i is inside.
    A unit step onto r changes every x(U) by [r in U], so it subtracts the
    mask of r (1 in each field whose subset holds r), and a move also adds
    the mask of the resource it leaves; a cleared guard bit means the step
    left the polytope. ``sat[i]`` is sat(x_i), read after each step, and
    sat(x_i - e_r) is the same read on the word plus the mask of r. This
    is the one place that knows the packed format.

    The tables are over the same resources, and the words of the tables
    with one field width share one layout: (w, ``ones``, the guard bits, the
    masks). A mask is as large as one packed table, so masks are kept for
    reuse up to 8 bytes per rank-table entry (the tables' size in 64-bit
    fields) and built for each use past that.
    """

    def __init__(self, ranks: Sequence[RankFunction], starts: Sequence[tuple]) -> None:
        """The words of count vectors ``starts``; ContractError for one outside."""
        layouts: dict[int, tuple[int, int, int, list[int]]] = {}  # by field width
        self._layouts, self._words, self.sat, self._room = [], [], [], 0
        for f, x in zip(ranks, starts):
            if (layout := layouts.get(f.width)) and not any(x):
                word = f.packed | layout[2]  # every x(U) is 0
            elif (start := _start(f, x)) is None:
                raise ContractError(f"count vector {x} lies outside the polytope")
            else:
                word, *head = start
                layout = layout or layouts.setdefault(f.width, (*head, [0] * f.m))
            self._layouts.append(layout)
            self._words.append(word)
            self.sat.append(self.read(word, *layout[:3]))
            self._room += len(f.values) << 3  # bytes the kept masks may still take

    @staticmethod
    def read(word: int, w: int, ones: int, guards: int) -> int:
        """sat(x) off the slack word of an x inside the polytope.

        One less clears the guard exactly where f(U) = x(U); for a
        submodular f the tight sets are closed under union, so sat(x) is the
        highest such field U, whose flag sets the bit length to (U + 1) * w,
        and 0 if there is none (f(0) > 0).
        """
        flags = ((word - ones) & guards) ^ guards
        return (flags.bit_length() // w or 1) - 1

    def _mask(self, w: int, masks: list[int], r: int) -> int:
        """The mask of r in w-bit fields, kept in ``masks`` while there is room."""
        one, blank, run = (1).to_bytes(w >> 3, "little"), bytes(w >> 3), 1 << r
        fields = (blank * run + one * run) * (1 << (len(masks) - 1 - r))
        mask = int.from_bytes(fields, "little")
        if len(fields) <= self._room:
            masks[r], self._room = mask, self._room - len(fields)
        return mask

    def step(self, i: int, to_r: int, from_r: int | None = None) -> bool:
        """One more unit of x_i on ``to_r`` and one less on ``from_r``, if given.

        Returns False, and changes nothing, if x_i would leave its polytope.
        """
        w, ones, guards, masks = self._layouts[i]
        word = self._words[i] - (masks[to_r] or self._mask(w, masks, to_r))
        if from_r is not None:
            word += masks[from_r] or self._mask(w, masks, from_r)
        if word & guards != guards:
            return False
        flags = ((word - ones) & guards) ^ guards  # :meth:`read`, inline: the hot path
        self._words[i], self.sat[i] = word, (flags.bit_length() // w or 1) - 1
        return True

    def sat_less(self, i: int, r: int) -> int:
        """sat(x_i - e_r), for an x_i that holds a unit on r."""
        w, ones, guards, masks = self._layouts[i]
        word = self._words[i] + (masks[r] or self._mask(w, masks, r))
        return self.read(word, w, ones, guards)


def member_polytope(f: RankFunction, x: Sequence[int]) -> bool:
    """True iff the count vector x satisfies every subset capacity of f."""
    vec = _checked_vector(x, f.m)
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


def _check_demand(f: RankFunction, d: int) -> int:
    """d as an int by the rule of :func:`_integers`; raise unless 0 <= d <= f(R)."""
    if type(d) is not int:
        (d,) = _integers((d,), "demands")
    if d < 0:
        raise MalformedInputError("demand must be nonnegative")
    if d > f.rank_of_all:
        raise InfeasibleTruncationError(
            f"demand {d} exceeds the rank {f.rank_of_all} of the full resource set"
        )
    return d


def member_base(f: RankFunction, d: int, x: Sequence[int]) -> bool:
    """True iff x lies in the polytope of f and its entries sum to exactly d."""
    d = _check_demand(f, d)
    vec = _checked_vector(x, f.m)
    return sum(vec) == d and tight_sets(f, vec).feasible


def enumerate_base(f: RankFunction, d: int) -> list[tuple[int, ...]]:
    """All count vectors summing to d inside every capacity, ascending lexicographically.

    The walk tries every split of d within the singleton capacities, so it
    is meant for desk scale: the debug checks and the tests.
    """
    d = _check_demand(f, d)
    m = f.m
    caps = [f.singleton(r) for r in range(m)]
    out: list[tuple[int, ...]] = []

    def walk(r: int, remaining: int, prefix: list[int]) -> None:
        if r == m:
            if remaining == 0 and tight_sets(f, prefix).feasible:
                out.append(tuple(prefix))
            return
        for v in range(min(caps[r], remaining) + 1):
            prefix.append(v)
            walk(r + 1, remaining - v, prefix)
            prefix.pop()

    walk(0, d, [])
    return out
