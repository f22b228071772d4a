"""Rank tables: validation, membership, tight sets, and base enumeration.

A rank table assigns an integer capacity to every subset of resources. When
it is normalized, monotone, and submodular, the count vectors respecting all
subset capacities form the feasible splits of a demand. A subset is tight
for a vector when the vector fills its capacity exactly; one pass over the
subsets finds their union sat(x), and it says which unit steps stay
feasible. This script walks through all of it on a two-resource table.
"""

from polynash import (
    RankFunction,
    enumerate_base,
    member_base,
    tight_sets,
    validate_rank,
)

# capacities: a alone holds 2 units, b alone 1, together still only 2
f = RankFunction((0, 2, 1, 2))
print("validation witness (None when valid):", validate_rank(f))

# a broken table: 1 + 1 < 3 + 0 violates the diminishing-returns inequality
broken = RankFunction((0, 1, 1, 3))
print("broken table witness:", validate_rank(broken))

def subset(mask: int) -> str:
    """The resources of a subset bitmask, by name."""
    return "{" + ",".join(name for r, name in enumerate("ab") if mask >> r & 1) + "}"


print("\nmembership and sat(x), one pass over the subsets each:")
for vector in ((1, 0), (1, 1), (2, 0), (0, 2)):
    tight = tight_sets(f, vector)
    print(f"  {vector}: feasible={tight.feasible}", end="")
    if tight.feasible:
        # sat(x), the union of the tight sets: no resource in it takes one
        # more unit. A unit leaving r moves onto any s outside sat(x - e_r)
        print(f" sat={subset(tight.saturated)}", end="")
        for r, name in enumerate("ab"):
            if vector[r]:
                less = vector[:r] + (vector[r] - 1,) + vector[r + 1 :]
                print(f" sat(x-e_{name})={subset(tight_sets(f, less).saturated)}", end="")
    print()
print("  (2,0) an exact split of 2 units?", member_base(f, 2, (2, 0)))

print("\nall exact splits of 2 units:", enumerate_base(f, 2))
print("all exact splits of 1 unit: ", enumerate_base(f, 1))
