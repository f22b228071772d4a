"""Rank tables: validation, membership, and base enumeration.

A rank table assigns an integer capacity to every subset of resources. When
it is normalized, monotone, and submodular, the count vectors respecting all
subset capacities form the feasible splits of a demand. This script walks
through all of it on a two-resource table.
"""

from polynash import (
    RankFunction,
    enumerate_base,
    member_base,
    member_polytope,
    validate_rank,
)

# capacities: a alone holds 2 units, b alone 1, together still only 2
f = RankFunction((0, 2, 1, 2))
print("validation witness (None when valid):", validate_rank(f))

# a broken table: 1 + 1 < 3 + 0 violates the diminishing-returns inequality
broken = RankFunction((0, 1, 1, 3))
print("broken table witness:", validate_rank(broken))

print("\nmembership against every subset capacity:")
for vector in ((1, 1), (2, 0), (0, 2)):
    print(f"  {vector}: polytope={member_polytope(f, vector)}")
print("  (2,0) an exact split of 2 units?", member_base(f, 2, (2, 0)))

print("\nall exact splits of 2 units:", enumerate_base(f, 2))
print("all exact splits of 1 unit: ", enumerate_base(f, 1))
