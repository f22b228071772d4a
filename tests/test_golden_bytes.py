"""Golden output bytes: refactors of the solver must not change what it writes.

Each digest is the SHA-256 over the profile and trace bytes of a batch of
solves, written one after the other. They were recorded from the solver
before its per-step state was made incremental; any change to equilibria,
move order, marginal vectors or serialization shows up here.
"""

import hashlib

import pytest

from polynash import (
    MatroidSpec,
    SolverPolicy,
    compute_pne,
    gen_matroid_game,
    gen_random,
    gen_singleton,
    write_profile,
    write_trace,
)

POLICIES = (
    SolverPolicy("min_index"),
    SolverPolicy("round_robin"),
    SolverPolicy("seeded_random", seed=7),
)

RANDOM_DIGESTS = {
    ((3, 4, 3), "convex_nondecreasing"): (
        "fe453476f676fd93cab990e7fe802f6b7dd888edefede393f477b2f6fd61ed42"
    ),
    ((3, 4, 3), "truncated_ssc"): (
        "a7e6622e0bbbab7f9191140b037fd8fe31cefc830af960e78399b1955a58070a"
    ),
    ((4, 6, 3), "convex_nondecreasing"): (
        "2280e0e41ce0dc05fae401c9fe162446244fa916ed1ef345113732275549372e"
    ),
    ((4, 6, 3), "truncated_ssc"): (
        "dd6c0ede52917ece471d5fe409dae68c7ddecdc1fff9bfc31587f0b56acbba64"
    ),
}

SINGLETON_DIGEST = "2acae732d24c2b27a0d3996021cd570341c2390b6a3699de662c1c8b46e61122"
MATROID_DIGEST = "23a0143992e469e33460387f4caf197f2aab8a9d2ec3642f374a0df9ffb0cc9a"


def _digest(games) -> str:
    sha = hashlib.sha256()
    for g in games:
        for policy in POLICIES:
            profile, trace = compute_pne(g, policy)
            sha.update(write_profile(g, profile))
            sha.update(write_trace(g, trace))
    return sha.hexdigest()


@pytest.mark.parametrize("shape, family", sorted(RANDOM_DIGESTS))
def test_random_games_keep_their_bytes(shape, family):
    games = (gen_random(seed, *shape, family) for seed in range(10))
    assert _digest(games) == RANDOM_DIGESTS[shape, family]


def test_singleton_game_keeps_its_bytes():
    squares = tuple(k * k for k in range(10))
    linear = tuple(range(10))
    g = gen_singleton(
        [[0, 1], [1, 2], [0, 2], [0, 1, 2]],
        [3, 2, 2, 2],
        [[squares, linear, squares]] * 2 + [[linear, squares, linear]] * 2,
    )
    assert _digest([g]) == SINGLETON_DIGEST


def test_matroid_game_keeps_its_bytes():
    specs = [
        MatroidSpec.uniform(2),
        MatroidSpec.partition([[0, 1], [2, 3]], [1, 1]),
        MatroidSpec.graphic([(0, 1), (1, 2), (2, 0), (0, 3)]),
    ]
    rows = [
        [(0, 1, 2, 4, 7, 9, 12, 15), (1, 1, 3, 3, 5, 8, 8, 9)] * 2,
        [(0, 2, 2, 3, 6, 6, 7, 10), (2, 3, 4, 4, 4, 6, 9, 9)] * 2,
        [(1, 2, 3, 4, 5, 6, 7, 8), (0, 0, 1, 3, 6, 10, 15, 21)] * 2,
    ]
    g = gen_matroid_game(specs, rows)
    assert _digest([g]) == MATROID_DIGEST
