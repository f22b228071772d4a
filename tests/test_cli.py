"""End-to-end command-line behaviour and the exit-code table."""

import functools
import hashlib
import json
import random
import sys

import pytest

from polynash import MatroidSpec, Profile, cli, errors, generators, parse_instance
from polynash.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    main,
)

TWO_PLAYER_DOC = {
    "format_version": 1,
    "resources": ["a", "b"],
    "players": [
        {"demand": 1, "rank": [0, 1, 1, 1], "costs": {"a": [0, 1, 2], "b": [0, 1, 2]}},
        {"demand": 1, "rank": [0, 1, 1, 1], "costs": {"a": [0, 1, 2], "b": [0, 1, 2]}},
    ],
}


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(TWO_PLAYER_DOC))
    return path


def test_solve_verify_roundtrip(tmp_path, instance_path, capsys):
    out = tmp_path / "profile.json"
    trace = tmp_path / "trace.jsonl"
    rc = main(
        [
            "solve",
            "--instance",
            str(instance_path),
            "--output",
            str(out),
            "--trace",
            str(trace),
            "--verify",
            "--debug-assertions",
        ]
    )
    assert rc == EXIT_OK
    assert "equilibrium verified" in capsys.readouterr().out
    assert out.exists() and trace.exists()
    rc = main(["verify", "--instance", str(instance_path), "--profile", str(out)])
    assert rc == EXIT_OK


def test_solve_verify_exits_four_when_the_solver_output_is_not_an_equilibrium(
    tmp_path, instance_path, monkeypatch, capsys
):
    solve = cli.compute_pne

    def both_on_a(g, policy):
        _, trace = solve(g, policy)
        return Profile(((1, 0), (1, 0))), trace

    monkeypatch.setattr(cli, "compute_pne", both_on_a)
    out = tmp_path / "profile.json"
    rc = main(["solve", "--instance", str(instance_path), "--output", str(out), "--verify"])
    assert rc == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "solver output is not an equilibrium: player 0 pays 2, could pay 1" in err


def test_verify_flags_a_perturbed_profile(tmp_path, instance_path, capsys):
    profile = tmp_path / "bad.json"
    profile.write_text(
        json.dumps(
            {
                "format_version": 1,
                "players": [
                    {"strategy": {"a": 1, "b": 0}},
                    {"strategy": {"a": 1, "b": 0}},
                ],
            }
        )
    )
    rc = main(["verify", "--instance", str(instance_path), "--profile", str(profile)])
    assert rc == EXIT_VIOLATIONS
    assert "could pay" in capsys.readouterr().out


def test_check_rejects_decreasing_costs(tmp_path, capsys):
    doc = json.loads(json.dumps(TWO_PLAYER_DOC))
    doc["players"][0]["costs"]["a"] = [2, 1, 0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["check", "--instance", str(bad)])
    assert rc == EXIT_INVALID
    assert "decreas" in capsys.readouterr().err


def test_check_and_bound(instance_path, capsys):
    assert main(["check", "--instance", str(instance_path)]) == EXIT_OK
    assert main(["bound", "--instance", str(instance_path)]) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith("8")


def test_usage_errors_exit_one(tmp_path):
    assert main([]) == EXIT_USAGE
    assert main(["solve"]) == EXIT_USAGE
    assert main(["gen", "--kind", "random", "--output", str(tmp_path / "x.json")]) == EXIT_USAGE


@pytest.mark.parametrize(
    "kind_args",
    [
        ["--kind", "singleton", "--resource-sets", "a;a,b", "--demands", "1,x"],
        ["--kind", "matroid", "--matroids", '[{"kind":"uniform","rank":"two"}]'],
        [
            "--kind",
            "matroid",
            "--matroids",
            '[{"kind":"partition","blocks":[[0,"a"]],"caps":[1]}]',
        ],
        ["--kind", "matroid", "--matroids", '[{"kind":"graphic","edges":[[0]]}]'],
        [
            *("--kind", "random", "--players", "2", "--resources", "2"),
            *("--max-demand", "2", "--cost-family", "nondecreasing"),
        ],
        [
            *("--kind", "random", "--players", "2", "--resources", "2"),
            *("--max-demand", "2", "--resource-names", "x,y"),
        ],
        [
            *("--kind", "matroid", "--matroids", '[{"kind":"uniform","rank":1}]'),
            *("--resources", "2", "--cost-family", "truncated_ssc"),
        ],
        ["--kind", "singleton", "--resource-sets", "a;a,b"],
        ["--kind", "singleton", "--resource-sets", "a;a,b", "--demands", "1"],
        [
            *("--kind", "singleton", "--resource-sets", "a;a,c", "--demands", "1,1"),
            *("--resource-names", "a,b"),
        ],
        ["--kind", "matroid", "--resources", "2"],
        ["--kind", "matroid", "--matroids", "[{"],
        ["--kind", "matroid", "--matroids", "[]"],
        ["--kind", "matroid", "--matroids", '[{"kind":"uniform","rank":1}]'],
        [
            *("--kind", "matroid", "--resources", "2", "--matroids"),
            '[{"kind":"partition","blocks":[[0,1]],"caps":[1.5]}]',
        ],
        ["--kind", "matroid", "--resources", "2", "--matroids", "[3]"],
        ["--kind", "matroid", "--resources", "2", "--matroids", '[{"kind":"laminar"}]'],
        # a rank past the interpreter's digit limit, nesting past the recursion
        # limit, and a repeated key are malformed JSON too
        [
            *("--kind", "matroid", "--resources", "2", "--matroids"),
            '[{"kind":"uniform","rank":' + "7" * 5001 + "}]",
        ],
        [
            *("--kind", "matroid", "--resources", "2", "--matroids"),
            "[" * 5000 + "]" * 5000,
        ],
        [
            *("--kind", "matroid", "--resources", "2", "--matroids"),
            '[{"kind":"graphic","kind":"uniform","rank":1}]',
        ],
    ],
)
def test_gen_rejects_malformed_fields_as_usage_errors(tmp_path, capsys, kind_args):
    out = tmp_path / "g.json"
    assert main(["gen", *kind_args, "--output", str(out)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


RANDOM_ARGS = ("--kind", "random", "--players", "2", "--resources", "2", "--max-demand", "2")
SINGLETON_ARGS = ("--kind", "singleton", "--resource-sets", "a;a,b", "--demands", "1,1")
MATROID_ARGS = ("--kind", "matroid", "--resources", "2", "--matroids", '[{"kind":"uniform"}]')


@pytest.mark.parametrize(
    "kind_args, refused",
    [
        ([*MATROID_ARGS, "--players", "7", "--demands", "1,2"], "kind matroid takes no --players"),
        ([*MATROID_ARGS, "--demands", "1,2"], "kind matroid takes no --demands"),
        ([*MATROID_ARGS, "--max-demand", "2"], "kind matroid takes no --max-demand"),
        ([*RANDOM_ARGS, "--matroids", "[1]"], "kind random takes no --matroids"),
        ([*RANDOM_ARGS, "--resource-names", "x,y"], "kind random takes no --resource-names"),
        ([*RANDOM_ARGS, "--resource-sets", "a"], "kind random takes no --resource-sets"),
        ([*SINGLETON_ARGS, "--resources", "2"], "kind singleton takes no --resources"),
        ([*SINGLETON_ARGS, "--players", "2"], "kind singleton takes no --players"),
        ([*SINGLETON_ARGS, "--matroids", "[]"], "kind singleton takes no --matroids"),
    ],
)
def test_gen_refuses_a_flag_of_another_kind(tmp_path, capsys, kind_args, refused):
    # each such flag used to be dropped without a word
    out = tmp_path / "g.json"
    assert main(["gen", *kind_args, "--output", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {refused}\n"
    assert not out.exists()


@pytest.mark.parametrize("demands", ["-3,1", "1,-3"])
def test_gen_singleton_names_a_negative_demand_before_drawing_tables(
    tmp_path, capsys, monkeypatch, demands
):
    # -3,1 used to draw tables of length sum(demands) + 1 = -1 first, and fail
    # on the table length
    drawn = []
    monkeypatch.setattr(cli, "_random_costs", lambda *args: drawn.append(args))
    out = tmp_path / "s.json"
    args = ["gen", "--kind", "singleton", "--resource-sets", "a;b", f"--demands={demands}"]
    assert main(args + ["--output", str(out)]) == EXIT_INVALID
    player = demands.split(",").index("-3")
    expected = f"invalid input: player {player} has negative demand -3\n"
    assert capsys.readouterr().err == expected
    assert drawn == []
    assert not out.exists()


def test_too_many_resources_is_invalid(tmp_path, capsys):
    names = [f"r{k}" for k in range(21)]
    doc = {
        "format_version": 1,
        "resources": names,
        "players": [{"demand": 1, "rank": {}, "costs": {}}],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--instance", str(path)]) == EXIT_INVALID
    assert "cap of 20" in capsys.readouterr().err


@pytest.mark.parametrize("resources", ["21", "-3"])
def test_gen_matroid_checks_the_resource_count_before_building_tables(
    tmp_path, capsys, resources
):
    out = tmp_path / "m.json"
    rc = main(
        [
            "gen",
            "--kind",
            "matroid",
            "--matroids",
            '[{"kind":"uniform","rank":1}]',
            "--resources",
            resources,
            "--output",
            str(out),
        ]
    )
    assert rc == EXIT_INVALID
    assert f"must be in [0, 20], got {resources}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_singleton_checks_the_resource_count_before_building_tables(
    tmp_path, capsys, monkeypatch
):
    built = []
    rank_function = generators.RankFunction

    def counting(values):
        built.append(len(values))
        return rank_function(values)

    monkeypatch.setattr(generators, "RankFunction", counting)
    names = ",".join(f"r{k}" for k in range(21))
    out = tmp_path / "s.json"
    args = ["gen", "--kind", "singleton", "--resource-sets", "r0", "--demands", "1"]
    rc = main(args + ["--resource-names", names, "--output", str(out)])
    assert rc == EXIT_INVALID
    assert "resource count must be at most 20, got 21" in capsys.readouterr().err
    assert built == []
    assert not out.exists()


def test_deeply_nested_document_is_invalid(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["check", "--instance", str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("invalid input: invalid JSON: maximum recursion depth")
    assert err.count("\n") == 1


@pytest.mark.parametrize("target", ["solve --output", "solve --trace", "gen --output"])
def test_unwritable_output_is_a_usage_error(tmp_path, instance_path, capsys, target):
    missing = tmp_path / "no-such-dir" / "out.json"
    solve = ["solve", "--instance", str(instance_path)]
    argv = {
        "solve --output": solve + ["--output", str(missing)],
        "solve --trace": solve
        + ["--output", str(tmp_path / "p.json"), "--trace", str(missing)],
        "gen --output": ["gen", "--kind", "random", "--players", "2", "--resources"]
        + ["2", "--max-demand", "1", "--output", str(missing)],
    }[target]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write {missing}: ")
    assert err.count("\n") == 1


def test_oversized_document_is_refused_unread(tmp_path, capsys):
    path = tmp_path / "huge.json"
    with path.open("wb") as sparse:
        sparse.truncate(256 * 2**20 + 1)
    assert main(["check", "--instance", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        f"invalid input: {path} is 268435457 bytes, over the 268435456-byte cap "
        "on documents\n"
    )


@pytest.mark.parametrize("entry", [2**63, int("9" * 4000)], ids=["2**63", "4000-digit"])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "map"])
def test_check_rejects_a_rank_entry_above_the_cap(tmp_path, capsys, entry, dense):
    doc = json.loads(json.dumps(TWO_PLAYER_DOC))
    doc["players"][1]["rank"] = (
        [0, 1, 1, entry] if dense else {"a": 1, "b": 1, "a,b": entry}
    )
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--instance", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "invalid input: player 1 rank table entries must be at most "
        "2**63 - 1 = 9223372036854775807\n"
    )


def test_missing_file_is_invalid(tmp_path):
    assert main(["check", "--instance", str(tmp_path / "nope.json")]) == EXIT_INVALID


@pytest.mark.parametrize(
    "old, new",
    [
        ('"demand": 1', '"demand": ' + "1" * 5000),
        ('"costs": {"a": [0, 1, 2],', '"costs": {"a": [0, 1, 2], "a": [0, 5, 9],'),
    ],
    ids=["5000-digit-integer", "repeated-key"],
)
def test_solve_rejects_hostile_documents_as_invalid_input(tmp_path, capsys, old, new):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(TWO_PLAYER_DOC).replace(old, new, 1))
    rc = main(["solve", "--instance", str(path), "--output", str(tmp_path / "p.json")])
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err.startswith("invalid input: invalid JSON: ")


def test_gen_random_then_solve(tmp_path):
    inst = tmp_path / "g.json"
    out = tmp_path / "p.json"
    rc = main(
        [
            "gen",
            "--kind",
            "random",
            "--players",
            "3",
            "--resources",
            "3",
            "--max-demand",
            "2",
            "--seed",
            "9",
            "--output",
            str(inst),
        ]
    )
    assert rc == EXIT_OK
    g = parse_instance(inst.read_bytes())
    assert g.n == 3 and g.m == 3
    rc = main(
        ["solve", "--instance", str(inst), "--output", str(out), "--verify"]
    )
    assert rc == EXIT_OK


def test_gen_singleton(tmp_path):
    inst = tmp_path / "s.json"
    rc = main(
        [
            "gen",
            "--kind",
            "singleton",
            "--resource-sets",
            "a;a,b",
            "--demands",
            "2,1",
            "--seed",
            "3",
            "--output",
            str(inst),
        ]
    )
    assert rc == EXIT_OK
    g = parse_instance(inst.read_bytes())
    assert g.resources == ("a", "b")
    assert g.demands == (2, 1)
    assert g.ranks[0].singleton(0) == 2 and g.ranks[0].singleton(1) == 0


@pytest.mark.parametrize("family", ["truncated_ssc", "nondecreasing"])
def test_gen_singleton_draws_convex_tables_only(tmp_path, capsys, family):
    args = ["gen", "--kind", "singleton", "--resource-sets", "a;a,b", "--demands", "2,1"]
    out = tmp_path / "s.json"
    assert main([*args, "--cost-family", family, "--output", str(out)]) == EXIT_USAGE
    assert "draws 'convex_nondecreasing' tables only" in capsys.readouterr().err
    assert not out.exists()
    default, convex = tmp_path / "default.json", tmp_path / "convex.json"
    assert main([*args, "--output", str(default)]) == EXIT_OK
    family_args = ["--cost-family", "convex_nondecreasing", "--output", str(convex)]
    assert main([*args, *family_args]) == EXIT_OK
    assert convex.read_bytes() == default.read_bytes()


def test_gen_matroid(tmp_path):
    inst = tmp_path / "m.json"
    out = tmp_path / "p.json"
    specs = json.dumps(
        [
            {"kind": "uniform", "rank": 2},
            {"kind": "graphic", "edges": [[0, 1], [1, 2], [2, 0]]},
        ]
    )
    rc = main(
        [
            "gen",
            "--kind",
            "matroid",
            "--matroids",
            specs,
            "--seed",
            "4",
            "--output",
            str(inst),
        ]
    )
    assert rc == EXIT_OK
    g = parse_instance(inst.read_bytes())
    assert g.demands == (2, 2)
    rc = main(["solve", "--instance", str(inst), "--output", str(out), "--verify"])
    assert rc == EXIT_OK


def test_gen_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = [
        "gen",
        "--kind",
        "random",
        "--players",
        "2",
        "--resources",
        "4",
        "--max-demand",
        "3",
        "--seed",
        "77",
    ]
    assert main(args + ["--output", str(a)]) == EXIT_OK
    assert main(args + ["--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_solve_is_byte_deterministic(tmp_path, instance_path):
    outs = []
    traces = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.json"
        trc = tmp_path / f"{name}.jsonl"
        rc = main(
            [
                "solve",
                "--instance",
                str(instance_path),
                "--policy",
                "random",
                "--seed",
                "5",
                "--output",
                str(out),
                "--trace",
                str(trc),
            ]
        )
        assert rc == EXIT_OK
        outs.append(out.read_bytes())
        traces.append(trc.read_bytes())
    assert outs[0] == outs[1]
    assert traces[0] == traces[1]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_bound_prints_every_digit_of_a_huge_bound(tmp_path, capsys):
    # n = m = 2 and peak demand 1300: the bound has more than 4,300 digits,
    # past the interpreter's default limit for str() of an int
    linear = {"a": list(range(2602)), "b": list(range(2602))}
    doc = {
        "format_version": 1,
        "resources": ["a", "b"],
        "players": [
            {"demand": 1300, "rank": [0, 1300, 1300, 1300], "costs": linear},
            {"demand": 1, "rank": [0, 1300, 1300, 1300], "costs": linear},
        ],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    assert main(["bound", "--instance", str(path)]) == EXIT_OK
    text = capsys.readouterr().out.strip()
    assert text.isdigit() and len(text) > 4300
    value = functools.reduce(lambda acc, digit: acc * 10 + int(digit), text, 0)
    assert value == 2**1301 * 2**1300 * 1300**1301
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_decimal_gives_the_digits_of_str_at_every_size():
    # around the 128-bit leaves of the halving, and at about 10^5 digits
    rng = random.Random(0)
    values = [0, 1, 9, 10, 10**38, 10**39 - 1, 10**39]
    for bits in (127, 128, 129, 255, 256, 257):
        values += [2**bits - 1, 2**bits, 2**bits + 1, rng.getrandbits(bits)]
    values += [10**100_000, 10**100_000 - 1, 7**118_000, rng.getrandbits(332_193)]
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)  # str() is the reference at every size
    try:
        for value in values:
            assert cli._decimal(value) == str(value), value.bit_length()
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


# output of the matroid command below, recorded when it still built each table twice
GEN_MATROID_DIGESTS = [
    "50cd4beb502c9f5b974710e01b16822cb095218a2b030f7439300e3e7496d7ee",
    "804925e52214ac5280365023136c3b30136905e5c0ae81ae601846b3ac43e4f8",
]


def test_gen_matroid_builds_each_rank_table_once(tmp_path, monkeypatch):
    built = []
    rank_table = MatroidSpec.rank_table

    def counting(spec, m):
        built.append(spec.kind)
        return rank_table(spec, m)

    monkeypatch.setattr(MatroidSpec, "rank_table", counting)
    specs = json.dumps(
        [
            {"kind": "uniform", "rank": 2},
            {"kind": "partition", "blocks": [[0, 1], [2]], "caps": [1, 1]},
            {"kind": "graphic", "edges": [[0, 1], [1, 2], [2, 0]]},
        ]
    )
    digests = []
    for family in ("nondecreasing", "convex_nondecreasing"):
        out = tmp_path / f"{family}.json"
        args = ["gen", "--kind", "matroid", "--matroids", specs, "--seed", "4"]
        rc = main(args + ["--cost-family", family, "--output", str(out)])
        assert rc == EXIT_OK
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert built == ["uniform", "partition", "graphic"] * 2
    assert digests == GEN_MATROID_DIGESTS


# gen documents of the singleton kind and of each random family, recorded
# when each kind still decided its own cost-table draws
GEN_DIGESTS = [
    (
        [*("--kind", "random", "--players", "3", "--resources", "4"),
         *("--max-demand", "3", "--seed", "9")],
        "3bd13e4e195ccf5c214cd1e6f706430ac9d6679425693d1d3a0bdec68a5d67e6",
    ),
    (
        [*("--kind", "random", "--players", "3", "--resources", "4"),
         *("--max-demand", "3", "--seed", "9", "--cost-family", "convex_nondecreasing")],
        "3bd13e4e195ccf5c214cd1e6f706430ac9d6679425693d1d3a0bdec68a5d67e6",
    ),
    (
        [*("--kind", "random", "--players", "3", "--resources", "4"),
         *("--max-demand", "3", "--seed", "9", "--cost-family", "truncated_ssc")],
        "87fa278d134eded15e6779c198f6236687244d5017547737d9ede169706546e4",
    ),
    (
        ["--kind", "singleton", "--resource-sets", "a;a,b;b,c", "--demands", "2,1,3",
         "--seed", "3"],
        "fd810c0352bfba4c4fca0f8942a4934b5c2473bf8351b2e0ff6d9f873efb6ef1",
    ),
    (
        ["--kind", "singleton", "--resource-sets", "x;y,x", "--demands", "2,2",
         "--resource-names", "y,x,z", "--seed", "5"],
        "c67d142bab278ce170cb8469e1839ee69e32f1f748ac30e4b4587c35734be70e",
    ),
]


@pytest.mark.parametrize(
    "args, digest",
    GEN_DIGESTS,
    ids=["random", "random-convex", "random-ssc", "singleton", "singleton-names"],
)
def test_gen_writes_the_recorded_bytes(tmp_path, args, digest):
    out = tmp_path / "g.json"
    assert main(["gen", *args, "--output", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# GameError itself and every subclass the package defines
GAME_ERRORS = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.GameError)),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("error", GAME_ERRORS, ids=lambda cls: cls.__name__)
def test_every_package_error_maps_to_an_exit_code(error, instance_path, monkeypatch, capsys):
    def raising(data):
        raise error("raised for the exit-code table")

    monkeypatch.setattr(cli, "parse_instance", raising)
    internal = issubclass(error, (errors.InvariantError, errors.ContractError))
    assert main(["check", "--instance", str(instance_path)]) == (
        EXIT_INTERNAL if internal else EXIT_INVALID
    )
    assert "raised for the exit-code table" in capsys.readouterr().err
