"""Command-line entry points: solve, verify, gen, check, bound.

Exit codes: 0 success (including "equilibrium verified"), 1 usage error,
2 validation failure, 3 verification found violations, 4 internal invariant
failure.
"""

from __future__ import annotations

import argparse
import random
import sys
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from pathlib import Path

from .errors import ContractError, GameError, InvariantError, ParseError
from .generators import (
    COST_FAMILIES,
    MatroidSpec,
    _random_costs,
    _singleton_demands,
    gen_matroid_game,
    gen_random,
    gen_singleton,
    matroid_total_demand,
)
from .oracle import verify_pne
from .serialize import (
    _int_field,
    _int_tuple,
    _load_json,
    _require,
    parse_instance,
    parse_profile,
    write_instance,
    write_profile,
    write_trace,
)
from .solver import SolverPolicy, compute_pne, iteration_bound

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VIOLATIONS = 3
EXIT_INTERNAL = 4

# parsing a document takes several times its size in memory, so a larger
# file is refused before it is read
_MAX_DOCUMENT_BYTES = 256 * 2**20

_POLICY_NAMES = {
    "min_index": "min_index",
    "round_robin": "round_robin",
    "random": "seeded_random",
}

# the cost families each kind of gen draws, its default first; matroid chains
# hold one unit, so merely nondecreasing tables are load-sensitive there
_KIND_FAMILIES = {
    "random": COST_FAMILIES,
    "singleton": ("convex_nondecreasing",),
    "matroid": ("nondecreasing", "convex_nondecreasing"),
}
# the flags each kind of gen takes beside --kind, --seed, --output and
# --cost-family, by argparse dest; a flag of another kind is a usage error
_KIND_FLAGS = {
    "random": ("players", "resources", "max_demand"),
    "singleton": ("resource_sets", "demands", "resource_names"),
    "matroid": ("matroids", "resources", "resource_names"),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we reserve 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polynash", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a pure Nash equilibrium")
    solve.add_argument("--instance", required=True, help="instance document to solve")
    solve.add_argument(
        "--policy",
        choices=sorted(_POLICY_NAMES),
        default="min_index",
        help="how to pick the next player to receive a demand unit",
    )
    solve.add_argument("--seed", type=int, default=None, help="seed for --policy random")
    solve.add_argument("--trace", help="also write the move trace to this path")
    solve.add_argument(
        "--verify",
        action="store_true",
        help="run the brute-force verifier on the output",
    )
    solve.add_argument(
        "--debug-assertions",
        action="store_true",
        help="enable the expensive internal precondition checks",
    )
    solve.add_argument("--output", required=True, help="where to write the profile")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="check a profile against an instance")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--profile", required=True)
    verify.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", help="generate an instance document")
    gen.add_argument("--kind", choices=tuple(_KIND_FAMILIES), required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)
    gen.add_argument("--players", type=int, help="player count (kind random)")
    gen.add_argument(
        "--resources", type=int, help="resource count (kinds random and matroid)"
    )
    gen.add_argument("--max-demand", type=int, help="per-player demand cap (kind random)")
    gen.add_argument(
        "--cost-family",
        help="table family; each kind takes these, its default first: "
        + "; ".join(f"{kind} {', '.join(fs)}" for kind, fs in _KIND_FAMILIES.items()),
    )
    gen.add_argument(
        "--resource-sets",
        help="kind singleton: per-player resource names, ';' between players, "
        "',' within (example: 'a;a,b')",
    )
    gen.add_argument(
        "--demands", help="kind singleton: comma-separated per-player demands"
    )
    gen.add_argument(
        "--matroids",
        help="kind matroid: JSON list of per-player specs, e.g. "
        '\'[{"kind":"uniform","rank":2},{"kind":"graphic","edges":[[0,1],[1,2],[2,0]]}]\'',
    )
    gen.add_argument(
        "--resource-names",
        help="kinds singleton and matroid: comma-separated resource names in order "
        "(default: singleton sorts the names in --resource-sets, matroid uses "
        "r0,r1,...)",
    )
    gen.set_defaults(func=_cmd_gen)

    check = sub.add_parser("check", help="validate an instance document")
    check.add_argument("--instance", required=True)
    check.set_defaults(func=_cmd_check)

    bound = sub.add_parser(
        "bound", help="print the worst-case improvement-move bound for an instance"
    )
    bound.add_argument("--instance", required=True)
    bound.set_defaults(func=_cmd_bound)

    return parser


def _read(path: str) -> bytes:
    """The bytes of a document, refused unread when it is over the byte cap."""
    try:
        size = Path(path).stat().st_size
        if size <= _MAX_DOCUMENT_BYTES:
            return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    raise ParseError(
        f"{path} is {size} bytes, over the {_MAX_DOCUMENT_BYTES}-byte cap on documents"
    )


def _write(path: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from None


def _cmd_solve(args) -> int:
    g = parse_instance(_read(args.instance))
    policy = SolverPolicy(
        player_selection=_POLICY_NAMES[args.policy],
        seed=args.seed,
        debug_assertions=args.debug_assertions,
    )
    profile, trace = compute_pne(g, policy)
    _write(args.output, write_profile(g, profile))
    if args.trace:
        _write(args.trace, write_trace(g, trace))
    moves = len(trace.improvement_moves())
    print(
        f"solved: {g.total_demand} insertions, {moves} improvement moves; "
        f"profile -> {args.output}"
    )
    if args.verify:
        report = verify_pne(g, profile)
        if not report.is_pne:
            for player, current, best, witness in report.violations:
                print(
                    f"solver output is not an equilibrium: player {player} pays "
                    f"{current}, could pay {best} via {witness}",
                    file=sys.stderr,
                )
            return EXIT_INTERNAL
        print("equilibrium verified")
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = parse_instance(_read(args.instance))
    profile = parse_profile(_read(args.profile), g)
    report = verify_pne(g, profile)
    if report.is_pne:
        print("equilibrium: no player can improve")
        return EXIT_OK
    for player, current, best, witness in report.violations:
        print(
            f"player {player} pays {current}, could pay {best} via "
            f"{dict(zip(g.resources, witness))}"
        )
    return EXIT_VIOLATIONS


def _split_names(raw: str) -> list[str]:
    return [part for part in raw.split(",") if part]


def _cmd_gen(args) -> int:
    taken = _KIND_FLAGS[args.kind]
    for flags in _KIND_FLAGS.values():
        for flag in flags:
            if flag not in taken and getattr(args, flag) is not None:
                option = "--" + flag.replace("_", "-")
                raise _UsageError(f"kind {args.kind} takes no {option}")
    families = _KIND_FAMILIES[args.kind]
    family = families[0] if args.cost_family is None else args.cost_family
    if family not in families:
        listed = " or ".join(map(repr, families))
        raise _UsageError(f"kind {args.kind} draws {listed} tables only")
    rng = random.Random(args.seed)
    if args.kind == "random":
        if args.players is None or args.resources is None or args.max_demand is None:
            raise _UsageError("kind random needs --players, --resources, --max-demand")
        g = gen_random(args.seed, args.players, args.resources, args.max_demand, family)
    elif args.kind == "singleton":
        if args.resource_sets is None or args.demands is None:
            raise _UsageError("kind singleton needs --resource-sets and --demands")
        try:
            demands = [int(part) for part in args.demands.split(",")]
        except ValueError:
            raise _UsageError(
                f"--demands must be comma-separated integers, got {args.demands!r}"
            ) from None
        set_names = [_split_names(block) for block in args.resource_sets.split(";")]
        if len(set_names) != len(demands):
            raise _UsageError("one resource set per demand required")
        if args.resource_names:
            names = _split_names(args.resource_names)
        else:
            names = sorted({name for block in set_names for name in block})
        index = {name: r for r, name in enumerate(names)}
        for block in set_names:
            for name in block:
                if name not in index:
                    raise _UsageError(f"resource {name!r} missing from the name list")
        sets = [[index[name] for name in block] for block in set_names]
        length = sum(_singleton_demands(demands)) + 1
        costs = _random_costs(rng, family, length, len(demands), len(names))
        g = gen_singleton(sets, demands, costs, resource_names=names)
    else:
        if args.matroids is None:
            raise _UsageError("kind matroid needs --matroids")
        try:
            raw_specs = _load_json(args.matroids)
            _require(
                isinstance(raw_specs, list) and bool(raw_specs),
                "must be a non-empty JSON list",
            )
            specs = [_matroid_spec(entry) for entry in raw_specs]
        except ParseError as exc:
            raise _UsageError(f"--matroids: {exc}") from None
        if args.resources is not None:
            m = args.resources
        elif args.resource_names:
            m = len(_split_names(args.resource_names))
        else:
            graphic = [s for s in specs if s.kind == "graphic"]
            if not graphic:
                raise _UsageError(
                    "kind matroid needs --resources or --resource-names "
                    "unless a graphic spec fixes the count"
                )
            m = len(graphic[0].edges)
        names = _split_names(args.resource_names) if args.resource_names else None
        length = matroid_total_demand(specs, m) + 1
        costs = _random_costs(rng, family, length, len(specs), m)
        g = gen_matroid_game(specs, costs, resource_names=names)
    _write(args.output, write_instance(g))
    print(
        f"generated {args.kind} instance: {g.n} players, {g.m} resources, "
        f"total demand {g.total_demand} -> {args.output}"
    )
    return EXIT_OK


def _int_rows(value, what: str) -> list[tuple[int, ...]]:
    _require(
        isinstance(value, list) and all(isinstance(row, list) for row in value),
        "matroid spec field {!r} must be a list of integer lists",
        what,
    )
    return [_int_tuple(row, "matroid spec field {!r} entry", what) for row in value]


def _matroid_spec(entry) -> MatroidSpec:
    """One ``--matroids`` entry, its integers read by the document reader's rule."""
    _require(
        isinstance(entry, dict) and "kind" in entry,
        "each matroid spec must be an object with a 'kind'",
    )
    kind = entry["kind"]
    if kind == "uniform":
        return MatroidSpec.uniform(
            _int_field(entry.get("rank", 1), "matroid spec field 'rank'")
        )
    if kind == "partition":
        caps = entry.get("caps", [])
        _require(isinstance(caps, list), "matroid spec field 'caps' must be a list")
        return MatroidSpec.partition(
            _int_rows(entry.get("blocks", []), "blocks"),
            _int_tuple(caps, "matroid spec field 'caps' entry"),
        )
    if kind == "graphic":
        edges = _int_rows(entry.get("edges", []), "edges")
        _require(
            all(len(edge) == 2 for edge in edges),
            "matroid spec field 'edges' must hold pairs of vertices",
        )
        return MatroidSpec.graphic(edges)
    raise ParseError(f"unknown matroid kind {kind!r}")


def _cmd_check(args) -> int:
    g = parse_instance(_read(args.instance))
    print(
        f"instance valid: {g.n} players, {g.m} resources, total demand "
        f"{g.total_demand}"
    )
    return EXIT_OK


def _cmd_bound(args) -> int:
    g = parse_instance(_read(args.instance))
    print(_decimal(iteration_bound(g)))
    return EXIT_OK


def _decimal(value: int) -> str:
    """Every decimal digit of a non-negative int, in subquadratic time.

    ``str`` refuses ints past 4,300 digits by default, and before Python
    3.12 it takes time quadratic in their length. Like CPython 3.12's
    ``_pylong``, this splits the bits in halves down to 128 and joins the
    halves in exact ``decimal`` arithmetic, whose products are subquadratic.
    """
    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:  # 2**w, kept for reuse
        if w not in powers:
            half = w >> 1
            powers[w] = Decimal(2) ** w if w <= 128 else power(half) * power(w - half)
        return powers[w]

    def join(v: int, w: int) -> Decimal:  # v < 2**w
        if w <= 128:
            return Decimal(v)
        half = w >> 1
        high = v >> half
        return join(v - (high << half), half) + join(high, w - half) * power(half)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        return str(join(value, value.bit_length()))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help exits 0 through argparse
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvariantError, ContractError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except GameError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
