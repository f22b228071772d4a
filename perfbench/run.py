"""The polynash benchmark: the solve pipeline on the wide, deep and tiny workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {wide,deep,tiny} --seed N --seconds S --trace {0,1} [--quick]

The timed operation is what ``polynash solve --trace`` does once it has read
its file: ``parse_instance`` -> ``compute_pne`` with the default
``SolverPolicy`` -> ``write_profile`` -> ``write_trace``, called directly.
The loop is closed, in one process and one thread: the next solve starts
when the previous one returns. Instance documents are generated from the
seed and index outside the timed region, every one distinct, and every
output is checked outside it too:

- the written profile, read back, passes ``verify_pne`` (the brute-force
  oracle) and ``check_trace`` accepts the trace with one insertion per
  demand unit;
- with the default seed, SHA-256 of the profile and trace bytes matches
  ``reference_digests.json`` for the instances listed there.

``--trace 0`` reports the end-to-end metrics: ``solves_per_s`` (solves per
second spent in the timed operation), ``solve_ms_p50`` and ``solve_ms_p90``
(per-solve wall-clock latency; the run goes on past ``--seconds``, by at
most half as long again, until at least ten samples lie beyond p90),
``setup_s`` and ``peak_rss_mb`` of the measuring process. ``setup_s`` is
the median of nine set-ups, each importing polynash and generating the
workload's first documents in a fresh interpreter (see ``setup_once.py``).
They are spread evenly over the run, between solves, so that they meet the
same changes in host speed as the solves do. The harness keeps per-solve
latencies in a preallocated array and nothing else per solve, so its own
memory does not grow as solves get faster; a run ends early if that array
fills. The failure ratio is printed beside the metrics; the result line
carries it as ``failed`` / ``attempted``, since a metric that is normally 0
cannot carry a relative bound.

``--trace 1`` runs each instance untraced and then traced (see
``tracing.py``), checks that both give the same bytes, and reports
per-layer metrics per solve; it writes the kept spans to ``perfbench/out/``.

``--quick`` shrinks the instances, for the benchmark's own tests. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is
0 only when every solve passed its checks.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import polynash
    from polynash import oracle, serialize, solver

    import tracing
    import workloads
except ImportError as exc:  # reported by main(); importing must not exit
    polynash = None
    IMPORT_ERROR = exc

DEFAULT_SEED = 0
REFERENCE = HERE / "reference_digests.json"
SETUP_RUNS = 9
# p90 is reported only with at least ten samples beyond it
MIN_SAMPLES = 110
# capacity of the preallocated latency store (8 bytes a sample); several
# times what the fastest workload solves in a 35-s run
MAX_SAMPLES = 1 << 17

END_TO_END_UNITS = {
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "rank.member_polytope.calls": "calls/solve",
    "rank.member_polytope.self_s": "s/solve",
    "rank.member_polytope.accept_ratio": "ratio",
    "rank.validate_rank.self_s": "s/solve",
    "game.find_ssc_violation.calls": "calls/solve",
    "game.find_ssc_violation.self_s": "s/solve",
    "game.GameInstance.self_s": "s/solve",
    "game.induced_weights.calls": "calls/solve",
    "game.induced_weights.self_s": "s/solve",
    "bestresponse.is_best_response.calls": "calls/solve",
    "bestresponse.is_best_response.improvable_ratio": "ratio",
    "bestresponse.ordered_greedy.calls": "calls/solve",
    "bestresponse.ordered_greedy.self_s": "s/solve",
    "bestresponse.feasible_additions.calls": "calls/solve",
    "bestresponse.feasible_additions.self_s": "s/solve",
    "bestresponse.extend_best_response.calls": "calls/solve",
    "bestresponse.repair_best_response.calls": "calls/solve",
    "bestresponse.local_improvement.self_s": "s/solve",
    "solver.compute_pne.self_s": "s/solve",
    "solver.improving_players.calls": "calls/solve",
    "solver.improving_players.self_s": "s/solve",
    "solver.marginal_vector.calls": "calls/solve",
    "solver.marginal_vector.self_s": "s/solve",
    "solver.insertions": "count/solve",
    "solver.moves": "count/solve",
    "serialize.parse_instance.self_s": "s/solve",
    "serialize.write_profile.self_s": "s/solve",
    "serialize.write_trace.self_s": "s/solve",
    "serialize.trace_bytes": "bytes/solve",
    "trace.overhead_ratio": "ratio",
}


class CheckFailed(Exception):
    """A solve's output failed a correctness check."""


def solve_document(doc: bytes):
    """The timed operation. Names are looked up at call time, so tracing sees them."""
    g = serialize.parse_instance(doc)
    profile, trace = solver.compute_pne(g, solver.SolverPolicy())
    return g, serialize.write_profile(g, profile), serialize.write_trace(g, trace)


def output_digest(profile_bytes: bytes, trace_bytes: bytes) -> str:
    h = hashlib.sha256(profile_bytes)
    h.update(trace_bytes)
    return h.hexdigest()


def check_solve(g, profile_bytes: bytes, trace_bytes: bytes) -> tuple[int, int]:
    """Check one solve's output; return (insertions, improvement moves) of its trace."""
    report = oracle.verify_pne(g, serialize.parse_profile(profile_bytes, g))
    if not report.is_pne:
        raise CheckFailed(f"not an equilibrium: {report.violations[0]}")
    insertions, moves = serialize.check_trace(trace_bytes)
    if insertions != g.total_demand:
        raise CheckFailed(
            f"trace has {insertions} insertions for a total demand of {g.total_demand}"
        )
    return insertions, moves


def load_reference(workload: str) -> list[str]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"][workload]


class Run:
    """One workload run: its samples, failures and per-instance statistics."""

    def __init__(self, workload, seed: int, quick: bool, tracer=None) -> None:
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.tracer = tracer
        self.reference = (
            load_reference(workload.name) if seed == DEFAULT_SEED and not quick else []
        )
        self.latencies_ns = array.array("q", [0]) * MAX_SAMPLES
        self.solved = 0
        self.traced_ns = 0
        self.untraced_ns = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.digests_checked = 0
        # [min, max] of n, m and total demand over the solved instances
        self.ranges = {key: [math.inf, -math.inf] for key in ("n", "m", "total_demand")}
        self.trace_bytes = 0
        self.insertions = 0
        self.moves = 0
        self.loop_seconds = 0.0
        self.setups: list[float] = []
        self.setup_seconds = 0.0

    def setup(self) -> None:
        """Time one set-up in a fresh interpreter (see setup_once.py)."""
        command = [sys.executable, str(HERE / "setup_once.py"), self.workload.name]
        command += [str(self.seed), *(["--quick"] if self.quick else [])]
        start = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        self.setup_seconds += time.perf_counter() - start
        if done.returncode != 0:
            raise SystemExit(f"set-up failed:\n{done.stderr}")
        self.setups.append(float(done.stdout.split()[-1]))

    def step(self, index: int) -> None:
        doc = self.workload.document(self.seed, index, self.quick)
        self.attempted += 1
        try:
            start = time.perf_counter_ns()
            g, profile_bytes, trace_bytes = solve_document(doc)
            elapsed = time.perf_counter_ns() - start
            if self.tracer is not None:
                self._traced(doc, elapsed, profile_bytes, trace_bytes)
            insertions, moves = check_solve(g, profile_bytes, trace_bytes)
            if index < len(self.reference):
                self.digests_checked += 1
                if output_digest(profile_bytes, trace_bytes) != self.reference[index]:
                    raise CheckFailed("output bytes differ from the reference digest")
        except Exception as exc:  # any failure of one solve is counted, not fatal
            self.failures.append(f"instance {index}: {type(exc).__name__}: {exc}")
            return
        self.latencies_ns[self.solved] = elapsed
        self.solved += 1
        for key, value in (("n", g.n), ("m", g.m), ("total_demand", g.total_demand)):
            low, high = self.ranges[key]
            self.ranges[key] = [min(low, value), max(high, value)]
        self.trace_bytes += len(trace_bytes)
        self.insertions += insertions
        self.moves += moves

    def _traced(self, doc, untraced_ns, profile_bytes, trace_bytes) -> None:
        tracer = self.tracer
        tracer.install()
        try:
            start = time.perf_counter_ns()
            _, traced_profile, traced_trace = solve_document(doc)
            elapsed = time.perf_counter_ns() - start
        finally:
            tracer.uninstall()
            tracer.end_solve()
        if (traced_profile, traced_trace) != (profile_bytes, trace_bytes):
            raise CheckFailed("traced and untraced solves wrote different bytes")
        self.untraced_ns += untraced_ns
        self.traced_ns += elapsed

    def loop(self, seconds: float) -> None:
        """Solve instances 0, 1, ... until ``seconds`` have passed.

        An untraced run goes on past ``seconds`` until it has MIN_SAMPLES
        samples, but never past half as long again. Any run ends early once
        the latency store is full. An untraced run also times SETUP_RUNS
        set-ups; set-up k, counting from 0, starts once k/SETUP_RUNS of
        ``seconds`` have passed. Time spent in set-ups does not count
        towards ``seconds``.
        """
        start = time.perf_counter()
        index = 0
        while self.solved < MAX_SAMPLES:
            self.loop_seconds = time.perf_counter() - start - self.setup_seconds
            due = len(self.setups) * seconds <= self.loop_seconds * SETUP_RUNS
            if self.tracer is None and len(self.setups) < SETUP_RUNS and due:
                self.setup()
                continue
            if self.loop_seconds >= seconds and (
                self.tracer is not None
                or self.solved >= MIN_SAMPLES
                or self.loop_seconds >= 1.5 * seconds
            ):
                break
            self.step(index)
            index += 1
        while self.tracer is None and len(self.setups) < SETUP_RUNS:
            self.setup()

    def latencies_ms(self) -> list[float]:
        return [ns / 1e6 for ns in self.latencies_ns[: self.solved]]

    def end_to_end(self) -> dict[str, float]:
        # read before the summary below copies the samples
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ms = self.latencies_ms()
        return {
            "solves_per_s": len(ms) / (sum(ms) / 1e3),
            "solve_ms_p50": statistics.median(ms),
            "solve_ms_p90": p90(ms),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        tracer = self.tracer
        solves = max(tracer.solves, 1)
        out = {}
        for name in PER_LAYER_UNITS:
            layer, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = tracer.calls[tracer.layer(layer)] / solves
            elif stat == "self_s":
                out[name] = tracer.self_ns[tracer.layer(layer)] / 1e9 / solves
        member = tracer.layer("rank.member_polytope")
        best = tracer.layer("bestresponse.is_best_response")
        out["rank.member_polytope.accept_ratio"] = ratio(
            tracer.true_outcomes[member], tracer.calls[member]
        )
        out["bestresponse.is_best_response.improvable_ratio"] = 1 - ratio(
            tracer.true_outcomes[best], tracer.calls[best]
        )
        done = max(self.solved, 1)
        out["solver.insertions"] = self.insertions / done
        out["solver.moves"] = self.moves / done
        out["serialize.trace_bytes"] = self.trace_bytes / done
        out["trace.overhead_ratio"] = ratio(self.traced_ns, self.untraced_ns)
        return {name: out[name] for name in PER_LAYER_UNITS}

    def instance_stats(self) -> dict:
        if not self.solved:
            return {}
        return {**self.ranges, "mean_trace_bytes": self.trace_bytes / self.solved}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "polynash").glob("*.py"))
    )


def layer_table(tracer) -> list[str]:
    """Self time per layer, largest first, as shares of all traced time."""
    total = sum(tracer.self_ns) or 1
    rows = sorted(range(len(tracer.layers)), key=lambda k: -tracer.self_ns[k])
    return [
        f"  {tracer.layers[k]:<40} {tracer.self_ns[k] / total:6.1%} self, "
        f"{tracer.calls[k] / max(tracer.solves, 1):12.1f} calls/solve"
        for k in rows
        if tracer.calls[k]
    ]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("wide", "deep", "tiny"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced instance sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if polynash is None:
        print(f"cannot import polynash from {SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if not Path(polynash.__file__).resolve().is_relative_to(SRC):
        print(f"polynash was imported from {polynash.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(polynash) if args.trace else None
    run = Run(workload, args.seed, args.quick, tracer)
    gc.collect()
    run.loop(args.seconds)

    solved = run.solved
    if not solved:
        metrics = {}
    elif tracer is None:
        metrics = run.end_to_end()
    else:
        metrics = run.per_layer()
        if not tracer.restored():
            run.failures.append("tracing left a wrapped name bound")
        tracer.write_spans(HERE / "out" / f"spans-{args.workload}-{args.seed}.tsv")
    failed = len(run.failures)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS

    print(
        f"workload {args.workload}, seed {args.seed}{', quick' if args.quick else ''}: "
        f"{run.attempted} solves attempted in a closed loop (one process, one "
        f"thread, one solve in flight), {solved} timed samples"
    )
    beyond = 0
    if tracer is None and solved:
        beyond = sum(1 for x in run.latencies_ms() if x > metrics["solve_ms_p90"])
        print(
            f"  {solved} latency samples, {beyond} beyond p90; "
            f"setup_s is the median of {len(run.setups)} set-ups of "
            f"{workload.setup_documents} documents each"
        )
    for name, value in metrics.items():
        print(f"  {name:<48} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':<48} {ratio(failed, run.attempted):14.6g} failed/attempted")
    if tracer is not None:
        print(f"self time by layer over {tracer.solves} traced solves:")
        print("\n".join(layer_table(tracer)))
    for failure in run.failures[:10]:
        print(f"FAILED {failure}")
    context = {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_polynash_lines": source_lines(),
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "loop_seconds": run.loop_seconds,
        "samples": solved,
        "samples_beyond_p90": beyond,
        "digests_checked": run.digests_checked,
        "instances": run.instance_stats(),
    }
    if tracer is not None:
        context["wrapped_bindings"] = tracer.bindings
    print("context " + json.dumps(context, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0 and solved > 0,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 and solved > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
