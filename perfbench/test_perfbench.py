"""Tests of the benchmark itself. Run with: python3 -m pytest perfbench"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def declared_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_run_prints_every_metric_with_its_unit(workload, trace, kind):
    done = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--quick"
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert re.search(r"^  fail_ratio +0 failed/attempted$", done.stdout, re.M)
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == declared_units(kind)
    for name, unit in units.items():
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$", done.stdout, re.M)
    context = json.loads(lines[-2].removeprefix("context "))
    assert context["samples"] == result["attempted"]
    if trace == "0":
        assert context["samples_beyond_p90"] >= 10


def test_default_seed_outputs_match_the_reference_digests():
    for name, workload in workloads.WORKLOADS.items():
        reference = run.load_reference(name)
        for index in range(2):
            doc = workload.document(run.DEFAULT_SEED, index)
            g, profile_bytes, trace_bytes = run.solve_document(doc)
            run.check_solve(g, profile_bytes, trace_bytes)
            assert run.output_digest(profile_bytes, trace_bytes) == reference[index]


def test_documents_are_a_function_of_seed_and_index():
    workload = workloads.WORKLOADS["deep"]
    assert workload.document(5, 2) == workload.document(5, 2)
    assert workload.document(5, 2) != workload.document(6, 2)
    assert workload.document(5, 2) != workload.document(5, 3)


def test_tracing_keeps_output_bytes_and_restores_every_binding():
    polynash = run.polynash
    original = polynash.rank.member_polytope
    tracer = tracing.Tracer(polynash)
    doc = workloads.WORKLOADS["wide"].document(1, 0, quick=True)
    plain = run.solve_document(doc)[1:]
    tracer.install()
    try:
        assert polynash.bestresponse.member_polytope is not original
        traced = run.solve_document(doc)[1:]
    finally:
        tracer.uninstall()
        tracer.end_solve()
    assert traced == plain
    assert tracer.restored()
    assert polynash.bestresponse.member_polytope is original
    assert tracer.calls[tracer.layer("rank.member_polytope")] > 0
    assert tracer.calls[tracer.layer("game.GameInstance")] == 1
    assert all(ns >= 0 for ns in tracer.self_ns)


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "tiny", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
