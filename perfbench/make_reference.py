"""Rewrite reference_digests.json from the current solver's output.

Usage: python3 perfbench/make_reference.py

Solves the first 200 instances of every workload at the default seed,
checks each output, and records SHA-256 of its profile and trace bytes.
Rewrite the file only in a change that means to alter output bytes;
otherwise a mismatch in run.py is a regression.
"""

import json

import run
from workloads import WORKLOADS

COUNT = 200
digests = {}
for name, workload in WORKLOADS.items():
    digests[name] = []
    for index in range(COUNT):
        g, profile_bytes, trace_bytes = run.solve_document(
            workload.document(run.DEFAULT_SEED, index)
        )
        run.check_solve(g, profile_bytes, trace_bytes)
        digests[name].append(run.output_digest(profile_bytes, trace_bytes))
document = {"seed": run.DEFAULT_SEED, "digests": digests}
run.REFERENCE.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
print(f"wrote {COUNT} digests per workload to {run.REFERENCE}")
