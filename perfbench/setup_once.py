"""Time one benchmark set-up in a fresh interpreter; print the seconds taken.

Usage: python3 perfbench/setup_once.py WORKLOAD SEED [--quick]

A set-up is importing polynash and generating the workload's first
documents from the seed (``Workload.setup_documents`` of them). A fresh
interpreter is needed because a module is imported only once per process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import workloads  # noqa: E402  (imports polynash; part of what is timed)

workload = workloads.WORKLOADS[sys.argv[1]]
seed = int(sys.argv[2])
quick = "--quick" in sys.argv[3:]
for index in range(workload.setup_documents):
    workload.document(seed, index, quick)
print(time.perf_counter() - start)
