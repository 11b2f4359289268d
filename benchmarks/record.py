"""Record the reference digests that every benchmark run compares against.

    python3 benchmarks/record.py

Writes ``benchmarks/reference.json``: for each workload, the sha256 of the
IDX dataset bytes, the model bytes, the fit and test feature matrices, the
test predictions and the raw output fire times, at full size for seeds
0..SEEDS-1 and at the tiny size for the gate seed. Run it only on a commit
whose outputs are known good: a later change must reproduce these digests
bit for bit.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

SEEDS = 32


def main() -> int:
    jobs = [("tiny", w, workloads.GATE_SEED) for w in workloads.WORKLOADS]
    jobs += [("full", w, s) for s in range(SEEDS) for w in workloads.WORKLOADS]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    table = {"tiny": {w: {} for w in workloads.WORKLOADS},
             "full": {w: {} for w in workloads.WORKLOADS}}
    for sizes_name, workload, seed in jobs:
        sizes = workloads.FULL if sizes_name == "full" else workloads.TINY
        workdir = Path(tempfile.mkdtemp(prefix="record-", dir=work_root))
        try:
            digests = workloads.reference_digests(workload, seed, sizes, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        table[sizes_name][workload][str(seed)] = digests
        print(sizes_name, workload, seed, digests["predictions"][:16], flush=True)
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
