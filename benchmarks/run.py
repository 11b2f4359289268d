"""Offline benchmark of spikeconv: train and eval-soft workloads.

Run from the repository root (stdlib and numpy only):

    python3 benchmarks/run.py --workload eval-soft --seed 3 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the traced pass and reports the per-layer metrics. Human-readable
lines go first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is non-zero, with no JSON printed, when the package sources are
missing or no measured operation completes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "spikeconv" / "__init__.py").is_file():
        print(f"error: package sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    # checked here rather than through argparse choices: the workload list
    # lives in workloads.py, which needs the package sources to import
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.trace:
            result = workloads.trace(args.workload, args.seed, workloads.FULL, workdir)
        else:
            result = workloads.measure(args.workload, args.seed, args.seconds,
                                       workloads.FULL, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass

    samples, wall = result["samples"], result["wall"]
    for name, m in result["metrics"].items():
        n = f"  (n={samples[name]})" if name in samples else ""
        raw = f"  wall {wall[name]:.6g} {m['unit']}" if name in wall else ""
        print(f"{name:56s} {m['value']:.6g} {m['unit']}{n}{raw}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':56s} {frac:.6g} fraction  ({result['failed']}/{result['attempted']})")
    for name, value in result["quality"].items():
        print(f"{name:56s} {value:.6g}")
    for note in result["notes"]:
        print(f"FAILED {note}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
