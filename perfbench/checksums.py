"""Print a SHA-256 checksum of every benchmark output, for comparing commits.

Usage (from the root of a checkout):

    python3 perfbench/checksums.py --seed 1 > checksums.txt

Runs one pass of each workload in this process and prints
``<sha256>  <workload>/<operation>`` per line.  A report is hashed as the exact bytes ``emit_report`` returned; a direct call
as the bytes of its returned arrays or the repr of its returned numbers.
Probes are skipped.  Run it on two commits with the same seed and compare
the files with ``diff``: a difference is a changed report.  BLAS threads
default to the number of usable cores, as in the benchmark, because the
summation order of a decomposition may depend on them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from worker import Library, digest, run_op

    lib = Library()
    WORK.mkdir(parents=True, exist_ok=True)
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, args.seed, str(WORK)):
            if op["type"] != "probe":
                print(f"{digest(run_op(lib, op))}  {workload}/{op['name']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
