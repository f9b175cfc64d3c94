"""Benchmark of circletrace experiment batches.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hankel-spectra --seed 1 --seconds 40 --trace 0

Generates the workload's operations from the seed, then runs them in child
processes of ``worker.py``, which import the checkout's ``src/``:
one process that measures (``--trace 0``) between ``SETUP_PROBES``
processes before and after it that only time the set-up, or one process
that traces (``--trace 1``).  Children run one at a
time with no more BLAS threads than this process may use cores.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 1 without a result when the checkout has
no ``src/circletrace`` or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5  # set-up-only processes before and after the measuring one
BUDGET_S = 175.0  # whole run, children included


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), *args]
    proc = subprocess.run(
        cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="circletrace experiment-batch benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "circletrace" / "__init__.py").is_file():
        print(f"no circletrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    ops = workloads.build(args.workload, args.seed, str(WORK))
    for op in ops:
        if op["type"] == "probe":
            Path(op["path"]).write_text(json.dumps(op["doc"]))
    batch = WORK / f"{tag}.ops.json"
    batch.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "ops": ops}))

    probe = ["--batch", str(batch), "--role", "setup"]
    try:
        if args.trace:
            setup = []
            result = _worker(["--batch", str(batch), "--role", "trace"], deadline)
        else:
            # set-up probes before and after the measuring process, so the
            # median spans the machine's state over the whole run
            setup = [_worker(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            role = ["--role", "measure", "--seconds", str(args.seconds)]
            result = _worker(["--batch", str(batch), *role], deadline)
            setup += [_worker(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = result["metrics"]
    if not args.trace:
        setup.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(f"pass_s: {result['pass_s']}, setup_s samples: {setup}", file=sys.stderr)
    print(f"op_s: {json.dumps(result['op_s'])}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
