"""Runs one workload's operations in this process and prints one JSON line.

Started by ``run.py``; not meant to be run by hand.  Roles:

* ``setup``: time the set-up only (import of circletrace, loading the batch,
  one BLAS warm-up call) and exit;
* ``measure``: set up, then run whole passes over the operations with
  tracing off, at least two and as many more as end within ``--seconds``;
* ``trace``: set up, run two passes with tracing off and one with every
  layer wrapped (``tracing.py``), and report the per-layer metrics of the
  traced pass and its difference from the second untraced one.

In both measuring roles the first pass only records a digest of every
output; the second compares its digests with them and checks every output
(``checks.py``).  So the peak memory read after the first pass is the
program's, not the checker's.

Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def _setup(batch_path: str):
    start = time.perf_counter()
    import numpy as np

    import circletrace
    import circletrace.cli

    with open(batch_path) as fh:
        batch = json.load(fh)
    warm = np.ones((256, 256))
    warm @ warm
    return time.perf_counter() - start, batch, circletrace


class Library:
    """The layer modules, or once tracing is installed the views of them that
    ``tracing.install`` returns, looked up at call time."""

    def __init__(self) -> None:
        import importlib

        self.modules = {
            name: importlib.import_module(f"circletrace.{name}") for name in tracing.LAYERS
        }
        self.views: dict = {}

    def __getattr__(self, name):
        return self.views[name] if name in self.views else self.modules[name]


def _symbol(lib: Library, obj: dict):
    return lib.fourier.symbol_from_json_obj(obj)


def _weierstrass(lib: Library, alpha: float, gamma: int, cutoff: int):
    fourier = lib.fourier
    params = fourier.WeierstrassParams(alpha, gamma, fourier.CoefficientRule.constant(1.0))
    return fourier.weierstrass_symbol(params, cutoff)


def _hankel_singular_values(lib: Library, a: dict, n: int):
    op = lib.operators.hankel_matrix(_symbol(lib, a), n)
    return lib.spectral.singular_values(op).mu


def _holder_norm_star(lib: Library, alpha: float, gamma: int, cutoff: int):
    return lib.littlewood_paley.holder_norm_star(
        _weierstrass(lib, alpha, gamma, cutoff), alpha, gamma
    )


def _besov_norm(lib: Library, alpha, gamma, cutoff, t, p, q):
    return lib.littlewood_paley.besov_norm(
        _weierstrass(lib, alpha, gamma, cutoff), t, p, q, gamma
    )


def _residue_pipeline(lib: Library, a: dict, b: dict, n: int, degree: int):
    """operator_product -> hardy_compress -> residue_sequence -> classify_limit.

    The classifier gets the real parts of the partial sums inside the safe
    band [degree, n - degree), where they are constant.
    """
    ops = lib.operators
    product = ops.operator_product(
        [
            ops.szego_projection(n),
            ops.commutator_matrix(_symbol(lib, a), n),
            ops.commutator_matrix(_symbol(lib, b), n),
        ]
    )
    residue = lib.dixmier.residue_sequence(ops.hardy_compress(product, n))
    verdict = lib.dixmier.classify_limit(residue.partial_sums.real[degree : n - degree])
    return residue.partial_sums, verdict


CALLS = {
    "hankel_singular_values": _hankel_singular_values,
    "holder_norm_star": _holder_norm_star,
    "besov_norm": _besov_norm,
    "residue_pipeline": _residue_pipeline,
}


def run_op(lib: Library, op: dict):
    """Execute one operation and return its output."""
    if op["type"] == "config":
        cli = lib.cli
        config = cli._config_from_json_obj(op["entry"])
        return cli.emit_report(cli.run_experiment(config), config.out_format)
    if op["type"] == "call":
        return CALLS[op["call"]](lib, **op["args"])
    try:  # probe: a rejected config must end in exit code 2
        return f"exit {lib.cli.main(['run', '--config', op['path']])}"
    except Exception as exc:  # the fault the probe exists to count
        return f"raised {type(exc).__name__}"


def digest(output) -> str:
    """Bytes that identify an output exactly, for the across-pass comparison."""
    parts = output if isinstance(output, tuple) else (output,)
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            sha.update(part)
        elif hasattr(part, "tobytes"):
            sha.update(part.tobytes())
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()


class Passes:
    """Runs whole passes and keeps the counts and timings the result needs."""

    def __init__(self, lib: Library, ops: list[dict], checker) -> None:
        self.lib = lib
        self.ops = ops
        self.checker = checker
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.wall: list[float] = []
        self.op_wall: dict[str, list[float]] = {op["name"]: [] for op in ops}
        self.op_cpu: dict[str, list[float]] = {op["name"]: [] for op in ops}

    def run(self, check: bool = False) -> None:
        """One pass; with ``check``, every output is also checked."""
        wall = 0.0
        for op in self.ops:
            self.attempted += 1
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            try:
                output = run_op(self.lib, op)
            except Exception as exc:
                output = None
                self.problems.append(f"{op['name']}: raised {type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            wall += t1 - t0
            self.op_wall[op["name"]].append(t1 - t0)
            self.op_cpu[op["name"]].append(
                (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
            )
            if output is None:
                self.failed += 1
            elif op["type"] == "probe":
                if output != "exit 2":
                    self.failed += 1
            else:
                self._verify(op, output, check)
            output = None  # release a large report before the next operation
        self.wall.append(wall)

    @staticmethod
    def per_pass(times: dict[str, list[float]]) -> float:
        """One pass's time taken op by op: each operation's median over the
        passes, summed, so that interference from the shared host during one
        operation of one pass does not move the figure."""
        return sum(statistics.median(t) for t in times.values())

    def _verify(self, op: dict, output, check: bool) -> None:
        current = digest(output)
        first = self.digests.setdefault(op["name"], current)
        if first != current:
            self.problems.append(f"{op['name']}: output differs between passes")
        elif check:
            try:
                found = self.checker(op, output)
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                found = [f"output not parseable: {type(exc).__name__}: {exc}"]
            self.problems += [f"{op['name']}: {p}" for p in found]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(tracer, lib: Library, overhead: float) -> dict:
    self_s = tracer.layer_self_seconds()
    counts = tracer.counts
    built = counts["operators.built"]
    hats = counts["littlewood_paley.hat_entries"]
    out = {f"{layer}.self_s": _metric(self_s.get(layer, 0.0), "s") for layer in lib.modules}
    for name in (
        "cli.ops", "spectral.svd_n3", "spectral.values", "operators.entries_built",
        "closed_forms.kernel_points", "closed_forms.comb_terms",
        "littlewood_paley.hat_entries", "fourier.eval_points", "fourier.rule_coeffs",
        "dixmier.classified_len", "nc_torus.ball_points", "nc_torus.phase_products",
    ):
        out[name] = _metric(counts[name], "count")
    out["operators.matmul_flops"] = _metric(counts["operators.matmul_flops"], "flop")
    out["report.bytes"] = _metric(counts["report.bytes"], "B")
    out["operators.real_entry_ratio"] = _metric(
        counts["operators.real_built"] / built if built else 0.0, "ratio"
    )
    out["littlewood_paley.hat_hit_ratio"] = _metric(
        counts["littlewood_paley.hat_hits"] / hats if hats else 0.0, "ratio"
    )
    out["trace.overhead_s"] = _metric(overhead, "s")
    out["trace.spans"] = _metric(len(tracer.names), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", required=True)
    parser.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    setup_s, batch, package = _setup(args.batch)
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"circletrace imported from {package.__file__}, not this checkout", file=sys.stderr)
        return 1
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks

    lib = Library()
    passes = Passes(lib, batch["ops"], checks.check)
    result = {"setup_s": setup_s}
    if args.role == "measure":
        start = time.perf_counter()
        passes.run()
        # Peak over set-up and one pass, as one `circletrace run` of the batch
        # reaches; later passes start from a heap the first one fragmented,
        # and the second runs the checks.
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.run(check=True)
        # whole passes only, none that would end past the run's length
        while time.perf_counter() - start + passes.wall[-1] <= args.seconds:
            passes.run()
        metrics = {
            "batch_s": _metric(passes.per_pass(passes.op_wall), "s"),
            "cpu_s": _metric(passes.per_pass(passes.op_cpu), "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
        }
    else:
        passes.run()
        passes.run(check=True)  # untraced reference, not the process's cold first pass
        tracer = tracing.Tracer()
        lib.views = tracing.install(tracer, package, lib.modules)
        origin = time.perf_counter()
        passes.run()
        metrics = _layer_metrics(tracer, lib, passes.wall[2] - passes.wall[1])
        spans = args.batch.removesuffix(".ops.json") + ".spans.jsonl"
        tracer.write_spans(spans, origin)
    result.update(
        correct=not passes.problems,
        attempted=passes.attempted,
        failed=passes.failed,
        pass_s=passes.wall,
        op_s=passes.op_wall,
        problems=passes.problems,
        metrics=metrics,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
