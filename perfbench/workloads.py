"""Operation lists of the benchmark workloads, generated from a seed.

Every operation is a JSON-able dict with a ``name``, a ``type`` and what the
checks in ``checks.py`` need to verify its output:

* ``config``: one entry in the ``circletrace run`` batch format, run through
  config -> ``run_experiment`` -> ``emit_report``;
* ``call``: one direct call of a public library function (see ``CALLS`` in
  ``worker.py``);
* ``probe``: a rejected config run through ``circletrace.cli.main``; it
  passes only when the CLI exits with code 2 (``ParameterError``).

The seed picks coefficient values, phases and twist forms only.  Sizes,
supports and mode sets never depend on it, so the work per pass and every
per-layer count are the same for all seeds.  Only the standard library is
used here, so inputs are generated without importing numpy.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("hankel-spectra", "symbol-quadrature", "torus-sequences")


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def _unit_complex(rng: random.Random, lo: float = 0.3, hi: float = 1.0) -> complex:
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _modes(coeffs: dict[int, complex]) -> dict:
    """Interchange form {"modes": [[k, re, im], ...]} sorted by mode."""
    return {"modes": [[k, coeffs[k].real, coeffs[k].imag] for k in sorted(coeffs)]}


def _trig_poly(rng: random.Random, lo: int, hi: int) -> dict[int, complex]:
    return {k: _unit_complex(rng) for k in range(lo, hi + 1)}


def _config(name: str, kind: str, params: dict, fmt: str = "json", **check) -> dict:
    entry = {"kind": kind, "params": params, "output": {"format": fmt}}
    return {"name": name, "type": "config", "entry": entry, "check": check}


def _sweep(name: str, alpha: float, gamma: int, n: int, rule: str, **window) -> dict:
    params = {"alpha": alpha, "gamma": gamma, "N": n, "c": rule, **window}
    return _config(name, "SingularValueSweep", params, check="sweep")


def hankel_spectra(seed: int) -> list[dict]:
    ops = [
        _sweep(f"sweep-alpha{alpha}", alpha, 2, 2048, "constant:1", k_lo=16, k_hi=512)
        for alpha in (0.3, 0.5, 0.7)
    ]
    # W(1/2, 3, block-indicator) has only three nonzero levels below 2N, so its
    # spectrum has rank 27; the fit window stays inside the nonzero part.
    ops.append(_sweep("sweep-gamma3-block", 0.5, 3, 1024, "block-indicator:2", k_lo=1, k_hi=8))
    ops.append(_sweep("sweep-sqrt-log-cos", 0.5, 2, 1024, "sqrt-log-cos"))
    ops.append(
        _config("winding-z3", "Winding", {"a": "z^3", "N": 1024}, check="winding", degree=3)
    )
    # a = z^-2 * q with q = 1 + sum c_k z^k, sum |c_k| = 0.6: q never reaches 0
    # on the circle and has winding number 0, so deg(a) = -2.
    rng = _rng(seed, "laurent")
    tail = {k: _unit_complex(rng) for k in range(-3, 4) if k}
    scale = 0.6 / sum(abs(v) for v in tail.values())
    laurent = {k - 2: v * scale for k, v in tail.items()}
    laurent[-2] = 1.0 + 0j
    ops.append(
        _config(
            "winding-laurent", "Winding", {"a": _modes(laurent), "N": 1024},
            check="winding", degree=-2,
        )
    )
    poly = _trig_poly(_rng(seed, "trig-hankel"), -24, 24)
    ops.append(
        {
            "name": "hankel-trig-poly",
            "type": "call",
            "call": "hankel_singular_values",
            "args": {"a": _modes(poly), "n": 1024},
            "check": {"check": "trig_hankel", "degree": 24},
        }
    )
    return ops


def _kernel_symbols(rng: random.Random) -> tuple[dict, dict]:
    a = {k: _unit_complex(rng) for k in (1, 2, 3, -2)}
    b = {k: _unit_complex(rng) for k in (-1, -2, -3, 2)}
    return _modes(a), _modes(b)


def symbol_quadrature(seed: int, probe_dir: str) -> list[dict]:
    ops = []
    for n in (64, 128):
        a, b = _kernel_symbols(_rng(seed, f"kernel{n}"))
        # r = 1 - 1e-8: with the default r = 1 - 1e-6 the interior-radius bias
        # alone is about 5e-6 (unnormalized) at N = 128, above the 1e-6 check.
        params = {"a": a, "b": b, "N": n, "r": 1.0 - 1e-8}
        ops.append(_config(f"kernel-N{n}", "KernelCheck", params, check="kernel"))
    ops.append(
        _config(
            "hn-m8", "HnCheck", {"m_max": 8, "N": 2**14, "t_points": 64}, check="hn"
        )
    )
    ops.append(
        _config(
            "weierstrass-2^40", "WeierstrassTrace",
            {"gamma": 2, "c": "constant:1", "d": "constant:1", "N": "2**40"},
            check="weierstrass", gamma=2,
        )
    )
    lacunary = {"weierstrass": {"alpha": 0.5, "gamma": 2, "c": "constant:1", "cutoff": 2**16}}
    ops.append(
        _config(
            "fourier-symmetric-lacunary", "FourierTrace",
            {"a": lacunary, "b": lacunary, "N": 2**16, "symmetric": True},
            check="symmetric_lacunary", gamma=2,
        )
    )
    w_args = {"alpha": 0.5, "gamma": 2, "cutoff": 2**14}
    ops.append(
        {
            "name": "holder-norm-star",
            "type": "call",
            "call": "holder_norm_star",
            "args": w_args,
            "check": {"check": "holder"},
        }
    )
    ops.append(
        {
            "name": "besov-norm",
            "type": "call",
            "call": "besov_norm",
            "args": {**w_args, "t": 0.5, "p": 2, "q": 2},
            "check": {"check": "besov"},
        }
    )
    # Rejected configs: each must end in a ParameterError (exit 2).  Their
    # inputs never depend on the seed.
    _, good_b = _kernel_symbols(_rng(0, "probe"))
    probes = {
        "probe-missing-a": {"kind": "KernelCheck", "params": {"b": good_b, "N": 16}},
        "probe-bad-mode": {
            "kind": "KernelCheck",
            "params": {"a": {"modes": [[1, "x", 0]]}, "b": good_b, "N": 16},
        },
        "probe-misspelled-gamma": {
            "kind": "WeierstrassTrace",
            "params": {"gama": 3},
        },
    }
    for name, entry in probes.items():
        entry["output"] = {"path": f"{probe_dir}/{name}.out", "format": "json"}
        ops.append(
            {
                "name": name,
                "type": "probe",
                "path": f"{probe_dir}/{name}.json",
                "doc": {"experiments": [entry]},
            }
        )
    return ops


def torus_sequences(seed: int) -> list[dict]:
    rng = _rng(seed, "twist2")
    t = rng.uniform(-math.pi, math.pi)
    ops = [
        _config(
            "nctorus-n2-N512", "NcTorus",
            {
                "n": 2, "N": 512, "T": "grading-dirac",
                "theta": {"matrix": [[0.0, t], [-t, 0.0]]},
                "symbols": [{"pair": [1, 0]}, {"pair": [0, 1]}, {"pair": [1, 1]}],
            },
            check="nctorus", pair=[[1, 0], [0, 1]], imaginary=True,
        )
    ]
    rng = _rng(seed, "twist3")
    upper = [[rng.uniform(-1.0, 1.0) if j > i else 0.0 for j in range(3)] for i in range(3)]
    theta3 = [[upper[i][j] - upper[j][i] for j in range(3)] for i in range(3)]
    ops.append(
        _config(
            "nctorus-n3-N256", "NcTorus",
            {
                "n": 3, "N": 256, "T": "dirac", "theta": {"matrix": theta3},
                "symbols": [{"pair": [1, 0, 0]}, {"pair": [0, 1, 1]}, {"pair": [1, 1, 1]}],
            },
            check="nctorus", pair=[[1, 0, 0], [0, 1, 1]], imaginary=False,
        )
    )
    entries = [
        {"label": "block-indicator", "c": "block-indicator:2"},
        {"label": "sqrt-log-cos", "c": "sqrt-log-cos"},
        {"label": "constant", "c": "constant:1"},
    ]
    ops.append(
        _config(
            "measurability-4^10", "Measurability", {"N": "4**10", "entries": entries},
            check="measurability",
            expect={"block-indicator": "oscillating", "sqrt-log-cos": "oscillating",
                    "constant": "convergent"},
        )
    )
    # b = conj(a) makes every partial sum real, as in a Fourier-side trace of
    # a real pairing; the JSON report is then about 7 MB.
    a = _trig_poly(_rng(seed, "dense"), -16, 16)
    b = {-k: v.conjugate() for k, v in a.items()}
    for fmt in ("json", "csv"):
        ops.append(
            _config(
                f"fourier-dense-2^17-{fmt}", "FourierTrace",
                {"a": _modes(a), "b": _modes(b), "N": 2**17}, fmt, check="fourier_dense",
            )
        )
    rng = _rng(seed, "residue")
    ops.append(
        {
            "name": "residue-pipeline",
            "type": "call",
            "call": "residue_pipeline",
            "args": {
                "a": _modes(_trig_poly(rng, -16, 16)),
                "b": _modes(_trig_poly(rng, -16, 16)),
                "n": 512,
                "degree": 16,
            },
            "check": {"check": "residue"},
        }
    )
    return ops


def build(workload: str, seed: int, probe_dir: str) -> list[dict]:
    if workload == "hankel-spectra":
        return hankel_spectra(seed)
    if workload == "symbol-quadrature":
        return symbol_quadrature(seed, probe_dir)
    if workload == "torus-sequences":
        return torus_sequences(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
