"""Output checks computed apart from the program.

Each check takes the operation spec and its output (report bytes, or the
value a direct call returned) and returns a list of problems; an empty list
means the output is correct.  Coefficients are rebuilt here from the rule
definitions and the generated inputs, never through circletrace, and every
tolerance is fixed from the float64 arithmetic involved or from a property
the method must have (see README.md).
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np


def _csv_sequence(data: bytes, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(points, complex values) of the rows of one series in a CSV report."""
    body = data[data.index(b"\n") + 1 :]  # rows after the header, four cells each
    cells = np.array(body.replace(b"\n", b",").split(b",")[:-1]).reshape(-1, 4)
    rows = cells[cells[:, 0] == name.encode()]
    values = rows[:, 2].astype(float) + 1j * rows[:, 3].astype(float)
    return rows[:, 1].astype(np.int64), values


def _scalar(report: dict, prefix: str):
    for entry in report["scalars"]:
        if entry["expression"].startswith(prefix):
            value = entry["value"]
            return complex(*value) if isinstance(value, list) else value
    raise KeyError(f"report has no scalar {prefix!r}")


def _sequence(report: dict, name: str) -> tuple[np.ndarray, np.ndarray]:
    for seq in report["sequences"]:
        if seq["name"] == name:
            # a sequence is all real numbers or all [re, im] pairs
            vals = np.asarray(seq["values"])
            if vals.ndim == 2:
                vals = vals[:, 0] + 1j * vals[:, 1]
            return np.asarray(seq["points"]), vals
    raise KeyError(f"report has no sequence {name!r}")


def _coeffs(obj: dict) -> dict[int, complex]:
    return {int(k): complex(re, im) for k, re, im in obj["modes"]}


def _rule_value(rule: str, n: int) -> float:
    """c_n of a compact rule string, from the rule definitions."""
    name, _, arg = rule.partition(":")
    if name == "constant":
        return float(arg)
    if name == "block-indicator":
        base = int(arg)
        lo = 1  # 0 on [base^(2j), base^(2j+1)), 1 elsewhere
        while lo <= n:
            if n < lo * base:
                return 0.0
            lo *= base * base
        return 1.0
    if name == "sqrt-log-cos":
        return math.sqrt(2.0 + math.cos(math.log(max(n, 1))))
    raise ValueError(f"no reference for rule {rule!r}")


def _lacunary(alpha: float, gamma: int, rule: str, cutoff: int) -> dict[int, float]:
    """Analytic coefficients a_(gamma^n) = gamma^(-alpha n) c_n, gamma^n <= cutoff."""
    out, power, n = {}, 1, 0
    while power <= cutoff:
        out[power] = gamma ** (-alpha * n) * _rule_value(rule, n)
        power *= gamma
        n += 1
    return out


def _hankel_frobenius(coeffs: dict[int, complex], n: int) -> float:
    """sum_k mu_k^2 = sum_{s=1}^{2N-1} min(s, 2N-s) |a_s|^2 for H[l, i] = a_(l+i+1)."""
    return sum(min(s, 2 * n - s) * abs(v) ** 2 for s, v in coeffs.items() if 1 <= s < 2 * n)


def _close(value, target, tol: float, what: str) -> list[str]:
    if abs(value - target) <= tol:
        return []
    return [f"{what}: got {value!r}, want {target!r} (tolerance {tol:.1e})"]


def _spectrum(mu: np.ndarray, coeffs: dict, n: int) -> list[str]:
    problems = []
    if mu.size != n:
        problems.append(f"{mu.size} singular values for N = {n}")
    if np.any(mu < 0) or np.any(np.diff(mu) > 0):
        problems.append("singular values are not nonnegative and nonincreasing")
    frob = _hankel_frobenius(coeffs, n)
    problems += _close(float(np.sum(mu**2)), frob, 1e-10 * frob, "sum mu_k^2")
    return problems


def check_sweep(op: dict, data: bytes) -> list[str]:
    report = json.loads(data)
    p = op["entry"]["params"]
    n, alpha = p["N"], p["alpha"]
    mu = np.asarray(_sequence(report, "mu")[1], dtype=float)
    problems = _spectrum(mu, _lacunary(alpha, p["gamma"], p["c"], 2 * n), n)
    if p["c"].startswith("constant"):
        slope = _scalar(report, "log-log decay slope")
        problems += _close(slope, -alpha, 0.1, "decay slope")
    k = np.arange(mu.size, dtype=float)
    quasinorm = float(np.max((1.0 + k) ** alpha * mu))
    reported = _scalar(report, "sup_k (1+k)^(1/p) mu_k")
    problems += _close(reported, quasinorm, 1e-12 * quasinorm, "weak quasinorm")
    return problems


def check_winding(op: dict, data: bytes) -> list[str]:
    report = json.loads(data)
    degree = op["check"]["degree"]
    value = _scalar(report, "tr((2P-1)[P,a][P,a^-1])")
    problems = _close(value, -degree, 1e-8, "winding trace")
    problems += _close(_scalar(report, "nearest integer"), -degree, 0, "nearest integer")
    problems += _close(_scalar(report, "imaginary defect"), 0.0, 1e-8, "imaginary defect")
    return problems


def check_trig_hankel(op: dict, mu: np.ndarray) -> list[str]:
    n, degree = op["args"]["n"], op["check"]["degree"]
    problems = _spectrum(mu, _coeffs(op["args"]["a"]), n)
    tail = float(np.max(mu[degree:]))
    if not tail < 1e-12:
        problems.append(f"mu_k up to {tail:.3e} beyond the analytic degree {degree}")
    return problems


def check_kernel(op: dict, data: bytes) -> list[str]:
    report = json.loads(data)
    p = op["entry"]["params"]
    n = p["N"]
    a, b = _coeffs(p["a"]), _coeffs(p["b"])
    double_sum = sum(min(k, n + 1) * v * b[-k] for k, v in a.items() if k >= 1 and -k in b)
    oracle = -double_sum / math.log(n)
    value = _scalar(report, "tr(P[P,a][P,b]) via kernel quadrature")
    problems = _close(value, oracle, 1e-6, "kernel quadrature")
    reported = _scalar(report, "-sum_{l<=N} sum_{k>l} a_k b_{-k}")
    problems += _close(reported, oracle, 1e-12 * max(1.0, abs(oracle)), "double sum")
    return problems


def check_hn(op: dict, data: bytes) -> list[str]:
    """The binomial and derivative forms agree to float64 rounding.

    Both sum to about t^(-m)/m, largest at the smallest grid point t = 1/t_points,
    so each gap is bounded relative to that size.
    """
    report = json.loads(data)
    p = op["entry"]["params"]
    problems, gaps = [], []
    for m in range(1, p["m_max"] + 1):
        gap = _scalar(report, f"max |binomial - derivative| at m={m}")
        gaps.append(gap)
        size = p["t_points"] ** m / m
        problems += _close(gap, 0.0, 1e-12 * size, f"form gap at m={m}")
    problems += _close(_scalar(report, "worst discrepancy over m"), max(gaps), 0.0, "worst gap")
    geometric = report["checks"][0]["abs_discrepancy"]
    problems += _close(geometric, 0.0, 1e-12 * p["t_points"], "m=1 geometric reduction")
    return problems


def _levels(gamma: int, points: np.ndarray) -> np.ndarray:
    """floor(log_gamma M) + 1 = number of powers gamma^n <= M, in integers."""
    powers = [1]
    while powers[-1] * gamma <= int(points.max()):
        powers.append(powers[-1] * gamma)
    return np.searchsorted(np.asarray(powers, dtype=np.int64), points, side="right")


def check_weierstrass(op: dict, data: bytes) -> list[str]:
    report = json.loads(data)
    gamma = op["check"]["gamma"]
    points, values = _sequence(report, "partial_sums")
    n_trunc = 2**40
    want_points = [gamma**j for j in range(1, 64) if gamma**j <= n_trunc]
    if want_points[-1] != n_trunc:
        want_points.append(n_trunc)
    problems = [] if list(points) == want_points else ["partial-sum points differ"]
    expected = -_levels(gamma, points) / np.log(points.astype(float))
    worst = float(np.max(np.abs(values - expected)))
    problems += _close(worst, 0.0, 1e-12, "lacunary partial sums")
    limit = _scalar(report, "extrapolated limit of")
    problems += _close(limit, -1.0 / math.log(gamma), 1e-3, "extrapolated limit")
    return problems


def check_symmetric_lacunary(op: dict, data: bytes) -> list[str]:
    gamma = op["check"]["gamma"]
    n_trunc = op["entry"]["params"]["N"]
    points, values = _sequence(json.loads(data), "trace")
    if not np.array_equal(points, np.arange(2, n_trunc + 1)):
        return ["trace points are not 2..N"]
    # each level gamma^n <= M adds |k| a_k b_-k = 1 from both mode signs
    expected = -2.0 * _levels(gamma, points) / np.log(points.astype(float))
    worst = float(np.max(np.abs(values - expected)))
    return _close(worst, 0.0, 1e-12, "symmetric lacunary partial sums")


def check_holder(op: dict, value: float) -> list[str]:
    # every level of W(1/2, gamma, 1) carries sup |piece| = gamma^(-n/2)
    return _close(value, 1.0, 1e-12, "holder_norm_star of W(1/2, gamma, 1)")


def check_besov(op: dict, value: float) -> list[str]:
    args = op["args"]
    levels = len(_lacunary(args["alpha"], args["gamma"], "constant:1", args["cutoff"]))
    # one block per level and mode sign, each contributing exactly 1
    return _close(value**2, 2.0 * levels, 1e-9, "besov_norm^2 vs nonempty levels")


def check_nctorus(op: dict, data: bytes) -> list[str]:
    """twisted = exp(i theta(v1, v2)) * untwisted for one zero-sum tuple class.

    Both tuples (v1, v2, -(v1+v2)) and their negation accumulate the
    symplectic area theta(v1, v2) from the twist phases.
    """
    report = json.loads(data)
    p = op["entry"]["params"]
    _, twisted = _sequence(report, "partial_sums")
    _, plain = _sequence(report, "partial_sums_zero_twist")
    v1, v2 = op["check"]["pair"]
    theta = p["theta"]["matrix"]
    area = sum(v1[i] * theta[i][j] * v2[j] for i in range(p["n"]) for j in range(p["n"]))
    scale = float(np.max(np.abs(plain)))
    problems = [] if plain.size == p["N"] and scale > 0 else ["untwisted sums are empty or zero"]
    gap = float(np.max(np.abs(twisted - cmath.exp(1j * area) * plain)))
    problems += _close(gap, 0.0, 1e-10 * max(scale, 1.0), "twist factor")
    if op["check"]["imaginary"]:
        real = float(np.max(np.abs(plain.real)))
        problems += _close(real, 0.0, 1e-12 * max(scale, 1.0), "graded trace real part")
    reported = _scalar(report, "max |twisted - untwisted|")
    problems += _close(reported, float(np.max(np.abs(twisted - plain))), 1e-12, "max gap")
    return problems


def check_measurability(op: dict, data: bytes) -> list[str]:
    report = json.loads(data)
    problems = []
    seen = set()
    for entry in report["scalars"]:
        label = entry["expression"].split("]", 1)[0].removeprefix("verdict[")
        verdict = entry["verdict"]
        want = op["check"]["expect"][label]
        seen.add(label)
        if verdict["kind"] != want:
            problems.append(f"{label}: verdict {verdict['kind']}, want {want}")
        elif want == "oscillating" and not verdict["upper"] - verdict["lower"] > 0.1:
            problems.append(f"{label}: oscillation gap {verdict['upper'] - verdict['lower']}")
        elif want == "convergent":
            problems += _close(verdict["limit"], 1.0, 1e-12, f"{label} limit")
    if seen != set(op["check"]["expect"]):
        problems.append(f"verdicts for {sorted(seen)}")
    return problems


def check_fourier_dense(op: dict, data: bytes) -> list[str]:
    p = op["entry"]["params"]
    n_trunc = p["N"]
    if op["entry"]["output"]["format"] == "csv":
        points, values = _csv_sequence(data, "trace")
    else:
        points, values = _sequence(json.loads(data), "trace")
    if not np.array_equal(points, np.arange(2, n_trunc + 1)):
        return ["trace points are not 2..N"]
    a, b = _coeffs(p["a"]), _coeffs(p["b"])
    terms = np.zeros(max(a) + 1, dtype=complex)
    for k, v in a.items():
        if k >= 1 and -k in b:
            terms[k] = k * v * b[-k]
    partial = np.cumsum(terms)
    sums = partial[np.minimum(points, terms.size - 1)]
    expected = sums / np.log(points.astype(float))
    worst = float(np.max(np.abs(values - expected)))
    return _close(worst, 0.0, 1e-12 * max(1.0, float(np.max(np.abs(sums)))), "Fourier-side sums")


def check_residue(op: dict, output) -> list[str]:
    """Partial sums equal minus the Fourier-side sums inside the safe band."""
    partial_sums, verdict = output
    args = op["args"]
    n, degree = args["n"], args["degree"]
    a, b = _coeffs(args["a"]), _coeffs(args["b"])
    pairs = [(k, v * b[-k]) for k, v in a.items() if k >= 1 and -k in b]
    m = np.arange(n - degree)
    oracle = np.zeros(m.size, dtype=complex)
    for k, ab in pairs:
        oracle -= np.minimum(k, m + 1) * ab
    scale = max(1.0, float(np.max(np.abs(oracle))))
    worst = float(np.max(np.abs(partial_sums[: m.size] - oracle)))
    problems = _close(worst, 0.0, 1e-10 * scale, "residue partial sums")
    limit = -sum(k * ab for k, ab in pairs).real
    if verdict.kind.value != "convergent":
        problems.append(f"safe-band partial sums classified {verdict.kind.value}")
    else:
        problems += _close(verdict.limit, limit, 1e-9 * max(1.0, abs(limit)), "classified limit")
    return problems


CHECKS = {
    name.removeprefix("check_"): fn
    for name, fn in list(globals().items())
    if name.startswith("check_")
}


def check(op: dict, output) -> list[str]:
    return CHECKS[op["check"]["check"]](op, output)
