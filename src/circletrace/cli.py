"""Batch experiment runner and command line interface.

Every experiment is described by a single JSON-serializable config (kind,
params, output, limits); no environment variables participate, so a run is
fully reproducible from the config artifact.

Each experiment kind declares its parameters once, as a table of ``Param``
entries giving a name, a parser and the one default.  The same table checks
the JSON params (an unknown key, a missing required key or a value its
parser rejects is a ParameterError naming the parameter), hands the runner
typed values, and generates the kind's subcommand, whose ``--help`` lists
each parameter with its default.  ``Limits`` and ``ClassifyPolicy`` are read
field by field from their own dataclasses.  Exit codes: 0 success, 2 invalid
parameters, 3 resource rejection.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import closed_forms as cf
from .dixmier import (
    ClassifyPolicy,
    cesaro_mean,
    classify_limit,
    log_extrapolate,
)
from .errors import ParameterError, ResourceLimitError
from .fourier import (
    CoefficientRule,
    FourierSymbol,
    WeierstrassParams,
    mode_symbol,
    symbol_from_json_obj,
    weierstrass_symbol,
)
from .nc_torus import (
    AntisymmetricForm,
    CliffordRep,
    LatticeSymbol,
    clifford_rep,
    dirac_coefficients,
    grading_dirac_coefficients,
    identity_coefficients,
    torus_trace_partial,
)
from .operators import commutator_matrix, hankel_matrix, operator_to_json_obj
from .report import Report, emit_report
from .spectral import decay_slope, lacunary_hankel_spectrum, singular_values, weak_quasinorm

__all__ = ["Limits", "ExperimentConfig", "run_experiment", "emit_report", "main"]


@dataclass(frozen=True)
class Limits:
    max_matrix: int = 4096
    max_tuples: int = 10_000_000


@dataclass
class ExperimentConfig:
    kind: str
    params: dict = field(default_factory=dict)
    out_path: str | None = None
    out_format: str = "json"
    limits: Limits = field(default_factory=Limits)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown experiment kind {self.kind!r}; choose from {(*_KINDS,)}")
        if self.out_format not in ("json", "csv"):
            raise ParameterError(f"output format must be json or csv, got {self.out_format!r}")


# ------------------------------ parameter tables ----------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One parameter: JSON key, parser, its single default and CLI flag.

    An absent or null value takes ``default``, parsed like a given one; a
    callable default is computed from the values parsed before it (``help``
    says how).  The parser also gets the values of the params in ``uses``.
    ``flag`` replaces the CLI spelling ``--name``, ``arg`` parses a CLI string
    whose form differs from the JSON one, ``cli=False`` keeps it JSON-only.
    """

    name: str
    parse: Callable
    default: Any = _REQUIRED
    flag: str | None = None
    arg: Callable | None = None
    cli: bool = True
    uses: tuple[str, ...] = ()
    help: str = ""


def _guarded(where: str, fn: Callable, *args):
    """``fn(*args)``, with any parse failure a ParameterError naming ``where``."""
    try:
        return fn(*args)
    except (TypeError, ValueError, LookupError, ArithmeticError) as exc:  # ParameterError too
        raise ParameterError(f"{where}: {exc}") from None


class _Table:
    """Parses a JSON object by a table of parameters into ``make(**values)``."""

    def __init__(self, what: str, *params: Param, make: Callable = dict) -> None:
        self.what, self.params, self.make = what, params, make

    def __call__(self, obj):
        where = f"{self.what}: " if self.what else ""
        names = [p.name for p in self.params]
        if not isinstance(obj, dict):
            raise ParameterError(
                f"{where}expected an object with keys {', '.join(names)}, got {type(obj).__name__}"
            )
        for key in obj:
            if key not in names:
                raise ParameterError(
                    f"{where}unknown parameter {key!r}; expected one of {', '.join(names)}"
                )
        values: dict = {}
        for p in self.params:
            raw = obj.get(p.name)
            if raw is None and p.default is _REQUIRED:
                raise ParameterError(f"{where}missing required parameter {p.name!r}")
            if raw is None and callable(p.default):
                raw = _guarded(where + p.name, p.default, values)
            elif raw is None:
                raw = p.default
            uses = [values[name] for name in p.uses]
            values[p.name] = None if raw is None else _guarded(where + p.name, p.parse, raw, *uses)
        return self.make(**values)


def _record(cls: type, cli: tuple[str, ...] = ()) -> _Table:
    """Table of a dataclass of numbers, each field parsed by the type of its default."""
    params = (Param(f.name, type(f.default), f.default, cli=f.name in cli) for f in fields(cls))
    return _Table("", *params, make=cls)


def _read_json(path: str):
    """The JSON document in a file; an unreadable or invalid file is a ParameterError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParameterError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParameterError(f"{path!r} is not valid JSON: {exc}") from None


_INT_EXPR = re.compile(r"^\s*(\d+)\s*(?:\*\*|\^)\s*(\d+)\s*$")


def parse_int_expr(text) -> int:
    """Accept plain integers and the power shorthands 2**40 / 2^40."""
    if isinstance(text, (int, np.integer)):
        return int(text)
    s = str(text)
    match = _INT_EXPR.match(s)
    if match:
        return int(match.group(1)) ** int(match.group(2))
    try:
        return int(s)
    except ValueError:
        raise ParameterError(f"cannot parse integer expression {text!r}")


def parse_size(text) -> int:
    """A positive integer, in any form ``parse_int_expr`` accepts."""
    value = parse_int_expr(text)
    if value < 1:
        raise ParameterError(f"must be a positive integer, got {value}")
    return value


def rule_from_obj(obj) -> CoefficientRule:
    """Coefficient rule from a JSON object or a compact string form.

    Strings: "constant:VALUE", "periodic:V1,V2,...", "block-indicator:BASE",
    "sqrt-log-cos".  Objects carry the CoefficientRule fields.
    """
    if isinstance(obj, CoefficientRule):
        return obj
    if isinstance(obj, str):
        name, _, arg = obj.partition(":")
        if name == "constant":
            return CoefficientRule.constant(float(arg) if arg else 1.0)
        if name == "periodic":
            return CoefficientRule.from_head(
                [float(x) for x in arg.split(",") if x], extension="periodic"
            )
        if name == "block-indicator":
            return CoefficientRule.block_indicator(int(arg) if arg else 2)
        if name == "sqrt-log-cos":
            return CoefficientRule.sqrt_log_cos()
        raise ParameterError(f"unknown coefficient rule {obj!r}")
    if isinstance(obj, dict):
        return CoefficientRule(**obj)
    if isinstance(obj, (list, tuple)):
        return CoefficientRule.from_head(obj, extension="constant")
    raise ParameterError(f"cannot interpret coefficient rule {obj!r}")


def _rule_json(rule: CoefficientRule) -> dict:
    out: dict = {"head": list(rule.head), "extension": rule.extension}
    if rule.base is not None:
        out["base"] = rule.base
    return out


# The lacunary series W(alpha, gamma, c), shared by the kinds that build one
# and by the {"weierstrass": ...} symbol spec.
_ALPHA = Param("alpha", float, 0.5)
_GAMMA = Param("gamma", int, 2)
_C = Param("c", rule_from_obj, "constant:1", flag="--coeffs", help="coefficient rule for c")
_WEIERSTRASS_SPEC = _Table(
    "weierstrass", _ALPHA, _GAMMA, _C, Param("cutoff", parse_int_expr),
    make=lambda cutoff, **w: weierstrass_symbol(WeierstrassParams(**w), cutoff),
)


def symbol_from_obj(obj) -> FourierSymbol:
    """Symbol from interchange JSON, a power shorthand or a lacunary spec."""
    if isinstance(obj, FourierSymbol):
        return obj
    if isinstance(obj, str):
        match = re.match(r"^z\s*\^\s*(-?\d+)$", obj.strip())
        if match:
            return mode_symbol(int(match.group(1)))
        raise ParameterError(f"cannot interpret symbol shorthand {obj!r}")
    if isinstance(obj, dict):
        if "modes" in obj:
            return symbol_from_json_obj(obj)
        if "power" in obj:
            return mode_symbol(parse_int_expr(obj["power"]))
        if "weierstrass" in obj:
            return _WEIERSTRASS_SPEC(obj["weierstrass"])
    raise ParameterError(f"cannot interpret symbol spec {obj!r}")


def symbol_from_arg(text: str) -> FourierSymbol:
    """CLI symbol argument: inline JSON, a z^k shorthand, or a JSON file path."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return symbol_from_obj(json.loads(stripped))
    if re.match(r"^z\s*\^\s*-?\d+$", stripped):
        return symbol_from_obj(stripped)
    return symbol_from_obj(_read_json(stripped))


def _twist_from_obj(obj, rep: CliffordRep) -> AntisymmetricForm:
    if obj == "zero":
        return AntisymmetricForm.zero(rep.n)
    if isinstance(obj, dict) and "matrix" in obj:
        return AntisymmetricForm(np.asarray(obj["matrix"], dtype=float))
    if isinstance(obj, dict) and "random" in obj:
        rng = np.random.default_rng(int(obj["random"]))
        scale = float(obj.get("scale", 1.0))
        upper = np.triu(rng.standard_normal((rep.n, rep.n)), k=1) * scale
        return AntisymmetricForm(upper - upper.T)
    raise ParameterError(f"cannot interpret twist form spec {obj!r}")


def _lattice_symbol_from_obj(obj, n: int) -> LatticeSymbol:
    if isinstance(obj, dict) and "pair" in obj:
        return LatticeSymbol.symmetric_pair(obj["pair"], complex(obj.get("amplitude", 1.0)))
    if isinstance(obj, dict) and "modes" in obj:
        coeffs = {}
        for entry in obj["modes"]:
            vec, re_part, im_part = entry
            coeffs[tuple(int(c) for c in vec)] = complex(float(re_part), float(im_part))
        return LatticeSymbol(n, coeffs)
    raise ParameterError(f"cannot interpret lattice symbol spec {obj!r}")


# ------------------------------ experiment kinds ----------------------------


@dataclass(frozen=True)
class _Kind:
    command: str
    help: str
    params: _Table
    run: Callable[..., Report]
    config_file: bool  # the subcommand reads the whole params object from --config


_KINDS: dict[str, _Kind] = {}


def _kind(name: str, command: str, help: str, *params: Param, config_file: bool = False):
    """Registers a runner, called with the limits and the typed params, as a kind."""

    def register(run):
        _KINDS[name] = _Kind(command, help, _Table(name, *params), run, config_file)
        return run

    return register


@_kind(
    "WeierstrassTrace", "weierstrass-trace", "lacunary pair trace partial sums",
    _GAMMA, _ALPHA, _C,
    Param("d", rule_from_obj, lambda v: v["c"], flag="--d-coeffs",
          help="coefficient rule for d, default: the c rule"),
    Param("N", parse_size, "2**40"),
)
def _run_weierstrass_trace(limits: Limits, *, gamma, alpha, c, d, N) -> Report:
    if alpha != 0.5:
        raise ParameterError(
            "the lacunary trace closed form is exact only at alpha = 1/2; "
            f"got alpha = {alpha}"
        )
    if N >= 2**63:
        raise ParameterError(f"N = {N} is beyond the int64 range of the trace points")
    seq = cf.weierstrass_trace(gamma, c, d, N)
    limit, slope = log_extrapolate(np.asarray(seq.values, dtype=float), seq.points)
    report = Report(kind="WeierstrassTrace")
    report.inputs = {"gamma": gamma, "alpha": alpha, "c": _rule_json(c), "d": _rule_json(d), "N": N}
    report.add_sequence("partial_sums", seq.expression, seq.normalization, seq.points, seq.values)
    report.add_scalar("extrapolated limit of " + seq.expression, limit, "fit L + C/log(N+2)")
    report.add_scalar("extrapolation 1/log coefficient", slope, "fit L + C/log(N+2)")
    if c.extension == "constant" and d.extension == "constant":
        reference = -(c.head[-1] * d.head[-1]) / math.log(gamma)
        report.add_scalar("-(lim Cesaro(c*d))/log(gamma)", reference, "closed-form reference")
        report.add_check("extrapolated limit vs closed form", limit, reference)
    return report


_ENTRY = _Table(
    "",
    _GAMMA,
    replace(_C, flag="--rule", help="inline coefficient rule"),
    Param("d", rule_from_obj, lambda v: v["c"], cli=False),
    Param("label", str, lambda v: f"gamma={v['gamma']}", cli=False),
)


def _entries(objs) -> list[dict]:
    if not isinstance(objs, list):
        raise ParameterError(f"expected a list of entries, got {type(objs).__name__}")
    return [_guarded(f"entry {i}", _ENTRY, obj) for i, obj in enumerate(objs)]


def _entries_file(path: str):
    """A --config file of measurability: a list of entries or {"entries": [...]}."""
    doc = _read_json(path)
    return doc["entries"] if isinstance(doc, dict) and "entries" in doc else doc


def _cesaro_of_product(c: CoefficientRule, d: CoefficientRule, size: int) -> np.ndarray:
    """Cesaro means of the first ``size`` terms of c*d (d defaults to c
    itself).  Nothing else long stays alive, so with the classifier's copy of
    the tail a rule holds at most two arrays of ``size`` floats."""
    product = c.values(size)
    np.multiply(product, product if d is c else d.values(size), out=product)
    return cesaro_mean(product)


# Without "entries" the params are one entry, labelled "sequence".
@_kind(
    "Measurability", "measurability", "limit classification verdict table",
    Param("N", parse_size, "4**10"),
    Param("policy", _record(ClassifyPolicy, cli=("window_count", "rel_gap", "abs_floor")), {}),
    Param("entries", _entries, None, flag="--config", arg=_entries_file,
          help='JSON file with an entries list, or {"entries": [...]}'),
    *_ENTRY.params[:3],
    replace(_ENTRY.params[3], default="sequence"),
)
def _run_measurability(limits: Limits, *, N, policy, entries, label, gamma, c, d) -> Report:
    if N + 1 > limits.max_tuples:
        raise ResourceLimitError(f"{N + 1} coefficients per rule exceed {limits.max_tuples}")
    if entries is None:
        entries = [{"gamma": gamma, "c": c, "d": d, "label": label}]
    report = Report(kind="Measurability")
    report.inputs = {"N": N, "policy": policy.__dict__.copy(), "entries": []}
    for entry in entries:
        label, gamma, c, d = (entry[key] for key in ("label", "gamma", "c", "d"))
        echo = {"label": label, "gamma": gamma, "c": _rule_json(c), "d": _rule_json(d)}
        report.inputs["entries"].append(echo)
        verdict = classify_limit(_cesaro_of_product(c, d, N + 1), policy)
        report.scalars.append(
            {
                "expression": f"verdict[{label}]: Cesaro(c*d) behavior, "
                "surrogate for limit-functional independence of "
                "tr(P[P,W(1/2,gamma,c)][P,W(1/2,gamma,d)]) = -C(c*d)/log(gamma)",
                "value": 0.0,
                "verdict": verdict.to_json_obj(),
            }
        )
    return report


@_kind(
    "SingularValueSweep", "singular-sweep", "Hankel singular values of a lacunary symbol",
    _ALPHA, _GAMMA, _C, Param("N", parse_size, 1024),
    Param("p", float, lambda v: 1.0 / v["alpha"], help="quasinorm exponent, default: 1/alpha"),
    Param("k_lo", int, None, help="default: 16, or max(1, k_hi // 2) when k_hi < 18"),
    Param("k_hi", int, None, help="default: min(512, N/4, numerical rank)"),
)
def _run_singular_sweep(limits: Limits, *, alpha, gamma, c, N, p, k_lo, k_hi) -> Report:
    if N > limits.max_tuples:
        raise ResourceLimitError(f"{N} singular values exceed {limits.max_tuples}")
    # An explicit window is checked before the spectrum of N values: the default
    # k_hi is the rank capped at min(512, N/4), so a k_lo the cap refuses fails for every rank.
    cap = min(512, N // 4)
    if k_lo is not None or k_hi is not None:
        hi = cap if k_hi is None else k_hi
        lo = _default_k_lo(k_lo, hi)
        if not 1 <= lo < hi <= N:
            raise ParameterError(f"window [{lo}, {hi}) out of range for spectrum of length {N}")
        if hi - lo < 2:
            raise ParameterError(f"window [{lo}, {hi}) holds one index; a slope needs two")
    symbol = weierstrass_symbol(WeierstrassParams(alpha=alpha, gamma=gamma, c=c), 2 * N)
    # Every mode is a real power of gamma, so with none in (N, 2N) the block is
    # H_P (+) 0 and its spectrum is closed form; otherwise the dense route.
    if symbol.restricted(2 * N - 1).n_max <= N:
        spectrum = lacunary_hankel_spectrum(symbol, gamma, N)
    elif N > limits.max_matrix:
        raise ResourceLimitError(f"matrix size {N} exceeds the cap {limits.max_matrix}")
    else:
        spectrum = singular_values(hankel_matrix(symbol, N))
    if k_hi is None:
        k_hi = min(cap, int(np.count_nonzero(spectrum.mu > 0)))
    k_lo = _default_k_lo(k_lo, k_hi)
    report = Report(kind="SingularValueSweep")
    report.inputs = dict(alpha=alpha, gamma=gamma, N=N, c=_rule_json(c), p=p, k_lo=k_lo, k_hi=k_hi)
    mu, expression = spectrum.mu, "singular values of P W (1-P) truncated"
    report.add_sequence("mu", expression, "none", np.arange(mu.size), mu)
    report.add_scalar("sup_k (1+k)^(1/p) mu_k", weak_quasinorm(spectrum, p), f"p = {p:.6g}")
    report.add_scalar(
        "log-log decay slope", decay_slope(spectrum, k_lo, k_hi), f"window [{k_lo},{k_hi})"
    )
    return report


def _default_k_lo(k_lo: int | None, k_hi: int) -> int:
    """16, unless that leaves fewer than two indices below k_hi."""
    if k_lo is not None:
        return k_lo
    return 16 if k_hi - 16 >= 2 else max(1, k_hi // 2)


_A = Param("a", symbol_from_obj, arg=symbol_from_arg, help="inline JSON, z^k or a JSON file")
_B = replace(_A, name="b")


@_kind(
    "KernelCheck", "kernel-check", "integral kernel quadrature vs double sum",
    _A, _B, Param("N", parse_size, 64), Param("r", float, 1.0 - 1e-6),
    Param("grid", parse_size, lambda v: 8 * v["N"], help="default: 8*N"),
)
def _run_kernel_check(limits: Limits, *, a, b, N, r, grid) -> Report:
    if N > limits.max_matrix:
        raise ResourceLimitError(f"kernel truncation {N} exceeds {limits.max_matrix}")
    if grid > limits.max_tuples:
        raise ResourceLimitError(f"quadrature grid of {grid} points exceeds {limits.max_tuples}")
    value = cf.integral_trace(a, b, cf.KernelParams(n_trunc=N, r=r, grid=grid))
    oracle = -_double_sum(a, b, N) / math.log(N)
    refined = cf.integral_trace(a, b, cf.KernelParams(N, 1.0 - (1.0 - r) / 10.0, grid))
    report = Report(kind="KernelCheck")
    report.inputs = {"N": N, "r": r, "grid": grid}
    report.add_scalar("tr(P[P,a][P,b]) via kernel quadrature", value, "1/log(N)")
    report.add_scalar("-sum_{l<=N} sum_{k>l} a_k b_{-k}", oracle, "1/log(N)")
    report.add_check("quadrature vs coefficient double sum", value, oracle)
    report.add_check("radius refinement r -> 1-(1-r)/10", value, refined)
    return report


def _double_sum(a: FourierSymbol, b: FourierSymbol, n_trunc: int) -> complex:
    total = 0j
    for k, av in a.coeffs.items():
        if k >= 1 and -k in b.coeffs:
            total += min(k, n_trunc + 1) * av * b.coeffs[-k]
    return total


@_kind("Winding", "winding", "winding number trace", _A, Param("N", parse_size, 64))
def _run_winding(limits: Limits, *, a, N) -> Report:
    if N >= 2**63:
        raise ParameterError(f"N = {N} is beyond the int64 range of the safe band")
    grid = 1 << (16 * max(a.n_max, 1) - 1).bit_length()  # the grid invert_symbol samples
    if grid > limits.max_tuples:
        raise ResourceLimitError(f"inverse grid of {grid} points exceeds {limits.max_tuples}")
    result = cf.winding_report(a, N)
    report = Report(kind="Winding")
    report.inputs = {"N": N, "band": a.n_max}
    report.add_scalar("tr((2P-1)[P,a][P,a^-1])", result.value, "plain trace")
    report.add_scalar("nearest integer", result.nearest_integer)
    report.add_scalar("imaginary defect", result.imag_defect)
    report.add_scalar("inverse out-of-band residual", result.inverse_residual)
    report.add_scalar("safe band", result.safe_band)
    report.notes.append(
        "entries are exact only for modes within the safe band; negative "
        "values mean the truncation is too small for the symbol band"
    )
    return report


_T_MAPS = {
    "grading-dirac": grading_dirac_coefficients,
    "dirac": dirac_coefficients,
    "identity": identity_coefficients,
}


# "n" parses to the Clifford representation, so the torus dimension is
# checked before the twist and the symbols are sized by it.
@_kind(
    "NcTorus", "nctorus", "twisted torus truncated trace sums",
    Param("n", lambda n: clifford_rep(parse_size(n)), 2, help="torus dimension"),
    Param("N", parse_size, 64),
    Param("T", str, "grading-dirac", help="one of " + ", ".join(_T_MAPS)),
    Param("theta", _twist_from_obj, "zero", uses=("n",),
          help='"zero", {"matrix": ...} or {"random": seed, "scale": s}'),
    Param("symbols", lambda objs, rep: [_lattice_symbol_from_obj(o, rep.n) for o in objs],
          uses=("n",),
          help='list of {"pair": v, "amplitude": z} or {"modes": [[v, re, im], ...]}'),
    config_file=True,
)
def _run_nctorus(limits: Limits, *, n: CliffordRep, N, T, theta, symbols) -> Report:
    if T not in _T_MAPS:
        raise ParameterError(f"unknown T coefficient map {T!r}")
    t_map = _T_MAPS[T](n)
    seq = torus_trace_partial(n, t_map, symbols, N, theta, max_tuples=limits.max_tuples)
    control = torus_trace_partial(n, t_map, symbols, N, None, max_tuples=limits.max_tuples)
    report = Report(kind="NcTorus")
    report.inputs = {"n": n.n, "N": N, "T": T, "k": len(symbols)}
    report.add_sequence("partial_sums", seq.expression, seq.normalization, seq.points, seq.values)
    report.add_sequence(
        "partial_sums_zero_twist", control.expression, control.normalization, control.points,
        control.values,
    )
    gap = float(np.max(np.abs(seq.values - control.values)))
    report.add_scalar("max |twisted - untwisted|", gap, "entrywise")
    return report


@_kind(
    "HnCheck", "hn", "sphere kernel consistency sweep",
    Param("m_max", parse_size, 4), Param("N", parse_size, 64), Param("t_points", parse_size, 64),
)
def _run_hn_check(limits: Limits, *, m_max, N, t_points) -> Report:
    if (N + 1 + t_points) * m_max > limits.max_tuples:
        raise ResourceLimitError(
            f"(N+1+t_points)*m_max = {(N + 1 + t_points) * m_max} kernel coefficients "
            f"and values exceed {limits.max_tuples}"
        )
    t_grid = np.linspace(0.0, 1.0, t_points + 1)[1:]
    report = Report(kind="HnCheck")
    report.inputs = {"m_max": m_max, "N": N, "t_points": t_points}
    orders = range(1, m_max + 1)
    # refuses derivative products beyond float64 before any work
    binom_form, derivative_form = cf.sphere_kernel_routes(t_grid, N, orders)
    if not np.isfinite(derivative_form).all():
        raise ParameterError(f"derivative route overflows float64 at N = {N}, m up to {m_max}")
    gaps = np.max(np.abs(binom_form - derivative_form), axis=1)
    worst = 0.0
    for m, gap in zip(orders, gaps.tolist()):
        worst = max(worst, gap)
        report.add_scalar(f"max |binomial - derivative| at m={m}", gap, f"t in (0,1], N={N}")
    report.add_scalar("worst discrepancy over m", worst)
    geo = binom_form[0]
    closed = (1.0 - (1.0 - t_grid) ** (N + 1)) / t_grid
    report.add_check("m=1 geometric reduction", float(np.max(np.abs(geo - closed))), 0.0)
    return report


@_kind(
    "FourierTrace", "fourier-trace", "Fourier-side trace partial sums",
    _A, _B, Param("N", parse_size, 256), Param("symmetric", bool, False),
)
def _run_fourier_trace(limits: Limits, *, a, b, N, symmetric) -> Report:
    if N > limits.max_tuples:
        raise ResourceLimitError(f"{N} trace points exceed {limits.max_tuples}")
    seq = (cf.symmetric_fourier_trace if symmetric else cf.fourier_side_trace)(a, b, N)
    report = Report(kind="FourierTrace")
    report.inputs = {"N": N, "symmetric": symmetric}
    report.add_sequence("trace", seq.expression, seq.normalization, seq.points, seq.values)
    return report


def run_experiment(config: ExperimentConfig) -> Report:
    """Validate parameters, dispatch on kind and return a deterministic report."""
    kind = _KINDS[config.kind]
    return kind.run(config.limits, **kind.params(config.params))


# ----------------------------------- CLI ------------------------------------


_OUTPUT = _Table(
    "",
    Param("path", str, None, flag="--out", help="output path (default stdout)"),
    Param("format", str, ExperimentConfig.out_format, help="json or csv"),
)
_EXPERIMENT = _Table(
    "experiment",
    Param("kind", str),
    Param("params", lambda params: params, {}),  # checked by the kind's table when run
    Param("output", _OUTPUT, {}),
    Param("limits", _record(Limits), {}),
)


def _write_file(path: str, data: bytes) -> None:
    """Write ``data`` to ``path``; an unwritable path is a ParameterError."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise ParameterError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _write_output(data: bytes, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.buffer.write(data)
    else:
        _write_file(out_path, data)


def _config_from_json_obj(obj: dict) -> ExperimentConfig:
    entry = _EXPERIMENT(obj)
    out = entry["output"]
    return ExperimentConfig(
        entry["kind"], entry["params"], out["path"], out["format"], entry["limits"]
    )


def _execute(config: ExperimentConfig, dump_operator: str | None = None) -> None:
    if dump_operator:  # the only matrix a Winding run builds
        params = _KINDS["Winding"].params(config.params)
        if 2 * params["N"] + 1 > config.limits.max_matrix:
            raise ResourceLimitError(
                f"dumped operator size {2 * params['N'] + 1} exceeds the matrix cap "
                f"{config.limits.max_matrix}"
            )
    with np.errstate(all="ignore"):  # no warnings: the report refuses any inf or nan
        report = run_experiment(config)
    if dump_operator:
        obj = operator_to_json_obj(commutator_matrix(params["a"], params["N"]))
        _write_file(dump_operator, json.dumps(obj).encode())
    _write_output(emit_report(report, config.out_format), config.out_path)


def _help(p: Param) -> str:
    if p.default is None or callable(p.default):
        return p.help
    default = "required" if p.default is _REQUIRED else f"default: {p.default}"
    return f"{p.help}, {default}" if p.help else default


def _add_flags(parser: argparse.ArgumentParser, table: _Table) -> None:
    for p in table.params:
        if isinstance(p.parse, _Table):
            _add_flags(parser, p.parse)
        elif p.cli:
            flag = p.flag or "--" + p.name.replace("_", "-")
            how = {"action": "store_true"} if p.parse is bool else {}
            parser.add_argument(
                flag, dest=p.name, required=p.default is _REQUIRED, help=_help(p), **how
            )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circletrace",
        description="log-averaged trace asymptotics for truncated circle operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in _KINDS.items():
        p = sub.add_parser(kind.command, help=kind.help)
        p.set_defaults(kind=name)
        if kind.config_file:
            keys = "; ".join(f"{q.name}: {_help(q)}" for q in kind.params.params)
            p.add_argument("--config", required=True, help=f"JSON file of the params ({keys})")
        else:
            _add_flags(p, kind.params)
        if name == "Winding":
            p.add_argument("--dump-operator", help="write the commutator matrix JSON here")
        _add_flags(p, _OUTPUT)
    p = sub.add_parser("run", help="run experiment configs from a JSON document")
    p.add_argument("--config", required=True)
    return parser


def _given(table: _Table, args: dict) -> dict:
    """The params given on the command line, by JSON name."""
    raw: dict = {}
    for p in table.params:
        if isinstance(p.parse, _Table):
            nested = _given(p.parse, args)
            if nested:
                raw[p.name] = nested
        elif p.cli and args[p.name] is not None:
            value = args[p.name]
            if p.arg is not None:
                value = _guarded(f"{table.what}: {p.name}", p.arg, value)
            raw[p.name] = value
    return raw


def _cli_config(args: argparse.Namespace) -> ExperimentConfig:
    kind = _KINDS[args.kind]
    raw = _read_json(args.config) if kind.config_file else _given(kind.params, vars(args))
    if args.kind == "Measurability":
        if "entries" not in raw and "c" not in raw:
            raise ParameterError("measurability needs --config or --rule")
        if "c" in raw:
            raw["label"] = raw["c"]  # a --rule run is labelled by its rule
    out = _OUTPUT(_given(_OUTPUT, vars(args)))
    return ExperimentConfig(args.kind, raw, out["path"], out["format"])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            doc = _read_json(args.config)
            entries = doc.get("experiments", [doc]) if isinstance(doc, dict) else doc
            if not isinstance(entries, list):
                raise ParameterError('a batch config must be an experiment, a list of them '
                                     'or {"experiments": [...]}')
            for entry in entries:
                _execute(_config_from_json_obj(entry))
        else:
            _execute(_cli_config(args), getattr(args, "dump_operator", None))
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
