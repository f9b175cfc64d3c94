import ast
import cmath
import contextlib
import copy
import hashlib
import inspect
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circletrace
from circletrace import cli
from circletrace.cli import (
    ExperimentConfig,
    main,
    parse_int_expr,
    rule_from_obj,
    run_experiment,
    symbol_from_arg,
    symbol_from_obj,
)
from circletrace.dixmier import cesaro_mean, classify_limit, residue_sequence
from circletrace.errors import ParameterError, ResourceLimitError
from circletrace.fourier import CoefficientRule, weierstrass_symbol
from circletrace.littlewood_paley import besov_norm, holder_norm_star
from circletrace.operators import (
    commutator_matrix,
    hankel_matrix,
    hardy_compress,
    operator_product,
    szego_projection,
)
from circletrace.report import Report, emit_report
from circletrace.spectral import singular_values


def test_parse_int_expr():
    assert parse_int_expr(17) == 17
    assert parse_int_expr("17") == 17
    assert parse_int_expr("2**10") == 1024
    assert parse_int_expr("4^5") == 1024
    with pytest.raises(ParameterError):
        parse_int_expr("two")


# Python prints no integer of more than 4300 digits, so none can be echoed;
# a power that long is refused before it is built (7**10**7 takes seconds).
@pytest.mark.parametrize(
    "text", ["10**4300", "7**10000000", "9" * 4301, 10**4300],
    ids=["power", "power-never-built", "digits", "int"],
)
def test_parse_int_expr_refuses_integers_too_long_to_echo(text):
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="more than 4300 digits|cannot parse"):
        parse_int_expr(text)
    assert time.perf_counter() - start < 1.0
    assert parse_int_expr("10**4299") == 10**4299


def test_rule_parsing():
    assert rule_from_obj("constant:2.5").head == (2.5,)
    assert rule_from_obj("block-indicator:3").base == 3
    assert rule_from_obj("sqrt-log-cos").extension == "sqrt-log-cos"
    assert rule_from_obj({"head": [1, 2], "extension": "periodic"}).head == (1.0, 2.0)
    assert rule_from_obj([1.0, 2.0]).extension == "constant"
    with pytest.raises(ParameterError):
        rule_from_obj("nonsense:1")


def test_symbol_parsing(tmp_path):
    assert symbol_from_arg("z^3").coeffs == {3: 1.0 + 0j}
    inline = '{"modes": [[1, 1.0, 0.0], [-1, 0.5, 0.0]]}'
    assert symbol_from_arg(inline)[-1] == 0.5
    path = tmp_path / "sym.json"
    path.write_text(inline)
    assert symbol_from_arg(str(path))[1] == 1.0
    with pytest.raises(ParameterError):
        symbol_from_arg("/does/not/exist.json")
    w = symbol_from_obj(
        {"weierstrass": {"alpha": 0.5, "gamma": 2, "c": "constant:1", "cutoff": 8}}
    )
    assert sorted(k for k in w.coeffs if k > 0) == [1, 2, 4, 8]


def test_reports_are_deterministic():
    config = ExperimentConfig(
        "WeierstrassTrace", {"gamma": 2, "c": "constant:1", "N": "2**20"}
    )
    first = emit_report(run_experiment(config), "json")
    second = emit_report(run_experiment(config), "json")
    assert first == second
    parsed = json.loads(first)
    assert parsed["kind"] == "WeierstrassTrace"
    assert parsed["checks"][0]["abs_discrepancy"] < 1e-3


def test_float_formatting_has_17_significant_digits():
    report = Report(kind="HnCheck")
    report.add_scalar("third", 1.0 / 3.0)
    payload = emit_report(report, "json").decode()
    assert "0.33333333333333331" in payload


def test_csv_empty_report_is_header_only():
    assert emit_report(Report(kind="Winding"), "csv") == b"series,point,value_re,value_im\n"


def test_json_reparse_reproduces_report_body():
    report = Report(kind="HnCheck", inputs={"N": 8})
    report.add_scalar("value", 0.125, "none")
    report.add_sequence("seq", "expr", "none", [2, 3], [0.5, 0.25])
    parsed = json.loads(emit_report(report, "json"))
    assert parsed == report.body()


def test_csv_rows_per_sequence_index():
    report = Report(kind="FourierTrace")
    report.add_sequence("trace", "expr", "1/log(M)", [2, 3], [1.5, -2.5])
    lines = emit_report(report, "csv").decode().strip().split("\n")
    assert lines[0] == "series,point,value_re,value_im"
    assert lines[1] == "trace,2,1.5,0"
    assert lines[2] == "trace,3,-2.5,0"


def test_winding_experiment_report():
    config = ExperimentConfig("Winding", {"a": {"modes": [[1, 1.0, 0.0]]}, "N": 64})
    report = run_experiment(config)
    values = {s["expression"]: s["value"] for s in report.scalars}
    assert values["tr((2P-1)[P,a][P,a^-1])"] == pytest.approx(-1.0, abs=1e-8)
    assert values["nearest integer"] == -1


def test_kernel_check_experiment():
    config = ExperimentConfig(
        "KernelCheck",
        {
            "a": {"modes": [[1, 1.0, 0.0], [2, 0.3, 0.0]]},
            "b": {"modes": [[-1, 1.0, 0.0], [-2, 0.3, 0.0]]},
            "N": 16,
            "grid": 256,
        },
    )
    report = run_experiment(config)
    assert report.checks[0]["abs_discrepancy"] < 1e-6


def test_measurability_experiment_kinds():
    config = ExperimentConfig(
        "Measurability",
        {
            "N": "4**7",
            "entries": [
                {"label": "flat", "gamma": 2, "c": "constant:1"},
                {"label": "blocks", "gamma": 2, "c": "block-indicator:2"},
            ],
        },
    )
    report = run_experiment(config)
    verdicts = [s["verdict"]["kind"] for s in report.scalars]
    assert verdicts[0] == "convergent"
    assert verdicts[1] == "oscillating"


def test_measurability_evaluates_a_rule_once_when_d_is_c(monkeypatch):
    n = 4**7
    rules = [rule_from_obj("sqrt-log-cos"), rule_from_obj("block-indicator:2")]
    expected = [
        classify_limit(cesaro_mean(c.values(n + 1) * d.values(n + 1))).to_json_obj()
        for c, d in ((rules[0], rules[0]), (rules[0], rules[1]))
    ]
    evaluated = []
    values = CoefficientRule.values
    monkeypatch.setattr(
        CoefficientRule, "values", lambda rule, count: evaluated.append(rule) or values(rule, count)
    )
    entries = [{"c": "sqrt-log-cos"}, {"c": "sqrt-log-cos", "d": "block-indicator:2"}]
    report = run_experiment(ExperimentConfig("Measurability", {"N": n, "entries": entries}))
    assert evaluated == [rules[0], rules[0], rules[1]]
    assert [scalar["verdict"] for scalar in report.scalars] == expected


def test_measurability_holds_one_sequence_per_rule():
    # a rule holds at most two arrays of N + 1 floats (8.4 MB each at
    # N = 4^10) at once: c*d and its Cesaro means, then the means and the
    # classifier's copy of their tail; the traced peak stays under three
    entries = [{"c": "block-indicator:2"}, {"c": "sqrt-log-cos"}, {"c": "constant:1"}]
    config = ExperimentConfig("Measurability", {"N": "4**10", "entries": entries})
    tracemalloc.start()
    try:
        report = run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kinds = [scalar["verdict"]["kind"] for scalar in report.scalars]
    assert kinds == ["oscillating", "oscillating", "convergent"]
    assert peak < 3 * 8 * (4**10 + 1)


def test_singular_sweep_resource_cap():
    # 6144 is not a power of 2, so the sweep takes the dense route and its cap
    config = ExperimentConfig(
        "SingularValueSweep", {"alpha": 0.5, "gamma": 2, "N": 6144}
    )
    with pytest.raises(ResourceLimitError):
        run_experiment(config)
    beyond_the_cap = ExperimentConfig("SingularValueSweep", {"alpha": 0.5, "gamma": 2, "N": 8192})
    assert run_experiment(beyond_the_cap).inputs["k_hi"] == 512
    small = ExperimentConfig(
        "SingularValueSweep",
        {"alpha": 0.5, "gamma": 2, "N": 128, "k_lo": 4, "k_hi": 32},
    )
    report = run_experiment(small)
    assert report.sequences[0]["name"] == "mu"


@pytest.mark.parametrize("N", [128, 96])  # the closed and the dense route
def test_a_sweep_builds_its_symbol_once(N, monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return weierstrass_symbol(*args)

    monkeypatch.setattr(cli, "weierstrass_symbol", counted)
    run_experiment(ExperimentConfig("SingularValueSweep", {"N": N, "k_lo": 4, "k_hi": 16}))
    assert len(built) == 1
    refused = ExperimentConfig("SingularValueSweep", {"N": N}, limits=cli.Limits(N, N - 1))
    with pytest.raises(ResourceLimitError):  # nor is one built for an N the cost refuses
        run_experiment(refused)
    assert len(built) == 1


def test_singular_sweep_default_window_stops_at_rank(tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["singular-sweep", "--alpha", "0.5", "--gamma", "3", "--coeffs", "block-indicator:2"]
    assert main([*argv, "--N", "1024", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["inputs"]["k_hi"] == 27
    slope = next(s for s in report["scalars"] if s["expression"] == "log-log decay slope")
    assert slope["normalization"] == "window [16,27)"


@pytest.mark.parametrize("n, window", [(32, "[4,8)"), (64, "[8,16)")])
def test_singular_sweep_default_window_on_small_truncations(n, window, tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["singular-sweep", "--N", str(n), "--out", str(out)]) == 0
    scalars = json.loads(out.read_text())["scalars"]
    slope = next(s for s in scalars if s["expression"] == "log-log decay slope")
    assert slope["normalization"] == f"window {window}"


@pytest.mark.parametrize(
    "flags, window",
    [
        (["--k-lo", "0", "--k-hi", "8"], "[0, 8)"),
        (["--k-lo", "8", "--k-hi", "8"], "[8, 8)"),
        (["--k-lo", "1", "--k-hi", "4097"], "[1, 4097)"),
        (["--k-hi", "1"], "[1, 1)"),  # the default k_lo of k_hi = 1
        (["--k-lo", "0"], "[0, 512)"),  # the default k_hi is at most min(512, N/4)
        (["--k-lo", "512"], "[512, 512)"),
    ],
)
def test_singular_sweep_window_is_checked_before_the_spectrum(flags, window, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("spectrum work for a window that cannot fit it")

    for route in ("lacunary_hankel_spectrum", "singular_values", "hankel_matrix"):
        monkeypatch.setattr(cli, route, refuse)
    assert main(["singular-sweep", "--N", "4096", *flags]) == 2
    err = capsys.readouterr().err
    assert err == f"parameter error: window {window} out of range for spectrum of length 4096\n"


def test_singular_sweep_refuses_k_lo_below_1_at_once(capsys):
    # N = 1500 is not a power of 2: the spectrum would be a dense N x N solve
    start = time.perf_counter()
    assert main(["singular-sweep", "--N", "1500", "--k-lo", "0"]) == 2
    assert time.perf_counter() - start < 0.5
    line = _stderr_line(capsys)
    assert line == "parameter error: window [0, 375) out of range for spectrum of length 1500"


@pytest.mark.parametrize(
    "flags, window",
    [(["--k-lo", "8", "--k-hi", "9"], "[8, 9)"), (["--k-lo", "511"], "[511, 512)")],
)
def test_singular_sweep_refuses_a_one_index_window_before_the_spectrum(
    flags, window, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("spectrum work for a window that cannot fit it")

    for route in ("lacunary_hankel_spectrum", "singular_values", "hankel_matrix"):
        monkeypatch.setattr(cli, route, refuse)
    assert main(["singular-sweep", "--N", "4096", *flags]) == 2
    line = _stderr_line(capsys)
    assert line == f"parameter error: window {window} holds one index; a slope needs two"


@pytest.mark.parametrize("n", [8, 9, 10, 11])
def test_singular_sweep_default_window_of_one_index_exits_2(n, capsys):
    # min(512, N/4) = 2 caps k_hi, so the default window is [1, 2)
    assert main(["singular-sweep", "--N", str(n)]) == 2
    line = _stderr_line(capsys)
    assert line == "parameter error: window [1, 2) holds one index; a slope needs two"


def test_kernel_check_runs_above_the_matrix_cap(tmp_path):
    # it builds no matrix: the grid, 8N by default, is bounded by max_tuples alone
    out = tmp_path / "kernel.json"
    argv = ["kernel-check", "--a", "z^1", "--b", "z^-1", "--N", "8192"]
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["inputs"]["grid"] == 65536


def test_kernel_check_at_the_matrix_cap_runs(tmp_path):
    out = tmp_path / "kernel.json"
    argv = ["kernel-check", "--a", "z^1", "--b", "z^-1", "--N", "4096"]
    assert main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["inputs"]["grid"] == 32768
    assert report["checks"][0]["abs_discrepancy"] < 1e-6


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel-check", "--a", "z^1", "--b", "z^-1", "--N", "8", "--grid", "2**30"],
        ["hn", "--m-max", "2", "--N", "2**30"],
        ["hn", "--m-max", "4", "--N", "8", "--t-points", "2**22"],
    ],
)
def test_cost_over_max_tuples_exits_3(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "x.json")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("resource limit: ")


def test_hn_float_overflow_exits_2(tmp_path, capsys):
    # the derivative route divides by m!, beyond float64 from m = 171 on
    argv = ["hn", "--N", "1", "--m-max", "200", "--t-points", "4"]
    assert main([*argv, "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "overflow float64" in err[0]


def test_hn_derivative_overflow_exits_2_before_any_route(tmp_path, capsys):
    argv = ["hn", "--N", "2000", "--m-max", "170", "--t-points", "4"]
    start = time.perf_counter()
    assert main([*argv, "--out", str(tmp_path / "x.json")]) == 2
    assert time.perf_counter() - start < 0.5
    assert "(N+m-1)!/N! overflow float64" in _stderr_line(capsys)


def test_hn_horner_overflow_exits_2_without_output(tmp_path, capsys):
    # (N+m-1)!/N! fits float64 at m = 94, but the derivative Horner sum does not
    out = tmp_path / "x.json"
    argv = ["hn", "--N", "2000", "--m-max", "94", "--t-points", "4"]
    assert main([*argv, "--out", str(out)]) == 2
    assert _stderr_line(capsys) == (
        "parameter error: derivative route overflows float64 at N = 2000, m up to 94"
    )
    assert not out.exists()


def test_report_refuses_non_finite_numbers():
    report = Report(kind="x")
    for add in (
        lambda: report.add_scalar("s", math.inf),
        lambda: report.add_scalar("s", complex(1.0, math.nan)),
        lambda: report.add_check("c", 1.0, -math.inf),
        lambda: report.add_sequence("q", "e", "none", [1, 2], [1.0, math.nan]),
    ):
        with pytest.raises(ParameterError):
            add()
    assert report.scalars == report.checks == report.sequences == []


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# Commands whose naive cost is terabytes, an int64 overflow, a hang or an
# inf in the report; each must be refused before it allocates.
OVERSIZED = {
    "hn-inf": (["hn", "--N", "2000", "--m-max", "170", "--t-points", "4"], 2),
    "measurability": (["measurability", "--rule", "block-indicator:2", "--N", "2**40"], 3),
    "fourier-trace": (["fourier-trace", "--a", "z^1", "--b", "z^-1", "--N", "2**40"], 3),
    "winding": (["winding", "--a", "z^1000000000", "--N", "8"], 3),
    "winding-N": (["winding", "--a", "z^3", "--N", "2**200"], 2),
    "weierstrass-trace": (["weierstrass-trace", "--gamma", "2", "--N", "2**200"], 2),
    "nctorus": (["nctorus", "--config", "torus.json"], 3),
    "singular-sweep": (["singular-sweep", "--N", "2**24"], 3),
    # N is refused before W(alpha, gamma, c) to 2N, 14,000 powers here, is built
    "singular-sweep-huge-N": (["singular-sweep", "--N", "2**14000"], 3),
    "singular-sweep-N-too-long": (["singular-sweep", "--N", "2**200000"], 2),
    # an amount of 8,000 digits, past what Python prints, is shortened all the same
    "hn-amount-past-4300-digits": (["hn", "--m-max", "10**4000", "--N", "10**4000"], 3),
    # gamma past the float range: W has its mode 1 only, and no fit window
    "singular-sweep-huge-gamma": (["singular-sweep", "--gamma", "2**1100"], 2),
    # oversized and invalid: the parameter error comes before the cost
    "winding-N-oversized-grid": (["winding", "--a", "z^1000000000", "--N", "2**200"], 2),
    "singular-sweep-window-oversized": (["singular-sweep", "--N", "2**24", "--k-lo", "0"], 2),
    "measurability-short-oversized": (["run", "--config", "short.json"], 2),
    "kernel-check-r-oversized": (
        ["kernel-check", "--a", "z^1", "--b", "z^-1", "--N", "8", "--r", "1.5", "--grid", "2**30"],
        2,
    ),
    "kernel-check-band-oversized": (
        ["kernel-check", "--a", "z^200", "--b", "z^-1", "--N", "64", "--grid", "2**30"], 2,
    ),
}
TORUS_2_30 = {"n": 2, "N": "2**30", "symbols": [{"pair": [1, 0]}, {"pair": [0, 1]}]}
# N + 1 = 65 terms are too few for the default 5 dyadic windows, and above max_tuples
SHORT_MEASURABILITY = {
    "kind": "Measurability", "params": {"N": 64, "c": "constant:1"}, "limits": {"max_tuples": 10},
}


def _cli_process(argv, cwd) -> subprocess.CompletedProcess:
    """``circletrace argv`` in a process of its own, under a 1 GiB address space."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "circletrace.cli", *argv],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=60,
        preexec_fn=_limit_address_space,
    )


@pytest.mark.parametrize("argv, code", OVERSIZED.values(), ids=OVERSIZED)
def test_oversized_commands_exit_with_one_line(argv, code, tmp_path):
    (tmp_path / "torus.json").write_text(json.dumps(TORUS_2_30))
    (tmp_path / "short.json").write_text(json.dumps(SHORT_MEASURABILITY))
    proc = _cli_process(argv, tmp_path)
    assert (proc.returncode, proc.stdout) == (code, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr
    assert lines[0].startswith("parameter error: " if code == 2 else "resource limit: ")


def test_nctorus_oversized_ball_exits_3_at_once(tmp_path, capsys):
    config = tmp_path / "torus.json"
    config.write_text(json.dumps(TORUS_2_30))
    start = time.perf_counter()
    assert main(["nctorus", "--config", str(config)]) == 3
    assert time.perf_counter() - start < 2.0
    assert "candidate points" in _stderr_line(capsys)


# The NcTorus support-tuple and lattice-ball costs: (params, limits, message part).
# Three copies of a symbol on the 15 x 15 square make 225^3 support tuples.
SQUARE = {"modes": [[[i, j], 1.0, 0.0] for i in range(-7, 8) for j in range(-7, 8)]}
TORUS_COSTS = {
    "support": (
        {"N": 8, "T": "identity", "symbols": [SQUARE] * 3},
        {"max_tuples": 1000},
        "11390625 support tuples exceed max_tuples = 1000",
    ),
    **{
        f"ball-{n}-{N}": (
            {"n": n, "N": N, "T": "dirac", "symbols": [{"pair": [1] + [0] * (n - 1)}] * 2},
            {},
            "candidate points exceed max_tuples = 10000000",
        )
        for n, N in [(2, "2**30"), (8, "2**40"), (1, "10**400")]
    },
}


@pytest.mark.parametrize("params, limits, message", TORUS_COSTS.values(), ids=TORUS_COSTS)
def test_nctorus_cost_over_max_tuples_exits_3(params, limits, message, tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"kind": "NcTorus", "params": params, "limits": limits}))
    start = time.perf_counter()
    assert main(["run", "--config", str(path)]) == 3
    assert time.perf_counter() - start < 2.0
    line = _stderr_line(capsys)
    assert message in line and len(line) < 120


# Amounts and limits of up to 18 digits print in full; longer ones as
# d.ddde+X, cut from their decimal digits.
@pytest.mark.parametrize(
    "N, max_tuples, shown",
    [
        (10**17 + 1, 10**17,
         "100000000000000001 trace points exceed max_tuples = 100000000000000000"),
        (10**18, 10**17, "1.000e+18 trace points exceed max_tuples = 100000000000000000"),
        ("10**400", 12345678901234567890, "1.000e+400 trace points exceed max_tuples = 1.234e+19"),
    ],
)
def test_resource_messages_shorten_amounts_past_18_digits(N, max_tuples, shown, tmp_path, capsys):
    path = tmp_path / "batch.json"
    params = {"a": "z^1", "b": "z^-1", "N": N}
    path.write_text(json.dumps({"kind": "FourierTrace", "params": params,
                                "limits": {"max_tuples": max_tuples}}))
    assert main(["run", "--config", str(path)]) == 3
    assert _stderr_line(capsys) == f"resource limit: {shown}"


# NcTorus parameter errors that sit on an oversized ball: each parses before
# the cost is checked, so each exits 2, not 3.
TORUS_INVALID = {
    "grading-odd-n": ({"n": 1, "N": "10**400", "symbols": [{"pair": [1]}]},
                      "T: grading coefficients need an even-dimensional torus"),
    "unknown-T": ({"n": 2, "N": "2**40", "T": "chiral", "symbols": [{"pair": [1, 0]}]},
                  "T: unknown T coefficient map 'chiral'"),
    "no-symbols": ({"n": 8, "N": "2**40", "T": "dirac", "symbols": []},
                   "symbols: at least one symbol is required"),
    "pair-dimension": ({"n": 2, "N": "2**40", "symbols": [{"pair": [1, 0, 0]}]},
                       "symbols: symbol dimension does not match the representation"),
    "twist-dimension": (
        {"n": 2, "N": "2**40", "theta": {"matrix": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]},
         "symbols": [{"pair": [1, 0]}]},
        "theta: twist form dimension does not match the representation",
    ),
}


@pytest.mark.parametrize("params, message", TORUS_INVALID.values(), ids=TORUS_INVALID)
def test_nctorus_parameter_errors_come_before_the_cost(params, message, tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"kind": "NcTorus", "params": params}))
    assert main(["run", "--config", str(path)]) == 2
    assert _stderr_line(capsys) == f"parameter error: NcTorus: {message}"


def test_nctorus_reports_are_deterministic_and_csv_capable():
    params = {
        "n": 2,
        "N": 12,
        "T": "grading-dirac",
        "theta": {"random": 3},
        "symbols": [{"pair": [1, 0]}, {"pair": [0, 1]}, {"pair": [1, 1]}],
    }
    config = ExperimentConfig("NcTorus", params)
    first = emit_report(run_experiment(config), "json")
    second = emit_report(run_experiment(config), "json")
    assert first == second
    csv_payload = emit_report(run_experiment(config), "csv").decode()
    assert csv_payload.startswith("series,point,value_re,value_im")
    assert any(line.split(",")[3] not in ("0", "") for line in csv_payload.splitlines()[1:])


def test_nctorus_experiment_reports_twist_control():
    config = ExperimentConfig(
        "NcTorus",
        {
            "n": 2,
            "N": 16,
            "T": "grading-dirac",
            "theta": {"random": 7},
            "symbols": [{"pair": [1, 0]}, {"pair": [0, 1]}, {"pair": [1, 1]}],
        },
    )
    report = run_experiment(config)
    names = [s["name"] for s in report.sequences]
    assert names == ["partial_sums", "partial_sums_zero_twist"]
    gap = report.scalars[0]["value"]
    assert gap >= 0.0


def test_invalid_kind_rejected():
    with pytest.raises(ParameterError):
        ExperimentConfig("Nonsense", {})


def test_alpha_other_than_half_rejected():
    config = ExperimentConfig("WeierstrassTrace", {"alpha": 0.4, "N": 1024})
    with pytest.raises(ParameterError):
        run_experiment(config)


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["hn", "--m-max", "2", "--N", "8", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["kind"] == "HnCheck"
    assert main(["weierstrass-trace", "--alpha", "0.4", "--out", str(out)]) == 2
    assert main(["singular-sweep", "--N", "6144", "--out", str(out)]) == 3
    capsys.readouterr()


def test_main_weierstrass_csv(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(
        [
            "weierstrass-trace",
            "--gamma",
            "2",
            "--N",
            "2**20",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "series,point,value_re,value_im"
    assert any(line.startswith("partial_sums,1048576,") for line in lines)


def test_winding_builds_no_matrix_so_the_cap_guards_only_the_dump(tmp_path, capsys):
    out = tmp_path / "w.json"
    start = time.perf_counter()
    assert main(["winding", "--a", "z^3", "--N", "10**6", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    values = {s["expression"]: s["value"] for s in json.loads(out.read_text())["scalars"]}
    assert values["tr((2P-1)[P,a][P,a^-1])"] == -3
    dump = tmp_path / "op.json"
    argv = ["winding", "--a", "z^3", "--N", "10**6", "--dump-operator", str(dump)]
    assert main([*argv, "--out", str(tmp_path / "d.json")]) == 3
    assert "exceed max_matrix" in _stderr_line(capsys)
    assert not dump.exists() and not (tmp_path / "d.json").exists()


def test_main_winding_dump_operator(tmp_path):
    dump = tmp_path / "op.json"
    code = main(
        ["winding", "--a", "z^1", "--N", "4", "--dump-operator", str(dump), "--out", str(tmp_path / "w.json")]
    )
    assert code == 0
    obj = json.loads(dump.read_text())
    assert obj["row_basis"]["ordering"] == "full-by-modulus"
    assert len(obj["rows"]) == 9
    assert obj["rows"][0][2] == [1.0, 0.0]  # entry (mode 0, mode -1)


def test_run_batch_config(tmp_path):
    cfg = {
        "experiments": [
            {
                "kind": "HnCheck",
                "params": {"m_max": 2, "N": 8},
                "output": {"path": str(tmp_path / "a.json"), "format": "json"},
            },
            {
                "kind": "Winding",
                "params": {"a": {"power": 2}, "N": 32},
                "output": {"path": str(tmp_path / "b.csv"), "format": "csv"},
            },
        ]
    }
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert json.loads((tmp_path / "a.json").read_text())["kind"] == "HnCheck"
    assert (tmp_path / "b.csv").read_text().startswith("series,")


def test_fourier_trace_cli(tmp_path):
    out = tmp_path / "ft.json"
    code = main(
        [
            "fourier-trace",
            "--a",
            '{"modes": [[4, 0.5, 0.0], [-4, 0.5, 0.0]]}',
            "--b",
            '{"modes": [[4, 0.5, 0.0], [-4, 0.5, 0.0]]}',
            "--N",
            "16",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    points = doc["sequences"][0]["points"]
    values = doc["sequences"][0]["values"]
    idx = points.index(8)
    assert values[idx][0] == pytest.approx(1.0 / math.log(8))


def _stderr_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize("command", ["run", "nctorus", "measurability"])
def test_config_file_errors_exit_2(command, tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    for path in (tmp_path / "missing.json", tmp_path, bad_json):
        assert main([command, "--config", str(path)]) == 2
        assert _stderr_line(capsys).startswith("parameter error: ")


@pytest.mark.parametrize("doc", [5, "experiments", None, {"experiments": 5}])
def test_batch_document_must_be_object_or_list(doc, tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 2
    assert _stderr_line(capsys).startswith("parameter error: ")


TORUS = {"N": 4, "symbols": [{"pair": [1, 0]}, {"pair": [0, 1]}]}


@pytest.mark.parametrize(
    "kind, params, named",
    [
        ("KernelCheck", {"b": {"modes": [[-1, 1.0, 0.0]]}, "N": 16}, "'a'"),
        ("KernelCheck", {"a": {"modes": [[1, "x", 0]]}, "b": "z^-1", "N": 16}, "a:"),
        ("WeierstrassTrace", {"gama": 3}, "'gama'"),
        ("HnCheck", {"m_max": "four"}, "m_max:"),
        ("HnCheck", {"N": 8, "t_points": 0}, "t_points:"),
        ("KernelCheck", {"a": "z^1", "b": "z^-1", "N": 16, "grid": "-3"}, "grid:"),
        ("WeierstrassTrace", {"gamma": 2.5}, "gamma:"),
        ("SingularValueSweep", {"N": 64, "k_lo": 2.9}, "k_lo:"),
        ("SingularValueSweep", {"N": 64, "k_hi": True}, "k_hi:"),
        ("FourierTrace", {"a": "z^2", "b": "z^-2", "N": 16, "symmetric": "false"}, "symmetric:"),
        ("Measurability", {"N": "4**7", "gamma": True}, "gamma:"),
        ("Measurability", {"N": "4**7", "gamma": 0}, "gamma: gamma must be an integer >= 2, got 0"),
        ("Measurability", {"N": "4**7", "entries": [{"gamma": 1}]}, "gamma:"),
        ("WeierstrassTrace", {"alpha": True}, "alpha:"),
        ("SingularValueSweep", {"N": 64, "p": True}, "p:"),
        ("KernelCheck", {"a": "z^1", "b": "z^-1", "N": 16, "r": False}, "r:"),
        ("Measurability", {"N": "4**7", "policy": {"rel_gap": True}}, "rel_gap:"),
        ("Measurability", {"N": "4**7", "policy": {"abs_floor": True}}, "abs_floor:"),
        # nested specs read every key they are given: each of these once ran,
        # dropping or coercing the part named
        ("FourierTrace", {"a": {"power": 1, "amplitude": 5}, "b": "z^-1"},
         "a: unknown parameter 'amplitude'"),
        ("FourierTrace", {"a": {"modes": [[1, 1, 0]], "extra": 5}, "b": "z^-1"},
         "a: unknown parameter 'extra'"),
        ("FourierTrace", {"a": {"modes": [[True, 1, 0]]}, "b": "z^-1"}, "[True, 1, 0]"),
        ("FourierTrace", {"a": {"modes": [[1, 1, 0]], "weierstrass": {"cutoff": 8}}, "b": "z^-1"},
         "a: unknown parameter 'weierstrass'"),
        ("NcTorus", {**TORUS, "theta": {"random": 7, "scal": 3}},
         "theta: unknown parameter 'scal'"),
        ("NcTorus", {**TORUS, "theta": {"random": 7.9}}, "theta: random: "),
        ("NcTorus", {**TORUS, "theta": {"matrix": [[0, 1], [-1, 0]], "random": 3}},
         "theta: unknown parameter 'random'"),
        ("NcTorus", {**TORUS, "symbols": [{"pair": [1.7, 0]}]}, "symbols: pair: "),
        ("NcTorus", {**TORUS, "symbols": [{"modes": [[[1.5, 0], 1, 0]]}]}, "[[1.5, 0], 1, 0]"),
        ("NcTorus", {**TORUS, "symbols": [{"pair": [1, 0], "amplitud": 2}]},
         "symbols: unknown parameter 'amplitud'"),
        ("Measurability", {"N": "4**7", "c": "sqrt-log-cos:7"}, "c: unknown coefficient rule"),
        ("NcTorus", {**TORUS, "symbols": [{"pair": [1, 0], "amplitude": True}]},
         "symbols: amplitude: expected a number, got True"),
        ("Measurability", {"N": "4**7", "policy": {"window_base": 1}},
         "policy: gamma must be an integer >= 2, got 1"),
        ("FourierTrace", {"a": {"modes": [[1, True, 0]]}, "b": "z^-1"}, "[1, True, 0]"),
    ],
)
def test_rejected_params_name_the_parameter(kind, params, named, tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"kind": kind, "params": params}))
    assert main(["run", "--config", str(path)]) == 2
    line = _stderr_line(capsys)
    assert line.startswith(f"parameter error: {kind}: ") and named in line
    with pytest.raises(ParameterError):
        run_experiment(ExperimentConfig(kind, params))


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--alpha", "0.3"], "alpha: the lacunary trace closed form is exact only at alpha = 1/2; "
                             "got alpha = 0.3"),
        (["--N", "64"], "N: 64 gives 6 trace points at gamma = 2; the 1/log fit needs 16"),
        (["--gamma", "3", "--N", "3**15"],
         "N: 14348907 gives 15 trace points at gamma = 3; the 1/log fit needs 16"),
    ],
)
def test_weierstrass_trace_refuses_alpha_and_n_before_the_runner(argv, line, capsys, monkeypatch):
    kind = cli._KINDS["WeierstrassTrace"]

    def runner_entered(**values):
        raise AssertionError("the runner started on a refused config")

    monkeypatch.setitem(cli._KINDS, "WeierstrassTrace", replace(kind, run=runner_entered))
    assert main(["weierstrass-trace", *argv]) == 2
    assert _stderr_line(capsys) == f"parameter error: WeierstrassTrace: {line}"


def test_weierstrass_trace_points_check_is_the_fit_length():
    # 16 points: gamma^1..gamma^15 and N itself; gamma^15 alone gives 15
    for gamma in (2, 3, 5):
        params = {"gamma": gamma, "N": gamma**15 + 1}
        report = run_experiment(ExperimentConfig("WeierstrassTrace", params))
        assert len(report.sequences[0]["points"]) == 16


@pytest.mark.parametrize("max_tuples", [20, 63, 64])
def test_winding_checks_the_inverse_grid_it_samples(max_tuples, tmp_path, capsys):
    # invert_symbol samples at least 64 points, so band 1 needs max_tuples >= 64
    doc = {"kind": "Winding", "params": {"a": "z^1", "N": 4}, "limits": {"max_tuples": max_tuples}}
    doc["output"] = {"path": str(tmp_path / "w.json")}
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(doc))
    if max_tuples < 64:
        assert main(["run", "--config", str(path)]) == 3
        line = _stderr_line(capsys)
        assert line == f"resource limit: 64 inverse grid points exceed max_tuples = {max_tuples}"
    else:
        assert main(["run", "--config", str(path)]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["hn", "--m-max", "2", "--N", "8", "--out", "{target}"],
        ["winding", "--a", "z^1", "--N", "4", "--dump-operator", "{target}", "--out", "{ok}"],
    ],
)
def test_unwritable_output_path_exits_2(argv, tmp_path, capsys):
    target = str(tmp_path / "missing" / "x.json")
    argv = [arg.format(target=target, ok=tmp_path / "ok.json") for arg in argv]
    assert main(argv) == 2
    assert _stderr_line(capsys) == (
        f"parameter error: cannot write {target!r}: No such file or directory"
    )


def test_the_parser_is_built_once_per_process(tmp_path, capsys):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"kind": "WeierstrassTrace", "params": {"gama": 3}}))
    with pytest.raises(SystemExit):
        main(["weierstrass-trace", "--help"])
    first_help = capsys.readouterr().out
    before = cli._build_parser.cache_info()
    for _ in range(3):
        assert main(["run", "--config", str(path)]) == 2
    assert main(["weierstrass-trace", "--N", "2**20", "--out", str(tmp_path / "w.json")]) == 0
    after = cli._build_parser.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 4)
    with pytest.raises(SystemExit):
        main(["weierstrass-trace", "--help"])
    assert capsys.readouterr().out == first_help


def test_help_lists_every_parameter_default(capsys):
    for kind in cli._KINDS.values():
        with pytest.raises(SystemExit):
            main([kind.command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        records = [p.parse for p in kind.params.params if isinstance(p.parse, cli._Table)]
        for table in [kind.params, *records]:
            for p in table.params:
                if (p.cli or kind.config_file) and not isinstance(p.parse, cli._Table):
                    assert cli._help(p) in text
    with pytest.raises(SystemExit):
        main(["measurability", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--window-count WINDOW_COUNT default: 5" in text
    assert "--rule C inline coefficient rule, default: constant:1" in text


def test_measurability_labels(tmp_path):
    single = run_experiment(ExperimentConfig("Measurability", {"N": "4**7"}))
    assert single.inputs["entries"][0]["label"] == "sequence"
    listed = run_experiment(ExperimentConfig("Measurability", {"N": "4**7", "entries": [{"gamma": 3}]}))
    assert listed.inputs["entries"][0]["label"] == "gamma=3"
    out = tmp_path / "m.json"
    assert main(["measurability", "--rule", "sqrt-log-cos", "--N", "4**7", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["inputs"]["entries"][0]["label"] == "sqrt-log-cos"


# One small valid params object per kind; the property test below breaks one
# thing in a copy of it.
SMALL = {
    "WeierstrassTrace": {"N": "2**20"},
    "Measurability": {"N": "4**7", "c": "block-indicator:2"},
    "SingularValueSweep": {"N": 64, "k_lo": 2},
    "KernelCheck": {
        "a": {"modes": [[1, 1.0, 0.0]]},
        "b": {"modes": [[-1, 1.0, 0.0]]},
        "N": 8,
        "grid": 64,
    },
    "Winding": {"a": {"power": 2}, "N": 8},
    "NcTorus": {"N": 4, "symbols": [{"pair": [1, 0]}, {"pair": [0, 1]}]},
    "HnCheck": {"m_max": 2, "N": 8},
    "FourierTrace": {"a": "z^2", "b": {"power": -2}, "N": 16},
}

BAD_RULES = [
    "nonsense:1", "constant:abc", 5, [], {"hed": [1]}, {"head": [], "extension": "periodic"},
    "sqrt-log-cos:7", {"extension": "block-indicator", "base": 2.5},
]
BAD_SYMBOLS = [
    {"modes": [[1, "x", 0]]},
    {"modes": 5},
    {"modes": [[1, 2]]},
    {"power": "two"},
    {"weierstrass": {}},
    {"weierstrass": {"cutoff": 8, "gama": 3}},
    "z^",
    7,
    {"nothing": 1},
    {"power": 1, "amplitude": 5},
    {"modes": [[1, 1, 0]], "extra": 5},
    {"modes": [[True, 1, 0]]},
    {"modes": [[1, 1, 0]], "weierstrass": {"cutoff": 8}},
    {"modes": [[1, True, 0]]},
    {"modes": [[1, 0.5, False]]},
]
BAD_ENTRIES = [5, [7], [{"gama": 3}], [{"c": "nonsense:1"}]]
BAD_POLICIES = [{"window_count": "x"}, {"windows": 3}, {"rel_gap": -1.0}, 5, {"window_count": 3.9}]
BAD_TWISTS = [
    {"random": "x"}, {"matrix": "abc"}, {"matrix": [[0, 1], [1, 0]]}, {}, "one",
    {"random": 7, "scal": 3}, {"random": 7.9}, {"matrix": [[0, 1], [-1, 0]], "random": 3},
]
BAD_LATTICE_SYMBOLS = [
    5,
    [{"pair": "ab"}],
    [{"pair": [1, 0], "amplitude": "x"}],
    [{"modes": 5}],
    [{"modes": [[[1, 0], "x", 0]]}],
    [{}],
    [{"pair": [1.7, 0]}],
    [{"modes": [[[1.5, 0], 1, 0]]}],
    [{"pair": [1, 0], "amplitud": 2}],
    [{"pair": [1, 0], "amplitude": True}],
    [{"modes": [[[1, 0], True, 0]]}],
]
# Malformed values of the nested specs, by parameter name.
BAD_NESTED = {
    "c": BAD_RULES,
    "d": BAD_RULES,
    "a": BAD_SYMBOLS,
    "b": BAD_SYMBOLS,
    "entries": BAD_ENTRIES,
    "policy": BAD_POLICIES,
    "theta": BAD_TWISTS,
    "symbols": BAD_LATTICE_SYMBOLS,
}
BAD_LIMITS = [
    {"max_matrix": "x"}, {"max_matrx": 10}, {"max_tuples": []}, 5, {"max_matrix": 2.7},
    {"max_tuples": True}, {"max_matrix": 0},
]
NOT_A_NUMBER = st.one_of(
    st.text(alphabet="abcxyz", min_size=1, max_size=5),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def broken_configs(draw):
    kind = draw(st.sampled_from(sorted(SMALL)))
    table = cli._KINDS[kind].params.params
    params = copy.deepcopy(SMALL[kind])
    entry = {"kind": kind, "params": params}
    names = [p.name for p in table]
    required = [p.name for p in table if p.default is cli._REQUIRED]
    size_parsers = (cli.parse_size, cli.parse_int64_size)
    numbers = (int, float, cli.parse_int_expr, cli.parse_float, cli.parse_gamma, *size_parsers)
    numeric = [p.name for p in table if p.parse in numbers]
    sizes = [p.name for p in table if p.parse in size_parsers]
    nested = [(p.name, BAD_NESTED[p.name]) for p in table if p.name in BAD_NESTED]
    how = draw(
        st.sampled_from(
            ["unknown key", "wrong type", "limits", "zero size", "negative size"]
            + (["missing key"] if required else [])
            + (["nested"] if nested else [])
        )
    )
    if how == "unknown key":
        key = draw(st.text(max_size=8).filter(lambda k: k not in names))
        params[key] = draw(st.one_of(st.none(), st.integers(), st.text(max_size=4)))
    elif how == "missing key":
        del params[draw(st.sampled_from(required))]
    elif how == "wrong type":
        params[draw(st.sampled_from(numeric))] = draw(NOT_A_NUMBER)
    elif how == "zero size":
        params[draw(st.sampled_from(sizes))] = draw(st.sampled_from([0, "0", "0**3"]))
    elif how == "negative size":
        params[draw(st.sampled_from(sizes))] = draw(st.integers(max_value=-1))
    elif how == "nested":
        name, bad = draw(st.sampled_from(nested))
        params[name] = draw(st.sampled_from(bad))
    else:
        entry["limits"] = draw(st.sampled_from(BAD_LIMITS))
    return entry


def _run_batch(doc) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        for i, entry in enumerate(doc):
            entry["output"] = {"path": os.path.join(tmp, f"{i}.out")}
        path = os.path.join(tmp, "batch.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", path])
    return code, err.getvalue()


@pytest.mark.parametrize(
    "entry",
    [{"kind": "HnCheck", "limits": limits} for limits in BAD_LIMITS]
    + [{"kind": "Measurability", "params": {"policy": policy}} for policy in BAD_POLICIES],
)
def test_bad_limits_and_policies_exit_2(entry):
    code, err = _run_batch([copy.deepcopy(entry)])
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("parameter error: ")


def test_small_configs_run():
    doc = [{"kind": kind, "params": copy.deepcopy(params)} for kind, params in SMALL.items()]
    assert _run_batch(doc) == (0, "")


# SMALL and a sweep on the dense route, so each Limits field is declared somewhere.
@pytest.mark.parametrize(
    "name, params",
    [*SMALL.items(), ("SingularValueSweep", {"N": 48, "k_lo": 2})],
    ids=[*SMALL, "SingularValueSweep-dense"],
)
def test_each_limit_refuses_one_below_the_declared_cost(name, params, monkeypatch):
    kind = cli._KINDS[name]
    largest: dict = {}
    for _, amount, limit in kind.cost(kind.params(params)):
        largest[limit] = max(amount, largest.get(limit, 0))
    assert largest or name == "WeierstrassTrace"
    entry = {"kind": name, "params": params}
    assert _run_batch([{**entry, "limits": largest}]) == (0, "")

    def runner_entered(**values):
        raise AssertionError("the runner started on a refused config")

    monkeypatch.setitem(cli._KINDS, name, replace(kind, run=runner_entered))
    for limit, amount in largest.items():
        code, err = _run_batch([{**entry, "limits": {**largest, limit: amount - 1}}])
        assert code == 3 and len(err.splitlines()) == 1
        assert err.startswith(f"resource limit: {amount} ")
        assert err.endswith(f" exceed {limit} = {amount - 1}\n")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(broken_configs())
def test_malformed_batch_configs_exit_2(entry):
    code, err = _run_batch([entry])
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parameter error: ")


@st.composite
def oversized_configs(draw):
    """A SMALL config with one integer parameter far above every limit."""
    kind = draw(st.sampled_from(sorted(SMALL)))
    integers = (cli.parse_size, cli.parse_int64_size, cli.parse_int_expr, cli.parse_gamma)
    names = [p.name for p in cli._KINDS[kind].params.params if p.parse in integers]
    params = copy.deepcopy(SMALL[kind])
    params[draw(st.sampled_from(names))] = draw(
        st.one_of(
            st.integers(24, 20_000).map(lambda e: f"2**{e}"), st.integers(2**24, 2**80)
        )
    )
    return {"kind": kind, "params": params}


# each example is a process of its own: about 0.2 s
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(oversized_configs())
def test_oversized_configs_exit_with_a_report_or_one_line(entry):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "batch.json").write_text(json.dumps(entry))
        proc = _cli_process(["run", "--config", "batch.json"], tmp)
    assert proc.returncode in (0, 2, 3)
    assert len(proc.stderr.splitlines()) == (proc.returncode != 0)
    assert "Traceback" not in proc.stderr
    if proc.returncode == 0:
        json.loads(proc.stdout)


# The README CLI examples, plus one fourier-trace long enough for the
# numpy-built '%.17g' rows; each writes the file named first.  The
# three-rule measurability table is the benchmark's measurability-4^10 op.
README_EXAMPLES = [
    ("wt.json", ["weierstrass-trace", "--gamma", "2", "--N", "2**40"]),
    ("mb.json", ["measurability", "--rule", "block-indicator:2", "--N", "4**10"]),
    ("ms.json", ["measurability", "--rule", "sqrt-log-cos", "--N", "4**10"]),
    ("mt.json", ["measurability", "--config", "entries.json", "--N", "4**10"]),
    ("ss.csv", ["singular-sweep", "--alpha", "0.5", "--gamma", "2", "--N", "1024",
                "--format", "csv"]),
    ("kc.json", ["kernel-check", "--a", '{"modes": [[1, 1.0, 0.0]]}',
                 "--b", '{"modes": [[-1, 1.0, 0.0]]}', "--N", "64", "--r", "0.999999",
                 "--grid", "1024"]),
    ("wd.json", ["winding", "--a", "z^3", "--N", "64", "--dump-operator", "op.json"]),
    ("hn.json", ["hn", "--m-max", "4", "--N", "64"]),
    ("nc.json", ["nctorus", "--config", "torus.json"]),
    ("ft.json", ["fourier-trace", "--a", "lacunary.json", "--b", "lacunary.json",
                 "--N", "1024", "--symmetric"]),
]

# SHA-256 of each body, and whether it is host-bound: its numbers pass
# through FFT, LAPACK or BLAS, whose last digits may differ on another numpy
# or BLAS build with no change to the program.  An intended change of a body
# updates its digest here and lists every changed digit in CHANGES.md.
README_DIGESTS = {
    "wt.json": (True, "5dd8a6f57049818b40f0aa8969c34e0dae5a264ec00afdd080f7eb59a7328475"),  # lstsq
    "mb.json": (False, "fe0ea33e366caa2d5c1b6a1a1f1e03153975c74154ed45ed76f1a29a1ee10bee"),
    "ms.json": (False, "ab644818b623a6b6cba423714d8e8cc4bd0dc40356fb0ccc2a1c9326480753ef"),
    "mt.json": (False, "49ba5066c75113a92d1598352115c7eb9c1b520d0a7358cf7267fbc844f8f52c"),
    "ss.csv": (True, "f3923d0971101e561b26907bd55a6bc7db55822fbb329fd3236ba5c84f2b02ea"),  # polyfit
    "kc.json": (True, "177583dfc075735d05ac036413acee333270fc369c090ede925780e2f605ddbb"),  # FFT
    "wd.json": (True, "0331e728116f42edf28476420da952e5a808fe14aa06ceb80637b5c06d0e265c"),  # FFT
    "op.json": (False, "a0c084a537b84be13b8f8d53953765166399294e1fb1a886394ae6605e0494b2"),
    "hn.json": (False, "08edec2be219ee24995f008e56fa7456e5946cb196ad8f98d53d0d999b6f2dfc"),
    "nc.json": (True, "71e9422d3b1a409aa6d8dec631e4222baf80b620e040b106da4768a5cafed30c"),  # matmul
    "ft.json": (False, "1644bcf3c9ed752eed0af6ffa17ff7c4db6e809684f6d86d031498cc056802fc"),
}


def test_readme_example_bodies_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    torus = {
        "n": 2, "N": 256, "T": "grading-dirac", "theta": {"random": 7, "scale": 1.0},
        "symbols": [{"pair": [1, 0]}, {"pair": [0, 1]}, {"pair": [1, 1]}],
    }
    Path("torus.json").write_text(json.dumps(torus))
    lacunary = {"weierstrass": {"alpha": 0.5, "gamma": 2, "c": "constant:1", "cutoff": 1024}}
    Path("lacunary.json").write_text(json.dumps(lacunary))
    rules = {"block-indicator": "block-indicator:2", "sqrt-log-cos": "sqrt-log-cos",
             "constant": "constant:1"}
    entries = [{"label": label, "c": rule} for label, rule in rules.items()]
    Path("entries.json").write_text(json.dumps({"entries": entries}))
    for out, argv in README_EXAMPLES:
        assert main([*argv, "--out", out]) == 0
    changed = [
        f"{name}{' (host-bound)' if host_bound else ''}"
        for name, (host_bound, digest) in README_DIGESTS.items()
        if hashlib.sha256(Path(name).read_bytes()).hexdigest() != digest
    ]
    assert not changed, f"report bodies changed: {', '.join(changed)}"


# Bodies at the benchmark's sizes, from configs of this file: the closed-form
# sweep, a dense Fourier-side trace whose 2**17 rows take the numpy-built
# '%.17g' and int cells in JSON and CSV, and the symmetric lacunary trace.
# b is the conjugate symbol of a, so the dense trace is real.
DENSE = {k: complex((k % 5 + 1) / 7, (k % 3 - 1) / 11) for k in range(-16, 17)}
DENSE_A = {"modes": [[k, v.real, v.imag] for k, v in DENSE.items()]}
DENSE_B = {"modes": [[-k, v.real, -v.imag] for k, v in DENSE.items()]}
LACUNARY_2_16 = {"weierstrass": {"alpha": 0.5, "gamma": 2, "c": "constant:1", "cutoff": 2**16}}

BENCH_SIZE_BODIES = {
    "sweep-W(0.5,2,1)-2048.json": (
        "SingularValueSweep", {"alpha": 0.5, "gamma": 2, "N": 2048, "c": "constant:1"}, "json",
        True, "d2efa7e8fc55579b5f82782d1478dd90ee25c1e50d93ad988e25679cb03d1ded",  # lstsq
    ),
    **{
        f"fourier-dense-2^17.{fmt}": (
            "FourierTrace", {"a": DENSE_A, "b": DENSE_B, "N": 2**17}, fmt, False, digest,
        )
        for fmt, digest in [
            ("json", "b69ece533d6b9332894047ed3e872188b7753335a858c55ec8ae96bab230847c"),
            ("csv", "4305db8383f6e25accbf734ab9e3318e6ba3b42c3510a34253f211f5a65c560c"),
        ]
    },
    **{
        f"fourier-symmetric-lacunary-2^16.{fmt}": (
            "FourierTrace",
            {"a": LACUNARY_2_16, "b": LACUNARY_2_16, "N": 2**16, "symmetric": True},
            fmt, False, digest,
        )
        for fmt, digest in [
            ("json", "c5eb5b0e9f19f74c924254985219a70e2a02571661662d10efa5336d13938f2b"),
            # its constant imaginary column sits inside each CSV row
            ("csv", "8d1bdcb55f29894ea3df9f22147545a81d51a21f9c8aedf82949ce329d5f53a1"),
        ]
    },
}


def test_benchmark_size_bodies_are_byte_identical():
    def body(kind, params, fmt):
        return emit_report(run_experiment(ExperimentConfig(kind, params)), fmt)

    changed = [
        f"{name}{' (host-bound)' if host_bound else ''}"
        for name, (kind, params, fmt, host_bound, digest) in BENCH_SIZE_BODIES.items()
        if hashlib.sha256(body(kind, params, fmt)).hexdigest() != digest
    ]
    assert not changed, f"report bodies changed: {', '.join(changed)}"


# The benchmark's seeded operations, rebuilt here from copies of its configs
# and calls: the seed picks coefficients, phases and twist forms, drawn from
# random.Random(f"{seed}:{tag}") in the benchmark's order.
def _seeded(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def _unit(rng: random.Random) -> complex:
    return rng.uniform(0.3, 1.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _modes(coeffs: dict) -> dict:
    return {"modes": [[k, coeffs[k].real, coeffs[k].imag] for k in sorted(coeffs)]}


def _unit_modes(rng: random.Random, ks) -> dict:
    return _modes({k: _unit(rng) for k in ks})


def _laurent(seed: int) -> dict:
    """z^-2 (1 + a tail of l1 mass 0.6): degree -2."""
    rng = _seeded(seed, "laurent")
    tail = {k: _unit(rng) for k in range(-3, 4) if k}
    scale = 0.6 / sum(abs(v) for v in tail.values())
    return _modes({k - 2: v * scale for k, v in tail.items()} | {-2: 1.0 + 0j})


def _twist_3(seed: int) -> dict:
    rng = _seeded(seed, "twist3")
    upper = [[rng.uniform(-1.0, 1.0) if j > i else 0.0 for j in range(3)] for i in range(3)]
    return {"matrix": [[upper[i][j] - upper[j][i] for j in range(3)] for i in range(3)]}


def _residue_pipeline(seed: int):
    """operator_product -> hardy_compress -> residue_sequence -> classify_limit,
    the classifier on the real partial sums inside the safe band."""
    rng = _seeded(seed, "residue")
    a, b = (symbol_from_obj(_unit_modes(rng, range(-16, 17))) for _ in range(2))
    n, degree = 512, 16
    product = operator_product(
        [szego_projection(n), commutator_matrix(a, n), commutator_matrix(b, n)]
    )
    residue = residue_sequence(hardy_compress(product, n))
    return residue.partial_sums, classify_limit(residue.partial_sums.real[degree : n - degree])


def _bench_outputs(seed: int) -> dict:
    """name -> a function giving the benchmark operation's output at ``seed``."""
    def config(kind, params, fmt="json"):
        return lambda: emit_report(run_experiment(ExperimentConfig(kind, params)), fmt)

    def sweep(alpha, gamma, n, rule, **window):
        params = {"alpha": alpha, "gamma": gamma, "N": n, "c": rule, **window}
        return config("SingularValueSweep", params)

    def kernel(n):
        rng = _seeded(seed, f"kernel{n}")
        a, b = _unit_modes(rng, (1, 2, 3, -2)), _unit_modes(rng, (-1, -2, -3, 2))
        return config("KernelCheck", {"a": a, "b": b, "N": n, "r": 1.0 - 1e-8})

    w = {"weierstrass": {"alpha": 0.5, "gamma": 2, "c": "constant:1", "cutoff": 2**14}}
    t = _seeded(seed, "twist2").uniform(-math.pi, math.pi)
    rules = {"block-indicator": "block-indicator:2", "sqrt-log-cos": "sqrt-log-cos",
             "constant": "constant:1"}
    rng = _seeded(seed, "dense")
    dense = {k: _unit(rng) for k in range(-16, 17)}
    dense_b = _modes({-k: v.conjugate() for k, v in dense.items()})
    trig = _unit_modes(_seeded(seed, "trig-hankel"), range(-24, 25))
    return {
        **{f"sweep-alpha{alpha}": sweep(alpha, 2, 2048, "constant:1", k_lo=16, k_hi=512)
           for alpha in (0.3, 0.5, 0.7)},
        "sweep-gamma3-block": sweep(0.5, 3, 1024, "block-indicator:2", k_lo=1, k_hi=8),
        "sweep-sqrt-log-cos": sweep(0.5, 2, 1024, "sqrt-log-cos"),
        "winding-z3": config("Winding", {"a": "z^3", "N": 1024}),
        "winding-laurent": config("Winding", {"a": _laurent(seed), "N": 1024}),
        "hankel-trig-poly": lambda: singular_values(hankel_matrix(symbol_from_obj(trig), 1024)).mu,
        "kernel-N64": kernel(64),
        "kernel-N128": kernel(128),
        "hn-m8": config("HnCheck", {"m_max": 8, "N": 2**14, "t_points": 64}),
        "weierstrass-2^40": config(
            "WeierstrassTrace", {"gamma": 2, "c": "constant:1", "d": "constant:1", "N": "2**40"}
        ),
        "fourier-symmetric-lacunary": config(
            "FourierTrace", {"a": LACUNARY_2_16, "b": LACUNARY_2_16, "N": 2**16, "symmetric": True}
        ),
        "holder-norm-star": lambda: holder_norm_star(symbol_from_obj(w), 0.5, 2),
        "besov-norm": lambda: besov_norm(symbol_from_obj(w), 0.5, 2, 2, 2),
        "nctorus-n2-N512": config("NcTorus", {
            "n": 2, "N": 512, "T": "grading-dirac", "theta": {"matrix": [[0.0, t], [-t, 0.0]]},
            "symbols": [{"pair": [1, 0]}, {"pair": [0, 1]}, {"pair": [1, 1]}],
        }),
        "nctorus-n3-N256": config("NcTorus", {
            "n": 3, "N": 256, "T": "dirac", "theta": _twist_3(seed),
            "symbols": [{"pair": [1, 0, 0]}, {"pair": [0, 1, 1]}, {"pair": [1, 1, 1]}],
        }),
        "measurability-4^10": config("Measurability", {
            "N": "4**10", "entries": [{"label": label, "c": c} for label, c in rules.items()],
        }),
        **{f"fourier-dense-2^17-{fmt}": config(
            "FourierTrace", {"a": _modes(dense), "b": dense_b, "N": 2**17}, fmt
        ) for fmt in ("json", "csv")},
        "residue-pipeline": lambda: _residue_pipeline(seed),
    }


def _digest(output) -> str:
    """SHA-256 over a report's bytes, an array's bytes or a number's repr,
    part by part for a tuple, as ``perfbench/checksums.py`` prints it."""
    sha = hashlib.sha256()
    for part in output if isinstance(output, tuple) else (output,):
        if isinstance(part, bytes):
            sha.update(part)
        elif hasattr(part, "tobytes"):
            sha.update(part.tobytes())
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()


# (seed, operation) -> (host-bound, digest): every operation at seed 7, and
# at seed 1 those whose configs draw from the seed.  Host-bound outputs pass
# through FFT, LAPACK or BLAS.
BENCH_DIGESTS = {
    (7, "sweep-alpha0.3"):
        (True, "7173f82bd3803243ee9aeb7f02e5760cbacc93205dfc4febbc2c63a611add32e"),
    (7, "sweep-alpha0.5"):
        (True, "d2efa7e8fc55579b5f82782d1478dd90ee25c1e50d93ad988e25679cb03d1ded"),
    (7, "sweep-alpha0.7"):
        (True, "5f29b4401b5a7a84ab9ec3a4e74565e0f79ff810c1c94d3b6562e1e63be31ddb"),
    (7, "sweep-gamma3-block"):
        (True, "88edac2ab026b162abd458d4639b3d615925b318ab95be83dddf4361eb0ce589"),
    (7, "sweep-sqrt-log-cos"):
        (True, "d6847781a0140965f41fe3ead8768da5289f3abd3ee381cc0e67a86d377ba5a4"),
    (7, "winding-z3"): (True, "dae89b35783d6d3fd8afccee0cbeb325f27a41ab5571fc00fe98cae41c898074"),
    (7, "winding-laurent"):
        (True, "3d1448c40b1dd55cbaba5bc0fb7e917011388ca720e6b05cb0eeb31cf7530910"),
    (7, "hankel-trig-poly"):
        (True, "4a96ed971f989afaa08e212e517f257ccba14bba98a800a1ce3d58f949e9c995"),
    (7, "kernel-N64"): (True, "7bcfb89f579315e0b8215a30bf1718831ce4b689e18e394838729f95c035c2d0"),
    (7, "kernel-N128"): (True, "e3a2e9f46828e710026f1c2311644702f9fb2317cc942b34d77667fa24a67dea"),
    (7, "hn-m8"): (False, "34def6dd20fcb3ffa82552d92379eb72c41e057109dcfb56d3b8e1bc39739747"),
    (7, "weierstrass-2^40"):
        (True, "5dd8a6f57049818b40f0aa8969c34e0dae5a264ec00afdd080f7eb59a7328475"),
    (7, "fourier-symmetric-lacunary"):
        (False, "c5eb5b0e9f19f74c924254985219a70e2a02571661662d10efa5336d13938f2b"),
    (7, "holder-norm-star"):
        (False, "c9381a9f004e0c6c76ca65efc485ef9e10b52cd8a45a196f34f71bd0a34339d9"),
    (7, "besov-norm"): (False, "3196b937dabac14c719dffb150851992badf7ebc57ec501c103e6892db577334"),
    (7, "nctorus-n2-N512"):
        (True, "d9c22e90d44bf06ff8d243ed6320b718d2c86b0dc855aeca7ae789d6fcf101e4"),
    (7, "nctorus-n3-N256"):
        (True, "197c9b026b3737b50a5cdcc9008dec479855d7461b86ef64bbf333d508ef2371"),
    (7, "measurability-4^10"):
        (False, "49ba5066c75113a92d1598352115c7eb9c1b520d0a7358cf7267fbc844f8f52c"),
    (7, "fourier-dense-2^17-json"):
        (False, "b5be9246ab7ee8d08e320ac73781e8cbbd7a2ffa65a742a95ccc8b35a9eb6700"),
    (7, "fourier-dense-2^17-csv"):
        (False, "e8cae17b4636e22e22d416259a38fc242a30c6830277d2b99f3592874d56de03"),
    (7, "residue-pipeline"):
        (True, "a9f0a7dd1e10e6f6257a29d094dff783120dd6022c78cfb153afd7e89e791b0f"),
    (1, "winding-laurent"):
        (True, "b226a39730c5ad784ae44adef92df7f5fdc0f5801774c8c4d24f2de903074bed"),
    (1, "hankel-trig-poly"):
        (True, "300ab59a4d0fcd59b2f3b40e960427a64734028c24bd9eb3686e766b06d1e07a"),
    (1, "kernel-N64"): (True, "6760028119b4df52a062ca5974da88cd25ca2a27884b4803357684bbb84074f6"),
    (1, "kernel-N128"): (True, "449226a0085124e0074f4fe8ce42ba50c23cd7c6872b9acad80d0fd5d9a7a15d"),
    (1, "nctorus-n2-N512"):
        (True, "47b2329e6a096afa8dac658807afefd1da72a91d2ceeb9470aa32bf0710f1bc8"),
    (1, "nctorus-n3-N256"):
        (True, "68442138d7f308f16315919a2b6d9201eb6330c3f06267f6ee2636c24ed7cc22"),
    (1, "fourier-dense-2^17-json"):
        (False, "bfb87f83e13aa6ce08249fc1ae4460b1b08434ce97ed77a63fd348da998624c1"),
    (1, "fourier-dense-2^17-csv"):
        (False, "af576034c229c255dee916536199d1cdd938d16a9e2fcbf3d5699beee0861fc6"),
    (1, "residue-pipeline"):
        (True, "c61c12a6ca0a5ac5d3793f566114ef7aebb3f19877cc945ebb030267ea8a5c03"),
}


@pytest.mark.parametrize("seed", [1, 7])
def test_seeded_benchmark_outputs_are_byte_identical(seed):
    outputs = _bench_outputs(seed)
    changed = [
        f"{name}{' (host-bound)' if host_bound else ''}"
        for (at, name), (host_bound, digest) in BENCH_DIGESTS.items()
        if at == seed and _digest(outputs[name]()) != digest
    ]
    assert not changed, f"outputs at seed {seed} changed: {', '.join(changed)}"


# Every name the package exports, with what needs it: a CLI kind, an
# acceptance criterion, a benchmark call, or the exported function built on
# it.  A new export states its reason here.
PUBLIC_SURFACE = {
    "AntisymmetricForm": "NcTorus theta; criterion 10",
    "BasisIndexMap": "the bases of every operator",
    "BasisMismatchError": "raised by operator_product, compress and residue_sequence",
    "ClassifyPolicy": "Measurability policy",
    "CliffordRep": "NcTorus representation",
    "CoefficientRule": "WeierstrassTrace, Measurability, SingularValueSweep; benchmark",
    "FourierSymbol": "every symbol parameter; criteria 1, 2, 6 and 7",
    "INF": "the exponent infinity of besov_norm",
    "KernelParams": "KernelCheck; criterion 7",
    "LatticeSymbol": "NcTorus symbols; criterion 10",
    "MeasurabilityVerdict": "returned by classify_limit",
    "ModeTuple": "criterion 9",
    "OrderingRule": "the rule of a BasisIndexMap, checked by residue_sequence",
    "ParameterError": "exit 2 of every CLI kind",
    "ResidueSequence": "returned by residue_sequence",
    "ResourceLimitError": "exit 3 of every CLI kind",
    "SingularSpectrum": "returned by singular_values and lacunary_hankel_spectrum",
    "SpectralError": "raised by singular_values",
    "TraceSequence": "returned by the closed-form traces and torus_trace_partial",
    "TruncatedOperator": "every operator; benchmark wraps its __post_init__",
    "VerdictKind": "criterion 4",
    "WeierstrassParams": "SingularValueSweep; benchmark",
    "WindingReport": "returned by winding_report",
    "besov_norm": "benchmark call besov-norm",
    "cesaro_mean": "criterion 4",
    "circle_grid": "built on by integral_trace and invert_symbol",
    "classify_limit": "Measurability; criterion 4; benchmark",
    "clifford_rep": "NcTorus; criteria 9 and 10",
    "commutator_matrix": "criteria 1 and 2; benchmark",
    "compress": "built on by hardy_compress",
    "constant_symbol": "criterion 8",
    "decay_slope": "SingularValueSweep; criterion 5",
    "dirac_phase": "criterion 9",
    "fourier_side_trace": "FourierTrace; criterion 2",
    "full_basis": "built on by commutator_matrix and szego_projection",
    "graded_trace_2d": "criterion 9",
    "hankel_matrix": "SingularValueSweep; criteria 5 and 6; benchmark",
    "hardy_basis": "built on by hardy_compress",
    "hardy_compress": "criteria 1 and 2; benchmark",
    "hardy_split": "built on by integral_trace",
    "hat_weights": "built on by besov_norm",
    "holder_norm_star": "benchmark call holder-norm-star",
    "integral_trace": "KernelCheck; criterion 7; benchmark",
    "invert_symbol": "built on by winding_report",
    "lacunary_hankel_spectrum": "SingularValueSweep",
    "log_extrapolate": "WeierstrassTrace; criterion 3",
    "mode_symbol": "the z^k symbol shorthand; criterion 8",
    "operator_product": "criteria 1 and 2; benchmark",
    "operator_to_json_obj": "Winding --dump-operator",
    "phase_product_matrix": "criterion 9; benchmark",
    "residue_sequence": "criterion 2; benchmark",
    "sample_to_symbol": "built on by invert_symbol",
    "singular_values": "SingularValueSweep; criteria 5 and 6; benchmark",
    "sphere_kernel": "criterion 11",
    "sphere_kernel_derivative": "criterion 11",
    "symbol_eval": "built on by integral_trace and invert_symbol; benchmark",
    "symbol_from_json_obj": "every symbol parameter; benchmark",
    "symmetric_fourier_trace": "FourierTrace --symmetric",
    "szego_projection": "criteria 1 and 2; benchmark",
    "torus_trace_partial": "criterion 10",
    "twist_phase": "built on by torus_trace_partial",
    "weak_quasinorm": "SingularValueSweep; criterion 5",
    "weierstrass_symbol": "SingularValueSweep; criterion 5; benchmark",
    "weierstrass_trace": "WeierstrassTrace; criterion 3",
    "winding_report": "Winding",
    "winding_trace": "criterion 8",
}


def test_public_surface_is_what_something_needs():
    exported = {
        name
        for name, value in vars(circletrace).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == set(PUBLIC_SURFACE)


def _refuses(node) -> bool:
    return isinstance(node, ast.Raise) and "ResourceLimitError" in ast.unparse(node)


def test_lacunary_bases_are_refused_and_scalars_appended_in_one_place():
    refusers, appenders = [], set()
    for path in sorted(Path(circletrace.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(inner, ast.Raise) and "must be an integer >= 2" in ast.unparse(inner)
                for inner in ast.walk(node)
            ):
                refusers.append((path.name, node.name))
            # a method call on something's .scalars: append, extend, insert
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "scalars"
            ):
                appenders.add(path.name)
    # the lacunary base and the policy's window count share one integer rule
    assert refusers == [("fourier.py", "_integer_from_two")]
    assert appenders == {"report.py"}


def test_parameter_rules_are_written_once():
    # each rule lives in the library module that owns its math, and the kind's
    # parameter table calls it there before the cost
    source = "".join(
        path.read_text() for path in sorted(Path(circletrace.__file__).parent.glob("*.py"))
    )
    for rule in (
        "at least one symbol is required",
        "symbol dimension does not match the representation",
        "twist form dimension does not match the representation",
        "exceeds the kernel range",
        "min(512, N // 4)",
    ):
        assert source.count(rule) == 1, rule
    assert "too coarse for band" not in source


def test_resource_limits_are_read_and_refused_in_one_place():
    raises, raisers, readers = 0, [], set()
    for path in sorted(Path(circletrace.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            raises += _refuses(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_refuses(inner) for inner in ast.walk(node)):
                    raisers.append((path.name, node.name))
            # an attribute, a name, a keyword or parameter, or a getattr string
            names = (getattr(node, key, None) for key in ("attr", "id", "arg", "value"))
            if {"max_tuples", "max_matrix"} & {name for name in names if isinstance(name, str)}:
                readers.add(path.name)
    assert (raises, raisers) == (1, [("cli.py", "_check_cost")])
    assert readers == {"cli.py"}
