import contextlib
import copy
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from circletrace.dixmier import cesaro_mean, classify_limit
from circletrace.errors import ParameterError, ResourceLimitError
from circletrace.fourier import CoefficientRule
from circletrace.report import Report, emit_report


def test_parse_int_expr():
    assert parse_int_expr(17) == 17
    assert parse_int_expr("17") == 17
    assert parse_int_expr("2**10") == 1024
    assert parse_int_expr("4^5") == 1024
    with pytest.raises(ParameterError):
        parse_int_expr("two")


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
}
TORUS_2_30 = {"n": 2, "N": "2**30", "symbols": [{"pair": [1, 0]}, {"pair": [0, 1]}]}


@pytest.mark.parametrize("argv, code", OVERSIZED.values(), ids=OVERSIZED)
def test_oversized_commands_exit_with_one_line(argv, code, tmp_path):
    (tmp_path / "torus.json").write_text(json.dumps(TORUS_2_30))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "circletrace.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
        preexec_fn=_limit_address_space,
    )
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
    assert "matrix cap" in _stderr_line(capsys)
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


@pytest.mark.parametrize(
    "kind, params, named",
    [
        ("KernelCheck", {"b": {"modes": [[-1, 1.0, 0.0]]}, "N": 16}, "'a'"),
        ("KernelCheck", {"a": {"modes": [[1, "x", 0]]}, "b": "z^-1", "N": 16}, "a:"),
        ("WeierstrassTrace", {"gama": 3}, "'gama'"),
        ("HnCheck", {"m_max": "four"}, "m_max:"),
        ("HnCheck", {"N": 8, "t_points": 0}, "t_points:"),
        ("KernelCheck", {"a": "z^1", "b": "z^-1", "N": 16, "grid": "-3"}, "grid:"),
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

BAD_RULES = ["nonsense:1", "constant:abc", 5, [], {"hed": [1]}, {"head": [], "extension": "periodic"}]
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
]
BAD_ENTRIES = [5, [7], [{"gama": 3}], [{"c": "nonsense:1"}]]
BAD_POLICIES = [{"window_count": "x"}, {"windows": 3}, {"rel_gap": -1.0}, 5]
BAD_TWISTS = [{"random": "x"}, {"matrix": "abc"}, {"matrix": [[0, 1], [1, 0]]}, {}, "one"]
BAD_LATTICE_SYMBOLS = [
    5,
    [{"pair": "ab"}],
    [{"pair": [1, 0], "amplitude": "x"}],
    [{"modes": 5}],
    [{"modes": [[[1, 0], "x", 0]]}],
    [{}],
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
BAD_LIMITS = [{"max_matrix": "x"}, {"max_matrx": 10}, {"max_tuples": []}, 5]
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
    numeric = [p.name for p in table if p.parse in (int, float, cli.parse_int_expr, cli.parse_size)]
    sizes = [p.name for p in table if p.parse is cli.parse_size]
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


def test_small_configs_run():
    doc = [{"kind": kind, "params": copy.deepcopy(params)} for kind, params in SMALL.items()]
    assert _run_batch(doc) == (0, "")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(broken_configs())
def test_malformed_batch_configs_exit_2(entry):
    code, err = _run_batch([entry])
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parameter error: ")
