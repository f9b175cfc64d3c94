import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circletrace import report as report_module
from circletrace.report import (
    _BLOCK,
    Report,
    _csv_name,
    _rows,
    _write_json,
    emit_report,
    format_float,
)


def mixed_floats(n: int, seed: int = 11) -> list:
    """Fast lanes with every kind of fallback lane spread among them: exact
    ties, |x| beyond 1e280 or below 1e-280, subnormals, and signed zeros."""
    values = (1.5 + 4 * np.random.default_rng(seed).random(n)).tolist()
    specials = [123456789012345.625, -123456789012345.875, 1e300, -1e-300, 5e-324,
                -2.5e-310, -0.0, 0.0, 1e16, -1e-5, 2.0**-1074 * 3, 1e280]
    for i, value in enumerate(specials):
        values[i * (n // len(specials))] = value
    return values

# Integers at the digit-count boundaries of the int cells: +-(10**k - 1) and
# +-10**k for k <= 15, +-(2**53 - 1) and 0.  Eight copies reach the numpy route.
INT_EDGES = [
    0, 2**53 - 1, -(2**53 - 1),
    *(sign * v for k in range(16) for v in (10**k - 1, 10**k) for sign in (1, -1)),
]
INT_COLUMNS = [
    INT_EDGES * 8,
    np.array(INT_EDGES * 8),
    np.array([k for k in INT_EDGES if abs(k) < 2**31] * 16, dtype=np.int32),
    np.array([k for k in INT_EDGES if k >= 0] * 16, dtype=np.uint64),
]

# Lists, each also written as the numpy array it makes (where it makes one):
# exactly float, int or complex values, which an array writes through the
# vectorized cells, and mixed or special values.
LISTS = [
    [-0.0, 5e-324, 1e308, -1e308, 0.1, 1.0, 2.5e-310, 123456789.0],
    [0, -1, 7, 2**53 + 1, 2**63, 2**64 + 1, -(2**70)],
    [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(1e308, 5e-324), 1j],
    [-0.0],
    [0.0, -0.0, -0.0, 0.0, 1.0, -1.0],
    [complex(2.5, 0.0), complex(-2.5, -0.0), complex(0.0, 0.0), complex(-0.0, 1e-300)],
    [complex(1.0, 0.0)] * 5,
    # more than one block of rows, and lists shorter than one
    [(-1.0) ** k * k / 3 for k in range(2 * _BLOCK + 3)],
    [complex(k / 7, -0.0 if k % 3 else 0.0) for k in range(_BLOCK + 1)],
    mixed_floats(2 * _BLOCK + 5),
    [complex(re, im) for re, im in zip(mixed_floats(_BLOCK + 9), mixed_floats(_BLOCK + 9, 12)[::-1])],
    mixed_floats(512),
    mixed_floats(511),
    list(range(-_BLOCK, _BLOCK + 3)),
    [2**53 - 1, -(2**53) + 1, 0] * 512,
    [2**53, 2**63, -(2**70), 7] * 512,
    [2**63],
    [True, 1],
    [1, True],
    [False, False],
    [1, 1.0],
    [1.0, 1],
    [1.0, 1j],
    [np.float64(0.1), 0.2],
    [0.2, np.float64(-0.0)],
    [np.int64(3), 4],
    [np.complex128(-0.0j), 2j],
    [np.float64(1.5), np.float64(2.5)],
    [],
    [1.5, "x"],
    [None, 1.0],
    [[1.0, -0.0], [3.0]],
    INT_EDGES,
    INT_EDGES * 8,
]


def written(obj) -> str:
    chunks = []
    _write_json(obj, chunks.append)
    return b"".join(chunks).decode()


@pytest.mark.parametrize("items", LISTS, ids=range(len(LISTS)))
def test_list_bytes_equal_the_element_by_element_writer(items):
    elementwise = "[" + ", ".join(written(item) for item in items) + "]"
    assert written(items) == elementwise
    try:
        array = np.array(items)
    except ValueError:  # a ragged list makes no array
        return
    assert written(array) == written(array.tolist())


def test_an_empty_column_writes_nothing():
    chunks = []
    _rows(["[", ("%.17g", np.zeros(0)), ", ", ("%.17g", np.zeros(3)), "]"], ", ", chunks.append)
    assert chunks == []
    assert written(np.zeros(0, dtype=complex)) == "[]"


@pytest.mark.parametrize("column", INT_COLUMNS, ids=["list", "int64", "int32", "uint64"])
def test_int_columns_write_str_of_each_entry(column):
    items = column.tolist() if isinstance(column, np.ndarray) else column
    assert written(column) == "[" + ", ".join(map(str, items)) + "]"
    report = Report(kind="FourierTrace")
    report.add_sequence("s", "x", "y", column, np.zeros(len(column)))
    rows = emit_report(report, "csv").decode().splitlines()[1:]
    assert rows == [f"s,{k},0,0" for k in items]


def test_list_bytes_follow_the_float_format():
    assert written([-0.0, 5e-324, 1e308]) == "[-0, 4.9406564584124654e-324, 1e+308]"
    assert written([complex(-0.0, 0.0)]) == "[[-0, 0]]"
    assert written([2**63, True]) == "[9223372036854775808, true]"


def test_csv_rows_equal_the_per_cell_formula():
    report = Report(kind="FourierTrace")
    report.add_scalar('limit, "named"', -0.0)
    report.add_scalar("plain", 1.0 - 2.0j)
    report.add_sequence("re,al", "x", "y", [1, 2, 3], [5e-324, -0.0, 1e308])
    report.add_sequence('c"x', "x", "y", [4, 5], [complex(-0.0, -0.0), 1j])
    report.add_sequence(
        "50%,%s %d %%", "x", "y", [0, 1, 2], [complex(-0.0, 0.0), complex(3.0, -0.0), -2.0]
    )
    report.add_sequence("%.17g", "x", "y", [7, 8, 9], [-0.0, 0.0, 2.5])
    report.add_sequence("ints", "x", "y", [1.5, 2.5], [3, -4])
    report.add_sequence("empty", "x", "y", [], [])
    long = range(_BLOCK + 5)  # more than one block of rows
    report.add_sequence("long", "x", "y", list(long), [k * 1j - k for k in long])
    mixed = mixed_floats(2 * _BLOCK + 7)
    report.add_sequence("mixed", "x", "y", list(range(len(mixed))), mixed)
    both = [complex(re, im) for re, im in zip(mixed, mixed[::-1])]
    report.add_sequence("nul\x00 é,", "x", "y", list(range(-len(both), 0)), both)
    report.add_sequence("thirds", "x", "y", [k / 3 for k in range(_BLOCK + 1)], mixed[: _BLOCK + 1])
    report.add_sequence("huge", "x", "y", [2**60 + k for k in range(512)], mixed[:512])
    report.sequences.append({"name": "short", "points": [0, 1, 2], "values": [1.0, -0.0]})
    report.sequences.append({"name": "listed", "points": list(range(600)), "values": mixed[:600]})
    report.sequences.append({"name": "none", "points": [], "values": []})
    report.sequences.append({"name": "few", "points": [0], "values": [[1.0, -0.0], [2.0, 3.0]]})
    report.sequences.append(
        {"name": "pairs", "points": [0, 1], "values": [[1.0, -0.0], [2.0, 3.0]]}
    )
    lines = ["series,point,value_re,value_im"]
    for scalar in report.scalars:
        z = complex(scalar["value"])
        lines.append(",".join([_csv_name(scalar["expression"]), "", format_float(z.real), format_float(z.imag)]))
    for seq in report.sequences:
        for point, value in zip(seq["points"], seq["values"]):
            z = complex(*value) if isinstance(value, list) else complex(value)
            lines.append(",".join([_csv_name(seq["name"]), str(point), format_float(z.real), format_float(z.imag)]))
    assert emit_report(report, "csv") == ("\n".join(lines) + "\n").encode()


def vector_lines(values) -> list[str]:
    """``'%.17g'`` of each value by the vectorized route."""
    chunks = []
    _rows([("%.17g", np.asarray(values, dtype=float))], "\n", chunks.append)
    return b"".join(chunks).decode().split("\n")


def percent_lines(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


@settings(derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=300))
def test_vector_format_equals_percent_format(values):
    assert vector_lines(values) == percent_lines(values)


def _hard_cases() -> list[float]:
    cases = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    centres = [float(f"1e{k}") for k in range(-323, 309)]
    centres += [2.0**k for k in range(-1074, 1024)]
    centres += [1e-5, 1e-4, 1e16, 1e17]  # where %g switches between layouts
    for x in centres:
        cases += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    return cases + [-x for x in cases]


def test_vector_format_hard_cases():
    cases = _hard_cases()
    assert vector_lines(cases) == percent_lines(cases)


def test_exact_ties_round_half_even():
    assert vector_lines([123456789012345.625, -123456789012345.875])[:2] == [
        "123456789012345.62",
        "-123456789012345.88",
    ]


def _count_fallback_lanes(monkeypatch) -> list:
    lanes = []
    percent = report_module._percent_cells

    def counted(x):
        lanes.append(x.size)
        return percent(x)

    monkeypatch.setattr(report_module, "_percent_cells", counted)
    return lanes


def test_fast_path_takes_uniform_values(monkeypatch):
    lanes = _count_fallback_lanes(monkeypatch)
    values = 1.5 + 4 * np.random.default_rng(3).random(2**17)
    assert vector_lines(values) == percent_lines(values)
    assert lanes == []


def test_fast_path_takes_a_real_pairing_trace(monkeypatch):
    """b = conj(a) makes every partial sum real up to rounding: the imaginary
    parts are tiny (about -1e-16) and all distinct, and none falls back."""
    from circletrace.cli import ExperimentConfig, run_experiment

    rng = np.random.default_rng(4)
    a = {k: complex(*rng.uniform(-1.0, 1.0, 2)) for k in range(-16, 17)}
    modes = lambda c: {"modes": [[k, c[k].real, c[k].imag] for k in sorted(c)]}
    b = {-k: v.conjugate() for k, v in a.items()}
    params = {"a": modes(a), "b": modes(b), "N": 2**17}
    values = run_experiment(ExperimentConfig("FourierTrace", params)).sequences[0]["values"]
    imaginary = np.asarray(values).imag
    assert 0 < np.abs(imaginary).max() < 1e-14
    lanes = _count_fallback_lanes(monkeypatch)
    assert vector_lines(imaginary) == percent_lines(imaginary)
    assert lanes == []


def list_backed(report: Report) -> Report:
    """The same report with every sequence held as the lists ``tolist`` gives,
    the form reports kept their sequences in before they kept arrays."""
    out = Report(kind=report.kind, inputs=report.inputs, scalars=report.scalars)
    out.sequences = [
        {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in seq.items()}
        for seq in report.sequences
    ]
    return out


ARRAY_SEQUENCES = [
    # int64 points at and beyond 2**53, where the float route stops
    (np.array([2**53 - 1, -(2**53) + 1, 0, 7]), np.arange(4.0)),
    (np.array([2**53, 2**53 + 1, 2**62, -(2**63)]), np.arange(4.0)),
    (np.tile([2**53 - 1, -(2**53) + 1], 512), np.ones(1024)),
    (np.tile([2**53, 3], 512), np.ones(1024)),
    (np.arange(3, dtype=np.uint64), np.array([-0.0, 5e-324, 1e308])),
    (np.arange(2 * _BLOCK + 1), np.resize([-0.0, 5e-324, 1e308, -1e308, 0.1], 2 * _BLOCK + 1)),
    (np.arange(4), np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1e308j])),
    (np.arange(_BLOCK + 3), np.resize([complex(-0.0, 0.0), complex(2.5, -0.0), 1j], _BLOCK + 3)),
    (np.arange(3), np.array([True, False, True])),
    (np.arange(513), np.arange(513) % 3 == 0),
    (np.arange(3), np.array([-4, 0, 2**60])),
    (np.arange(512), np.arange(512) - 7),
    (np.arange(0), np.zeros(0)),
    (np.arange(0), np.zeros(0, dtype=complex)),
    (np.array([5]), np.array([-0.0])),
    (np.array([5]), np.array([complex(-0.0, -0.0)])),
    (np.array([1.5, -0.0, 1e300]), np.arange(3.0)),  # float points print as str in CSV
    (np.arange(3, dtype=np.int32), np.array([0.1, -0.0, 3e38], dtype=np.float32)),
    (np.arange(2), np.array([0.1 - 0.0j, 1e-30j], dtype=np.complex64)),
    (np.arange(6)[::2], (np.arange(6) * (1 - 1j))[::-2]),  # strided views
    *((column, np.ones(len(column))) for column in INT_COLUMNS[1:]),
    (np.arange(8 * len(INT_EDGES)), np.array(INT_EDGES * 8)),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("points, values", ARRAY_SEQUENCES, ids=range(len(ARRAY_SEQUENCES)))
def test_array_sequences_write_the_bytes_of_their_lists(points, values, fmt):
    report = Report(kind="FourierTrace")
    report.add_sequence("s", "x", "y", points, values)
    assert report.sequences[0]["points"] is points and report.sequences[0]["values"] is values
    assert emit_report(report, fmt) == emit_report(list_backed(report), fmt)


def test_body_is_a_plain_tree():
    report = Report(kind="FourierTrace")
    report.add_sequence("s", "x", "y", np.arange(2), np.array([0.5, 1j]))
    assert report.body()["sequences"][0]["points"] == [0, 1]
    assert report.body()["sequences"][0]["values"] == [0.5, 1j]


def test_fourier_trace_json_emit_holds_little_beside_its_output():
    """The emit keeps no list of the values and no second copy of the text:
    its traced peak stays within the output size plus 2 MB (a buffer growing
    by an eighth at a time, and one 4,000-row block of formatting arrays)."""
    from circletrace.cli import ExperimentConfig, run_experiment

    rng = np.random.default_rng(4)
    a = {k: complex(*rng.uniform(-1.0, 1.0, 2)) for k in range(-16, 17)}
    modes = lambda c: {"modes": [[k, c[k].real, c[k].imag] for k in sorted(c)]}
    b = {-k: v.conjugate() for k, v in a.items()}
    params = {"a": modes(a), "b": modes(b), "N": 2**17}
    report = run_experiment(ExperimentConfig("FourierTrace", params))
    emit_report(report, "json")  # lazily built tables are not the emit's
    tracemalloc.start()
    try:
        text = emit_report(report, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 7_000_000
    assert peak < len(text) + 2_000_000


def percent_route(pieces: list, sep: str) -> bytes:
    """What ``_rows`` writes, one ``%`` format per cell and row."""
    columns = [p[1] for p in pieces if not isinstance(p, str)]
    n = min(map(len, columns))
    cells = [c.tolist() for c in columns]
    rows = []
    for i in range(n):
        values = iter(column[i] for column in cells)
        rows.append("".join(p if isinstance(p, str) else p[0] % next(values) for p in pieces))
    return sep.join(rows).encode()


def vector_route(pieces: list, sep: str) -> bytes:
    chunks = []
    _rows(pieces, sep, chunks.append)
    return b"".join(chunks)


N_FOLD = 2 * _BLOCK + 3  # more than one block of rows
RAMP = np.arange(N_FOLD) / 7 - 300.0  # a float column that does not fold
# (column, whether it prints one text), each beside RAMP as a JSON complex row
FOLD_COLUMNS = [
    (np.full(N_FOLD, -0.0), True),
    (np.zeros(N_FOLD), True),
    (np.full(N_FOLD, 2.5, dtype=np.float32), True),
    (np.full(N_FOLD, 1e-300), True),
    (np.resize([0.0, -0.0], N_FOLD), False),  # equal values, two bit patterns
    (np.concatenate([np.full(N_FOLD - 1, -0.0), [0.0]]), False),  # only its last entry differs
    (np.concatenate([[0.0], np.full(N_FOLD - 1, -0.0)]), False),  # only its first entry differs
    (np.full(511, -0.0), True),  # shorter than RAMP: it sets the row count
    (np.concatenate([np.full(N_FOLD, -0.0), [1.0, 0.0]]), True),  # longer than the rows
]


@pytest.mark.parametrize("column, folds", FOLD_COLUMNS, ids=range(len(FOLD_COLUMNS)))
def test_constant_columns_print_the_bytes_of_the_percent_route(column, folds, monkeypatch):
    cells = []
    cell_column = report_module._cell_column
    monkeypatch.setattr(
        report_module, "_cell_column", lambda fmt, col: cells.append(col) or cell_column(fmt, col)
    )
    pieces = ["[", ("%.17g", RAMP), ", ", ("%.17g", column), "]"]
    assert vector_route(pieces, ", ") == percent_route(pieces, ", ")
    csv = ["s,", ("%s", np.arange(N_FOLD)), ",", ("%.17g", column), ",", ("%.17g", RAMP), "\n"]
    assert vector_route(csv, "") == percent_route(csv, "")
    assert any(c is column for c in cells) != folds


@pytest.mark.parametrize(
    "column",
    [
        np.full(N_FOLD, 7),
        np.full(N_FOLD, -(2**53 - 1)),
        np.full(N_FOLD, 3, dtype=np.uint8),
        np.full(N_FOLD, 2**60),  # beyond 2**53: str of each entry
        np.full(N_FOLD, 2.5),  # float points print as str in CSV
        np.full(N_FOLD, True),
    ],
    ids=["int64", "negative", "uint8", "huge", "float", "bool"],
)
def test_constant_point_columns_print_str_of_their_entry(column, monkeypatch):
    monkeypatch.setattr(report_module, "_cell_column", None)  # every column folds
    pieces = ["s,", ("%s", column), ",", ("%.17g", np.zeros(N_FOLD)), "\n"]
    assert vector_route(pieces, "") == percent_route(pieces, "")


def test_a_symmetric_lacunary_trace_row_is_as_wide_as_it_prints():
    """Points 2..2^16 and an imaginary part of all +0.0: a JSON row of the
    byte matrix holds 36 bytes of values and 7 of points, not 64 and 19."""
    from circletrace.cli import ExperimentConfig, run_experiment

    lacunary = {"weierstrass": {"alpha": 0.5, "gamma": 2, "c": "constant:1", "cutoff": 2**16}}
    params = {"a": lacunary, "b": lacunary, "N": 2**16, "symmetric": True}
    report = run_experiment(ExperimentConfig("FourierTrace", params))
    points, values = report.sequences[0]["points"], report.sequences[0]["values"]
    assert points.tolist() == list(range(2, 2**16 + 1))
    re, im = report_module._parts(values)
    assert report_module._constant_text(("%.17g", im), len(im)) == "0"
    assert report_module._constant_text(("%.17g", re), len(re)) == ("%.17g", re)
    float_width = report_module._cell_column("%.17g", re)[0]
    assert len("[") + float_width + len(", 0]") + len(", ") == 36
    assert report_module._cell_column("%s", points)[0] + len(", ") == 7
    assert emit_report(report, "json") == emit_report(list_backed(report), "json")


def _int_column(top: int, negative: bool = False) -> np.ndarray:
    """N_FOLD ints from 0 (or -1) to ``top`` (or -top), not all equal."""
    column = np.linspace(0, top, N_FOLD).astype(np.int64)
    column[-1] = top
    return -column - 1 if negative else column


INT_WIDTH_COLUMNS = [
    *((_int_column(10**k), k + 1) for k in range(16)),
    *((_int_column(10**k - 1), k) for k in range(1, 16)),
    (_int_column(2**53 - 1), 16),
    (_int_column(10**5 - 2, negative=True), 6),  # all negative: -1 .. -(10**5 - 1)
    (_int_column(2**53 - 2, negative=True), 17),
    (np.resize([-1, 0], N_FOLD), 2),
    (_int_column(10**4).astype(np.uint16), 5),
]


@pytest.mark.parametrize("column, width", INT_WIDTH_COLUMNS, ids=range(len(INT_WIDTH_COLUMNS)))
def test_int_columns_are_as_wide_as_their_widest_entry(column, width):
    assert report_module._cell_column("%s", column)[0] == width
    pieces = [("%s", column), ",", ("%.17g", RAMP), "\n"]
    assert vector_route(pieces, "") == percent_route(pieces, "")
    for items in (column, column.tolist()):
        assert written(items) == "[" + ", ".join(map(str, column.tolist())) + "]"
