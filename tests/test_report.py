import io

import numpy as np
import pytest

from circletrace.report import Report, _csv_name, _write_json, emit_report, format_float

# Lists the one-join path formats (all exactly float, int or complex) and
# lists it must leave to the element-by-element path.
LISTS = [
    [-0.0, 5e-324, 1e308, -1e308, 0.1, 1.0, 2.5e-310, 123456789.0],
    [0, -1, 7, 2**53 + 1, 2**63, 2**64 + 1, -(2**70)],
    [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(1e308, 5e-324), 1j],
    [-0.0],
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
]


def written(obj) -> str:
    out = io.StringIO()
    _write_json(obj, out)
    return out.getvalue()


@pytest.mark.parametrize("items", LISTS, ids=range(len(LISTS)))
def test_list_bytes_equal_the_element_by_element_writer(items):
    elementwise = "[" + ", ".join(written(item) for item in items) + "]"
    assert written(items) == elementwise


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
