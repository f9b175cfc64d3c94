"""Deterministic experiment reports.

A report is a plain tree of dicts/lists/strings/numbers with a fixed field
order.  Serialization is deterministic: floats are printed with 17
significant digits, complex values as [re, im] pairs, and no timestamps or
environment data enter the body, so identical configs produce byte-identical
output.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = ["Report", "emit_report", "format_float"]


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _require_finite(expression: str, values) -> None:
    """JSON has no inf or nan, so a report refuses them where numbers enter it."""
    if not np.isfinite(values).all():
        raise ParameterError(f"{expression!r} is not finite; a JSON report cannot hold it")


@dataclass
class Report:
    kind: str
    inputs: dict = field(default_factory=dict)
    scalars: list = field(default_factory=list)
    sequences: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add_scalar(self, expression: str, value, normalization: str = "", **extra) -> None:
        _require_finite(expression, value)
        entry = {"expression": expression, "value": value}
        if normalization:
            entry["normalization"] = normalization
        entry.update(extra)
        self.scalars.append(entry)

    def add_sequence(
        self, name: str, expression: str, normalization: str, points, values
    ) -> None:
        values = np.asarray(values)
        _require_finite(expression, values)
        self.sequences.append(
            {
                "name": name,
                "expression": expression,
                "normalization": normalization,
                "points": list(np.asarray(points).tolist()),
                "values": values.tolist(),
            }
        )

    def add_check(self, name: str, lhs, rhs) -> None:
        discrepancy = abs(complex(lhs) - complex(rhs))
        _require_finite(name, [lhs, rhs, discrepancy])
        self.checks.append(
            {
                "name": name,
                "lhs": lhs,
                "rhs": rhs,
                "abs_discrepancy": discrepancy,
            }
        )

    def body(self) -> dict:
        return {
            "kind": self.kind,
            "inputs": self.inputs,
            "scalars": self.scalars,
            "sequences": self.sequences,
            "checks": self.checks,
            "notes": self.notes,
        }


def _write_json(obj, out: io.StringIO) -> None:
    if obj is None:
        out.write("null")
    elif obj is True:
        out.write("true")
    elif obj is False:
        out.write("false")
    elif isinstance(obj, str):
        out.write('"')
        for ch in obj:
            if ch in '"\\':
                out.write("\\" + ch)
            elif ch == "\n":
                out.write("\\n")
            elif ord(ch) < 0x20:
                out.write(f"\\u{ord(ch):04x}")
            else:
                out.write(ch)
        out.write('"')
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        out.write(f"[{format_float(z.real)}, {format_float(z.imag)}]")
    elif isinstance(obj, dict):
        out.write("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.write(", ")
            _write_json(str(key), out)
            out.write(": ")
            _write_json(value, out)
        out.write("}")
    elif isinstance(obj, list) and (flat := _flat_list(obj)) is not None:
        out.write(flat)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.write("[")
        for i, value in enumerate(obj):
            if i:
                out.write(", ")
            _write_json(value, out)
        out.write("]")
    else:
        raise ParameterError(f"cannot serialize value of type {type(obj).__name__}")


def _flat_list(items: list) -> str | None:
    """One join over a list of only exact floats, only exact ints or only exact
    complex values (bools and numpy scalars excluded); None for other lists."""
    kinds = set(map(type, items))
    if kinds == {float}:
        return "[" + ", ".join([f"{x:.17g}" for x in items]) + "]"
    if kinds == {int}:
        return "[" + ", ".join(map(str, items)) + "]"
    if kinds == {complex}:
        return "[" + ", ".join([f"[{z.real:.17g}, {z.imag:.17g}]" for z in items]) + "]"
    return None


def emit_report(report: Report, fmt: str) -> bytes:
    """Serialize a report; fmt is "json" or "csv"."""
    if fmt == "json":
        out = io.StringIO()
        _write_json(report.body(), out)
        out.write("\n")
        return out.getvalue().encode()
    if fmt == "csv":
        lines = ["series,point,value_re,value_im"]
        for scalar in report.scalars:
            z = complex(scalar["value"])
            lines.append(f"{_csv_name(scalar['expression'])},,{z.real:.17g},{z.imag:.17g}")
        for seq in report.sequences:
            name = _csv_name(seq["name"])
            for point, value in zip(seq["points"], seq["values"]):
                z = complex(*value) if isinstance(value, list) else complex(value)
                lines.append(f"{name},{point},{z.real:.17g},{z.imag:.17g}")
        return ("\n".join(lines) + "\n").encode()
    raise ParameterError(f"unknown report format {fmt!r}")


def _csv_name(name: str) -> str:
    if any(ch in name for ch in ',"\n'):
        return '"' + name.replace('"', '""') + '"'
    return name
