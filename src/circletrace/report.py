"""Deterministic experiment reports.

A report is a tree of dicts/lists/strings/numbers with a fixed field order;
the points and values of a sequence added with ``add_sequence`` stay numpy
arrays, which ``body`` turns into lists.  Serialization is deterministic:
floats are printed with 17 significant digits, complex values as [re, im]
pairs, and no timestamps or environment data enter the body, so identical
configs produce byte-identical output.
"""

from __future__ import annotations

import functools
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
        """Append a sequence, keeping ``points`` and ``values`` as the arrays
        ``np.asarray`` gives, uncopied: the caller must not change them
        afterwards, since the report writes whatever they then hold and
        their finiteness is checked only here."""
        values = np.asarray(values)
        _require_finite(expression, values)
        self.sequences.append(
            {
                "name": name,
                "expression": expression,
                "normalization": normalization,
                "points": np.asarray(points),
                "values": values,
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
        """The report as a plain tree: sequence arrays become lists."""
        return self._tree(
            [
                {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in seq.items()}
                for seq in self.sequences
            ]
        )

    def _tree(self, sequences: list) -> dict:
        return {
            "kind": self.kind,
            "inputs": self.inputs,
            "scalars": self.scalars,
            "sequences": sequences,
            "checks": self.checks,
            "notes": self.notes,
        }


def _write_json(obj, write) -> None:
    """Pass the UTF-8 JSON text of ``obj`` to ``write`` in pieces."""
    if obj is None:
        write(b"null")
    elif obj is True:
        write(b"true")
    elif obj is False:
        write(b"false")
    elif isinstance(obj, str):
        text = ['"']
        for ch in obj:
            if ch in '"\\':
                text.append("\\" + ch)
            elif ch == "\n":
                text.append("\\n")
            elif ord(ch) < 0x20:
                text.append(f"\\u{ord(ch):04x}")
            else:
                text.append(ch)
        text.append('"')
        write("".join(text).encode())
    elif isinstance(obj, (int, np.integer)):
        write(str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        write(format_float(float(obj)).encode())
    elif isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        write(f"[{format_float(z.real)}, {format_float(z.imag)}]".encode())
    elif isinstance(obj, dict):
        write(b"{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                write(b", ")
            _write_json(str(key), write)
            write(b": ")
            _write_json(value, write)
        write(b"}")
    elif isinstance(obj, (list, np.ndarray)) and (pieces := _flat_pieces(obj)) is not None:
        write(b"[")
        _rows(pieces, ", ", write)
        write(b"]")
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), write)
    elif isinstance(obj, (list, tuple)):
        write(b"[")
        for i, value in enumerate(obj):
            if i:
                write(b", ")
            _write_json(value, write)
        write(b"]")
    else:
        raise ParameterError(f"cannot serialize value of type {type(obj).__name__}")


_KINDS = {"i": int, "u": int, "f": float, "c": complex}  # numpy dtype kinds


def _flat_pieces(items) -> list | None:
    """The row pieces (see ``_rows``) of a 1-d int, float or complex array, or
    of a list of only exact ints, only exact floats or only exact complex
    values (bools and numpy scalars excluded); None for other arrays, which
    go as their ``tolist``, and other lists, which go element by element."""
    if isinstance(items, np.ndarray):
        kinds = {_KINDS.get(items.dtype.kind) if items.ndim == 1 else None}
    else:
        kinds = set(map(type, items))
    if kinds == {int}:
        return [("%s", items)]
    if kinds == {float}:
        return [("%.17g", items)]
    if kinds == {complex}:
        re, im = _parts(items)
        return ["[", ("%.17g", re), ", ", ("%.17g", im), "]"]
    return None


def _exact_ints(column) -> bool:
    """Whether ``column`` is a nonempty int array or list of only Python ints
    (bools excluded) with every entry strictly within 2**53 of 0, where
    ``'%.17g' % float(k) == str(k)``."""
    if isinstance(column, np.ndarray):
        ints = column.dtype.kind in "iu"
    else:
        ints = set(map(type, column)) == {int}
    return ints and len(column) > 0 and -(2**53) < np.min(column) and np.max(column) < 2**53


# Below this many rows one % format string is faster: the numpy route costs
# about 0.15 ms per float column whatever the length, and overtakes % between
# 256 and 512 rows for float lists, complex lists and CSV rows (2-core x86 host).
_VECTOR_MIN = 512
# Rows per numpy pass: the byte matrix and temporaries stay near 1 MB, and the
# matrix row length is no power of two, whose cache aliasing slows the transpose.
_BLOCK = 4000
# A numpy-built row marks the bytes its cells leave out as NUL and keeps a NUL
# of its text as 0xFF, which UTF-8 never holds; one translate then deletes the
# first and restores the second.
_RESTORE_NUL = bytes.maketrans(b"\xff", b"\x00")


def _rows(pieces: list, sep: str, write) -> None:
    """Pass to ``write``, in chunks, the UTF-8 of ``sep.join`` of one row per
    index, each the concatenation of ``pieces``: text as it is, and each
    ``(format, column)`` as ``format % column[i]``, format "%.17g" or "%s".
    The row count is that of the shortest column."""
    columns = [p[1] for p in pieces if not isinstance(p, str)]
    n = min(map(len, columns))
    if n < _VECTOR_MIN:
        row = "".join(p.replace("%", "%%") if isinstance(p, str) else p[0] for p in pieces)
        cells = [None] * (n * len(columns))
        for j, column in enumerate(columns):
            cells[j :: len(columns)] = column[:n] if isinstance(column, list) else column[:n].tolist()
        write((sep.join([row] * n) % tuple(cells)).encode())
        return
    pieces = [
        p.encode().replace(b"\x00", b"\xff") if isinstance(p, str) else _cell_column(*p)
        for p in [*pieces, sep]
    ]
    width = sum(len(p) if isinstance(p, bytes) else p[0] for p in pieces)
    # column-major: each byte position of the rows is one contiguous numpy row
    work = np.empty((width, min(n, _BLOCK)), dtype=np.uint8)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        mat = work[:, : hi - lo]
        at = 0
        for piece in pieces:
            if isinstance(piece, bytes):
                mat[at : at + len(piece)] = np.frombuffer(piece, dtype=np.uint8)[:, None]
                at += len(piece)
            else:
                cell_width, fill = piece
                fill(mat[at : at + cell_width], lo, hi)
                at += cell_width
        chunk = mat.T.tobytes().translate(_RESTORE_NUL, b"\x00")
        write(chunk if hi < n else chunk[: len(chunk) - len(pieces[-1])])


def _cell_column(fmt: str, column) -> tuple:
    """(cell width, fill) for ``fmt % v`` of each v of a column; ``fill(out, lo,
    hi)`` writes the cells of rows [lo, hi) into a column-major byte matrix,
    NUL where a cell is shorter than the width."""
    if fmt == "%.17g" or _exact_ints(column):
        # '%.17g' % float(k) == str(k) for such k; each block is converted apart
        return _FLOAT_WIDTH, lambda out, lo, hi: _float_cells(
            out, np.asarray(column[lo:hi], dtype=float)
        )
    items = column.tolist() if isinstance(column, np.ndarray) else column
    text = np.array([str(v).encode().replace(b"\x00", b"\xff") for v in items])
    text = text.view(np.uint8).reshape(len(column), -1)

    def fill(out, lo, hi):
        out[:] = text[lo:hi].T

    return text.shape[1], fill


# '%.17g' cell layout, one matrix row per byte position.  A cell holds, in
# order: the sign; "0." and up to three zeros (-4 <= E < 0); the 17 digits
# with the point after the one it follows; "e", the exponent sign and three
# exponent digits.  Bytes the value does not print are NUL.
_FLOAT_WIDTH = 29
_EXP = 24

_GROUP_SCALES = (10**12, 10**8, 10**4, 1)  # the 16 digits after the lead, by four
_GROUP_ENDS = (5, 9, 13, 17)  # one past the last digit of each group

_POW_MIN, _POW_MAX = -270, 300  # 10**k for k = 16 - E, |E| <= 281
_NEAR_TIE = 2.0**-40  # the significand product errs by less than 2**-43
_SPLIT = 2.0**27 + 1  # Dekker's splitter for float64


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """10**k as double-doubles (hi, lo) for _POW_MIN <= k <= _POW_MAX, exact
    from Python ints; the four ASCII digits of each 4-digit group as the bytes
    of one uint32; and the count of trailing zeros of each nonzero group."""
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        power = 10 ** abs(k)
        if k >= 0:
            head = float(power)
            tail = float(power - int(head))
        else:
            head = 1 / power  # int / int rounds correctly
            num, den = head.as_integer_ratio()
            tail = (den - num * power) / (den * power)
        hi.append(head)
        lo.append(tail)
    group = np.arange(10000)
    digits = np.stack([48 + group // 10**j % 10 for j in (3, 2, 1, 0)], axis=1)
    zeros = sum(group % 10**j == 0 for j in (1, 2, 3)).astype(np.int8)
    return np.array(hi), np.array(lo), digits.astype(np.uint8).view(np.uint32).ravel(), zeros


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    head = c - (c - a)
    return head, a - head


def _significand(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor and fraction of a * 10**(16 - e), from a double-double product."""
    hi, lo, _, _ = _tables()
    k = 16 - e - _POW_MIN
    p_hi, p_lo = hi[k], lo[k]
    prod = a * p_hi  # >= 2**53 wherever the result is used, so an integer
    a1, a2 = _split(a)
    h1, h2 = _split(p_hi)
    rest = ((a1 * h1 - prod) + a1 * h2 + a2 * h1) + a2 * h2 + a * p_lo
    whole = np.floor(rest)
    return prod.astype(np.int64) + whole.astype(np.int64), rest - whole


def _put(row: np.ndarray, where: np.ndarray, byte: int) -> None:
    np.multiply(where, np.uint8(byte), out=row)


def _float_cells(out: np.ndarray, x: np.ndarray) -> None:
    """Write ``'%.17g' % v`` for each v of x into the columns of ``out``
    (_FLOAT_WIDTH rows), NUL in the bytes it leaves out.

    The 17-digit significand d = round(|x| * 10**(16 - E)) comes from a
    double-double product, with E = floor(log10|x|) moved by one where d falls
    outside [10**16, 10**17).  Lanes whose product lies within _NEAR_TIE of a
    rounding tie, |x| outside [1e-280, 1e280] and non-finite x are printed by
    Python's % instead."""
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _significand(a, e)
    d = whole + (frac > 0.5)
    redo = np.flatnonzero((whole < 10**16) | (d >= 10**17))
    if redo.size:
        e[redo] += np.where(d[redo] >= 10**17, 1, -1)
        whole, frac[redo] = _significand(a[redo], e[redo])
        d[redo] = whole + (frac[redo] > 0.5)
        up = redo[d[redo] >= 10**17]  # stepping down rounded up to 1e(E + 1)
        d[up] = 10**16
        e[up] += 1
    d[zero] = 0
    e[zero] = 0

    lead = d // 10**16
    prefixes = (d - lead * 10**16) // np.array(_GROUP_SCALES)[:, None]
    groups = prefixes - 10**4 * np.vstack([np.zeros_like(lead), prefixes[:-1]])
    _, _, ascii_table, zeros_table = _tables()
    quads = ascii_table.take(groups).view(np.uint8).reshape(4, -1, 4).transpose(0, 2, 1)
    digits = np.vstack([(lead + 48).astype(np.uint8)[None], quads.reshape(16, -1)])
    # digits up to the last nonzero one
    ends = np.array(_GROUP_ENDS)[:, None]
    significant = np.where(groups != 0, ends - zeros_table.take(groups), 1).max(0)

    expo = (e < -4) | (e >= 17)
    small = ~expo & (e < 0)
    # %g layouts: d.ddde+XX, 0.000ddd, or digits with the point after digit E
    point = np.where(expo | small, 0, e)  # the digit the point follows
    shown = np.where(small, significant, np.maximum(significant, point + 1))
    digits *= np.arange(17)[:, None] < shown
    dotted = ~small & (significant > point + 1)
    dot = np.multiply(dotted, np.uint8(ord(".")))
    # where no point prints, its NUL may sit anywhere among the digits
    point[~dotted] = point[dotted].min() if dotted.any() else 0
    _put(out[0], np.signbit(x), ord("-"))
    out[1:6] = 0
    if small.any():
        _put(out[1], small, ord("0"))
        _put(out[2], small, ord("."))
        for j in range(3):
            _put(out[3 + j], small & (e < -1 - j), ord("0"))
    body = out[6 : 6 + 18]
    first, last = point.min(), point.max()
    if first == last:  # one layout group: the point row is the same for every lane
        body[: first + 1] = digits[: first + 1]
        body[first + 1] = dot
        body[first + 2 :] = digits[first + 1 :]
    else:
        for r in range(18):
            after = np.where(r == point + 1, dot, digits[r - 1])
            body[r] = np.where(r <= point, digits[min(r, 16)], after)
    out[_EXP:] = 0
    if expo.any():
        size = np.abs(e)
        exponent = ascii_table.take(size).view(np.uint8).reshape(-1, 4).T
        _put(out[_EXP], expo, ord("e"))
        out[_EXP + 1] = (ord("+") + 2 * (e < 0)) * expo
        out[_EXP + 2] = exponent[1] * (expo & (size >= 100))
        out[_EXP + 3 :] = exponent[2:] * expo
    slow = np.flatnonzero(~(fast | zero) | (np.abs(frac - 0.5) < _NEAR_TIE))
    if slow.size:
        out[:, slow] = 0
        out[:24, slow] = _percent_cells(x[slow]).view(np.uint8).reshape(-1, 24).T


def _percent_cells(x: np.ndarray) -> np.ndarray:
    """The fallback: ``'%.17g' % v`` for each v of x, as NUL-padded 24 bytes."""
    return np.array(["%.17g" % v for v in x.tolist()], dtype="S24")


def _parts(values) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of numbers or of real [re, im] pairs, as
    ``complex(value)`` or ``complex(re, im)`` gives them, signed zeros kept;
    views of a complex128 array."""
    parts = np.asarray(values, dtype=complex)
    if parts.ndim == 2:
        return parts.real[:, 0], parts.real[:, 1]
    return parts.real, parts.imag


def emit_report(report: Report, fmt: str) -> bytes:
    """Serialize a report; fmt is "json" or "csv"."""
    # BytesIO grows one buffer and hands it over as the bytes, without the
    # second copy of the whole text a join of the chunks would make
    out = io.BytesIO()
    if fmt == "json":
        _write_json(report._tree(report.sequences), out.write)
        out.write(b"\n")
        return out.getvalue()
    if fmt == "csv":
        out.write(b"series,point,value_re,value_im\n")
        for scalar in report.scalars:
            z = complex(scalar["value"])
            line = f"{_csv_name(scalar['expression'])},,{z.real:.17g},{z.imag:.17g}\n"
            out.write(line.encode())
        for seq in report.sequences:
            re, im = (("%.17g", part) for part in _parts(seq["values"]))
            row = [_csv_name(seq["name"]) + ",", ("%s", seq["points"]), ",", re, ",", im, "\n"]
            _rows(row, "", out.write)
        return out.getvalue()
    raise ParameterError(f"unknown report format {fmt!r}")


def _csv_name(name: str) -> str:
    if any(ch in name for ch in ',"\n'):
        return '"' + name.replace('"', '""') + '"'
    return name
