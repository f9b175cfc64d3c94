"""Truncated matrices over explicit Fourier bases.

Builds the Hardy projection, Hankel blocks and commutators [P, a], and
products thereof.  Operators are tagged with basis index maps so products
can refuse mismatched bases instead of silently misaligning modes, and each
carries its support: the block on the rows and columns that can be nonzero
(the modes a symbol reaches for a Hankel block or a commutator; the
nonnegative modes for the projection; the whole matrix for matrices callers
pass in).
Products and compressions work on these blocks, and the dense ``matrix`` is
built only when asked for.  A block keeps the dtype its entries have:
float64 for a real input (a Hankel block of real coefficients, the Szegő
projection), complex128 otherwise.

Truncation note: for a trig-polynomial symbol of degree d, entries of a
product of two truncated commutators are exact on rows/columns whose mode
modulus is at most N - d (the "safe band"); nothing inside that band sees
the truncation boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BasisMismatchError, ParameterError
from .fourier import FourierSymbol

__all__ = [
    "OrderingRule",
    "BasisIndexMap",
    "TruncatedOperator",
    "hardy_basis",
    "full_basis",
    "antiholomorphic_basis",
    "hankel_matrix",
    "commutator_matrix",
    "dense_commutator",
    "szego_projection",
    "operator_product",
    "compress",
    "hardy_compress",
    "operator_to_json_obj",
]


class OrderingRule(Enum):
    HARDY_NATURAL = "hardy-natural"  # 0, 1, 2, ...
    FULL_BY_MODULUS = "full-by-modulus"  # 0, 1, -1, 2, -2, ...
    ANTIHOLOMORPHIC = "antiholomorphic"  # -1, -2, -3, ...


@dataclass(frozen=True)
class BasisIndexMap:
    """Fourier modes fixed by an ordering rule and a size.

    ``labels`` computes the modes in order as an int64 array.
    """

    ordering_rule: OrderingRule
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ParameterError(f"basis size must be >= 0, got {self.size}")

    @property
    def labels(self) -> np.ndarray:
        i = np.arange(self.size, dtype=np.int64)
        if self.ordering_rule is OrderingRule.HARDY_NATURAL:
            return i
        if self.ordering_rule is OrderingRule.ANTIHOLOMORPHIC:
            return -1 - i
        return np.where(i % 2 == 1, (i + 1) // 2, -(i // 2))


def hardy_basis(size: int) -> BasisIndexMap:
    return BasisIndexMap(OrderingRule.HARDY_NATURAL, size)


def antiholomorphic_basis(size: int) -> BasisIndexMap:
    return BasisIndexMap(OrderingRule.ANTIHOLOMORPHIC, size)


def full_basis(n: int) -> BasisIndexMap:
    """Modes -n..n ordered by modulus, nonnegative mode first on ties."""
    return BasisIndexMap(OrderingRule.FULL_BY_MODULUS, 2 * n + 1)


def _support(positions, size: int) -> np.ndarray:
    """Increasing positions below ``size`` (None for all) as a read-only array."""
    at = np.arange(size) if positions is None else np.array(positions, dtype=np.int64)
    if at.ndim != 1 or (at.size and (at[0] < 0 or at[-1] >= size or (np.diff(at) <= 0).any())):
        raise ParameterError(f"support positions must increase strictly within 0..{size - 1}")
    at.setflags(write=False)
    return at


@dataclass(frozen=True)
class TruncatedOperator:
    """A matrix over a row and a column basis, stored as its block on the rows
    and columns that can be nonzero.

    ``rows`` and ``cols`` are the increasing positions in the bases that
    ``block`` covers (all of them when not given); every entry outside is an
    exact zero.  ``TruncatedOperator(matrix, row_basis, col_basis)`` takes a
    dense matrix.  The block is stored as a read-only float64 or complex128
    copy of the caller's array.
    """

    block: np.ndarray
    row_basis: BasisIndexMap
    col_basis: BasisIndexMap
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None

    def __post_init__(self, _keep: bool = False) -> None:
        dtype = complex if np.iscomplexobj(self.block) else float
        block = np.asarray(self.block, dtype=dtype) if _keep else np.array(self.block, dtype=dtype)
        if block.ndim != 2:
            raise ParameterError("operator matrix must be 2-d")
        rows = _support(self.rows, self.row_basis.size)
        cols = _support(self.cols, self.col_basis.size)
        if block.shape != (rows.size, cols.size):
            raise ParameterError(
                f"matrix shape {block.shape} does not match the {(rows.size, cols.size)} "
                "rows and columns it covers"
            )
        # min and max carry any nan and reach any inf, with no entry-sized mask
        parts = (block.real, block.imag) if dtype is complex else (block,)
        if block.size and not np.isfinite([f(p) for p in parts for f in (np.min, np.max)]).all():
            raise ParameterError("operator entries must be finite")
        block.setflags(write=False)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def shape(self) -> tuple[int, int]:
        return self.row_basis.size, self.col_basis.size

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only: the block itself when it covers every
        row and column, otherwise built on each call."""
        if self.block.shape == self.shape:
            return self.block
        mat = np.zeros(self.shape, dtype=self.block.dtype)
        mat[np.ix_(self.rows, self.cols)] = self.block
        mat.setflags(write=False)
        return mat

    def diagonal(self) -> np.ndarray:
        """The main diagonal, read from the block."""
        out = np.zeros(min(self.shape), dtype=self.block.dtype)
        on, row_at, col_at = np.intersect1d(
            self.rows, self.cols, assume_unique=True, return_indices=True
        )
        out[on] = self.block[row_at, col_at]
        return out


def _built(
    block: np.ndarray,
    row_basis: BasisIndexMap,
    col_basis: BasisIndexMap,
    rows: np.ndarray | None = None,
    cols: np.ndarray | None = None,
) -> TruncatedOperator:
    """An operator that keeps ``block``, an array its builder has just made
    and no longer writes, instead of copying it.

    It runs the same ``__post_init__`` checks as the public constructor,
    which freezes the block; a block that is a view must have a read-only
    owner.
    """
    op = object.__new__(TruncatedOperator)
    vars(op).update(block=block, row_basis=row_basis, col_basis=col_basis, rows=rows, cols=cols)
    op.__post_init__(_keep=True)
    return op


def _coeff_lookup(a: FourierSymbol, lo: int, hi: int) -> np.ndarray:
    """Dense vector of coefficients a_k for k = lo..hi."""
    out = np.zeros(hi - lo + 1, dtype=complex)
    for k, v in a.coeffs.items():
        if lo <= k <= hi:
            out[k - lo] = v
    return out


def _toeplitz(vec: np.ndarray) -> np.ndarray:
    """Read-only (s+1) x (s+1) view T[r, c] = vec[r - c + s] of 2s+1 entries.

    With vec[k + s] = a_k, T[r, c] = a_{r-c} is multiplication by ``a`` on
    s+1 consecutive modes in increasing order, without a copy.
    """
    return sliding_window_view(vec, (vec.size + 1) // 2)[:, ::-1]


def _reach(modes, limit: int) -> int:
    """The largest of ``modes`` in 1..limit, 0 when there is none."""
    return max((k for k in modes if 0 < k <= limit), default=0)


def hankel_matrix(a: FourierSymbol, n: int) -> TruncatedOperator:
    """N x N block of P a (1-P): entry [l, i] = a_{l+i+1}.

    Rows run over holomorphic modes 0..N-1, columns over antiholomorphic
    modes -1..-N; only a_1..a_{2N-1} enter, and the matrix is constant along
    anti-diagonals.  It is stored real when those coefficients are.  With
    top = min(N, the largest mode of ``a`` in 1..2N-1), every entry on a row
    or column from top on is an exact zero, so the operator keeps the
    top x top corner, a strided view of the coefficients copied once.
    """
    if n < 1:
        raise ParameterError("truncation size must be >= 1")
    vec = _coeff_lookup(a, 1, 2 * n - 1)
    if not vec.imag.any():
        vec = vec.real
    top = min(n, _reach(a.coeffs, 2 * n - 1))
    support = np.arange(top)
    return TruncatedOperator(
        sliding_window_view(vec, n)[:top, :top],
        hardy_basis(n),
        antiholomorphic_basis(n),
        rows=support,
        cols=support,
    )


def _commutator_entries(
    vec: np.ndarray, row_modes: np.ndarray, col_modes: np.ndarray
) -> np.ndarray:
    """sign * a_{m-l} for each row mode m and column mode l, where
    sign = 1_{m>=0} - 1_{l>=0} and ``vec[k + 2n] = a_k``.

    Gathered one sign block at a time from a Toeplitz view of the scaled
    coefficient vector, so each entry is the complex product sign * a_{m-l}
    (signed zeros included) with no mode-difference, mask or sign matrix.
    """
    n = (vec.size - 1) // 4
    out = np.empty((row_modes.size, col_modes.size), dtype=complex)
    for i, rows in enumerate((row_modes >= 0, row_modes < 0)):
        for j, cols in enumerate((col_modes >= 0, col_modes < 0)):
            view = _toeplitz(float(j - i) * vec)  # T[m + n, l + n] = sign * a_{m-l}
            out[np.ix_(rows, cols)] = view[np.ix_(row_modes[rows] + n, col_modes[cols] + n)]
    return out


def commutator_matrix(a: FourierSymbol, n: int) -> TruncatedOperator:
    """[P, a] on modes -n..n: entry [m, l] = (1_{m>=0} - 1_{l>=0}) a_{m-l}.

    An entry is nonzero only where m and l differ in sign and a_{m-l} != 0,
    so with top the largest mode of ``a`` in 1..2n and bottom the largest
    |k| of its modes in -2n..-1 (0 when there is none), the block covers the
    rows with modes in [-bottom, top) and the columns in [-top, bottom).
    """
    if n < 1:
        raise ParameterError("truncation size must be >= 1")
    basis = full_basis(n)
    vec = _coeff_lookup(a, -2 * n, 2 * n)
    top = _reach(a.coeffs, 2 * n)
    bottom = _reach((-k for k in a.coeffs), 2 * n)
    labels = basis.labels
    rows = np.flatnonzero((labels >= -bottom) & (labels < top))
    cols = np.flatnonzero((labels >= -top) & (labels < bottom))
    block = _commutator_entries(vec, labels[rows], labels[cols])
    return _built(block, basis, basis, rows, cols)


def dense_commutator(a: FourierSymbol, n: int) -> TruncatedOperator:
    """``commutator_matrix(a, n)`` as one dense block, every entry the product
    sign * a_{m-l}, so the zeros outside the support keep the signs that
    product gives them (the ``--dump-operator`` bytes)."""
    if n < 1:
        raise ParameterError("truncation size must be >= 1")
    basis = full_basis(n)
    labels = basis.labels
    vec = _coeff_lookup(a, -2 * n, 2 * n)
    return _built(_commutator_entries(vec, labels, labels), basis, basis)


def szego_projection(n: int) -> TruncatedOperator:
    """P on modes -n..n: 1 on the diagonal at modes >= 0, 0 elsewhere.

    Its block on the nonnegative modes is the identity, stored as a Toeplitz
    view of 2n + 1 numbers.
    """
    basis = full_basis(n)
    unit = np.zeros(2 * n + 1)
    unit[n] = 1.0
    unit.setflags(write=False)
    support = np.flatnonzero(basis.labels >= 0)
    return _built(_toeplitz(unit), basis, basis, support, support)


def _gather(block: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The block's rows and columns at the increasing indices given; the block
    itself when that is all of it and BLAS can read it as it is."""
    whole = rows.size == block.shape[0] and cols.size == block.shape[1]
    if whole and (block.flags.c_contiguous or block.flags.f_contiguous):
        return block
    return block[np.ix_(rows, cols)]


def operator_product(ops: list[TruncatedOperator]) -> TruncatedOperator:
    """Matrix product in the given order; adjacent bases must match exactly.

    The running product is kept as a block with the positions of its rows
    and columns.  Each step takes the inner positions both blocks cover where
    neither is all zero, and multiplies the block's rows that are not all
    zero on them by the next factor's block columns that are not all zero;
    entries are finite, so every skipped term is an exact zero.  Only blocks
    are scanned and gathered, never a full-size matrix an operator does not
    hold.  A factor with nothing to trim is multiplied as it is, and a
    one-factor product is that factor.
    """
    if not ops:
        raise ParameterError("operator product needs at least one factor")
    for left, right in zip(ops, ops[1:]):
        if left.col_basis != right.row_basis:
            raise BasisMismatchError(
                "adjacent operators disagree: columns "
                f"{left.col_basis.ordering_rule.value}[{left.col_basis.size}] vs rows "
                f"{right.row_basis.ordering_rule.value}[{right.row_basis.size}]"
            )
    if len(ops) == 1:
        return ops[0]
    block, rows, cols = ops[0].block, ops[0].rows, ops[0].cols
    for op in ops[1:]:
        _, left, right = np.intersect1d(cols, op.rows, assume_unique=True, return_indices=True)
        inner = block.any(axis=0)[left] & op.block.any(axis=1)[right]
        left, right = left[inner], right[inner]
        keep = np.flatnonzero(block[:, left].any(axis=1))
        reach = np.flatnonzero(op.block.any(axis=0))
        block = _gather(block, keep, left) @ _gather(op.block, right, reach)
        rows, cols = rows[keep], op.cols[reach]
    return _built(block, ops[0].row_basis, ops[-1].col_basis, rows, cols)


def compress(
    op: TruncatedOperator, row_basis: BasisIndexMap, col_basis: BasisIndexMap
) -> TruncatedOperator:
    """Select the sub-matrix of ``op`` over the labels of the given bases.

    A label absent from the operator's basis raises BasisMismatchError naming
    it.  The result covers the selected rows and columns the block covers.
    """
    rows, row_at = _restrict(op.rows, _positions(op.row_basis.labels, row_basis.labels))
    cols, col_at = _restrict(op.cols, _positions(op.col_basis.labels, col_basis.labels))
    block = op.block[np.ix_(row_at, col_at)]
    return _built(block, row_basis, col_basis, rows, cols)


def _restrict(support: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the positions ``at`` of an operator's basis that a compression
    selects: the indices into ``at`` that ``support`` covers, and the block
    rows or columns they are."""
    found, index = _find(support, at)
    return np.flatnonzero(found), index


def _positions(labels: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Index in ``labels`` of each of ``wanted``; the first wanted label not in
    ``labels`` raises."""
    found, index = _find(labels, wanted)
    if not found.all():
        missing = wanted[np.argmin(found)]
        raise BasisMismatchError(f"compression label {missing} missing from operator basis")
    return index


def _find(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each of ``wanted`` is among the distinct ``keys``, and the index
    in ``keys`` of each one that is, from one argsort and one searchsorted."""
    order = np.argsort(keys)
    ranked = keys[order]
    at = np.searchsorted(ranked, wanted)
    found = at < ranked.size
    found[found] = ranked[at[found]] == wanted[found]
    return found, order[at[found]]


def hardy_compress(op: TruncatedOperator, size: int) -> TruncatedOperator:
    """Compress to the holomorphic modes 0..size-1 (applies P on both sides)."""
    basis = hardy_basis(size)
    return compress(op, basis, basis)


def operator_to_json_obj(op: TruncatedOperator) -> dict:
    """Binary-free dump: bases plus rows of [re, im] pairs."""
    return {
        "row_basis": {
            "ordering": op.row_basis.ordering_rule.value,
            "labels": op.row_basis.labels.tolist(),
        },
        "col_basis": {
            "ordering": op.col_basis.ordering_rule.value,
            "labels": op.col_basis.labels.tolist(),
        },
        "rows": [[[z.real, z.imag] for z in row] for row in op.matrix],
    }
