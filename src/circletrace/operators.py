"""Truncated matrices over explicit Fourier bases.

Builds the Hardy projection, the sign reflection 2P-1, multiplication
operators, Hankel blocks and commutators [P, a], and products thereof.
Matrices are dense arrays tagged with basis index maps so products can
refuse mismatched bases instead of silently misaligning modes.  A matrix
keeps the dtype its entries have: float64 for a real input (a Hankel block
of real coefficients, the Szegő projection and reflection), complex128
otherwise.  Products skip the rows, columns and inner indices where a factor
is exactly zero.

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
    "multiplication_matrix",
    "szego_projection",
    "szego_reflection",
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


class _Fresh(np.ndarray):
    """An array a builder has just allocated, which an operator keeps uncopied."""


@dataclass(frozen=True)
class TruncatedOperator:
    matrix: np.ndarray
    row_basis: BasisIndexMap
    col_basis: BasisIndexMap

    def __post_init__(self) -> None:
        mat = self.matrix
        if type(mat) is _Fresh:
            mat = mat.view(np.ndarray)
        else:  # a caller's array is copied, and stays writeable
            mat = np.array(mat, dtype=complex if np.iscomplexobj(mat) else float)
        if mat.ndim != 2:
            raise ParameterError("operator matrix must be 2-d")
        if mat.shape != (self.row_basis.size, self.col_basis.size):
            raise ParameterError(
                f"matrix shape {mat.shape} does not match bases "
                f"({self.row_basis.size}, {self.col_basis.size})"
            )
        # min and max carry any nan and reach any inf, with no entry-sized mask
        parts = mat.ravel(order="K").view(float)  # real and imaginary parts, in place
        if parts.size and not np.isfinite([parts.min(), parts.max()]).all():
            raise ParameterError("operator entries must be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def trace(self) -> complex:
        if self.row_basis != self.col_basis:
            raise BasisMismatchError("trace needs identical row and column bases")
        return complex(np.trace(self.matrix))


def _adopt(
    mat: np.ndarray, row_basis: BasisIndexMap, col_basis: BasisIndexMap
) -> TruncatedOperator:
    """Operator over a float64 or complex128 array a builder has just allocated:
    checked and frozen like any input, but not copied."""
    mat.setflags(write=False)  # the operator's matrix is a view of it
    return TruncatedOperator(mat.view(_Fresh), row_basis, col_basis)


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


def hankel_matrix(a: FourierSymbol, n: int) -> TruncatedOperator:
    """N x N block of P a (1-P): entry [l, i] = a_{l+i+1}.

    Rows run over holomorphic modes 0..N-1, columns over antiholomorphic
    modes -1..-N; only a_1..a_{2N-1} enter, and the matrix is constant along
    anti-diagonals.  It is stored real when those coefficients are.  The
    block is a strided view of the coefficients, copied once into the
    operator.
    """
    if n < 1:
        raise ParameterError("truncation size must be >= 1")
    vec = _coeff_lookup(a, 1, 2 * n - 1)
    if not vec.imag.any():
        vec = vec.real
    return TruncatedOperator(
        sliding_window_view(vec, n), hardy_basis(n), antiholomorphic_basis(n)
    )


def commutator_matrix(a: FourierSymbol, n: int) -> TruncatedOperator:
    """[P, a] on modes -n..n: entry [m, l] = (1_{m>=0} - 1_{l>=0}) a_{m-l}.

    Filled one sign block at a time from Toeplitz views of the scaled
    coefficient vector, so each entry is the complex product sign * a_{m-l}
    (signed zeros included) with no mode-difference, mask or sign matrix.
    """
    if n < 1:
        raise ParameterError("truncation size must be >= 1")
    basis = full_basis(n)
    vec = _coeff_lookup(a, -2 * n, 2 * n)
    # (positions in the full basis, indices into the natural order -n..n)
    groups = (
        (np.r_[0, 1 : 2 * n : 2], slice(n, None)),  # modes 0, 1, ..., n
        (np.arange(2, 2 * n + 1, 2), slice(n - 1, None, -1)),  # modes -1, ..., -n
    )
    out = np.empty((basis.size, basis.size), dtype=complex)
    for i, (rows, row_modes) in enumerate(groups):
        for j, (cols, col_modes) in enumerate(groups):
            sign = float(j - i)  # 1_{m>=0} - 1_{l>=0}
            out[np.ix_(rows, cols)] = _toeplitz(sign * vec)[row_modes, col_modes]
    return _adopt(out, basis, basis)


def multiplication_matrix(a: FourierSymbol, basis: BasisIndexMap) -> TruncatedOperator:
    """Multiplication by ``a`` compressed to the given basis: [m, l] = a_{m-l}."""
    if basis.size == 0:
        raise ParameterError("multiplication needs a nonempty basis")
    labels = basis.labels
    lo = int(labels.min())
    span = int(labels.max()) - lo
    idx = labels - lo
    return _adopt(_toeplitz(_coeff_lookup(a, -span, span))[np.ix_(idx, idx)], basis, basis)


def szego_projection(n: int) -> TruncatedOperator:
    """P on modes -n..n: diagonal 1 on modes >= 0, 0 below."""
    basis = full_basis(n)
    return _adopt(np.diag((basis.labels >= 0).astype(float)), basis, basis)


def szego_reflection(n: int) -> TruncatedOperator:
    """2P - 1 on modes -n..n: diagonal +1 on modes >= 0, -1 below."""
    if n < 1:
        raise ParameterError("truncation size must be >= 1")
    basis = full_basis(n)
    return _adopt(np.diag(np.where(basis.labels >= 0, 1.0, -1.0)), basis, basis)


def operator_product(ops: list[TruncatedOperator]) -> TruncatedOperator:
    """Matrix product in the given order; adjacent bases must match exactly.

    The running product is kept as its block on the rows and columns that
    can be nonzero.  Each step multiplies the rows of that block and the
    columns of the next factor that are not all zero, over the inner indices
    nonzero on both sides; entries are finite, so every skipped term is an
    exact zero.  A factor with nothing to trim is multiplied as it is,
    without a gather copy, and only the result is allocated at full size.
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
    block = ops[0].matrix
    rows, cols = np.arange(block.shape[0]), np.arange(block.shape[1])
    for op in ops[1:]:
        right = op.matrix
        keep = block.any(axis=1)
        inner = block.any(axis=0) & right.any(axis=1)[cols]
        right_cols = np.flatnonzero(right.any(axis=0))
        if not (keep.all() and inner.all()):
            block = block[np.ix_(keep, inner)]
        if cols[inner].size < right.shape[0] or right_cols.size < right.shape[1]:
            right = right[np.ix_(cols[inner], right_cols)]
        block, rows, cols = block @ right, rows[keep], right_cols
    mat, shape = block, (ops[0].shape[0], ops[-1].shape[1])
    if block.shape != shape:
        mat = np.zeros(shape, dtype=block.dtype)
        mat[np.ix_(rows, cols)] = block
    return _adopt(mat, ops[0].row_basis, ops[-1].col_basis)


def compress(
    op: TruncatedOperator, row_basis: BasisIndexMap, col_basis: BasisIndexMap
) -> TruncatedOperator:
    """Select the sub-matrix of ``op`` over the labels of the given bases.

    A label absent from the operator's basis raises BasisMismatchError naming it.
    """
    rows = _positions(op.row_basis.labels, row_basis.labels)
    cols = _positions(op.col_basis.labels, col_basis.labels)
    return _adopt(op.matrix[np.ix_(rows, cols)], row_basis, col_basis)


def _positions(labels: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Index in ``labels`` (distinct) of each of ``wanted``, from one argsort and
    one searchsorted; the first wanted label not in ``labels`` raises."""
    order = np.argsort(labels)
    ranked = labels[order]
    at = np.searchsorted(ranked, wanted)
    found = at < ranked.size
    found[found] = ranked[at[found]] == wanted[found]
    if not found.all():
        missing = wanted[np.argmin(found)]
        raise BasisMismatchError(f"compression label {missing} missing from operator basis")
    return order[at]


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
