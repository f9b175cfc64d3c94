"""Ordered diagonal partial sums, averaging transforms and the limit classifier.

The residue sequence of a truncated operator G is

    Res_N = (sum_{l=0}^{N} G[l, l]) / log(N + 2),      N = 0 .. size-1,

taken in the declared basis order.  Extended limits themselves are not
computable objects; the classifier below is the operational surrogate: a
Convergent verdict means every reasonable averaging of the tail agrees on one
value, an Oscillating verdict exhibits two separated clusters the sequence
keeps returning to (two subsequence limits, hence genuine limit-functional
dependence), and Inconclusive makes no claim.  It is designed for the slowly
varying log-averaged sequences produced here, not for adversarial inputs that
oscillate on consecutive indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BasisMismatchError, ParameterError
from .operators import OrderingRule, TruncatedOperator

__all__ = [
    "ResidueSequence",
    "VerdictKind",
    "MeasurabilityVerdict",
    "ClassifyPolicy",
    "residue_sequence",
    "cesaro_mean",
    "log_mean_transform",
    "classify_limit",
    "log_extrapolate",
]


@dataclass(frozen=True)
class ResidueSequence:
    """Diagonal partial sums and their log-normalized values.

    ``values[N]`` divides by log(N+2); closed-form comparisons that use a
    log(N) normalization instead should align through ``partial_sums``.
    """

    partial_sums: np.ndarray
    values: np.ndarray
    basis_rule: OrderingRule

    @property
    def size(self) -> int:
        return self.values.size

    def values_log_n(self) -> np.ndarray:
        """Same partial sums divided by log(N), defined from N = 2 on."""
        n = np.arange(self.size, dtype=float)
        out = np.full(self.size, np.nan, dtype=self.values.dtype)
        out[2:] = self.partial_sums[2:] / np.log(n[2:])
        return out


def residue_sequence(op: TruncatedOperator) -> ResidueSequence:
    """Running diagonal sums of a square operator divided by log(N+2)."""
    if op.row_basis != op.col_basis:
        raise BasisMismatchError("residue sequence needs identical row/column bases")
    if op.row_basis.ordering_rule not in (
        OrderingRule.HARDY_NATURAL,
        OrderingRule.FULL_BY_MODULUS,
    ):
        raise ParameterError(
            "residue sequence requires hardy-natural or full-by-modulus ordering"
        )
    sums = np.cumsum(op.diagonal())
    norm = np.log(np.arange(sums.size) + 2.0)
    return ResidueSequence(sums, sums / norm, op.row_basis.ordering_rule)


# Terms per division step of cesaro_mean: its counts 1..N+1 are made one
# block at a time, never as an N-length array.
_COUNT_BLOCK = 1 << 14


def cesaro_mean(x) -> np.ndarray:
    """Running averages (sum of the first N+1 terms) / (N+1), formed in one
    new float64 array; ``x`` is left as it is."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ParameterError("cesaro_mean expects a 1-d sequence")
    out = np.cumsum(arr)
    for lo in range(0, out.size, _COUNT_BLOCK):
        hi = min(lo + _COUNT_BLOCK, out.size)
        out[lo:hi] /= np.arange(lo + 1, hi + 1, dtype=float)
    return out


def log_mean_transform(x) -> np.ndarray:
    """Logarithmic averages (sum_{l<=k} x_l/(l+1)) / log(k+2)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ParameterError("log_mean_transform expects a 1-d sequence")
    weighted = np.cumsum(arr / np.arange(1, arr.size + 1))
    return weighted / np.log(np.arange(arr.size) + 2.0)


class VerdictKind(Enum):
    CONVERGENT = "convergent"
    OSCILLATING = "oscillating"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ClassifyPolicy:
    window_count: int = 5
    rel_gap: float = 0.02
    abs_floor: float = 1e-9
    window_base: int = 2  # dyadic by default; gamma-adic probing is opt-in

    def __post_init__(self) -> None:
        if self.window_count < 2:
            raise ParameterError("policy needs at least two windows")
        if self.rel_gap <= 0 or self.abs_floor <= 0:
            raise ParameterError("rel_gap and abs_floor must be positive")
        if self.window_base < 2:
            raise ParameterError("window base must be >= 2")


@dataclass(frozen=True)
class MeasurabilityVerdict:
    kind: VerdictKind
    limit: float | None
    lower: float | None
    upper: float | None
    windows_used: int
    policy: ClassifyPolicy

    def __post_init__(self) -> None:
        if self.kind is VerdictKind.OSCILLATING:
            scale = max(abs(self.lower), abs(self.upper), self.policy.abs_floor)
            if not (self.upper - self.lower > self.policy.rel_gap * scale):
                raise ParameterError("oscillating verdict without a separated gap")

    def to_json_obj(self) -> dict:
        obj: dict = {"kind": self.kind.value}
        if self.kind is VerdictKind.CONVERGENT:
            obj["limit"] = self.limit
        if self.kind is VerdictKind.OSCILLATING:
            obj["lower"] = self.lower
            obj["upper"] = self.upper
        obj["windows_used"] = self.windows_used
        obj["policy"] = {
            "window_count": self.policy.window_count,
            "rel_gap": self.policy.rel_gap,
            "abs_floor": self.policy.abs_floor,
            "window_base": self.policy.window_base,
        }
        return obj


def _window_bounds(length: int, base: int) -> list[tuple[int, int]]:
    """Complete geometric index windows [base^j, base^(j+1)) inside the sequence."""
    bounds = []
    lo = base * base  # skip the first tiny windows
    while lo * base <= length:
        bounds.append((lo, lo * base))
        lo *= base
    return bounds


def classify_limit(x, policy: ClassifyPolicy | None = None) -> MeasurabilityVerdict:
    """Classify the tail behavior of a bounded sequence.

    Convergent: the means over the last ``window_count`` geometric windows
    agree to within ``rel_gap`` (relative, with ``abs_floor`` guarding zero);
    the verdict carries their average.  Oscillating: the tail keeps leaving
    and re-entering two value bands separated by more than the gap threshold
    (at least two band changes over the later half of the windows); the
    verdict carries the 5th/95th percentile cluster levels of the tail
    values.  Anything else is Inconclusive.
    """
    pol = policy or ClassifyPolicy()
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ParameterError("classify_limit expects a 1-d sequence")
    if arr.size < pol.window_base ** (pol.window_count + 2):
        raise ParameterError(
            f"sequence of length {arr.size} is too short for "
            f"{pol.window_count} windows with base {pol.window_base}"
        )
    if not np.all(np.isfinite(arr)):
        raise ParameterError("sequence entries must be finite")

    bounds = _window_bounds(arr.size, pol.window_base)
    means = np.array([arr[lo:hi].mean() for lo, hi in bounds])
    windows_used = len(bounds)

    last = means[-pol.window_count :]
    scale_c = max(abs(float(last.mean())), pol.abs_floor)
    if float(last.max() - last.min()) <= pol.rel_gap * scale_c:
        return MeasurabilityVerdict(
            VerdictKind.CONVERGENT, float(last.mean()), None, None, windows_used, pol
        )

    # Oscillation analysis over the later half of the windows.
    start = max(len(bounds) // 2, len(bounds) - max(pol.window_count, len(bounds) // 2))
    tail_bounds = bounds[start:]
    tail = arr[tail_bounds[0][0] : tail_bounds[-1][1]]
    lower, upper = np.percentile(tail, [5, 95]).tolist()
    gap = upper - lower
    scale = max(float(np.max(np.abs(tail))), pol.abs_floor)
    if gap > pol.rel_gap * scale:
        hi_edge = upper - 0.25 * gap
        lo_edge = lower + 0.25 * gap
        events: list[str] = []
        for lo, hi in tail_bounds:
            window = arr[lo:hi]
            marks = []
            if window.min() <= lo_edge:
                marks.append((int(np.argmin(window)), "lo"))
            if window.max() >= hi_edge:
                marks.append((int(np.argmax(window)), "hi"))
            events.extend(side for _, side in sorted(marks))
        changes = sum(1 for a, b in zip(events, events[1:]) if a != b)
        if changes >= 2:
            return MeasurabilityVerdict(
                VerdictKind.OSCILLATING, None, lower, upper, windows_used, pol
            )
    return MeasurabilityVerdict(
        VerdictKind.INCONCLUSIVE, None, None, None, windows_used, pol
    )


def log_extrapolate(x, indices=None) -> tuple[float, float]:
    """Fit x_N ~ L + C / log(N+2) over the tail half; returns (L, C).

    ``indices`` supplies the N values when the sequence is sampled sparsely;
    by default N is the array index.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 16:
        raise ParameterError("log_extrapolate needs a 1-d sequence of length >= 16")
    if indices is None:
        idx = np.arange(arr.size, dtype=float)
    else:
        idx = np.asarray(indices, dtype=float)
        if idx.shape != arr.shape:
            raise ParameterError("indices must match the sequence shape")
    half = arr.size // 2
    tail_x = arr[half:]
    tail_n = idx[half:]
    design = np.column_stack([np.ones(tail_x.size), 1.0 / np.log(tail_n + 2.0)])
    coef, *_ = np.linalg.lstsq(design, tail_x, rcond=None)
    limit, slope = coef
    if not (math.isfinite(limit) and math.isfinite(slope)):
        raise ParameterError("extrapolation produced non-finite coefficients")
    return float(limit), float(slope)
