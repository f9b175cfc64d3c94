"""Ordered diagonal partial sums, Cesaro means and the limit classifier.

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
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import BasisMismatchError, ParameterError
from .fourier import _integer_from_two, gamma_powers
from .operators import OrderingRule, TruncatedOperator

__all__ = [
    "ResidueSequence",
    "VerdictKind",
    "MeasurabilityVerdict",
    "ClassifyPolicy",
    "residue_sequence",
    "cesaro_mean",
    "divide_by_counts",
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

    @property
    def size(self) -> int:
        return self.values.size


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
    return ResidueSequence(sums, sums / norm)


# Entries per step of the blocked passes below: cesaro_mean's counts 1..N+1
# and the classifier's band scan are made one block at a time, never as an
# N-length array.
_BLOCK = 1 << 14


def divide_by_counts(sums: np.ndarray) -> np.ndarray:
    """``sums[N] /= N + 1`` in place: running sums become running averages."""
    for lo in range(0, sums.size, _BLOCK):
        hi = min(lo + _BLOCK, sums.size)
        sums[lo:hi] /= np.arange(lo + 1, hi + 1, dtype=float)
    return sums


def cesaro_mean(x) -> np.ndarray:
    """Running averages (sum of the first N+1 terms) / (N+1), formed in one
    new float64 array; ``x`` is left as it is."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ParameterError("cesaro_mean expects a 1-d sequence")
    return divide_by_counts(np.cumsum(arr))


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
        count = _integer_from_two(self.window_count, "window_count")
        object.__setattr__(self, "window_count", count)  # it slices the window means
        if self.rel_gap <= 0 or self.abs_floor <= 0:
            raise ParameterError("rel_gap and abs_floor must be positive")
        object.__setattr__(self, "window_base", _integer_from_two(self.window_base, "gamma"))

    def check_length(self, size: int) -> None:
        """Refuse a sequence of ``size`` terms, shorter than window_base **
        (window_count + 2); bit lengths settle a power far above ``size``
        without forming it."""
        need = self.window_count + 2
        base = self.window_base
        if need * (base.bit_length() - 1) >= size.bit_length() or size < base**need:
            raise ParameterError(
                f"sequence of length {size} is too short for "
                f"{self.window_count} windows with base {self.window_base}"
            )


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
            obj.update(lower=self.lower, upper=self.upper)
        return {**obj, "windows_used": self.windows_used, "policy": asdict(self.policy)}


def _window_bounds(length: int, base: int) -> list[tuple[int, int]]:
    """Complete geometric index windows [base^j, base^(j+1)) inside the
    sequence, from j = 2 on to skip the first tiny windows."""
    powers = gamma_powers(base, length)
    return list(zip(powers[2:], powers[3:]))


# Strided sample that brackets each rank _percentiles looks for, and the
# sample entries kept on each side of the rank's estimated place.
_SAMPLE = 1 << 12
_MARGIN = 64


def _percentiles(x: np.ndarray, q) -> list[float]:
    """``np.percentile(x, q).tolist()`` bit for bit, for a finite 1-d float64
    ``x``, without a copy of ``x``.

    A sorted strided sample brackets the two ranks each level interpolates
    between; one blocked pass counts the entries below each bracket and
    gathers the band inside it, and only the band is partitioned.  A bracket
    that misses its ranks (a sample aligned with a periodic input can), or a
    rank that holds a zero, falls back to ``np.percentile``.  The levels are
    numpy's ``linear`` ones.
    """
    n = x.size
    virtual = (n - 1) * np.true_divide(q, 100)
    prev = np.floor(virtual).astype(np.intp)
    # at q = 100 both ends are the last entry, so the weight there does not
    # matter; numpy's own weight differs from this one only in that case
    ranks = np.stack([prev, np.minimum(prev + 1, n - 1)], axis=1)
    gamma = virtual - prev
    sample = np.sort(x[:: max(1, n // _SAMPLE)])
    at = np.minimum(prev * sample.size // n, sample.size - 1)
    padded = np.concatenate(([-np.inf], sample, [np.inf]))  # padded[j + 1] = sample[j]
    lows = padded[np.maximum(at - _MARGIN, -1) + 1]
    highs = padded[np.minimum(at + _MARGIN, sample.size) + 1]
    below = np.zeros(len(q), dtype=np.intp)
    bands: list[list[np.ndarray]] = [[] for _ in q]
    for lo in range(0, n, _BLOCK):
        block = x[lo : lo + _BLOCK]
        for i, band in enumerate(bands):
            below[i] += np.count_nonzero(block < lows[i])
            band.append(block[(block >= lows[i]) & (block <= highs[i])])
    ends = []
    for band, wanted in zip(bands, ranks - below[:, None]):
        band = np.concatenate(band)
        if 0 <= wanted.min() and wanted.max() < band.size:
            band.partition(wanted)
            ends.append(band[wanted])
    # which of 0.0 and -0.0 lands on a rank depends on how numpy partitions all of x
    if len(ends) < len(q) or not np.all(ends):
        return np.percentile(x, q).tolist()
    a, b = np.array(ends).T
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out.tolist()


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
    pol.check_length(arr.size)
    if not np.isfinite([arr.min(), arr.max()]).all():  # nan and inf reach one of them
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
    lower, upper = _percentiles(tail, (5, 95))
    gap = upper - lower
    scale = max(abs(float(tail.min())), abs(float(tail.max())), pol.abs_floor)
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
