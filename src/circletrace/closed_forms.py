"""Closed-form trace sequences, integral-kernel quadrature and scalar kernels.

Sign conventions are explicit in every returned expression string, because
the two natural operator expressions differ by a sign:

    tr(P a (1-P) b P)  ~  +(1/log M) * sum_{k<=M} k a_k b_{-k}
    P [P,a] [P,b]      ~  the same sum with a leading minus.

All sequences here carry their evaluation points, so sparse sampling along
lacunary scales (powers of gamma up to 2^40 and beyond) costs nothing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, short_int
from .fourier import (
    CoefficientRule,
    FourierSymbol,
    circle_grid,
    gamma_powers,
    hardy_split,
    sample_to_symbol,
    symbol_eval,
)

__all__ = [
    "TraceSequence",
    "KernelParams",
    "WindingReport",
    "fourier_side_trace",
    "symmetric_fourier_trace",
    "weierstrass_trace",
    "integral_trace",
    "sphere_kernel",
    "sphere_kernel_derivative",
    "sphere_kernel_routes",
    "winding_trace",
    "winding_report",
    "invert_symbol",
    "inverse_grid_size",
]


@dataclass(frozen=True)
class TraceSequence:
    """A sequence of values indexed by explicit truncation points."""

    points: np.ndarray
    values: np.ndarray
    expression: str
    normalization: str

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.int64)
        vals = np.asarray(self.values)
        if pts.ndim != 1 or pts.shape != vals.shape:
            raise ParameterError("points and values must be matching 1-d arrays")
        pts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)


def _every_point(n_trunc: int) -> np.ndarray:
    """The truncation points M = 2..N of a Fourier-side trace."""
    if n_trunc < 2:
        raise ParameterError("truncation must be >= 2")
    return np.arange(2, n_trunc + 1, dtype=np.int64)


def _partial_sums_at(levels, terms: np.ndarray, points: np.ndarray) -> np.ndarray:
    """At each point, the sum of the terms whose level (ascending) is at most it."""
    sums = np.concatenate([np.zeros(1, terms.dtype), np.cumsum(terms)])
    return sums[np.searchsorted(levels, points, side="right")]


def fourier_side_trace(a: FourierSymbol, b: FourierSymbol, n_trunc: int) -> TraceSequence:
    """M -> (1/log M) * sum_{k=0}^{M} k a_k b_{-k} at every M = 2..N.

    Complex in general; real when b is the conjugate symbol of a.
    """
    pts = _every_point(n_trunc)
    ks = sorted(k for k in a.coeffs if k >= 1 and -k in b.coeffs and k <= n_trunc)
    terms = np.array([k * a.coeffs[k] * b.coeffs[-k] for k in ks], dtype=complex)
    values = _partial_sums_at(ks, terms, pts) / np.log(pts.astype(float))
    return TraceSequence(pts, values, "tr(P a (1-P) b P)", "1/log(M)")


def symmetric_fourier_trace(a: FourierSymbol, b: FourierSymbol, n_trunc: int) -> TraceSequence:
    """M -> -(1/log M) * sum_{|k|<=M} |k| a_k b_{-k} (both mode signs), M = 2..N."""
    pts = _every_point(n_trunc)
    ks = sorted({abs(k) for k in a.coeffs if -k in b.coeffs and 1 <= abs(k) <= n_trunc})
    terms = np.array([k * (a[k] * b[-k] + a[-k] * b[k]) for k in ks], dtype=complex)
    values = -_partial_sums_at(ks, terms, pts) / np.log(pts.astype(float))
    return TraceSequence(pts, values, "tr([P,a][P,b])", "1/log(M)")


def weierstrass_trace(
    gamma: int, c: CoefficientRule, d: CoefficientRule, n_trunc: int
) -> TraceSequence:
    """Exact Fourier-side partial sums for a pair of alpha=1/2 lacunary symbols.

    M -> -(1/log M) * sum_{n : gamma^n <= M} c_n d_n.  The points are the
    powers of gamma up to the truncation (plus the truncation itself), so very
    large scales stay cheap: the sum has one term per lacunary level.
    """
    powers = gamma_powers(gamma, n_trunc)
    if n_trunc < 2:
        raise ParameterError("truncation too small for one lacunary level")
    pts = powers[1:] if powers[-1] == n_trunc else [*powers[1:], n_trunc]
    pts = np.array(pts, dtype=np.int64)
    terms = c.values(len(powers)) * d.values(len(powers))
    values = -_partial_sums_at(powers, terms, pts) / np.log(pts.astype(float))
    return TraceSequence(pts, values, "tr(P[P,W(1/2,gamma,c)][P,W(1/2,gamma,d)])", "1/log(M)")


_HORNER_BLOCK_BYTES = 1 << 18  # coefficient rows broadcast to all lanes at once


def _horner(u, table: np.ndarray) -> np.ndarray:
    """Row i is sum_k table[k, i] u^k, by Horner's rule over the first axis.

    The same IEEE steps, lane by lane, as numpy.polynomial.polynomial's
    ``polyval(u, table, tensor=True)`` (start from table[-1] + u*0, then
    acc*u + table[k]), so the values are bit for bit the same.  Every
    (column, point) pair is one lane of a flat contiguous accumulator updated
    in place; ``u`` is broadcast to the lanes once, and the coefficient rows
    are broadcast by ``np.repeat`` in blocks of at most _HORNER_BLOCK_BYTES.
    """
    u = np.asarray(u)
    lanes = table.shape[1:] + u.shape
    acc = (table[-1].reshape(table.shape[1:] + (1,) * u.ndim) + u * 0).ravel()
    u_lanes = np.broadcast_to(u, lanes).ravel()
    coeffs = table.reshape(len(table), -1)
    step = max(1, _HORNER_BLOCK_BYTES // max(1, acc.size * table.itemsize))
    for stop in range(len(table) - 1, 0, -step):
        block = np.repeat(coeffs[max(0, stop - step) : stop][::-1], u.size, axis=1)
        for row in block:
            np.multiply(acc, u_lanes, acc)
            np.add(acc, row, acc)
        del block, row  # so the next block is formed with this one freed
    return acc.reshape(lanes)


# Distance from w = 1 inside which the ramp polynomial is summed term by term.
_RAMP_SWITCH = 1e-4


def _ramp_polynomial(w: np.ndarray, n_trunc: int) -> np.ndarray:
    """sum_{k=0}^{N} (k+1) w^k, stable on and off the w = 1 singularity.

    Away from w = 1 this is (1 - (N+2) w^(N+1) + (N+1) w^(N+2)) / (1-w)^2;
    within ``_RAMP_SWITCH`` of w = 1 the explicit polynomial is summed instead.
    Both sides are within 1e-8 relative of the explicit series (tested on
    and off the switch for N up to 4096).
    """
    w = np.asarray(w, dtype=complex)
    out = np.empty(w.shape, dtype=complex)
    near = np.abs(1.0 - w) < _RAMP_SWITCH
    wf = w[~near]
    out[~near] = (1.0 - (n_trunc + 2) * wf ** (n_trunc + 1) + (n_trunc + 1) * wf ** (n_trunc + 2)) / (
        1.0 - wf
    ) ** 2
    if near.any():  # Horner takes N steps even over no points
        out[near] = _horner(w[near], np.arange(1.0, n_trunc + 2)[:, None])[0]
    return out


@dataclass(frozen=True)
class KernelParams:
    """Kernel truncation, interior radius and quadrature resolution."""

    n_trunc: int
    grid: int
    r: float = 1.0 - 1e-6

    def __post_init__(self) -> None:
        if self.n_trunc < 2:
            raise ParameterError("kernel truncation must be >= 2")
        if not (0.0 < self.r < 1.0):
            raise ParameterError(f"interior radius must lie in (0, 1), got {self.r}")
        if self.grid < 8 * self.n_trunc:
            raise ParameterError(
                f"grid of {self.grid} points is below the 8*N = {8 * self.n_trunc} floor"
            )


def _banded_kernel(a: FourierSymbol, b: FourierSymbol, params: KernelParams) -> KernelParams:
    """``params``, once the a_+ and b_- bands are checked against the kernel
    range N+1.  The grid needs no check of its own: grid >= 8N > N+1+band."""
    band = max(max((k for k in a.coeffs if k >= 0), default=0),
               max((-k for k in b.coeffs if k < 0), default=0))
    if band > params.n_trunc + 1:
        raise ParameterError(
            f"symbol band {band} exceeds the kernel range N+1 = {params.n_trunc + 1}"
        )
    return params


def integral_trace(a: FourierSymbol, b: FourierSymbol, params: KernelParams) -> complex:
    """Double circle quadrature of a_+(conj zeta) b_-(z) against the kernel.

    Returns the value with the leading minus sign, i.e. the P[P,a][P,b]
    convention: the result approximates -(1/log N) sum_{l<=N} sum_{k>l}
    a_k b_{-k} as r -> 1.

    The quadrature weights carry the complex line elements of the two contour
    integrals (a factor z*zeta per point, volume normalized to 1), and the
    kernel enters through its truncated power series: the series tail beyond
    mode N is annihilated by band-limited integrands in the exact integral
    but would alias onto the grid, so it is dropped rather than sampled.

    On the uniform G-point grid z_j * zeta_l = exp(i theta_{(j+l) mod G}), so
    the weighted kernel phi_s = z zeta K_N(r z zeta) takes only G values and
    the G x G double sum sum_{j,l} b_j phi_{(j+l) mod G} a_l equals
    sum_s phi_s (b * a)_s, with the circular convolution (b * a) done by FFT:
    O(G log G) time and O(G) memory.  Only the order of summation differs
    from the G x G sum: the two differ by at most a relative 1e-13 for
    N <= 128 (G = 8N and odd grids) and 2.3e-12 at N = 512, G = 4096; the
    tests assert 1e-11 for N <= 128.
    """
    _banded_kernel(a, b, params)
    a_plus, _ = hardy_split(a)
    _, b_minus = hardy_split(b)
    n, r, grid = params.n_trunc, params.r, params.grid
    if not a_plus.coeffs or not b_minus.coeffs:
        return 0j
    angles = circle_grid(grid)
    a_vals = symbol_eval(a_plus, -angles)  # a_+(conj zeta) on the zeta grid
    b_vals = symbol_eval(b_minus, angles)  # b_-(z) on the z grid
    phase = np.exp(1j * angles)  # z * zeta, indexed by (j + l) mod G
    kernel = _ramp_polynomial(r * phase, n)
    conv = np.fft.ifft(np.fft.fft(b_vals) * np.fft.fft(a_vals))
    total = np.sum(phase * kernel * conv) / grid**2
    return complex(-total / math.log(n))


def _sphere_orders(n_trunc: int, m) -> list[int]:
    orders = np.atleast_1d(np.asarray(m))
    integral = orders.dtype.kind in "iu" or (
        orders.dtype.kind == "f" and np.isfinite(orders).all() and (orders == np.floor(orders)).all()
    )
    if not integral or orders.ndim != 1 or orders.size == 0 or orders.min() < 1 or n_trunc < 0:
        raise ParameterError(f"sphere kernel needs integer orders m >= 1 and N >= 0, got m = {m!r}")
    return orders.astype(np.int64).tolist()


def _check_derivative_products(n_trunc: int, m_top: int) -> None:
    """Refuse orders up to ``m_top`` whose largest derivative product,
    (N+m-1)!/N! = (N+1)(N+2)...(N+m-1), exceeds float64, for any N.

    The product is formed exactly, factor by factor, and stops once it
    passes: every factor after the first is at least 2, so that is within
    1,025 factors, and the product never holds more than 1,024 bits plus
    those of one factor.
    """
    product = 1
    for factor in range(n_trunc + 1, n_trunc + m_top):
        product *= factor
        if product > sys.float_info.max:
            raise ParameterError(
                f"derivative products (N+m-1)!/N! overflow float64 at N = {short_int(n_trunc)}, "
                f"m up to {short_int(m_top)}"
            )


def _derivative_scales(n_trunc: int, ms: list[int]) -> np.ndarray:
    """m * (m-1)! per order, once (N+m-1)!/N! is bounded against float64."""
    _check_derivative_products(n_trunc, max(ms))
    return _as_floats([mi * math.factorial(mi - 1) for mi in ms], n_trunc, ms)


def _as_floats(values, n_trunc: int, ms: list[int]) -> np.ndarray:
    """Exact Python ints, each rounded once to the nearest float64."""
    try:
        return np.asarray(values, dtype=object).astype(float)
    except OverflowError:
        raise ParameterError(
            f"sphere kernel constants overflow float64 at N = {short_int(n_trunc)}, "
            f"m up to {short_int(max(ms))}"
        ) from None


_BINOMIAL_ROWS = 2048  # rows of exact Python ints alive at once


def _fill_binomials(table: np.ndarray, n_trunc: int, ms: list[int]) -> None:
    """Column i = C(k+m_i-1, m_i-1) for k = 0..N, exact integers rounded once.

    By the hockey-stick identity order m is the running sum over k of order
    m-1, starting from the ones of order 1.  While the last entry
    C(N+m-1, m-1) is below 2**63 that is an int64 cumsum, rounded by
    ``astype(float)`` as a Python int would be; the orders above it carry on
    from the last int64 column as an object-dtype cumsum of Python ints,
    taken over _BINOMIAL_ROWS rows at a time with one carry per order.
    """

    def put(order: int, rows: slice, rounded: np.ndarray) -> None:
        for i, mi in enumerate(ms):
            if mi == order:
                table[rows, i] = rounded

    top = 1  # the last order whose entries all fit int64
    while top < max(ms) and math.comb(n_trunc + top, top) < 2**63:
        top += 1
    column = np.ones(n_trunc + 1, dtype=np.int64)
    for order in range(1, top + 1):
        if order > 1:
            column = np.cumsum(column)
        if order in ms:
            put(order, slice(None), column.astype(float))
    if top == max(ms):
        return
    carry = [0] * (max(ms) + 1)
    for start in range(0, n_trunc + 1, _BINOMIAL_ROWS):
        rows = slice(start, min(start + _BINOMIAL_ROWS, n_trunc + 1))
        block = column[rows].astype(object)
        for order in range(top + 1, max(ms) + 1):
            block[0] += carry[order]
            block = np.cumsum(block)
            carry[order] = block[-1]
            if order in ms:
                put(order, rows, _as_floats(block, n_trunc, ms))


def _fill_derivative_passes(table: np.ndarray, n_trunc: int, ms: list[int]) -> None:
    """Column i = the first N+1 coefficients after m_i - 1 derivative passes.

    Pass p turns d_k into d_{k+1} * (k+1), the products numpy's polyder forms;
    the first N+1 entries after m-1 passes do not depend on the length beyond.
    """
    d = np.ones(n_trunc + max(ms), dtype=float)
    for p in range(max(ms)):
        if p:
            d = d[1:] * np.arange(1, d.size, dtype=float)
        for column, mi in zip(table.T, ms):
            if mi == p + 1:
                column[:] = d[: n_trunc + 1]


def _sphere_eval(t, table: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Row i is polyval(1-t, table[:, i]) / scales[i], from one Horner pass."""
    u = 1.0 - np.asarray(t, dtype=float)
    rows = _horner(u, table)
    rows /= np.reshape(scales, (-1,) + (1,) * np.ndim(u))
    return rows


def sphere_kernel(t, n_trunc: int, m):
    """Scalar sphere-diagonal kernel via its binomial sum.

    h_N(t) = (1/m) * sum_{k=0}^{N} C(k+m-1, m-1) (1-t)^k, so h_N(1) = 1/m and
    for m = 1 this is the geometric form (1 - (1-t)^(N+1)) / t.  ``m`` is an
    int or a 1-d sequence of ints; a sequence gives one row of values per m.
    """
    ms = _sphere_orders(n_trunc, m)
    table = np.empty((n_trunc + 1, len(ms)))
    _fill_binomials(table, n_trunc, ms)
    rows = _sphere_eval(t, table, np.array(ms, dtype=float))
    return rows if np.ndim(m) else rows[0]


def sphere_kernel_derivative(t, n_trunc: int, m):
    """Same kernel through the derivative route.

    Formally differentiates the geometric polynomial sum_{k=0}^{N+m-1} u^k
    (m-1) times, evaluates at u = 1-t and divides by m * (m-1)!.  ``m`` is
    an int or a 1-d sequence of ints, as for ``sphere_kernel``.  The largest
    product formed, (N+m-1)!/N!, is bounded against float64 before any work.
    """
    ms = _sphere_orders(n_trunc, m)
    scales = _derivative_scales(n_trunc, ms)
    table = np.empty((n_trunc + 1, len(ms)))
    _fill_derivative_passes(table, n_trunc, ms)
    rows = _sphere_eval(t, table, scales)
    return rows if np.ndim(m) else rows[0]


def sphere_kernel_routes(t, n_trunc: int, m):
    """(``sphere_kernel``, ``sphere_kernel_derivative``) from one Horner pass.

    Bit for bit the two routes' values: both coefficient tables share one
    (N+1) x 2*len(m) array and every lane takes the same IEEE steps.  The
    derivative route's float64 bound is checked before any binomial is formed.
    """
    ms = _sphere_orders(n_trunc, m)
    scales = np.concatenate([np.array(ms, dtype=float), _derivative_scales(n_trunc, ms)])
    k = len(ms)
    table = np.empty((n_trunc + 1, 2 * k))
    _fill_binomials(table[:, :k], n_trunc, ms)
    _fill_derivative_passes(table[:, k:], n_trunc, ms)
    rows = _sphere_eval(t, table, scales)
    return (rows[:k], rows[k:]) if np.ndim(m) else (rows[0], rows[1])


def inverse_grid_size(a: FourierSymbol) -> int:
    """Points ``invert_symbol`` samples: the power of two >= 16 * band, at least 64."""
    return 1 << max((16 * max(a.n_max, 1) - 1).bit_length(), 6)


def invert_symbol(a: FourierSymbol) -> tuple[FourierSymbol, float]:
    """Pointwise inverse re-projected to four times the input band.

    Returns (inverse symbol, out-of-band residual), the residual being the
    l2 mass of the dropped high modes; it quantifies how well the inverse is
    represented inside the retained band.  A grid modulus at or below 1e-8
    times the largest one counts as a zero of the symbol.
    """
    band = 4 * max(a.n_max, 1)
    samples = symbol_eval(a, circle_grid(inverse_grid_size(a)))
    mods = np.abs(samples)
    if mods.min() <= 1e-8 * mods.max():
        raise ParameterError(
            "symbol is not invertible on the circle (grid modulus reaches "
            f"{mods.min():.3e})"
        )
    inverse = sample_to_symbol(1.0 / samples)
    scale = max(abs(v) for v in inverse.coeffs.values())
    kept = inverse.restricted(band).pruned(1e-14 * scale)
    dropped = sum(abs(v) ** 2 for k, v in inverse.coeffs.items() if abs(k) > band)
    return kept, math.sqrt(dropped)


@dataclass(frozen=True)
class WindingReport:
    value: float
    nearest_integer: int
    imag_defect: float
    inverse_residual: float
    safe_band: int


def winding_report(a: FourierSymbol, n_trunc: int) -> WindingReport:
    """tr((2P-1) [P,a] [P,a^-1]) at truncation N with diagnostic metadata.

    On modes -N..N, [P,a] is nonzero only between a mode m >= 0 and a mode
    l < 0, and the pairs at distance |m - l| = k number min(k, 2N+1-k).  So
    with b = a^-1 the trace is the coefficient sum

        sum_{1<=|k|<=2N} -sgn(k) min(|k|, 2N+1-|k|) a_k b_{-k},

    taken over the support of ``a`` with no matrix built.  It agrees with
    the dense trace of the two truncated commutators to 1e-13 relative
    (tested).
    """
    if n_trunc < 1:
        raise ParameterError("truncation size must be >= 1")
    inverse, residual = invert_symbol(a)
    size = 2 * n_trunc + 1
    terms = [
        -math.copysign(min(abs(k), size - abs(k)), k) * v * inverse[-k]
        for k, v in a.coeffs.items()
        if 1 <= abs(k) < size
    ]
    tr = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    safe_band = n_trunc - (a.n_max + inverse.n_max)
    return WindingReport(
        value=float(tr.real),
        nearest_integer=int(round(tr.real)),
        imag_defect=abs(tr.imag),
        inverse_residual=residual,
        safe_band=safe_band,
    )


def winding_trace(a: FourierSymbol, n_trunc: int) -> float:
    """Winding-number trace; equals minus the degree for invertible symbols."""
    return winding_report(a, n_trunc).value
