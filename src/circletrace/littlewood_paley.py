"""Discrete Littlewood-Paley blocks on the circle and the norms built on them.

Block n >= 1 is a triangular Fourier-side hat: value 1 at mode gamma^n,
support strictly inside (gamma^(n-1), gamma^(n+1)), linear on both slopes.
Block -n mirrors it onto negative modes and block 0 is the single mode 0.

Boundary convention: the modes +-1 sit at the left endpoint of the first hat
and would otherwise be invisible to the hat family, so the norm estimators
add two unit-weight singleton levels at modes +1 and -1 (scale exponent 0).
With that convention a lacunary symbol whose lowest mode is +-1 is weighted
exactly like every other lacunary level.

The L^p norms of a block piece are taken on a uniform grid of G angles, but
a piece's grid values repeat with period G / gcd(G, k_1 mod G, k_2 mod G,
...), the lcm of its modes' periods, so only one period is built.  The max
over that period is the grid max; a finite-p mean is taken over |v|^p tiled
back to all G entries, so it is bit for bit the full-grid mean.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import ParameterError
from .fourier import FourierSymbol, _integer_from_two, gamma_powers

__all__ = [
    "INF",
    "hat_weights",
    "holder_norm_star",
    "besov_norm",
]


INF = math.inf  # the exponent value infinity in L^p / l^q dispatch


def _normalize_exponent(p) -> float:
    value = float(p)
    if value < 1.0:
        raise ParameterError(f"exponent must be >= 1 or INF, got {p!r}")
    return value


def _span(x: int):
    """A positive hat span as int64 when it fits, else rounded to float64."""
    return np.int64(x) if x < 2**63 else float(x)


def hat_weights(n: int, gamma: int, modes) -> np.ndarray:
    """Block-n hat value at each mode as float64, 0 off the block's support.

    Block 0 is the indicator of mode 0 and negative n mirrors block |n|.
    Rise (k - lo) / (mid - lo) and fall (hi - k) / (hi - mid), with
    lo, mid, hi = gamma^(|n|-1), gamma^|n|, gamma^(|n|+1), are taken in int64
    and so equal the exact-integer quotients bit for bit while hi < 2^53.
    """
    gamma = _integer_from_two(gamma, "gamma")  # an int, so its powers are exact
    k = np.asarray(modes, dtype=np.int64) * (-1 if n < 0 else 1)
    out = np.zeros(k.shape)
    if n == 0:
        out[k == 0] = 1.0
        return out
    lo, mid, hi = (gamma ** (abs(n) + e) for e in (-1, 0, 1))
    rise = (k > lo) & (k <= mid)  # numpy compares int64 with any Python int exactly
    if rise.any():  # then lo < k, so k - lo fits int64
        out[rise] = (k[rise] - lo) / _span(mid - lo)
    fall = (k > mid) & (k < hi)
    if fall.any():  # then mid < k, so k - mid fits int64
        out[fall] = (_span(hi - mid) - (k[fall] - mid)) / _span(hi - mid)
    return out


def _norm_levels(
    a: FourierSymbol, gamma: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(scale exponent |n|, modes, coefficients) of each block piece of ``a``.

    Yields the singleton levels at modes 0, +1 and -1 described in the module
    docstring, then the hat blocks +-1..+-top meeting the band.  Modes keep
    the symbol's order and vanishing coefficients are dropped.
    """
    modes = np.fromiter(a.coeffs, dtype=np.int64, count=len(a.coeffs))
    values = np.fromiter(a.coeffs.values(), dtype=complex, count=len(a.coeffs))
    for k0 in (0, 1, -1):
        if (hit := modes == k0).any():
            yield 0, modes[hit], values[hit]
    top = len(gamma_powers(gamma, a.n_max - 1)) + 1  # least top with gamma^(top-1) >= n_max
    for absn in range(1, top + 1):
        for n in (absn, -absn):
            weights = hat_weights(n, gamma, modes)
            on = np.flatnonzero(weights)
            coeffs = values[on] * weights[on]
            if (kept := coeffs != 0).any():
                yield absn, modes[on][kept], coeffs[kept]


def _mode_values(roots: np.ndarray, r: int, c: complex) -> np.ndarray:
    """c * roots[j * r % G] for j < G / gcd(r, G), with G = len(roots): one
    period of a mode's grid values.

    Where r is g = gcd(r, G) the indices are 0, g, 2g, ..., and where r is
    G - g they are 0, G - g, G - 2g, ..., g: strided reads of the table, with
    no index arithmetic and no gather.  Every mode +-gamma^n of a lacunary
    symbol, and the modes +-1, is one of these; other residues are gathered.
    Each product is ``np.multiply(c, x)``, scalar first, and into x where x
    is a new array: numpy's complex product may round differently with its
    operands swapped, and ``c * x`` swaps them when numpy reuses a large
    temporary x in place.
    """
    size = len(roots)
    g = math.gcd(r, size)
    if r == g:
        return np.multiply(c, roots[::g])
    if r == size - g:
        read = np.concatenate([roots[:1], roots[size - g : 0 : -g]])
    else:
        read = roots[np.arange(size // g) * r % size]
    return np.multiply(c, read, out=read)


def holder_norm_star(a: FourierSymbol, alpha: float, gamma: int) -> float:
    """Grid estimate of sup_n gamma^(|n|*alpha) * max |block_n * a|.

    That is the (alpha, INF, INF) Besov norm.  The supremum per level is
    taken over the dense uniform grid of ``besov_norm``; band-limited inputs
    make that an honest estimator.
    """
    return besov_norm(a, alpha, INF, INF, gamma)


def besov_norm(a: FourierSymbol, t: float, p, q, gamma: int) -> float:
    """Nested norm: l^q over levels of gamma^(|n|*t) * L^p of each block piece.

    The L^p norms are taken on a uniform grid of max(8 * n_max, 16) angles.
    """
    gamma = _integer_from_two(gamma, "gamma")
    p = _normalize_exponent(p)
    q = _normalize_exponent(q)
    size = max(8 * max(a.n_max, 1), 16)
    if size * size >= 2**63:
        raise ParameterError(f"grid of {size} angles is too fine: k*j mod {size} needs int64")
    # A piece's values at the angles 2*pi*j/size are gathered from one table
    # of roots of unity at the exactly reduced indices (k mod size) * j mod
    # size: no phase k * theta is rounded and no exponential is taken per mode.
    # Those indices repeat with period size / gcd(k mod size, size): each
    # product c * root is formed once per period and added, in mode order as
    # on the whole grid, to every repeat within the piece's one period; a
    # one-mode piece is its one period of products.  The finite-p mean tiles
    # |v|^p back to the whole grid, the very array a full-grid mean sums, so
    # np.mean keeps its pairwise order and its bits.
    roots = np.exp(1j * (2.0 * np.pi * np.arange(size) / size))
    per_level = []
    for absn, modes, coeffs in _norm_levels(a, gamma):
        residues = [k % size for k in modes.tolist()]
        if len(residues) == 1:
            # no zero fill and no add: that differs from 0 + c * root only
            # where it gives +0.0 for -0.0, which |v| does not see
            values = _mode_values(roots, residues[0], coeffs.tolist()[0])
        else:
            values = np.zeros(size // math.gcd(size, *residues), dtype=complex)
            for r, c in zip(residues, coeffs.tolist()):
                products = _mode_values(roots, r, c)
                repeats = values.reshape(-1, len(products))  # a view: one row per period
                repeats += products
        magnitudes = np.abs(values)
        if p == INF:
            norm = np.max(magnitudes)
        else:  # volume-1 circle: L^p is a plain grid mean
            norm = np.mean(np.tile(magnitudes**p, size // len(values))) ** (1.0 / p)
        per_level.append(gamma ** (absn * t) * float(norm))
    if not per_level:
        return 0.0
    arr = np.asarray(per_level)
    if q == INF:
        return float(np.max(arr))
    return float(np.sum(arr**q) ** (1.0 / q))
