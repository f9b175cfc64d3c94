"""Discrete Littlewood-Paley blocks on the circle and the norms built on them.

Block n >= 1 is a triangular Fourier-side hat: value 1 at mode gamma^n,
support strictly inside (gamma^(n-1), gamma^(n+1)), linear on both slopes.
Block -n mirrors it onto negative modes and block 0 is the single mode 0.

Boundary convention: the modes +-1 sit at the left endpoint of the first hat
and would otherwise be invisible to the hat family, so the norm estimators
add two unit-weight singleton levels at modes +1 and -1 (scale exponent 0).
With that convention a lacunary symbol whose lowest mode is +-1 is weighted
exactly like every other lacunary level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ParameterError
from .fourier import FourierSymbol, circle_grid, symbol_eval

__all__ = [
    "INF",
    "LPBlock",
    "lp_block",
    "lp_convolve",
    "holder_norm_star",
    "besov_norm",
]


INF = math.inf  # the exponent value infinity in L^p / l^q dispatch


def _normalize_exponent(p) -> float:
    value = float(p)
    if value < 1.0:
        raise ParameterError(f"exponent must be >= 1 or INF, got {p!r}")
    return value


@dataclass(frozen=True)
class LPBlock:
    """One Fourier-side block: index, lacunary base and triangular profile."""

    n: int
    gamma: int
    profile: FourierSymbol


def _hat_coeffs(n: int, gamma: int) -> dict[int, complex]:
    lo = gamma ** (n - 1)
    mid = gamma**n
    hi = gamma ** (n + 1)
    coeffs: dict[int, complex] = {}
    for k in range(lo + 1, hi):
        if k <= mid:
            coeffs[k] = complex((k - lo) / (mid - lo))
        else:
            coeffs[k] = complex((hi - k) / (hi - mid))
    return coeffs


def lp_block(n: int, gamma: int) -> LPBlock:
    """Block profile for index n; negative n mirrors the positive block."""
    if gamma < 2:
        raise ParameterError(f"gamma must be >= 2, got {gamma}")
    if n == 0:
        return LPBlock(0, gamma, FourierSymbol({0: 1.0}))
    coeffs = _hat_coeffs(abs(n), gamma)
    if n < 0:
        coeffs = {-k: v.conjugate() for k, v in coeffs.items()}
    return LPBlock(n, gamma, FourierSymbol(coeffs))


def lp_convolve(a: FourierSymbol, n: int, gamma: int) -> FourierSymbol:
    """Multiply Fourier coefficients of ``a`` with the block-n profile."""
    profile = lp_block(n, gamma).profile
    return FourierSymbol(
        {k: a.coeffs[k] * profile.coeffs[k] for k in a.coeffs if k in profile.coeffs}
    )


def _norm_levels(a: FourierSymbol, gamma: int) -> Iterator[tuple[int, FourierSymbol]]:
    """(scale exponent |n|, block piece of ``a``) over levels meeting the band.

    Yields the hat blocks +-1..+-top, the mode-0 block and the two singleton
    levels at modes +-1 described in the module docstring.
    """
    if not a.coeffs:
        return
    if 0 in a.coeffs:
        yield 0, FourierSymbol({0: a.coeffs[0]})
    for k0 in (1, -1):
        if k0 in a.coeffs:
            yield 0, FourierSymbol({k0: a.coeffs[k0]})
    band = a.n_max
    top = 1
    while gamma ** (top - 1) < band:
        top += 1
    for absn in range(1, top + 1):
        for n in (absn, -absn):
            piece = lp_convolve(a, n, gamma)
            if piece.coeffs:
                yield absn, piece


def _grid_size(a: FourierSymbol, requested: int | None, minimum_factor: int = 8) -> int:
    auto = max(minimum_factor * max(a.n_max, 1), 16)
    if requested is None:
        return auto
    if requested < 4 * a.n_max:
        raise ParameterError(
            f"grid of {requested} angles is too coarse for band {a.n_max}"
        )
    return requested


def holder_norm_star(
    a: FourierSymbol, alpha: float, gamma: int, sup_angles: int | None = None
) -> float:
    """Grid estimate of sup_n gamma^(|n|*alpha) * max |block_n * a|.

    The supremum per level is taken over a dense uniform grid (default
    8 * n_max angles); band-limited inputs make that an honest estimator.
    """
    if gamma < 2:
        raise ParameterError(f"gamma must be >= 2, got {gamma}")
    grid = circle_grid(_grid_size(a, sup_angles, minimum_factor=8))
    best = 0.0
    for absn, piece in _norm_levels(a, gamma):
        value = gamma ** (absn * alpha) * float(np.max(np.abs(symbol_eval(piece, grid))))
        best = max(best, value)
    return best


def _lp_norm(piece: FourierSymbol, p, grid: np.ndarray) -> float:
    values = np.abs(symbol_eval(piece, grid))
    if p == INF:
        return float(np.max(values))
    # volume-1 circle: L^p is a plain grid mean
    return float(np.mean(values ** p) ** (1.0 / p))


def besov_norm(
    a: FourierSymbol,
    t: float,
    p,
    q,
    gamma: int,
    grid_angles: int | None = None,
) -> float:
    """Nested norm: l^q over levels of gamma^(|n|*t) * L^p of each block piece."""
    if gamma < 2:
        raise ParameterError(f"gamma must be >= 2, got {gamma}")
    p = _normalize_exponent(p)
    q = _normalize_exponent(q)
    grid = circle_grid(_grid_size(a, grid_angles, minimum_factor=8))
    per_level = [
        gamma ** (absn * t) * _lp_norm(piece, p, grid)
        for absn, piece in _norm_levels(a, gamma)
    ]
    if not per_level:
        return 0.0
    arr = np.asarray(per_level)
    if q == INF:
        return float(np.max(arr))
    return float(np.sum(arr**q) ** (1.0 / q))
