"""Sparse Fourier symbols on the unit circle.

A symbol is a finitely supported map from integer Fourier modes to complex
amplitudes, f(theta) = sum_k c_k exp(i*k*theta).  All inner products use the
volume-1 normalization of the circle, so the exponentials e_k form an
orthonormal family and sampling/quadrature averages carry no 2*pi factors.
Lacunary cosine symbols (amplitude g^(-a*n) at modes +-g^n) are the main
generator used throughout the package; their coefficient sequences are
described by small rule objects so experiment configs stay declarative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ParameterError

__all__ = [
    "FourierSymbol",
    "CoefficientRule",
    "WeierstrassParams",
    "constant_symbol",
    "mode_symbol",
    "cosine_symbol",
    "weierstrass_symbol",
    "circle_grid",
    "sample_to_symbol",
    "hardy_split",
    "symbol_eval",
    "symbol_to_json_obj",
    "symbol_from_json_obj",
]


@dataclass(frozen=True)
class FourierSymbol:
    """Finitely supported Fourier coefficients, stored without zero entries.

    ``real_valued`` is a construction-time promise that coeffs[-k] equals
    conj(coeffs[k]) for every mode; it is validated eagerly.
    """

    coeffs: dict[int, complex] = field(default_factory=dict)
    real_valued: bool = False

    def __post_init__(self) -> None:
        cleaned: dict[int, complex] = {}
        for k, v in self.coeffs.items():
            if not isinstance(k, (int, np.integer)):
                raise ParameterError(f"mode index {k!r} is not an integer")
            cv = complex(v)
            if not (math.isfinite(cv.real) and math.isfinite(cv.imag)):
                raise ParameterError(f"non-finite coefficient at mode {k}")
            if cv != 0:
                cleaned[int(k)] = cv
        object.__setattr__(self, "coeffs", cleaned)
        if self.real_valued:
            for k, v in cleaned.items():
                if cleaned.get(-k, 0j) != v.conjugate():
                    raise ParameterError(
                        "symbol flagged real-valued but coefficients are not "
                        f"conjugate-symmetric at mode {k}"
                    )

    @property
    def n_max(self) -> int:
        """Largest |k| carrying a nonzero coefficient (0 for the zero symbol)."""
        return max((abs(k) for k in self.coeffs), default=0)

    @property
    def modes(self) -> list[int]:
        return sorted(self.coeffs)

    def __getitem__(self, k: int) -> complex:
        return self.coeffs.get(k, 0j)

    def conjugate(self) -> "FourierSymbol":
        return FourierSymbol(
            {-k: v.conjugate() for k, v in self.coeffs.items()},
            real_valued=self.real_valued,
        )

    def __add__(self, other: "FourierSymbol") -> "FourierSymbol":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0j) + v
        return FourierSymbol(out)

    def __rmul__(self, scalar: complex) -> "FourierSymbol":
        return FourierSymbol({k: scalar * v for k, v in self.coeffs.items()})

    def pruned(self, tol: float) -> "FourierSymbol":
        """Drop coefficients with modulus <= tol."""
        return FourierSymbol(
            {k: v for k, v in self.coeffs.items() if abs(v) > tol},
            real_valued=self.real_valued,
        )

    def restricted(self, band: int) -> "FourierSymbol":
        """Keep only modes with |k| <= band."""
        return FourierSymbol({k: v for k, v in self.coeffs.items() if abs(k) <= band})


def constant_symbol(value: complex) -> FourierSymbol:
    return FourierSymbol({0: value}, real_valued=complex(value).imag == 0.0)


def mode_symbol(k: int, amplitude: complex = 1.0) -> FourierSymbol:
    return FourierSymbol({int(k): amplitude})


def cosine_symbol(k: int, amplitude: float = 1.0) -> FourierSymbol:
    """cos(k*theta) scaled by amplitude, i.e. amplitude/2 at modes +-k."""
    if k == 0:
        return constant_symbol(amplitude)
    half = amplitude / 2.0
    return FourierSymbol({int(k): half, -int(k): half}, real_valued=True)


_EXTENSIONS = ("constant", "periodic", "block-indicator", "sqrt-log-cos")


@dataclass(frozen=True)
class CoefficientRule:
    """Bounded real coefficient sequence: a finite head plus an extension rule.

    Extensions:
      constant        repeat the last head value (head required)
      periodic        cycle through the head (head required)
      block-indicator 1 outside the intervals [base^(2j), base^(2j+1)), 0 inside
      sqrt-log-cos    sqrt(2 + cos(log n)), with log clamped at n=1
    """

    head: tuple[float, ...] = ()
    extension: str = "constant"
    base: int | None = None

    def __post_init__(self) -> None:
        if self.extension not in _EXTENSIONS:
            raise ParameterError(f"unknown extension rule {self.extension!r}")
        object.__setattr__(self, "head", tuple(float(x) for x in self.head))
        if self.extension in ("constant", "periodic") and not self.head:
            raise ParameterError(f"extension {self.extension!r} needs a nonempty head")
        if self.extension == "block-indicator":
            if self.base is None or int(self.base) < 2:
                raise ParameterError("block-indicator rule needs an integer base >= 2")
            object.__setattr__(self, "base", int(self.base))
        if any(not math.isfinite(x) for x in self.head):
            raise ParameterError("coefficient head must be finite")

    @classmethod
    def constant(cls, value: float = 1.0) -> "CoefficientRule":
        return cls(head=(value,), extension="constant")

    @classmethod
    def from_head(cls, values: Sequence[float], extension: str = "constant") -> "CoefficientRule":
        return cls(head=tuple(values), extension=extension)

    @classmethod
    def block_indicator(cls, base: int) -> "CoefficientRule":
        return cls(extension="block-indicator", base=base)

    @classmethod
    def sqrt_log_cos(cls) -> "CoefficientRule":
        return cls(extension="sqrt-log-cos")

    def values(self, count: int) -> np.ndarray:
        """First ``count`` coefficients as a float array."""
        if count <= 0:
            return np.zeros(0)
        n_head = len(self.head)
        if self.extension == "constant":
            out = np.full(count, self.head[-1])
            out[: min(count, n_head)] = self.head[: min(count, n_head)]
            return out
        if self.extension == "periodic":
            reps = -(-count // n_head)
            return np.tile(np.asarray(self.head), reps)[:count]
        if self.extension == "block-indicator":
            out = np.ones(count)
            g = int(self.base)  # validated >= 2
            lo = 1  # g^(2j) for j = 0
            while lo < count:
                hi = lo * g
                out[lo : min(hi, count)] = 0.0
                lo *= g * g
            return out
        # sqrt-log-cos, formed in place
        out = np.arange(count, dtype=float)
        out[0] = 1.0
        np.log(out, out=out)
        np.cos(out, out=out)
        out += 2.0
        return np.sqrt(out, out=out)


@dataclass(frozen=True)
class WeierstrassParams:
    """Parameters of the lacunary cosine series with amplitudes gamma^(-alpha*n)*c_n."""

    alpha: float
    gamma: int
    c: CoefficientRule

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        if int(self.gamma) < 2 or int(self.gamma) != self.gamma:
            raise ParameterError(f"gamma must be an integer >= 2, got {self.gamma}")
        object.__setattr__(self, "gamma", int(self.gamma))


def weierstrass_symbol(params: WeierstrassParams, k_cutoff: int) -> FourierSymbol:
    """Symbol with coefficient gamma^(-alpha*n)*c_n at modes +-gamma^n, gamma^n <= k_cutoff."""
    if k_cutoff < 1:
        raise ParameterError("k_cutoff must be >= 1")
    powers = [1]
    while powers[-1] * params.gamma <= k_cutoff:
        powers.append(powers[-1] * params.gamma)
    coeffs: dict[int, complex] = {}
    for n, (power, cn) in enumerate(zip(powers, params.c.values(len(powers)))):
        amp = params.gamma ** (-params.alpha * n) * cn
        if amp != 0.0:
            coeffs[power] = complex(amp)
            coeffs[-power] = complex(amp)
    return FourierSymbol(coeffs, real_valued=True)


def symbol_eval(a: FourierSymbol, angles) -> np.ndarray:
    """Evaluate sum_k c_k exp(i*k*theta) at each angle."""
    theta = np.atleast_1d(np.asarray(angles, dtype=float))
    out = np.zeros(theta.shape, dtype=complex)
    for k, v in a.coeffs.items():
        out += v * np.exp(1j * k * theta)
    return out


def circle_grid(size: int) -> np.ndarray:
    """Uniform angular grid theta_j = 2*pi*j/size, j = 0..size-1."""
    return 2.0 * np.pi * np.arange(size) / size


def sample_to_symbol(samples, tol: float = 0.0) -> FourierSymbol:
    """Recover a symbol from values on a uniform power-of-two circle grid.

    Normalized so that sampling exp(i*k*theta) returns a unit coefficient at
    mode k; modes are folded to the symmetric range (-size/2, size/2].
    Coefficients with modulus <= tol are dropped.
    """
    arr = np.asarray(samples, dtype=complex)
    if arr.ndim != 1 or arr.size < 2:
        raise ParameterError("samples must be a 1-d array of length >= 2")
    size = arr.size
    if size & (size - 1):
        raise ParameterError(f"grid size {size} is not a power of two")
    spec = np.fft.fft(arr) / size
    coeffs: dict[int, complex] = {}
    half = size // 2
    for idx in range(size):
        k = idx if idx <= half else idx - size
        v = spec[idx]
        if abs(v) > tol:
            coeffs[k] = complex(v)
    return FourierSymbol(coeffs)


def hardy_split(a: FourierSymbol) -> tuple[FourierSymbol, FourierSymbol]:
    """Split into (modes k >= 0, modes k < 0); mode 0 goes to the first part.

    The two parts always sum back to the input exactly (disjoint supports).
    """
    plus = {k: v for k, v in a.coeffs.items() if k >= 0}
    minus = {k: v for k, v in a.coeffs.items() if k < 0}
    return FourierSymbol(plus), FourierSymbol(minus)


def symbol_to_json_obj(a: FourierSymbol) -> dict:
    """Interchange form {"modes": [[k, re, im], ...]} sorted by mode."""
    return {"modes": [[k, a.coeffs[k].real, a.coeffs[k].imag] for k in sorted(a.coeffs)]}


def symbol_from_json_obj(obj: Mapping) -> FourierSymbol:
    try:
        entries = list(obj["modes"])
    except (KeyError, TypeError):
        raise ParameterError('symbol JSON must be an object with a "modes" list')
    coeffs: dict[int, complex] = {}
    for entry in entries:
        try:
            k, re, im = entry
            mode = int(k)
            value = complex(float(re), float(im))
        except (TypeError, ValueError, OverflowError):
            raise ParameterError(f"malformed mode entry {entry!r}; expected [k, re, im]")
        if mode != k:
            raise ParameterError(f"mode {k!r} is not an integer")
        coeffs[mode] = value
    return FourierSymbol(coeffs)
