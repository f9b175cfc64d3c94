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
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ParameterError

__all__ = [
    "FourierSymbol",
    "CoefficientRule",
    "WeierstrassParams",
    "constant_symbol",
    "mode_symbol",
    "weierstrass_symbol",
    "gamma_powers",
    "circle_grid",
    "sample_to_symbol",
    "hardy_split",
    "symbol_eval",
    "symbol_from_json_obj",
]


@dataclass(frozen=True)
class FourierSymbol:
    """Finitely supported Fourier coefficients, stored without zero entries."""

    coeffs: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned: dict[int, complex] = {}
        for k, v in self.coeffs.items():
            if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
                raise ParameterError(f"mode index {k!r} is not an integer")
            cv = complex(v)
            if not (math.isfinite(cv.real) and math.isfinite(cv.imag)):
                raise ParameterError(f"non-finite coefficient at mode {k}")
            if cv != 0:
                cleaned[int(k)] = cv
        object.__setattr__(self, "coeffs", cleaned)

    @property
    def n_max(self) -> int:
        """Largest |k| carrying a nonzero coefficient (0 for the zero symbol)."""
        return max((abs(k) for k in self.coeffs), default=0)

    def __getitem__(self, k: int) -> complex:
        return self.coeffs.get(k, 0j)

    def pruned(self, tol: float) -> "FourierSymbol":
        """Drop coefficients with modulus <= tol."""
        return FourierSymbol({k: v for k, v in self.coeffs.items() if abs(v) > tol})

    def restricted(self, band: int) -> "FourierSymbol":
        """Keep only modes with |k| <= band."""
        return FourierSymbol({k: v for k, v in self.coeffs.items() if abs(k) <= band})


def constant_symbol(value: complex) -> FourierSymbol:
    return FourierSymbol({0: value})


def mode_symbol(k: int, amplitude: complex = 1.0) -> FourierSymbol:
    return FourierSymbol({int(k): amplitude})


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
            if self.base is None:
                raise ParameterError("block-indicator rule needs an integer base >= 2")
            object.__setattr__(self, "base", _integer_from_two(self.base, "gamma"))
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
            for lo in gamma_powers(self.base, count - 1)[::2]:  # base^(2j)
                out[lo : lo * self.base] = 0.0
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
        object.__setattr__(self, "gamma", _integer_from_two(self.gamma, "gamma"))


def _integer_from_two(value, name: str) -> int:
    """``value`` as an int where it is an integer >= 2 of any numeric type;
    a bool (0 or 1), nan, inf or any other value is a ParameterError."""
    try:
        if int(value) == value and value >= 2:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # nan, inf, not a number
        pass
    raise ParameterError(f"{name} must be an integer >= 2, got {value}")


def gamma_powers(gamma: int, limit: int) -> list[int]:
    """The lacunary levels 1, gamma, gamma^2, ... that are at most ``limit``
    (none when ``limit`` < 1), as exact integers; gamma must be an integer >= 2."""
    step = _integer_from_two(gamma, "gamma")
    powers, power = [], 1
    while power <= limit:
        powers.append(power)
        power *= step
    return powers


def weierstrass_symbol(params: WeierstrassParams, k_cutoff: int) -> FourierSymbol:
    """Symbol with coefficient gamma^(-alpha*n)*c_n at modes +-gamma^n, gamma^n <= k_cutoff."""
    if k_cutoff < 1:
        raise ParameterError("k_cutoff must be >= 1")
    powers = gamma_powers(params.gamma, k_cutoff)
    coeffs: dict[int, complex] = {}
    for n, (power, cn) in enumerate(zip(powers, params.c.values(len(powers)))):
        # gamma^0 is 1.0 without turning gamma, which may pass the float range, to a float
        amp = (params.gamma ** (-params.alpha * n) if n else 1.0) * cn
        if amp != 0.0:
            coeffs[power] = complex(amp)
            coeffs[-power] = complex(amp)
    return FourierSymbol(coeffs)


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


def sample_to_symbol(samples) -> FourierSymbol:
    """Recover a symbol from values on a uniform power-of-two circle grid.

    Normalized so that sampling exp(i*k*theta) returns a unit coefficient at
    mode k; modes are folded to the symmetric range (-size/2, size/2].
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
        coeffs[idx if idx <= half else idx - size] = complex(spec[idx])
    return FourierSymbol(coeffs)


def hardy_split(a: FourierSymbol) -> tuple[FourierSymbol, FourierSymbol]:
    """Split into (modes k >= 0, modes k < 0); mode 0 goes to the first part.

    The two parts always sum back to the input exactly (disjoint supports).
    """
    plus = {k: v for k, v in a.coeffs.items() if k >= 0}
    minus = {k: v for k, v in a.coeffs.items() if k < 0}
    return FourierSymbol(plus), FourierSymbol(minus)


def symbol_from_json_obj(obj: Mapping) -> FourierSymbol:
    try:
        entries = list(obj["modes"])
    except (KeyError, TypeError):
        raise ParameterError('symbol JSON must be an object with a "modes" list')
    return FourierSymbol(_mode_coeffs(entries, _integer_mode))


def _integer_mode(k) -> int:
    """``k`` as an int, where it is an integer (an integral float too) and not a bool."""
    if isinstance(k, bool) or int(k) != k:
        raise ValueError(k)
    return int(k)


def _mode_coeffs(entries, mode: Callable) -> dict:
    """{mode(k): re + i*im} over the [k, re, im] entries; ``mode`` reads k,
    and re and im are numbers or their string forms, never booleans."""
    coeffs = {}
    for entry in entries:
        try:
            k, re, im = entry
            if isinstance(re, bool) or isinstance(im, bool):
                raise TypeError("a boolean is not a coefficient")
            coeffs[mode(k)] = complex(float(re), float(im))
        except (TypeError, ValueError, ArithmeticError):  # ParameterError too
            raise ParameterError(f"malformed mode entry {entry!r}; expected [k, re, im]")
    return coeffs
