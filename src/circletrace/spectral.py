"""Singular values, Hermitian spectra, weak-Schatten quasinorms, decay fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SpectralError
from .fourier import FourierSymbol
from .operators import TruncatedOperator

__all__ = [
    "SingularSpectrum",
    "singular_values",
    "lacunary_hankel_spectrum",
    "weak_quasinorm",
    "decay_slope",
    "hermitian_eigenvalues",
]


@dataclass(frozen=True)
class SingularSpectrum:
    """Nonincreasing nonnegative singular values mu_k, k from 0."""

    mu: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.mu, dtype=float)
        if arr.ndim != 1:
            raise ParameterError("singular spectrum must be 1-d")
        if arr.size and (np.any(arr < 0) or not np.all(np.isfinite(arr))):
            raise ParameterError("singular values must be finite and nonnegative")
        if np.any(np.diff(arr) > 0):
            arr = np.sort(arr)[::-1].copy()
        arr.setflags(write=False)
        object.__setattr__(self, "mu", arr)

    def __len__(self) -> int:
        return self.mu.size


def singular_values(op: TruncatedOperator) -> SingularSpectrum:
    """All min(m, n) singular values, by a route read off the operator's block.

    1. Rows and columns outside the block or exactly zero in it are dropped;
       each contributes an exact zero, kept as zero padding at the end of mu.
    2. A square, exactly Hermitian remaining block (``B == B^H`` entrywise,
       e.g. a real Hankel H[l, i] = a_{l+i+1}) gives mu = |eigvalsh(B)|.
    3. Any other block takes the dense SVD.

    Routes 1 and 2 agree with the dense SVD of the whole matrix to within
    1e-13 * mu_0 (tested).  Decomposition failure raises, never returns zeros.
    """
    mat = op.block
    rows, cols = mat.any(axis=1), mat.any(axis=0)
    if not (rows.all() and cols.all()):
        mat = mat[np.ix_(rows, cols)]
    try:
        if mat.shape[0] == mat.shape[1] and np.array_equal(mat, mat.conj().T):
            block_mu = np.sort(np.abs(np.linalg.eigvalsh(mat)))[::-1]
        else:
            block_mu = np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"singular value computation failed: {exc}") from exc
    mu = np.zeros(min(op.shape))
    mu[: block_mu.size] = block_mu
    return SingularSpectrum(mu)


def lacunary_hankel_spectrum(a: FourierSymbol, gamma: int, n: int) -> SingularSpectrum:
    """Singular values of ``hankel_matrix(a, n)`` in closed form, with no matrix.

    Applies when every mode of ``a`` in [1, 2n) is a power of ``gamma`` at
    most n with a real coefficient; otherwise ParameterError.  With
    c_j = a_{gamma^j} and P = gamma^m the largest power at most n, the block
    is H_P (+) 0, and H_{gamma^j} = c_j J + (H_{gamma^(j-1)} (+) 0) with J the
    exchange matrix.  J swaps the top and bottom gamma^(j-1) indices and
    reflects the middle ones, so each singular value mu of the smaller block
    gives big = (mu + hypot(mu, 2 c_j)) / 2 and small = c_j^2 / big (0 when
    big = 0), and the middle adds |c_j| gamma^j - 2 gamma^(j-1) times.  From
    H_1 = [c_0] that is O(n) work and one sort; it agrees with the dense route
    to within 1e-13 * mu_0, with the same exact zeros (tested).
    """
    if n < 1:
        raise ParameterError("truncation size must be >= 1")
    if int(gamma) != gamma or gamma < 2:
        raise ParameterError(f"gamma must be an integer >= 2, got {gamma}")
    gamma = int(gamma)
    powers = [1]
    while powers[-1] * gamma <= n:
        powers.append(powers[-1] * gamma)
    for k, v in a.coeffs.items():
        if not 1 <= k < 2 * n:
            continue
        if k > n:
            raise ParameterError(
                f"mode {k} lies in (N, 2N) for N = {n}: H_N is not H_P (+) 0 with P <= N"
            )
        if k not in powers or v.imag != 0.0:
            raise ParameterError(f"mode {k} is not a real level of a lacunary symbol at {gamma}")
    mu = np.array([abs(a[1].real)])
    for power in powers[1:]:
        c = abs(a[power].real)
        big = (mu + np.hypot(mu, 2.0 * c)) / 2.0
        small = c * np.divide(c, big, out=np.zeros_like(big), where=big > 0)
        mu = np.concatenate([big, small, np.full(power - 2 * mu.size, c)])
    out = np.zeros(n)
    out[: mu.size] = np.sort(mu)[::-1]
    return SingularSpectrum(out)


def weak_quasinorm(spectrum: SingularSpectrum, p: float) -> float:
    """sup_k (1+k)^(1/p) * mu_k over the truncated spectrum."""
    if p < 1:
        raise ParameterError(f"weak Schatten exponent must be >= 1, got {p}")
    if len(spectrum) == 0:
        return 0.0
    k = np.arange(len(spectrum), dtype=float)
    return float(np.max((1.0 + k) ** (1.0 / p) * spectrum.mu))


def decay_slope(
    spectrum: SingularSpectrum, k_lo: int, k_hi: int, samples: int = 64
) -> float:
    """Least-squares slope of log mu_k against log k for k in [k_lo, k_hi).

    The fit points are log-uniformly subsampled (up to ``samples`` indices)
    so that the plateaus of lacunary spectra enter with equal weight per
    octave instead of per index; ``samples=0`` fits every index densely.
    Exact power laws give the same slope either way.
    """
    if not (1 <= k_lo < k_hi <= len(spectrum)):
        raise ParameterError(
            f"window [{k_lo}, {k_hi}) out of range for spectrum of length {len(spectrum)}"
        )
    if k_hi - k_lo < 2:
        raise ParameterError(f"window [{k_lo}, {k_hi}) holds one index; a slope needs two")
    window = spectrum.mu[k_lo:k_hi]
    if np.any(window <= 0):
        rank = int(np.count_nonzero(spectrum.mu > 0))
        raise ParameterError(
            f"zero singular values inside the fit window [{k_lo}, {k_hi}): the spectrum "
            f"has numerical rank {rank} (count of mu_k > 0), so k_hi must be at most {rank}"
        )
    if samples:
        ks = np.unique(
            np.round(
                np.exp(np.linspace(np.log(k_lo), np.log(k_hi - 1), samples))
            ).astype(int)
        )
        ks = ks[(ks >= k_lo) & (ks < k_hi)]
    else:
        ks = np.arange(k_lo, k_hi)
    slope, _ = np.polyfit(np.log(ks.astype(float)), np.log(spectrum.mu[ks]), 1)
    return float(slope)


def hermitian_eigenvalues(
    op: TruncatedOperator, use_hermitian_part: bool = False, tol: float = 1e-10
) -> np.ndarray:
    """Real eigenvalues sorted by decreasing modulus, positive first on ties.

    The input must be Hermitian to within ``tol`` entrywise unless
    ``use_hermitian_part`` asks for the eigenvalues of (G + G^H)/2.
    """
    if op.row_basis != op.col_basis:
        raise ParameterError("eigenvalues need identical row and column bases")
    mat = op.matrix
    defect = float(np.max(np.abs(mat - mat.conj().T), initial=0.0))
    if use_hermitian_part:
        mat = (mat + mat.conj().T) / 2.0
    elif defect > tol:
        raise ParameterError(
            f"matrix is not Hermitian (defect {defect:.3e}); "
            "pass use_hermitian_part=True for the symmetrized spectrum"
        )
    try:
        eigs = np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigenvalue decomposition failed: {exc}") from exc
    order = np.lexsort((-eigs, -np.abs(eigs)))
    return eigs[order]
