"""Clifford data, Dirac phases and truncated trace sums on twisted tori.

The gamma matrices follow a fixed Pauli tensor scheme, chosen so that in two
dimensions the Dirac phase of a lattice vector (identified with the complex
number k1 + i*k2) is the off-diagonal matrix [[0, k/|k|], [conj(k)/|k|, 0]]
and the grading is diag(1, -1).  The scheme makes every run bit-reproducible.

The twist form theta enters the truncated trace sums through unimodular
phase factors.  On a zero-sum tuple the accumulated phase is the discrete
symplectic area exp(i * sum_{j<l} theta(k_j, k_l)); it collapses to 1 for an
adjacent inverse pair (k = 2) but NOT in general: the tuple
(e1, e2, -e1, -e2) sums to zero while its ordered product is the group
commutator U1 U2 U1^-1 U2^-1, whose phase is the very thing that makes the
twisted torus noncommutative.  The phases are therefore evaluated honestly
and the truncated sums genuinely depend on the twist for three or more
factors (for a single zero-sum tuple class the dependence is one global
unimodular factor).

Note on the graded 2-d trace: for a three-factor product against the grading
and one Dirac phase, the spinor trace is purely imaginary.  The closed form
here returns the real coefficient tau with trace = i * tau, reduced to
integer cross products; the matrix route in the tests recomputes the trace
from explicit 2x2 products.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .closed_forms import TraceSequence
from .errors import ParameterError

__all__ = [
    "CliffordRep",
    "AntisymmetricForm",
    "ModeTuple",
    "LatticeSymbol",
    "clifford_rep",
    "dirac_phase",
    "phase_product_matrix",
    "graded_trace_2d",
    "twist_phase",
    "torus_trace_partial",
    "grading_dirac_coefficients",
    "dirac_coefficients",
    "identity_coefficients",
    "lattice_ball",
]

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class CliffordRep:
    """Hermitian unitary generators with gamma_i gamma_j + gamma_j gamma_i = 2 delta_ij."""

    n: int
    dim_s: int
    gammas: tuple[np.ndarray, ...]
    grading: np.ndarray | None  # chirality matrix, even n only


def _kron_chain(factors: Sequence[np.ndarray]) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def clifford_rep(n: int) -> CliffordRep:
    """Deterministic Pauli tensor construction for 1 <= n <= 8."""
    if not (1 <= n <= 8):
        raise ParameterError(f"torus dimension must lie in 1..8, got {n}")
    m = n // 2
    dim = 2**m
    eye = np.eye(2, dtype=complex)
    gammas: list[np.ndarray] = []
    for j in range(m):
        prefix = [_PAULI_Z] * j
        suffix = [eye] * (m - j - 1)
        gammas.append(_kron_chain(prefix + [_PAULI_X] + suffix))
        gammas.append(_kron_chain(prefix + [-_PAULI_Y] + suffix))
    if n % 2 == 1:
        gammas.append(_kron_chain([_PAULI_Z] * m))
    grading = None
    if n % 2 == 0 and n > 0:
        prod = np.eye(dim, dtype=complex)
        for g in gammas:
            prod = prod @ g
        grading = (1j**m) * prod
        grading = grading.copy()
        grading.setflags(write=False)
    frozen = []
    for g in gammas:
        g = g.copy()
        g.setflags(write=False)
        frozen.append(g)
    return CliffordRep(n=n, dim_s=dim, gammas=tuple(frozen), grading=grading)


def dirac_phase(rep: CliffordRep, k) -> np.ndarray:
    """c(k)/|k| for nonzero k, the zero matrix for k = 0; k of shape (..., n)."""
    vec = np.asarray(k, dtype=np.int64)
    if vec.ndim == 0 or vec.shape[-1] != rep.n:
        raise ParameterError(f"mode vector {k!r} does not have dimension {rep.n}")
    norm = np.sqrt(np.sum(vec * vec, axis=-1).astype(float))
    unit = vec / np.where(norm == 0.0, 1.0, norm)[..., None]
    return np.tensordot(unit, np.stack(rep.gammas), axes=1)


@dataclass(frozen=True)
class AntisymmetricForm:
    """Real antisymmetric n x n matrix acting as a bilinear form on modes."""

    theta: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.theta, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ParameterError("twist form must be a square matrix")
        if not np.array_equal(mat, -mat.T):
            raise ParameterError("twist form must be exactly antisymmetric")
        mat.setflags(write=False)
        object.__setattr__(self, "theta", mat)

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @classmethod
    def zero(cls, n: int) -> "AntisymmetricForm":
        return cls(np.zeros((n, n)))

    def pair(self, u, v) -> float:
        return float(np.asarray(u, dtype=float) @ self.theta @ np.asarray(v, dtype=float))


@dataclass(frozen=True)
class ModeTuple:
    """An ordered tuple of lattice modes plus the trailing reference mode.

    ``last`` is one mode or a (B, n) stack of reference modes; the suffix sums
    and the phase product then carry that leading axis of length B.
    """

    vectors: tuple[tuple[int, ...], ...]
    last: tuple[int, ...] | np.ndarray

    def __post_init__(self) -> None:
        vecs = tuple(tuple(int(c) for c in v) for v in self.vectors)
        last = np.asarray(self.last, dtype=np.int64)
        if last.ndim not in (1, 2) or {len(v) for v in vecs} - {last.shape[-1]}:
            raise ParameterError("all mode vectors must share one dimension")
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "last", tuple(last.tolist()) if last.ndim == 1 else last)

    @property
    def dim(self) -> int:
        return np.shape(self.last)[-1]

    @property
    def zero_sum(self) -> bool:
        return all(sum(v[i] for v in self.vectors) == 0 for i in range(self.dim))

    def suffix_sums(self) -> list[np.ndarray]:
        """s_j = vectors[j] + ... + vectors[-1] + last, for j = 0..len(vectors)."""
        sums = [np.asarray(self.last, dtype=np.int64)]
        for v in reversed(self.vectors):
            sums.append(sums[-1] + np.asarray(v, dtype=np.int64))
        return sums[::-1]


def phase_product_matrix(rep: CliffordRep, modes: ModeTuple) -> np.ndarray:
    """Ordered product of Dirac-phase differences along the suffix sums.

    Factor j is F(s_j) - F(s_{j+1}) where s_j runs over the suffix sums of
    the mode tuple; the product is taken left to right.  A stack of B
    reference modes gives a (B, dim_s, dim_s) stack of products.
    """
    if modes.dim != rep.n:
        raise ParameterError("mode tuple dimension does not match the representation")
    sums = modes.suffix_sums()
    out = np.eye(rep.dim_s, dtype=complex)
    for j in range(len(modes.vectors)):
        out = out @ (dirac_phase(rep, sums[j]) - dirac_phase(rep, sums[j + 1]))
    return out


def _cross(u: np.ndarray, v: np.ndarray) -> float:
    # convention: (k1, k2) x (k1', k2') = k2*k1' - k1*k2'
    return float(u[1] * v[0] - u[0] * v[1])


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(v @ v))


def graded_trace_2d(modes: ModeTuple) -> float:
    """Integer closed form of the graded spinor trace in two dimensions.

    For a zero-sum triple of modes and reference mode k4, returns the real
    tau with tr(grading * F(k4) * product) = i * tau, via cross products of
    the suffix sums; vanishing suffix sums (where the Dirac phase is the zero
    matrix) get their own reduced branches.
    """
    if np.ndim(modes.last) != 1:
        raise ParameterError("the closed form takes one reference mode, not a stack")
    if modes.dim != 2:
        raise ParameterError("closed form is specific to two dimensions")
    if len(modes.vectors) != 3:
        raise ParameterError("closed form needs exactly three mode factors")
    if not modes.zero_sum:
        raise ParameterError("mode tuple must sum to zero")
    k4 = np.asarray(modes.last, dtype=np.int64)
    sums = modes.suffix_sums()
    s2, s3 = sums[1], sums[2]
    k4_zero = not k4.any()
    s2_zero = not s2.any()
    s3_zero = not s3.any()
    if k4_zero or (s2_zero and s3_zero):
        return 0.0
    if s2_zero:
        return 2.0 * _cross(s3, k4) / (_norm(s3) * _norm(k4))
    if s3_zero:
        return 2.0 * _cross(k4, s2) / (_norm(k4) * _norm(s2))
    return 4.0 * (
        _cross(k4, s2) / (_norm(k4) * _norm(s2))
        + _cross(s2, s3) / (_norm(s2) * _norm(s3))
        + _cross(s3, k4) / (_norm(s3) * _norm(k4))
    )


def twist_phase(modes: ModeTuple, form: AntisymmetricForm) -> complex:
    """Product of the unimodular twist factors exp(i theta(k_j, s_{j+1})).

    For a zero-sum tuple this equals the symplectic-area phase
    exp(i sum_{j<l} theta(k_j, k_l)): 1 for an adjacent inverse pair, the
    group-commutator phase for longer tuples.
    """
    if np.ndim(modes.last) != 1:
        raise ParameterError("the twist phase takes one reference mode, not a stack")
    if form.n != modes.dim:
        raise ParameterError("twist form dimension does not match the modes")
    sums = modes.suffix_sums()
    angle = 0.0
    for j, v in enumerate(modes.vectors):
        angle += form.pair(v, sums[j + 1])
    return complex(math.cos(angle), math.sin(angle))


def _lattice_mode(key) -> tuple[int, ...]:
    """A lattice mode as a tuple of Python ints; a coordinate that is a bool,
    or not an int or numpy integer, is refused, not truncated."""
    if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in key):
        raise ParameterError(f"mode {key!r} has a coordinate that is not an integer")
    return tuple(int(c) for c in key)


@dataclass(frozen=True)
class LatticeSymbol:
    """Finitely supported coefficients on the integer lattice Z^n."""

    dim: int
    coeffs: dict[tuple[int, ...], complex]

    def __post_init__(self) -> None:
        cleaned: dict[tuple[int, ...], complex] = {}
        for key, value in self.coeffs.items():
            vec = _lattice_mode(key)
            if len(vec) != self.dim:
                raise ParameterError(f"mode {key!r} does not have dimension {self.dim}")
            cv = complex(value)
            if cv != 0:
                cleaned[vec] = cv
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def symmetric_pair(cls, vec: Sequence[int], amplitude: complex = 1.0) -> "LatticeSymbol":
        """Amplitude at +vec and -vec (a real combination for real amplitude)."""
        v = _lattice_mode(vec)
        neg = tuple(-c for c in v)
        return cls(len(v), {v: amplitude, neg: amplitude})

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.coeffs)


# The T maps take one mode (n,) or a stack (..., n) to (..., dim_s, dim_s) matrices.


def grading_dirac_coefficients(rep: CliffordRep) -> Callable[[np.ndarray], np.ndarray]:
    if rep.grading is None:
        raise ParameterError("grading coefficients need an even-dimensional torus")
    return lambda k: rep.grading @ dirac_phase(rep, k)


def dirac_coefficients(rep: CliffordRep) -> Callable[[np.ndarray], np.ndarray]:
    return lambda k: dirac_phase(rep, k)


def identity_coefficients(rep: CliffordRep) -> Callable[[np.ndarray], np.ndarray]:
    eye = np.eye(rep.dim_s, dtype=complex)
    return lambda k: np.broadcast_to(eye, np.shape(k)[:-1] + eye.shape)


def _iroot(x: int, n: int) -> int:
    """Largest r >= 0 with r**n <= x, by integer Newton steps down from above."""
    r = 1 << -(-x.bit_length() // n)
    while r**n > x:
        r = ((n - 1) * r + x // r ** (n - 1)) // n
    return r


def lattice_ball(n: int, n_trunc: int) -> np.ndarray:
    """Lattice vectors with |k| <= n_trunc^(1/n), boundary ties included.

    Returns a (B, n) int64 array ordered by (squared norm, lexicographic).
    The test |k|^2 <= q_max, q_max the integer n-th root of n_trunc^2, is
    the exact integer comparison (|k|^2)^n <= n_trunc^2.
    """
    if isinstance(n_trunc, bool) or not isinstance(n_trunc, (int, np.integer)) or n_trunc < 1:
        raise ParameterError(f"truncation must be an integer >= 1, got {n_trunc!r}")
    n_trunc = int(n_trunc)
    radius = _iroot(n_trunc, n)
    squares = np.square(np.arange(-radius, radius + 1, dtype=np.int64))
    q = sum(squares.reshape((-1,) + (1,) * (n - 1 - i)) for i in range(n))
    inside = np.flatnonzero(q <= _iroot(n_trunc * n_trunc, n))  # C order: lexicographic
    inside = inside[np.argsort(q.ravel()[inside], kind="stable")]
    return np.stack(np.unravel_index(inside, q.shape), axis=-1) - radius


# Matrix entries in one block's phase stack: a block of the ball holds
# _BLOCK_ENTRIES // dim_s^2 reference modes, so memory does not grow with N.
_BLOCK_ENTRIES = 1 << 18


def _check_symbols(rep: CliffordRep, symbols: Sequence[LatticeSymbol]) -> None:
    if not symbols:
        raise ParameterError("at least one symbol is required")
    if any(sym.dim != rep.n for sym in symbols):
        raise ParameterError("symbol dimension does not match the representation")


def _check_twist(rep: CliffordRep, form: AntisymmetricForm) -> None:
    if form.n != rep.n:
        raise ParameterError("twist form dimension does not match the representation")


def torus_trace_partial(
    rep: CliffordRep,
    t_coefficients: Callable[[np.ndarray], np.ndarray],
    symbols: Sequence[LatticeSymbol],
    n_trunc: int,
    twist: AntisymmetricForm | None = None,
) -> TraceSequence:
    """Truncated double sum for tr(T [F,a_1] ... [F,a_k]) divided by log(2+N).

    For each reference mode in the lattice ball of radius N^(1/n) and each
    zero-sum tuple drawn from the symbol supports, adds the coefficient
    product times the twist phase times the spinor trace of T(k_last) against
    the phase-difference product.  Returns the sequence over N = 1..n_trunc
    with complex values.  The twist phases are evaluated faithfully, so for
    three or more commutator factors the output depends on the twist form
    through the symplectic-area factors of the zero-sum tuples (see the
    module docstring); passing ``twist=None`` computes the untwisted sums.
    The ball is evaluated in blocks of reference modes, one (B, dim_s, dim_s)
    phase-product stack per zero-sum tuple and block.  No size is checked
    here: the NcTorus kind bounds the support tuples and the ball's cube.
    """
    return _torus_trace_partials(rep, t_coefficients, symbols, n_trunc, [twist])[0]


def _torus_trace_partials(
    rep: CliffordRep,
    t_coefficients: Callable[[np.ndarray], np.ndarray],
    symbols: Sequence[LatticeSymbol],
    n_trunc: int,
    twists: Sequence[AntisymmetricForm | None],
) -> list[TraceSequence]:
    """``torus_trace_partial`` for each twist of ``twists``, bit for bit, from
    one walk of the ball: the twist enters only as one weight per zero-sum
    tuple, so each tuple's spinor traces are formed once per block."""
    _check_symbols(rep, symbols)
    forms = [twist if twist is not None else AntisymmetricForm.zero(rep.n) for twist in twists]
    for form in forms:
        _check_twist(rep, form)

    supports = [sym.support() for sym in symbols]
    # theta(sum of a zero-sum tuple, K) = 0, so a tuple's twist phase is the
    # same for every reference mode K: take it once, at K = 0
    origin = (0,) * rep.n
    weighted = []
    for combo in itertools.product(*supports):
        if all(sum(v[i] for v in combo) == 0 for i in range(rep.n)):
            coeff = 1.0 + 0j
            for sym, v in zip(symbols, combo):
                coeff *= sym.coeffs[v]
            at_origin = ModeTuple(combo, origin)
            weighted.append((combo, [coeff * twist_phase(at_origin, form) for form in forms]))

    ball = lattice_ball(rep.n, n_trunc)
    sums = np.zeros((len(forms), len(ball)), dtype=complex)
    block = max(1, _BLOCK_ENTRIES // rep.dim_s**2)
    for start in range(0, len(ball), block):
        k_last = ball[start : start + block]
        t_matrices = t_coefficients(k_last)
        for combo, weights in weighted:
            product = phase_product_matrix(rep, ModeTuple(combo, k_last))
            trace = np.einsum("bij,bji->b", t_matrices, product)
            for acc, weight in zip(sums[:, start : start + block], weights):
                acc += weight * trace

    # N's ball is the leading run of points with (|k|^2)^n <= N^2; both sides
    # stay below the candidate count squared, far inside int64
    points = np.arange(1, n_trunc + 1, dtype=np.int64)
    norms = np.sum(ball * ball, axis=1) ** rep.n
    reach = np.searchsorted(norms, points * points, side="right")
    values = np.cumsum(sums, axis=1, out=sums)[:, reach - 1] / np.log(2.0 + points)
    return [TraceSequence(points, v, "tr(T [F,a_1]...[F,a_k])", "1/log(2+N)") for v in values]
