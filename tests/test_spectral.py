import tracemalloc

import numpy as np
import pytest

from circletrace import cli
from circletrace.cli import ExperimentConfig, run_experiment
from circletrace.errors import ParameterError
from circletrace.fourier import (
    CoefficientRule,
    FourierSymbol,
    WeierstrassParams,
    mode_symbol,
    weierstrass_symbol,
)
from circletrace.operators import (
    TruncatedOperator,
    antiholomorphic_basis,
    commutator_matrix,
    hankel_matrix,
    hardy_basis,
    hardy_compress,
    operator_product,
    szego_projection,
)
from circletrace.spectral import (
    SingularSpectrum,
    decay_slope,
    lacunary_hankel_spectrum,
    singular_values,
    weak_quasinorm,
)


def hardy_op(matrix):
    n = matrix.shape[0]
    return TruncatedOperator(matrix.astype(complex), hardy_basis(n), hardy_basis(n))


def test_rank_one_hankel_spectrum():
    mu = singular_values(hankel_matrix(mode_symbol(1), 8)).mu
    assert mu[0] == pytest.approx(1.0)
    assert np.all(mu[1:] < 1e-14)


def test_zero_matrix_spectrum():
    mu = singular_values(hardy_op(np.zeros((5, 5)))).mu
    assert np.all(mu == 0)


def test_weierstrass_hankel_weak_bound():
    w = weierstrass_symbol(
        WeierstrassParams(0.5, 2, CoefficientRule.constant(1.0)), 512
    )
    spectrum = singular_values(hankel_matrix(w, 256))
    # mu_k <= C (1+k)^(-1/2) with a reasonable constant
    assert weak_quasinorm(spectrum, 2.0) < 10.0


def test_quasinorm_exact_cases():
    k = np.arange(64, dtype=float)
    assert weak_quasinorm(SingularSpectrum(1.0 / (1.0 + k)), 1.0) == pytest.approx(1.0)
    one_hot = np.zeros(8)
    one_hot[0] = 1.0
    for p in (1.0, 2.0, 5.0):
        assert weak_quasinorm(SingularSpectrum(one_hot), p) == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        weak_quasinorm(SingularSpectrum(one_hot), 0.5)


def test_quasinorm_monotone_in_p():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = np.sort(rng.uniform(0, 1, 32))[::-1]
        mu = mu / mu[0]
        spec = SingularSpectrum(mu)
        values = [weak_quasinorm(spec, p) for p in (1.0, 1.5, 2.0, 4.0, 8.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_decay_slope_exact_power_laws():
    k = np.arange(1, 4097, dtype=float)
    mu = np.concatenate([[2.0], k ** (-0.5)])[:4096]
    slope = decay_slope(SingularSpectrum(mu), 64, 4096)
    assert slope == pytest.approx(-0.5, abs=5e-3)
    mu = 3.0 * np.arange(1, 1025, dtype=float) ** (-0.7)
    mu = np.concatenate([[mu[0]], mu])[:1024]
    spec = SingularSpectrum(np.sort(mu)[::-1])
    assert decay_slope(spec, 1, 1024) == pytest.approx(-0.7, abs=1e-10)


def test_decay_slope_dense_agrees_on_power_law():
    # mu_k = k^(-0.7) exactly in the index: sampling strategy cannot matter
    mu = np.concatenate([[2.0], np.arange(1, 256, dtype=float) ** (-0.7)])
    spec = SingularSpectrum(mu)
    ks = np.arange(4, 256, dtype=float)
    dense, _ = np.polyfit(np.log(ks), np.log(mu[4:256]), 1)
    assert decay_slope(spec, 4, 256) == pytest.approx(dense, abs=1e-12)
    assert dense == pytest.approx(-0.7, abs=1e-12)


def test_decay_slope_rejects_bad_windows():
    spec = SingularSpectrum(np.ones(16))
    with pytest.raises(ParameterError):
        decay_slope(spec, 0, 8)
    with pytest.raises(ParameterError):
        decay_slope(spec, 4, 32)
    with pytest.raises(ParameterError, match=r"window \[8, 9\) holds one index"):
        decay_slope(spec, 8, 9)  # a line through one point has no determined slope
    zeros = SingularSpectrum(np.concatenate([np.ones(4), np.zeros(4)]))
    with pytest.raises(ParameterError):
        decay_slope(zeros, 1, 8)


def test_rank_one_negative_square():
    h = hankel_matrix(mode_symbol(1), 6)
    square = hardy_op(-h.matrix @ h.matrix.conj().T)
    mu = singular_values(square).mu
    assert mu[0] == pytest.approx(1.0)
    assert np.all(mu[1:] < 1e-14)


def test_hardy_product_self_adjoint_for_real_symbol():
    w = weierstrass_symbol(WeierstrassParams(0.5, 2, CoefficientRule.constant(1.0)), 16)
    n = 32
    prod = operator_product(
        [szego_projection(n), commutator_matrix(w, n), commutator_matrix(w, n)]
    )
    block = hardy_compress(prod, n)
    defect = np.max(np.abs(block.matrix - block.matrix.conj().T))
    assert defect < 1e-12


def test_singular_values_invariant_under_basis_rotation():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    perm = rng.permutation(12)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 12))
    rotated = (np.diag(phases) @ mat[perm])[:, perm]
    mu1 = singular_values(hardy_op(mat)).mu
    mu2 = singular_values(hardy_op(rotated)).mu
    assert np.allclose(mu1, mu2, atol=1e-10)


def test_self_adjoint_moduli_match_singular_values():
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    herm = hardy_op((mat + mat.conj().T) / 2)
    eigs = np.linalg.eigvalsh(herm.matrix)
    mu = singular_values(herm).mu
    assert np.allclose(np.sort(np.abs(eigs))[::-1], mu, atol=1e-10)


def test_decay_slope_zero_window_names_the_rank():
    rank_three = SingularSpectrum(np.concatenate([[3.0, 2.0, 1.0], np.zeros(13)]))
    with pytest.raises(ParameterError, match=r"numerical rank 3\b"):
        decay_slope(rank_three, 1, 8)
    assert decay_slope(rank_three, 1, 3) < 0


# singular_values picks its route (trim exact zeros, eigvalsh for an exactly
# Hermitian block, SVD otherwise); every route must match the dense SVD of
# the whole matrix to 1e-13 * mu_0 and pad with exact zeros.
def _real_hankel(n):
    w = weierstrass_symbol(WeierstrassParams(0.5, 2, CoefficientRule.constant(1.0)), 2 * n)
    return hankel_matrix(w, n)


def _complex_symmetric_hankel(n):
    rng = np.random.default_rng(4)
    coeffs = {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(1, 2 * n)}
    return hankel_matrix(FourierSymbol(coeffs), n)


def _complex_hermitian(n):
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hardy_op(mat + mat.conj().T)


def _low_rank_hankel(n):
    # degree-24 trig polynomial: only the leading 24 x 24 block is nonzero
    rng = np.random.default_rng(7)
    return hankel_matrix(FourierSymbol({k: rng.uniform(0.3, 1.0) for k in range(-24, 25)}), n)


def _real_op(mat):
    m, n = mat.shape
    return TruncatedOperator(mat, hardy_basis(m), antiholomorphic_basis(n))


def _zero_rows(m, n):
    mat = np.random.default_rng(8).standard_normal((m, n))
    mat[::3] = 0.0  # zero rows, no zero column
    return _real_op(mat)


ORACLE_CASES = {
    "real symmetric Hankel": lambda: _real_hankel(256),
    "complex Hermitian": lambda: _complex_hermitian(96),
    "complex symmetric Hankel": lambda: _complex_symmetric_hankel(128),
    "real non-symmetric": lambda: _real_op(np.random.default_rng(6).standard_normal((80, 80))),
    "low-rank Hankel": lambda: _low_rank_hankel(256),
    "wide, zero rows": lambda: _zero_rows(30, 50),
    "tall, zero rows": lambda: _zero_rows(60, 20),
    "all zero": lambda: _real_op(np.zeros((7, 9))),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_singular_values_match_dense_svd(case):
    op = ORACLE_CASES[case]()
    mu = singular_values(op).mu
    oracle = np.linalg.svd(op.matrix, compute_uv=False)
    assert mu.shape == (min(op.shape),)
    assert np.max(np.abs(mu - oracle)) <= 1e-13 * oracle[0]
    rows, cols = op.matrix.any(axis=1).sum(), op.matrix.any(axis=0).sum()
    assert np.all(mu[min(rows, cols):] == 0.0)


def _trig_poly(degree, real, seed=0):
    rng = np.random.default_rng(seed)
    parts = lambda: (rng.uniform(0.3, 1.0), 0.0 if real else rng.uniform(-1.0, 1.0))
    return FourierSymbol({k: complex(*parts()) for k in range(-degree, degree + 1)})


@pytest.mark.parametrize("degree, n", [(24, 1024), (5, 64), (70, 64), (3, 3), (2, 1)])
@pytest.mark.parametrize("real", [True, False])
def test_hankel_spectrum_equals_the_whole_block_route(degree, n, real):
    # the whole N x N block held as a caller's matrix is the route before
    # Hankel blocks kept only their top x top corner
    op = hankel_matrix(_trig_poly(degree, real), n)
    whole = TruncatedOperator(op.matrix, hardy_basis(n), antiholomorphic_basis(n))
    mu, whole_mu = singular_values(op).mu, singular_values(whole).mu
    assert mu.tobytes() == whole_mu.tobytes()


def test_trig_hankel_spectrum_holds_no_whole_block():
    # the 1024 x 1024 complex block would hold 16 MiB
    a = _trig_poly(24, real=False)
    singular_values(hankel_matrix(a, 1024))
    tracemalloc.start()
    try:
        singular_values(hankel_matrix(a, 1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_operator_dtype_follows_its_entries():
    assert _real_op(np.eye(3, dtype=int)).matrix.dtype == np.float64
    assert _real_hankel(16).matrix.dtype == np.float64
    assert _low_rank_hankel(16).matrix.dtype == np.float64
    assert _complex_symmetric_hankel(16).matrix.dtype == np.complex128


LACUNARY_RULES = {
    "constant": CoefficientRule.constant(1.0),
    "block-indicator:2": CoefficientRule.block_indicator(2),
    "sqrt-log-cos": CoefficientRule.sqrt_log_cos(),
    "periodic, negative head": CoefficientRule.from_head((-1.5, 0.5, 2.0), "periodic"),
}


def _closed_vs_dense(gamma, n, rule, alpha):
    a = weierstrass_symbol(WeierstrassParams(alpha, gamma, LACUNARY_RULES[rule]), 2 * n)
    dense = singular_values(hankel_matrix(a, n)).mu
    closed = lacunary_hankel_spectrum(a, gamma, n).mu
    assert closed.shape == (n,)
    assert np.max(np.abs(closed - dense)) <= 1e-13 * dense[0]
    assert np.count_nonzero(closed == 0.0) == np.count_nonzero(dense == 0.0)


# Every rule and alpha at each N = gamma^m <= 1024 and at the gap-free N = 1000
# and 1024 for gamma = 3 (no power of 3 in (N, 2N)); above 1024 the dense
# oracle costs seconds, so each larger N = gamma^m takes one rule and alpha.
@pytest.mark.parametrize(
    "gamma, n",
    [(g, g**m) for g in (2, 3, 5) for m in range(11) if g**m <= 1024] + [(3, 1000), (3, 1024)],
)
def test_lacunary_spectrum_matches_dense_route(gamma, n):
    for rule in LACUNARY_RULES:
        for alpha in (0.3, 0.5, 0.7):
            _closed_vs_dense(gamma, n, rule, alpha)


@pytest.mark.parametrize(
    "gamma, n, rule, alpha",
    [
        (2, 2048, "constant", 0.3),
        (3, 2187, "periodic, negative head", 0.5),
        (5, 3125, "sqrt-log-cos", 0.7),
        (2, 4096, "block-indicator:2", 0.5),
    ],
)
def test_lacunary_spectrum_matches_dense_route_up_to_4096(gamma, n, rule, alpha):
    _closed_vs_dense(gamma, n, rule, alpha)


def test_lacunary_spectrum_ignores_modes_outside_the_block():
    # modes <= 0 and >= 2N never enter H_N = [a_{l+i+1}]
    a = FourierSymbol({-3: 1.0, 0: 5.0, 1: 2.0, 4: -1.0, 8: 7.0, 9: 1j})
    closed = lacunary_hankel_spectrum(a, 2, 4).mu
    assert np.max(np.abs(closed - singular_values(hankel_matrix(a, 4)).mu)) <= 1e-13 * closed[0]


def test_lacunary_spectrum_frobenius_identity_at_2_to_20():
    n = 2**20
    a = weierstrass_symbol(WeierstrassParams(0.5, 2, CoefficientRule.constant(1.0)), 2 * n)
    mu = lacunary_hankel_spectrum(a, 2, n).mu
    frobenius = sum(min(k, 2 * n - k) * abs(v) ** 2 for k, v in a.coeffs.items() if 1 <= k < 2 * n)
    assert mu.shape == (n,)
    assert abs(np.sum(mu**2) - frobenius) <= 1e-12 * frobenius


@pytest.mark.parametrize(
    "a, gamma, n",
    [
        (weierstrass_symbol(WeierstrassParams(0.5, 2, LACUNARY_RULES["constant"]), 2000), 2, 1000),
        (FourierSymbol({1: 1.0, 3: 1.0}), 2, 4),  # 3 is not a power of 2
        (FourierSymbol({1: 1.0, 2: 0.5j}), 2, 4),  # a complex level
        (FourierSymbol({1: 1.0}), 1, 4),
        (FourierSymbol({1: 1.0}), 2, 0),
    ],
    ids=["power in (N, 2N)", "not a power", "complex", "gamma 1", "N 0"],
)
def test_lacunary_spectrum_rejects_other_symbols(a, gamma, n):
    with pytest.raises(ParameterError):
        lacunary_hankel_spectrum(a, gamma, n)


@pytest.mark.parametrize("n, dense", [(2048, False), (1000, True)])
def test_singular_sweep_builds_a_matrix_only_off_the_closed_form(n, dense, monkeypatch):
    sizes = []

    def counted(a, size):
        sizes.append(size)
        return hankel_matrix(a, size)

    monkeypatch.setattr(cli, "hankel_matrix", counted)
    run_experiment(ExperimentConfig("SingularValueSweep", {"alpha": 0.5, "gamma": 2, "N": n}))
    assert sizes == ([n] if dense else [])
