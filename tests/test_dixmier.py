"""Residue sequences, averaging transforms and the limit classifier.

The non-measurable families used here are the characteristic function of the
complement of the union of intervals [4^j, 2*4^j) and sqrt(2 + cos(log n));
both make the Cesaro means of the squared coefficients oscillate between two
clusters, which is precisely what the classifier must detect.
"""

import math

import numpy as np
import pytest

from circletrace.dixmier import (
    ClassifyPolicy,
    VerdictKind,
    _window_bounds,
    cesaro_mean,
    classify_limit,
    log_extrapolate,
    log_mean_transform,
    residue_sequence,
)
from circletrace.errors import ParameterError
from circletrace.fourier import CoefficientRule, FourierSymbol
from circletrace.closed_forms import fourier_side_trace
from circletrace.operators import (
    TruncatedOperator,
    commutator_matrix,
    hardy_basis,
    hardy_compress,
    operator_product,
    szego_projection,
)


def hardy_diag(values):
    n = len(values)
    return TruncatedOperator(
        np.diag(np.asarray(values, dtype=float)), hardy_basis(n), hardy_basis(n)
    )


def test_residue_of_reciprocal_diagonal_matches_harmonic_numbers():
    n = 10**4 + 1
    res = residue_sequence(hardy_diag(1.0 / np.arange(1, n + 1)))
    harmonic = np.cumsum(1.0 / np.arange(1, n + 1))
    expected = harmonic / np.log(np.arange(n) + 2.0)
    assert np.max(np.abs(res.values - expected)) < 1e-12
    assert 1.05 < res.values[10**4 - 1].real < 1.07  # slow drift toward 1


def test_residue_of_zero_operator():
    res = residue_sequence(hardy_diag(np.zeros(16)))
    assert not res.values.any()


def test_residue_reports_both_normalizations():
    res = residue_sequence(hardy_diag(np.ones(16)))
    with_log_n = res.values_log_n()
    assert np.all(np.isnan(with_log_n[:2]))
    n = np.arange(2, 16, dtype=float)
    assert np.allclose(with_log_n[2:], res.partial_sums[2:] / np.log(n), atol=1e-14)


def test_residue_rejects_mismatched_bases():
    from circletrace.operators import antiholomorphic_basis

    op = TruncatedOperator(
        np.eye(3, dtype=complex), hardy_basis(3), hardy_basis(3)
    )
    residue_sequence(op)
    bad = TruncatedOperator(
        np.eye(3, dtype=complex), antiholomorphic_basis(3), antiholomorphic_basis(3)
    )
    with pytest.raises(ParameterError):
        residue_sequence(bad)


def test_residue_linearity_exact():
    rng = np.random.default_rng(0)
    g = hardy_diag(rng.standard_normal(32))
    h = hardy_diag(rng.standard_normal(32))
    combo = TruncatedOperator(
        2.0 * g.matrix + 3.0 * h.matrix, hardy_basis(32), hardy_basis(32)
    )
    lhs = residue_sequence(combo).values
    rhs = 2.0 * residue_sequence(g).values + 3.0 * residue_sequence(h).values
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-13)


def test_residue_of_commutator_product_matches_fourier_side():
    rng = np.random.default_rng(1)
    degree, n = 8, 64
    coeffs = {
        k: complex(rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        for k in range(-degree, degree + 1)
    }
    a = FourierSymbol(coeffs)
    b = FourierSymbol({k: v.conjugate() for k, v in coeffs.items()})
    prod = operator_product(
        [szego_projection(n), commutator_matrix(a, n), commutator_matrix(b, n)]
    )
    res = residue_sequence(hardy_compress(prod, n))
    fs = fourier_side_trace(a, b, n)
    # raw partial sums agree (sign flipped) once every mode is inside both cutoffs
    for m in range(degree, n - degree):
        raw_res = res.partial_sums[m]
        raw_fourier = fs.values[m - 2] * math.log(m)
        assert abs(raw_res + raw_fourier) < 1e-10


def test_factor_two_between_full_and_compressed_products():
    # the full-line product [P,a][P,b] carries the compressed Hardy block
    # twice (once per half line); at finite truncation the two residue
    # normalizations differ by log(2M)/log(M), so the ratio is reported
    # against a loose band rather than asserted tight
    from circletrace.fourier import CoefficientRule, WeierstrassParams, weierstrass_symbol
    from circletrace.operators import operator_product

    w = weierstrass_symbol(WeierstrassParams(0.5, 2, CoefficientRule.constant(1.0)), 64)
    n = 128
    full = operator_product([commutator_matrix(w, n), commutator_matrix(w, n)])
    res_full = residue_sequence(full)
    compressed = hardy_compress(
        operator_product(
            [szego_projection(n), commutator_matrix(w, n), commutator_matrix(w, n)]
        ),
        n,
    )
    res_comp = residue_sequence(compressed)
    m = n // 2
    ratio = res_full.values[2 * m].real / res_comp.values[m].real
    expected = 2.0 * math.log(m + 2) / math.log(2 * m + 2)
    print(f"full/compressed residue ratio at M={m}: {ratio:.4f} (log-corrected 2: {expected:.4f})")
    assert 1.5 < ratio < 2.1
    assert abs(ratio - expected) < 0.2


def test_cesaro_examples():
    assert np.array_equal(cesaro_mean(np.ones(8)), np.ones(8))
    alternating = cesaro_mean(np.tile([1.0, 0.0], 1 << 12))
    assert alternating[-1] == pytest.approx(0.5, abs=1e-3)


def test_cesaro_mean_divides_by_blocks_and_keeps_its_argument():
    x = np.random.default_rng(6).standard_normal(3 * (1 << 14) + 5)  # several count blocks
    kept = x.copy()
    expected = np.cumsum(x) / np.arange(1, x.size + 1)
    assert cesaro_mean(x).tobytes() == expected.tobytes()
    assert x.tobytes() == kept.tobytes()
    assert cesaro_mean(np.zeros(0)).size == 0


def test_cesaro_block_indicator_subsequence_clusters():
    n = 4**10
    chi = CoefficientRule.block_indicator(2).values(n)
    means = cesaro_mean(chi)
    assert means[4**9 - 1] == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert means[2 * 4**9 - 1] == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_log_mean_transform_of_ones_converges_to_one():
    values = log_mean_transform(np.ones(2**20))
    limit, coefficient = log_extrapolate(values)
    assert limit == pytest.approx(1.0, abs=1e-2)
    # the 1/log correction carries the Euler-Mascheroni constant
    assert coefficient == pytest.approx(0.5772, abs=1e-2)
    assert not log_mean_transform(np.zeros(64)).any()


def test_log_mean_transform_keeps_signed_witness_oscillating():
    # doubly lacunary signed sequence: the log means swing between two
    # clusters because same-sign runs each contribute on the order of log M
    n = 4**10
    idx = np.arange(2, n + 1, dtype=float)
    levels = np.floor(np.log2(idx + 1.0)).astype(int)
    signs = (-2.0) ** np.floor(np.log2(levels))
    y = np.zeros(n + 1)
    y[2:] = signs * (idx + 1.0) / (idx * np.log(idx))
    verdict = classify_limit(log_mean_transform(y)[2:])
    assert verdict.kind is VerdictKind.OSCILLATING


def test_classifier_convergent_with_decaying_perturbation():
    x = 1.0 + 1.0 / np.log(np.arange(2**20) + 2.0)
    verdict = classify_limit(x)
    assert verdict.kind is VerdictKind.CONVERGENT
    assert verdict.limit == pytest.approx(1.0, abs=0.1)


def test_classifier_block_indicator_oscillates():
    n = 4**10
    chi = CoefficientRule.block_indicator(2).values(n + 1)
    verdict = classify_limit(cesaro_mean(chi * chi))
    assert verdict.kind is VerdictKind.OSCILLATING
    assert verdict.upper - verdict.lower > 0.2
    assert verdict.lower == pytest.approx(1.0 / 3.0, abs=0.05)
    assert verdict.upper == pytest.approx(2.0 / 3.0, abs=0.05)


def test_classifier_sqrt_log_cos_oscillates():
    n = 4**10
    c = CoefficientRule.sqrt_log_cos().values(n + 1)
    verdict = classify_limit(cesaro_mean(c * c))
    assert verdict.kind is VerdictKind.OSCILLATING
    assert verdict.upper - verdict.lower > 0.1


def test_classifier_cluster_levels_are_the_tail_percentiles():
    # one np.percentile(tail, [5, 95]) call against one call per level
    n = 4**10
    for rule in (CoefficientRule.block_indicator(2), CoefficientRule.sqrt_log_cos()):
        c = rule.values(n + 1)
        x = cesaro_mean(c * c)
        verdict = classify_limit(x)
        bounds = _window_bounds(x.size, 2)
        start = max(len(bounds) // 2, len(bounds) - max(5, len(bounds) // 2))
        tail = x[bounds[start][0] : bounds[-1][1]]
        assert verdict.kind is VerdictKind.OSCILLATING
        assert verdict.lower == float(np.percentile(tail, 5))
        assert verdict.upper == float(np.percentile(tail, 95))


def test_classifier_monotone_trend_is_not_oscillating():
    x = 3.0 - 5.0 / np.log(np.arange(2**20) + 2.0)
    verdict = classify_limit(x)
    assert verdict.kind is not VerdictKind.OSCILLATING


def test_classifier_scale_equivariance():
    n = 4**8
    chi = CoefficientRule.block_indicator(2).values(n + 1)
    base = classify_limit(cesaro_mean(chi))
    scaled = classify_limit(7.0 * cesaro_mean(chi))
    assert base.kind is scaled.kind is VerdictKind.OSCILLATING
    assert scaled.lower == pytest.approx(7.0 * base.lower, rel=1e-12)
    assert scaled.upper == pytest.approx(7.0 * base.upper, rel=1e-12)


def test_classifier_rejects_short_sequences():
    with pytest.raises(ParameterError):
        classify_limit(np.ones(2**6), ClassifyPolicy(window_count=5))


def test_classifier_gamma_adic_option():
    n = 3**12
    x = 1.0 + 1.0 / np.sqrt(np.arange(n) + 1.0)
    verdict = classify_limit(x, ClassifyPolicy(window_base=3))
    assert verdict.kind is VerdictKind.CONVERGENT
    assert verdict.limit == pytest.approx(1.0, abs=1e-2)
    assert verdict.policy.window_base == 3


def test_log_extrapolate_exact_model_and_constant():
    n = np.arange(4096)
    limit, slope = log_extrapolate(3.0 + 5.0 / np.log(n + 2.0))
    assert limit == pytest.approx(3.0, abs=1e-8)
    assert slope == pytest.approx(5.0, abs=1e-8)
    limit, slope = log_extrapolate(np.full(64, 2.5))
    assert limit == pytest.approx(2.5, abs=1e-12)
    assert slope == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ParameterError):
        log_extrapolate(np.ones(8))


def test_log_mean_regularity_on_convergent_inputs():
    # a Cesaro-type transform must preserve limits; checked through the
    # log-extrapolated value of the transformed sequence
    n = 2**20
    idx = np.arange(n, dtype=float)
    for target, x in [
        (2.0, 2.0 + 1.0 / np.sqrt(idx + 1.0)),
        (-1.0, -1.0 + np.sin(idx) / (idx + 1.0)),
    ]:
        transformed = log_mean_transform(x)
        limit, _ = log_extrapolate(transformed)
        assert limit == pytest.approx(target, abs=1e-2)
