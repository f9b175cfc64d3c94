"""Residue sequences, Cesaro means and the limit classifier.

The non-measurable families used here are the characteristic function of the
complement of the union of intervals [4^j, 2*4^j) and sqrt(2 + cos(log n));
both make the Cesaro means of the squared coefficients oscillate between two
clusters, which is precisely what the classifier must detect.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circletrace.dixmier import (
    ClassifyPolicy,
    VerdictKind,
    _percentiles,
    _window_bounds,
    cesaro_mean,
    classify_limit,
    log_extrapolate,
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


@st.composite
def level_inputs(draw):
    """Finite sequences with ties, constant runs, sorted, reversed and sawtooth
    order, from a few entries (the window minimum) to several strides of the
    classifier's sample."""
    n = draw(st.one_of(st.integers(1, 200), st.integers(4000, 9000), st.integers(20_000, 60_000)))
    kind = draw(st.sampled_from(["normal", "ties", "runs", "sorted", "reversed", "sawtooth"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        return rng.integers(-3, 4, n) * 0.5
    if kind == "runs":  # constant runs of random lengths, -0.0 among the values
        values = rng.choice([-1.5, -0.0, 0.0, 2.0, 7.25], size=n // 8 + 1)
        return np.repeat(values, rng.integers(1, 17, values.size))[:n].copy()
    if kind == "sawtooth":  # periods at, near and off the classifier's sample stride
        period = draw(st.sampled_from([1, 2, 3, 7, max(1, n // 4096), n // 4096 + 1, 97]))
        return np.tile(np.arange(period, dtype=float), n // period + 1)[:n].copy()
    x = rng.standard_normal(n)
    if kind == "sorted":
        x.sort()
    elif kind == "reversed":
        x = np.sort(x)[::-1].copy()
    return x


# constant runs where 0.0 and -0.0 tie on the 5th percentile's ranks: numpy's
# partition of the whole array leaves 0.0 on them, a partition of the band
# alone left -0.0
SIGNED_ZERO_TIE = np.repeat(
    [7.25, 2.0, 7.25, 0.0, -0.0, 2.0, 7.25, -1.5, 7.25, -0.0, 7.25, 0.0],
    [1, 13, 13, 15, 1, 15, 24, 4, 2, 20, 25, 5],
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(level_inputs())
@example(SIGNED_ZERO_TIE)
def test_classifier_levels_are_numpy_percentiles_bit_for_bit(x):
    levels = _percentiles(x, (5, 95))
    assert np.array(levels).tobytes() == np.percentile(x, [5, 95]).tobytes()


@pytest.mark.parametrize("rule", ["block-indicator", "sqrt-log-cos"])
def test_classifier_holds_no_copy_of_the_tail(rule):
    # the tail runs from index 2^11 to 2^20: one copy of it is about 8 MiB
    c = {"block-indicator": CoefficientRule.block_indicator(2),
         "sqrt-log-cos": CoefficientRule.sqrt_log_cos()}[rule].values(4**10 + 1)
    x = cesaro_mean(c * c)
    tracemalloc.start()
    try:
        verdict = classify_limit(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.kind is VerdictKind.OSCILLATING
    assert peak < 2 * 2**20


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


@pytest.mark.parametrize("base, count", [(2, 2), (2, 5), (3, 4), (10, 3)])
def test_policy_length_check_is_exact(base, count):
    policy = ClassifyPolicy(window_count=count, window_base=base)
    policy.check_length(base ** (count + 2))
    with pytest.raises(ParameterError, match="too short"):
        policy.check_length(base ** (count + 2) - 1)


def test_policy_length_check_forms_no_power_far_above_the_size():
    # 2 ** (10**12 + 2) would take 125 GB; bit lengths settle it first
    with pytest.raises(ParameterError, match="too short for 1000000000000 windows"):
        ClassifyPolicy(window_count=10**12).check_length(2**62)


@pytest.mark.parametrize("base", [2.5, 1, 0, True, -3, math.nan, math.inf, -math.inf])
def test_policy_refuses_a_window_base_that_is_not_an_integer_from_two(base):
    with pytest.raises(ParameterError, match=f"integer >= 2, got {base}"):
        ClassifyPolicy(window_base=base)


@pytest.mark.parametrize("count", [2.5, 3.5, 1, True, False, math.nan, math.inf, -math.inf])
def test_policy_refuses_a_window_count_that_is_not_an_integer_from_two(count):
    with pytest.raises(ParameterError, match=f"window_count must be an integer >= 2, got {count}"):
        ClassifyPolicy(window_count=count)


@pytest.mark.parametrize("count", [3.0, np.int64(3)])
def test_policy_takes_an_integral_window_count_of_any_type(count):
    x = 1 + 1 / np.sqrt(np.arange(4**8) + 1.0)
    verdict = classify_limit(x, ClassifyPolicy(window_count=count))
    expected = classify_limit(x, ClassifyPolicy(window_count=3))
    assert verdict == expected and type(verdict.policy.window_count) is int


@pytest.mark.parametrize("base", [3.0, np.int64(3)])
def test_policy_takes_an_integral_window_base_of_any_type(base):
    x = 1.0 + 1.0 / np.sqrt(np.arange(3**12) + 1.0)
    verdict = classify_limit(x, ClassifyPolicy(window_base=base))
    expected = classify_limit(x, ClassifyPolicy(window_base=3))
    assert verdict.kind is expected.kind is VerdictKind.CONVERGENT
    assert (verdict.limit, verdict.windows_used) == (expected.limit, expected.windows_used)
    assert type(verdict.policy.window_base) is int
    with pytest.raises(ParameterError, match="too short"):
        ClassifyPolicy(window_base=base).check_length(3**7 - 1)


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
