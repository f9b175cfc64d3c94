import math
import tracemalloc
from bisect import bisect_right

from numpy.polynomial import polynomial as npoly

import numpy as np
import pytest

from circletrace import closed_forms as cf
from circletrace.closed_forms import (
    KernelParams,
    _horner,
    _ramp_polynomial,
    fourier_side_trace,
    integral_trace,
    invert_symbol,
    sphere_kernel,
    sphere_kernel_derivative,
    sphere_kernel_routes,
    symmetric_fourier_trace,
    weierstrass_trace,
    winding_report,
    winding_trace,
)
from circletrace.dixmier import log_extrapolate
from circletrace.errors import ParameterError
from circletrace.fourier import (
    CoefficientRule,
    FourierSymbol,
    WeierstrassParams,
    circle_grid,
    constant_symbol,
    hardy_split,
    mode_symbol,
    sample_to_symbol,
    symbol_eval,
    weierstrass_symbol,
)
from circletrace.operators import commutator_matrix


def cosine(k):
    """cos(k*theta): 1/2 at modes +-k."""
    return FourierSymbol({k: 0.5, -k: 0.5})


def random_symbol(rng, degree):
    return FourierSymbol(
        {
            k: complex(rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            for k in range(-degree, degree + 1)
        }
    )


def double_sum(a, b, n_trunc):
    # sum_{l=0}^{N} sum_{k>l} a_k b_{-k} via the weight min(k, N+1)
    return sum(
        min(k, n_trunc + 1) * v * b[-k] for k, v in a.coeffs.items() if k >= 1
    )


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def comb_polyval_kernel(t, n, m):
    """sphere_kernel by math.comb per coefficient and polyval(tensor=True)."""
    ms = np.atleast_1d(m).tolist()
    binomials = [[math.comb(k + mi - 1, mi - 1) for mi in ms] for k in range(n + 1)]
    values = npoly.polyval(1.0 - np.asarray(t), np.array(binomials, dtype=float), tensor=True)
    values /= np.reshape(np.array(ms, dtype=float), (-1,) + (1,) * np.ndim(t))
    return values if np.ndim(m) else values[0]


def dense_integral_trace(a, b, params):
    # the quadrature as a G x G kernel matrix: b_j (z zeta K)(theta_j + theta_l) a_l
    a_plus, _ = hardy_split(a)
    _, b_minus = hardy_split(b)
    n, grid = params.n_trunc, params.grid
    angles = circle_grid(grid)
    a_vals = symbol_eval(a_plus, -angles)
    b_vals = symbol_eval(b_minus, angles)
    phase = np.exp(1j * np.add.outer(angles, angles))
    kernel = _ramp_polynomial(params.r * phase, n)
    total = b_vals @ (phase * kernel) @ a_vals / grid**2
    return complex(-total / math.log(n))


class TestFourierSideTrace:
    def test_single_cosine_level(self):
        c4 = cosine(4)
        seq = fourier_side_trace(c4, c4, 32)
        for m, v in zip(seq.points, seq.values):
            expected = 1.0 / math.log(m) if m >= 4 else 0.0
            assert v.real == pytest.approx(expected, abs=1e-14)

    def test_holomorphic_pair_vanishes(self):
        a = FourierSymbol({1: 1.0, 3: 2.0})
        seq = fourier_side_trace(a, a, 16)
        assert not np.any(seq.values)

    def test_lacunary_level_count(self):
        w = weierstrass_symbol(
            WeierstrassParams(0.5, 2, CoefficientRule.constant(1.0)), 2**12
        )
        seq = fourier_side_trace(w, w, 2**12)
        assert seq.points[-1] == 2**12
        assert seq.values[-1].real == pytest.approx(13.0 / math.log(2**12), rel=1e-13)


class TestSymmetricTrace:
    def test_cosine_pair(self):
        c4 = cosine(4)
        seq = symmetric_fourier_trace(c4, c4, 32)
        for m, v in zip(seq.points, seq.values):
            expected = -2.0 / math.log(m) if m >= 4 else 0.0
            assert v.real == pytest.approx(expected, rel=1e-13)

    def test_matches_loop_over_every_mode(self):
        # reference: the loop over k = 1..N that the support-driven sum replaces
        rng = np.random.default_rng(12)

        def symbol(modes):
            return FourierSymbol({k: complex(*rng.standard_normal(2)) for k in modes})

        a, b = symbol((-9, -4, -1, 0, 2, 3, 7, 30)), symbol((-30, -7, -3, 1, 4, 5, 9))
        n = 20
        ks = [
            k
            for k in range(1, n + 1)
            if (k in a.coeffs and -k in b.coeffs) or (-k in a.coeffs and k in b.coeffs)
        ]
        terms = np.array([k * (a[k] * b[-k] + a[-k] * b[k]) for k in ks], dtype=complex)
        cums = np.concatenate([[0j], np.cumsum(terms)])
        pts = np.arange(2, n + 1)
        expected = -cums[np.searchsorted(ks, pts, side="right")] / np.log(pts.astype(float))
        assert np.array_equal(symmetric_fourier_trace(a, b, n).values, expected)

    def test_constant_vanishes(self):
        seq = symmetric_fourier_trace(constant_symbol(3.0), constant_symbol(2.0), 16)
        assert not np.any(seq.values)

    def test_split_relation_against_one_sided_sums(self):
        rng = np.random.default_rng(10)
        a, b = random_symbol(rng, 6), random_symbol(rng, 6)
        sym = symmetric_fourier_trace(a, b, 40)
        one = fourier_side_trace(a, b, 40)
        two = fourier_side_trace(b, a, 40)
        assert np.allclose(sym.values, -(one.values + two.values), atol=1e-13)


class TestWeierstrassTrace:
    def test_constant_sequence_closed_form(self):
        seq = weierstrass_trace(
            2, CoefficientRule.constant(1.0), CoefficientRule.constant(1.0), 2**40
        )
        assert seq.points[-1] == 2**40
        assert seq.values[-1] == pytest.approx(-41.0 / (40.0 * math.log(2)), rel=1e-14)
        closed = np.array(
            [-(int(math.floor(math.log2(m))) + 1) / math.log(m) for m in seq.points]
        )
        assert np.max(np.abs(np.asarray(seq.values, float) - closed)) < 1e-12

    def test_extrapolates_to_reciprocal_log_gamma(self):
        for gamma in (2, 3):
            seq = weierstrass_trace(
                gamma,
                CoefficientRule.constant(1.0),
                CoefficientRule.constant(1.0),
                gamma**40 if gamma == 2 else 3**25,
            )
            limit, _ = log_extrapolate(np.asarray(seq.values, float), seq.points)
            assert limit == pytest.approx(-1.0 / math.log(gamma), abs=1e-3)

    def test_zero_sequence(self):
        seq = weierstrass_trace(
            2, CoefficientRule.constant(0.0), CoefficientRule.constant(1.0), 2**10
        )
        assert not np.any(seq.values)

    def test_block_indicator_subsequences_separate(self):
        chi = CoefficientRule.block_indicator(2)
        # the level-count Cesaro mean oscillates between 2/3 and 1/3 along the
        # doubly exponential scales M = 2^(4^j - 1) and M = 2^(2*4^j - 1)
        seq = weierstrass_trace(2, chi, chi, 2**31)
        at = np.searchsorted(seq.points, [2**15, 2**31])
        assert seq.points[at].tolist() == [2**15, 2**31]
        low = -float(seq.values[at[0]].real) * math.log(2**15) / 16
        high = -float(seq.values[at[1]].real) * math.log(2**31) / 32
        assert low == pytest.approx(11.0 / 16.0, rel=1e-12)
        assert high == pytest.approx(11.0 / 32.0, rel=1e-12)

    @pytest.mark.parametrize("gamma", [2, 3, 5])
    def test_truncation_off_a_power_matches_a_bisect_oracle(self, gamma):
        c = CoefficientRule.sqrt_log_cos()
        d = CoefficientRule.from_head([1.0, -0.5, 2.0], extension="periodic")
        n_trunc = gamma**9 + 7  # not a power of gamma, so N itself is the last point
        seq = weierstrass_trace(gamma, c, d, n_trunc)
        powers = [gamma**j for j in range(10)]
        assert seq.points.tolist() == [*powers[1:], n_trunc]
        level_sums = np.cumsum(c.values(10) * d.values(10))
        counts = np.array([bisect_right(powers, m) for m in seq.points.tolist()])
        expected = -level_sums[counts - 1] / np.log(seq.points.astype(float))
        assert seq.values.tobytes() == expected.tobytes()


def test_traces_of_symbols_without_a_common_mode_are_complex_zeros():
    a, b = FourierSymbol({1: 1.0, 3: 2j, 0: 4.0}), FourierSymbol({-2: 1.0, 1: 3.0, 5: 1j})
    for trace in (fourier_side_trace, symmetric_fourier_trace):
        seq = trace(a, b, 16)
        assert seq.values.dtype == complex and seq.values.size == 15
        assert not np.any(seq.values)


class TestSzegoSquareKernel:
    """The truncated square of the Szegő kernel, sum_{k<=N} (k+1) w^k at
    w = z*zeta, as ``_ramp_polynomial`` sums it for ``integral_trace``: within
    1e-8 relative of the explicit series on both sides of its switch."""

    def test_origin(self):
        assert _ramp_polynomial(np.zeros(1), 16)[0] == pytest.approx(1.0)

    def test_removable_point(self):
        assert _ramp_polynomial(np.ones(1), 16)[0] == pytest.approx(17.0 * 18.0 / 2.0)

    def test_antipodal_even(self):
        # sum_{k<=16} (k+1) (-1)^k = 9
        assert _ramp_polynomial(-np.ones(1), 16)[0] == pytest.approx(9.0)

    def test_near_points_match_the_ramp_horner_loop(self):
        # the loop the kernel summed near w = 1 before it shared _horner
        def ramp_loop(w, n):
            acc = np.full(w.shape, n + 1.0, dtype=complex)
            for k in range(n - 1, -1, -1):
                acc = acc * w + (k + 1)
            return acc

        offsets = np.array([0.0, 1e-7, -3e-8j, 2e-7 + 5e-7j, -6e-7 - 1e-7j, 4e-10])
        for n in (2, 16, 255):
            w = 1.0 + offsets
            assert same_bits(_ramp_polynomial(w, n), ramp_loop(w, n))
            near = (1.0 - 1e-5) * np.exp(1j * np.array([0.0, 1e-5, -3e-5]))
            assert same_bits(_ramp_polynomial(near, n), ramp_loop(near, n))

    def test_branches_agree_inside_disc(self):
        # both branches against the explicit series: just inside and just
        # outside the 1e-4 switch, around the old 2^-20 one, on |w| = 0.5
        # and at w = -1
        turns = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 7)[:-1])
        w = np.concatenate(
            [1.0 - gap * turns for gap in (0.99e-4, 1.01e-4, 0.99 * 2.0**-20, 1.01 * 2.0**-20)]
            + [0.5 * turns, [-1.0]]
        )
        for n in (2, 16, 255, 4096):
            expected = np.array(
                [
                    complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
                    for terms in ([(k + 1) * complex(x) ** k for k in range(n + 1)] for x in w)
                ]
            )
            got = _ramp_polynomial(w, n)
            assert np.all(np.abs(got - expected) <= 1e-8 * np.abs(expected))


class TestIntegralTrace:
    def test_matches_double_sum_at_acceptance_scale(self):
        a = FourierSymbol({1: 1.0, 2: 0.3, 3: 0.1, -2: -0.2})
        b = FourierSymbol({-1: 1.0, -2: 0.3, -3: 0.1, 2: 0.2})
        params = KernelParams(64, r=1.0 - 1e-6, grid=1024)
        value = integral_trace(a, b, params)
        target = -double_sum(a, b, 64) / math.log(64)
        assert abs(value - target) * math.log(64) < 1e-6

    def test_holomorphic_b_gives_zero(self):
        a = FourierSymbol({1: 1.0, 2: 0.5})
        assert integral_trace(a, mode_symbol(2), KernelParams(16, grid=128)) == 0j

    def test_rank_one_pair_exact(self):
        value = integral_trace(mode_symbol(1), mode_symbol(-1), KernelParams(8, grid=64))
        assert value.real == pytest.approx(-1.0 / math.log(8), rel=1e-12)
        assert abs(value.imag) < 1e-12

    @pytest.mark.parametrize(
        "n, grid", [(8, 64), (64, 512), (128, 1024), (8, 77), (64, 515), (128, 1031)]
    )
    def test_convolution_matches_dense_grid(self, n, grid):
        rng = np.random.default_rng(n + grid)
        a, b = random_symbol(rng, min(n, 24)), random_symbol(rng, min(n, 24))
        params = KernelParams(n, r=1.0 - 1e-6, grid=grid)
        dense = dense_integral_trace(a, b, params)
        assert abs(integral_trace(a, b, params) - dense) <= 1e-11 * abs(dense)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ParameterError):
            KernelParams(64, grid=128)
        big = FourierSymbol({k: 1.0 for k in range(1, 20)})
        with pytest.raises(ParameterError):
            integral_trace(big, mode_symbol(-1), KernelParams(16, grid=130))


def test_three_routes_agree_on_one_pair():
    # matrix diagonal sums, coefficient partial sums and kernel quadrature
    # are three independent realizations of the same truncated quantity
    from circletrace.dixmier import residue_sequence
    from circletrace.operators import (
        hardy_compress,
        operator_product,
        szego_projection,
    )

    rng = np.random.default_rng(21)
    a, b = random_symbol(rng, 3), random_symbol(rng, 3)
    n = 16
    product = operator_product(
        [szego_projection(n), commutator_matrix(a, n), commutator_matrix(b, n)]
    )
    res = residue_sequence(hardy_compress(product, n))
    matrix_raw = res.partial_sums[n - 1]
    coeff_raw = -double_sum(a, b, n - 1)
    quad = integral_trace(a, b, KernelParams(n - 1, r=1.0 - 1e-8, grid=8 * n))
    quad_raw = quad * math.log(n - 1)
    assert abs(matrix_raw - coeff_raw) < 1e-12
    assert abs(quad_raw - coeff_raw) < 1e-6


class TestSphereKernel:
    def test_geometric_reduction_m1(self):
        t = np.linspace(0.0, 1.0, 33)[1:]
        closed = (1.0 - (1.0 - t) ** 9) / t
        assert np.allclose(sphere_kernel(t, 8, 1), closed, rtol=1e-12)
        assert sphere_kernel(1.0, 8, 1) == pytest.approx(1.0)

    def test_origin_limit_counts_terms(self):
        assert sphere_kernel(0.0, 8, 1) == pytest.approx(9.0)

    def test_small_case_m2(self):
        # 2 h(1-t) = 1 + 2t for one term, so h(1) = 1/2
        t = np.linspace(0.0, 1.0, 9)
        assert np.allclose(sphere_kernel(1.0 - t, 1, 2), (1.0 + 2.0 * t) / 2.0)
        assert sphere_kernel(1.0, 1, 2) == pytest.approx(0.5)

    def test_derivative_form_agrees(self):
        t = np.linspace(0.0, 1.0, 65)[1:]
        for m in range(1, 5):
            for n in (0, 1, 8, 64):
                gap = np.max(
                    np.abs(sphere_kernel(t, n, m) - sphere_kernel_derivative(t, n, m))
                )
                assert gap < 1e-10

    def test_stacked_orders_match_one_call_per_order(self):
        t = np.linspace(0.0, 1.0, 33)[1:]
        for kernel in (sphere_kernel, sphere_kernel_derivative):
            for n in (0, 8, 300):
                rows = kernel(t, n, range(1, 7))
                assert rows.shape == (6, t.size)
                for m in range(1, 7):
                    assert np.array_equal(rows[m - 1], kernel(t, n, m))
            assert np.array_equal(kernel(0.5, 8, [2, 3]), [kernel(0.5, 8, 2), kernel(0.5, 8, 3)])

    def test_derivative_bound_sits_at_the_product_overflow(self):
        # N = 2000: the largest product 2093!/2000! fits float64 at m = 94, 2094!/2000! does not
        t = np.linspace(0.0, 1.0, 5)[1:]
        with np.errstate(over="raise"):
            assert np.isfinite(sphere_kernel_derivative(t, 2000, range(1, 94))).all()
        with np.errstate(over="ignore"):  # the sum at m = 94 may still overflow
            sphere_kernel_derivative(t, 2000, 94)
        with pytest.raises(ParameterError):
            sphere_kernel_derivative(t, 2000, [1, 95])

    def test_derivative_coefficients_match_polyder(self):
        from numpy.polynomial import polynomial as npoly

        t = np.linspace(0.0, 1.0, 17)[1:]
        for m in range(1, 6):
            coeffs = npoly.polyder(np.ones(40 + m), m - 1)
            reference = npoly.polyval(1.0 - t, coeffs) / (m * math.factorial(m - 1))
            assert np.array_equal(sphere_kernel_derivative(t, 40, m), reference)

    def test_horner_equals_polyval_tensor(self, monkeypatch):
        rng = np.random.default_rng(3)
        shapes = ((1, 3), (1, 1), (9, 1), (40, 5), (700, 2))
        tables = [rng.standard_normal(shape) for shape in shapes]
        points = [0.375, np.float64(-1.5), rng.uniform(-1, 1, 7), rng.uniform(-1, 1, (3, 4))]
        points += [rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6), np.array([0.5]), np.empty(0)]
        # the default blocks, then blocks of one to three rows with a short last block
        for block_bytes in (cf._HORNER_BLOCK_BYTES, 24):
            monkeypatch.setattr(cf, "_HORNER_BLOCK_BYTES", block_bytes)
            for table in tables:
                for u in points:
                    assert same_bits(_horner(u, table), npoly.polyval(u, table, tensor=True))

    def test_horner_holds_one_coefficient_block(self):
        # 16 columns at 64 points are 1024 lanes, so a block is 32 rows of
        # 256 KiB; with the last block still referenced while the next one
        # was formed the peak read 0.52 MiB
        u = 1.0 - np.linspace(0.0, 1.0, 65)[1:]
        table = np.ones((16385, 16))
        _horner(u, table)
        tracemalloc.start()
        try:
            _horner(u, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.3 * 2**20

    def test_routes_equal_the_separate_routes_and_polyval(self):
        t = np.linspace(0.0, 1.0, 33)[1:]
        for n in (0, 1, 8, 300, 2**12):
            for m in (1, 5, [3], range(1, 9), [6, 2, 2]):
                binomial, derivative = sphere_kernel_routes(t, n, m)
                assert same_bits(binomial, sphere_kernel(t, n, m))
                assert same_bits(derivative, sphere_kernel_derivative(t, n, m))
                assert same_bits(binomial, comb_polyval_kernel(t, n, m))
        for m in (2, [1, 4]):
            binomial, derivative = sphere_kernel_routes(0.25, 8, m)
            assert same_bits(binomial, sphere_kernel(0.25, 8, m))
            assert same_bits(derivative, sphere_kernel_derivative(0.25, 8, m))

    @pytest.mark.parametrize("n", [0, 1, 8, 300, 2**14])
    def test_routes_match_the_comb_polyval_oracle(self, n):
        rng = np.random.default_rng(n)
        for t in (0.375, np.linspace(0.0, 1.0, 65)[1:], rng.uniform(0.0, 1.0, (3, 5))):
            for m in (range(1, 9), [2, 5], [7]):
                binomial, _ = sphere_kernel_routes(t, n, m)
                assert same_bits(binomial, comb_polyval_kernel(t, n, m))

    def test_routes_peak_memory(self):
        t = np.linspace(0.0, 1.0, 65)[1:]
        sphere_kernel_routes(t, 8, range(1, 9))
        tracemalloc.start()
        try:
            sphere_kernel_routes(t, 2**14, range(1, 9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (N+1) x 16 table is 2.0 MiB; before the lane-flat pass the peak was 2.38 MiB
        assert peak <= (2.38 + 0.5) * 2**20

    def test_routes_refuse_the_derivative_overflow_before_any_binomial(self, monkeypatch):
        def fill_binomials(*args):
            raise AssertionError("a binomial was formed")

        monkeypatch.setattr(cf, "_fill_binomials", fill_binomials)
        t = np.linspace(0.0, 1.0, 5)[1:]
        with pytest.raises(ParameterError, match=r"\(N\+m-1\)!/N! overflow float64"):
            sphere_kernel_routes(t, 2000, [1, 95])
        with pytest.raises(AssertionError, match="a binomial was formed"):
            sphere_kernel_routes(t, 2000, [1, 94])

    def test_derivative_bound_is_exact_for_any_n(self):
        # (10^15 + 1)...(10^15 + 20) < 1.8e308 < (10^15 + 1)...(10^15 + 21); past
        # 2^1024 the first factor overflows alone, where math.lgamma would raise
        cf._check_derivative_products(10**15, 21)
        cf._check_derivative_products(2**4000, 1)
        for n, m in ((10**15, 22), (2**1100, 2), (2**4000, 2**4000)):
            with pytest.raises(ParameterError, match=r"\(N\+m-1\)!/N! overflow float64"):
                cf._check_derivative_products(n, m)
        with pytest.raises(ParameterError, match="at N = 1000000000000000, m up to 22"):
            sphere_kernel_derivative(0.5, 10**15, 22)

    @pytest.mark.parametrize("n, m", [(0, 20000), (3, 500), (39, 41), (40, 41)])
    def test_binomials_match_math_comb_either_side_of_n_plus_one_orders(self, n, m):
        # orders far above N + 1 and either side of it, each a running sum
        ms = [m, 1, m // 2]
        table = np.empty((n + 1, len(ms)))
        cf._fill_binomials(table, n, ms)
        oracle = [[float(math.comb(k + mi - 1, mi - 1)) for mi in ms] for k in range(n + 1)]
        assert same_bits(table, np.array(oracle))
        assert same_bits(sphere_kernel(0.5, n, m), comb_polyval_kernel(0.5, n, m))

    @pytest.mark.parametrize("n, ms, python_orders", [
        (351, [1, 10, 11, 12, 14], 2), (352, [1, 10, 11, 12, 14], 3),
        (16170, [1, 6, 7], 1), (16171, [6, 1, 7], 2),
    ])
    def test_binomials_match_math_comb_either_side_of_the_int64_boundary(
        self, n, ms, python_orders, monkeypatch
    ):
        # C(N+10, 10) first reaches 2**63 at N = 352 and C(N+5, 5) at N = 16171:
        # order 11 or 6 is the last int64 order below those N and the first
        # order of Python ints from them on, carried on from the int64 column
        rounded = []
        as_floats = cf._as_floats
        monkeypatch.setattr(cf, "_as_floats", lambda *args: rounded.append(1) or as_floats(*args))
        table = np.empty((n + 1, len(ms)))
        cf._fill_binomials(table, n, ms)
        oracle = [[float(math.comb(k + mi - 1, mi - 1)) for mi in ms] for k in range(n + 1)]
        assert same_bits(table, np.array(oracle))
        assert len(rounded) == python_orders * -(-(n + 1) // cf._BINOMIAL_ROWS)

    def test_validation(self):
        with pytest.raises(ParameterError):
            sphere_kernel(0.5, 4, 0)
        with pytest.raises(ParameterError):
            sphere_kernel(0.5, 4, [1, 0])
        with pytest.raises(ParameterError):  # C(10149, 149) > 1e308
            sphere_kernel(0.5, 10_000, 150)
        with pytest.raises(ParameterError):  # m! > 1e308 from m = 171 on
            sphere_kernel_derivative(0.5, 1, [2, 172])
        with pytest.raises(ParameterError):
            sphere_kernel_derivative(0.5, -1, 2)

    @pytest.mark.parametrize("m", [2.5, True, [1, 2.5], [np.nan], [np.inf], "2"])
    def test_orders_that_are_not_integers_are_refused(self, m):
        for form in (sphere_kernel, sphere_kernel_derivative, sphere_kernel_routes):
            with pytest.raises(ParameterError, match="integer orders"):
                form(0.5, 8, m)

    @pytest.mark.parametrize("m", [3.0, np.int64(3), [3.0], np.array([3], dtype=np.uint8)])
    def test_integral_orders_of_any_type_are_taken(self, m):
        for form in (sphere_kernel, sphere_kernel_derivative):
            assert same_bits(np.ravel(form(0.5, 8, m)), np.ravel(form(0.5, 8, 3)))


class TestWinding:
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_pure_powers(self, w):
        assert winding_trace(mode_symbol(w), 64) == pytest.approx(-float(w), abs=1e-8)

    def test_constant_symbol(self):
        assert winding_trace(constant_symbol(2.0), 64) == pytest.approx(0.0, abs=1e-12)

    def test_zero_winding_factor_invariance(self):
        grid = circle_grid(256)
        samples = np.exp(1j * grid) * np.exp(0.1 * np.cos(grid))
        a = sample_to_symbol(samples).pruned(1e-14)
        assert winding_trace(a, 64) == pytest.approx(-1.0, abs=1e-8)

    def test_non_invertible_rejected(self):
        with pytest.raises(ParameterError):
            winding_trace(FourierSymbol({0: 1.0, 1: -1.0}), 16)  # 1 - z vanishes

    def test_report_fields(self):
        rep = winding_report(mode_symbol(2), 32)
        assert rep.nearest_integer == -2
        assert rep.imag_defect < 1e-12
        assert rep.inverse_residual < 1e-12
        assert rep.safe_band == 32 - (2 + 2)

    def test_no_matrix_built(self):
        tracemalloc.start()
        try:
            rep = winding_report(mode_symbol(3), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.value == -3.0 and rep.safe_band == 10**6 - 6
        assert peak < 1 << 20

    def test_inverse_grid_size_is_the_grid_sampled(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(cf, "circle_grid", lambda size: sizes.append(size) or circle_grid(size))
        for band, grid in ((1, 64), (4, 64), (5, 128), (300, 8192), (1024, 16384)):
            a = FourierSymbol({0: 3.0, band: 1.0})
            invert_symbol(a)
            assert sizes[-1] == cf.inverse_grid_size(a) == grid

    def test_inverse_symbol_quality(self):
        grid = circle_grid(256)
        a = sample_to_symbol(2.0 + np.cos(grid)).pruned(1e-14)
        inverse, residual = invert_symbol(a)
        assert residual < 5e-3
        product = symbol_eval(a, grid) * symbol_eval(inverse, grid)
        assert np.max(np.abs(product - 1.0)) < 1e-2


def laurent_symbol(rng):
    """z^-2 (1 + sum_{0<|k|<=3} c_k z^k) with sum |c_k| = 0.6: degree -2."""
    tail = {
        k: complex(np.exp(2j * np.pi * rng.uniform())) * rng.uniform(0.3, 1)
        for k in range(-3, 4)
        if k
    }
    scale = 0.6 / sum(abs(v) for v in tail.values())
    coeffs = {k - 2: v * scale for k, v in tail.items()}
    coeffs[-2] = 1.0 + 0j
    return FourierSymbol(coeffs)


def invertible_trig_poly(rng, degree):
    """2 + sum_{0<|k|<=degree} c_k z^k with sum |c_k| <= 1: degree 0."""
    coeffs = {
        k: complex(np.exp(2j * np.pi * rng.uniform())) / (2 * degree)
        for k in range(-degree, degree + 1)
        if k
    }
    coeffs[0] = 2.0 + 0j
    return FourierSymbol(coeffs)


def dense_winding_trace(a, n):
    """tr((2P-1)[P,a][P,a^-1]) contracted over the two commutator matrices."""
    inverse, _ = invert_symbol(a)
    ca, ci = commutator_matrix(a, n), commutator_matrix(inverse, n)
    refl = np.where(ca.row_basis.labels >= 0, 1.0, -1.0)
    return complex(np.einsum("i,ij,ji->", refl, ca.matrix, ci.matrix))


WINDING_SYMBOLS = {
    **{f"z^{k}": mode_symbol(k) for k in (1, 2, 3, -1, -2, -3)},
    "laurent": laurent_symbol(np.random.default_rng(7)),
    **{f"trig-{d}": invertible_trig_poly(np.random.default_rng(d), d) for d in (1, 3, 6)},
}


@pytest.mark.parametrize("a", WINDING_SYMBOLS.values(), ids=WINDING_SYMBOLS)
def test_winding_coefficient_sum_matches_dense_trace(a):
    for n in (1, 2, 8, 64, 256):  # n = 1 and 2 sit below the band: negative safe band
        dense = dense_winding_trace(a, n)
        rep = winding_report(a, n)
        tol = 1e-13 * max(1.0, abs(dense))
        assert abs(rep.value - dense.real) <= tol
        assert abs(rep.imag_defect - abs(dense.imag)) <= tol
        assert rep.nearest_integer == round(dense.real)
