import math

import numpy as np
import pytest

from circletrace.errors import ParameterError
from circletrace.fourier import (
    CoefficientRule,
    FourierSymbol,
    WeierstrassParams,
    circle_grid,
    symbol_eval,
    weierstrass_symbol,
)
from circletrace.littlewood_paley import (
    INF,
    _norm_levels,
    _mode_values,
    besov_norm,
    hat_weights,
    holder_norm_star,
)


def lacunary(alpha, gamma, c, cutoff):
    return weierstrass_symbol(WeierstrassParams(alpha, gamma, c), cutoff)


# Reference route: the hat block as a dict of exact-integer quotients, the
# block piece as a coefficient product and its grid values from symbol_eval.


def dict_hat(n, gamma):
    if n == 0:
        return {0: 1.0}
    lo, mid, hi = gamma ** (abs(n) - 1), gamma ** abs(n), gamma ** (abs(n) + 1)
    hat = {k: (k - lo) / (mid - lo) if k <= mid else (hi - k) / (hi - mid) for k in range(lo + 1, hi)}
    return hat if n > 0 else {-k: v for k, v in hat.items()}


def dict_levels(a, gamma):
    for k0 in (0, 1, -1):
        if k0 in a.coeffs:
            yield 0, FourierSymbol({k0: a.coeffs[k0]})
    top = 1
    while gamma ** (top - 1) < a.n_max:
        top += 1
    for absn in range(1, top + 1):
        for n in (absn, -absn):
            hat = dict_hat(n, gamma)
            piece = FourierSymbol({k: v * hat[k] for k, v in a.coeffs.items() if k in hat})
            if piece.coeffs:
                yield absn, piece


def dict_holder(a, alpha, gamma):
    grid = circle_grid(max(8 * max(a.n_max, 1), 16))
    return max(
        (gamma ** (absn * alpha) * np.max(np.abs(symbol_eval(piece, grid)))
         for absn, piece in dict_levels(a, gamma)),
        default=0.0,
    )


def dict_besov(a, t, p, q, gamma):
    grid = circle_grid(max(8 * max(a.n_max, 1), 16))
    per_level = []
    for absn, piece in dict_levels(a, gamma):
        values = np.abs(symbol_eval(piece, grid))
        lp = np.max(values) if p == INF else np.mean(values**p) ** (1.0 / p)
        per_level.append(gamma ** (absn * t) * lp)
    arr = np.asarray(per_level)
    return np.max(arr) if q == INF else np.sum(arr**q) ** (1.0 / q)


def test_block_profile_base_two():
    w = hat_weights(2, 2, [4, 3, 6, 2, 8])
    assert w[0] == pytest.approx(1.0)
    assert w[1] == pytest.approx(0.5)
    assert w[2] == pytest.approx(0.5)
    assert w[3] == 0 and w[4] == 0


def test_block_zero_is_constant():
    modes = np.arange(-30, 31)
    assert np.array_equal(hat_weights(0, 5, modes), (modes == 0).astype(float))


def test_negative_block_mirrors():
    modes = np.arange(-12, 13)
    pos = hat_weights(2, 2, modes)
    neg = hat_weights(-2, 2, modes)
    assert neg[modes == -4][0] == pytest.approx(1.0)
    assert np.array_equal(neg, pos[::-1])


def test_partition_of_unity():
    # base 2: dyadic hat values are exact in binary floating point
    top = 8
    modes = np.arange(2, 2**top + 1)
    total = sum(hat_weights(n, 2, modes) for n in range(0, top + 2))
    assert np.all(total == 1.0)
    # base 3: same tiling up to rounding
    modes = np.arange(3, 3**5 + 1)
    total = sum(hat_weights(n, 3, modes) for n in range(0, 7))
    assert np.allclose(total, 1.0, rtol=0, atol=1e-14)


def test_convolve_picks_single_lacunary_level():
    w = lacunary(0.5, 2, CoefficientRule.constant(1.0), 64)
    modes = np.array(list(w.coeffs))
    for n in range(1, 7):
        weights = hat_weights(n, 2, modes)
        assert list(modes[weights != 0]) == [2**n]
        assert w[2**n] * weights[modes == 2**n][0] == pytest.approx(2 ** (-0.5 * n))


def test_convolve_interpolates_midway_mode():
    # mode 6 is halfway between 4 and 8 for the n=2 block
    assert hat_weights(2, 2, [6])[0] == pytest.approx(0.5)


def test_convolve_disjoint_support_is_zero():
    # mode 2 is at/below gamma^(n-1) = 4 for n = 3
    assert not hat_weights(3, 2, [2]).any()


@pytest.mark.parametrize("gamma", [2, 3, 5])
def test_hat_weights_equal_exact_integer_quotients(gamma):
    for absn in range(0, 9):
        hat = dict_hat(absn, gamma)
        support = np.fromiter(hat, dtype=np.int64, count=len(hat))
        expected = np.fromiter(hat.values(), dtype=float, count=len(hat)).view(np.uint64)
        outside = np.array([-1, 0, 1, gamma ** max(absn - 1, 0), gamma ** (absn + 1)])
        outside = outside[~np.isin(outside, support)]
        for n, sign in ((absn, 1), (-absn, -1)):
            assert np.array_equal(hat_weights(n, gamma, sign * support).view(np.uint64), expected)
            assert not hat_weights(n, gamma, sign * outside).any()


def test_hat_weights_do_not_overflow_beyond_int64():
    gamma = 10**6  # gamma^(n+1) passes int64 from n = 3 on
    big = np.iinfo(np.int64).max
    modes = np.array([0, 1, 10**6, 10**12, 10**12 + 10**6, 10**18, 5 * 10**18, big, -(10**18)])
    for n in range(-5, 6):
        got = hat_weights(n, gamma, modes)
        hat_n = abs(n)
        lo, mid, hi = gamma ** (hat_n - 1), gamma**hat_n, gamma ** (hat_n + 1)
        for k, value in zip(modes.tolist(), got.tolist()):
            k = k if n >= 0 else -k
            if n == 0:
                exact = float(k == 0)
            elif lo < k <= mid:
                exact = (k - lo) / (mid - lo)
            elif mid < k < hi:
                exact = (hi - k) / (hi - mid)
            else:
                exact = 0.0
            assert value == pytest.approx(exact, rel=1e-15, abs=0)
    assert hat_weights(3, gamma, [10**18])[0] == 1.0


def oracle_symbols():
    rng = np.random.default_rng(21)
    for n in (7, 40, 150):
        modes = rng.integers(-n, n + 1, size=n // 2 + 2)
        yield FourierSymbol({int(k): complex(*rng.standard_normal(2)) for k in modes}), 0.4
    head = list(rng.uniform(0.2, 2.0, size=5))
    yield lacunary(0.3, 2, CoefficientRule.from_head(head), 2**9), 0.3
    yield lacunary(0.7, 3, CoefficientRule.constant(1.0), 3**6), 0.7


@pytest.mark.parametrize("gamma", [2, 3])
def test_norms_match_the_dict_route(gamma):
    for a, alpha in oracle_symbols():
        assert holder_norm_star(a, alpha, gamma) == pytest.approx(
            dict_holder(a, alpha, gamma), rel=1e-13, abs=0
        )
        for p in (1, 2, INF):
            for q in (1, 2, INF):
                assert besov_norm(a, alpha, p, q, gamma) == pytest.approx(
                    dict_besov(a, alpha, p, q, gamma), rel=1e-13, abs=0
                )


def gathered_lp_norms(a, gamma, size):
    """(scale exponent, {p: L^p norm}) of each block piece, p in 1, 2, INF.

    Each mode's values are gathered over the whole grid, at (k mod G) * j mod
    G, and the norms are the max and the grid mean of |v|^p over all G
    entries: nothing is shared with the one-period route under test.
    """
    j = np.arange(size)
    roots = np.exp(1j * (2.0 * np.pi * j / size))
    levels = []
    for absn, modes, coeffs in _norm_levels(a, gamma):
        values = np.zeros(size, dtype=complex)
        for k, c in zip(modes.tolist(), coeffs.tolist()):
            values += np.multiply(c, roots[j * (k % size) % size])
        magnitudes = np.abs(values)
        norms = {p: float(np.mean(magnitudes ** float(p)) ** (1.0 / p)) for p in (1, 2)}
        levels.append((absn, {**norms, INF: float(np.max(magnitudes))}))
    return levels


def gathered_besov(levels, t, p, q, gamma):
    arr = np.asarray([gamma ** (absn * t) * norms[p] for absn, norms in levels])
    return float(np.max(arr)) if q == INF else float(np.sum(arr**q) ** (1.0 / q))


def test_norms_equal_the_full_grid_gather():
    # negative modes, mode 0, modes coprime to G and sharing factors with it,
    # on the default grids G = 8 * n_max: 320 and 360 (not powers of 2) and
    # the lacunary 2^13; a piece whose modes all share a factor with G, so
    # that its values repeat with a period 1 < P < G (G = 384, modes that are
    # multiples of 6, P = 64); W(0.7, 3, 1) on its 3-adic grid 8 * 3^6; and
    # the benchmark's W(1/2, 2, 1) at band 2^14, G = 2^17
    rng = np.random.default_rng(8)
    trig = FourierSymbol({k: complex(*rng.standard_normal(2)) for k in range(-40, 41)})
    trig45 = FourierSymbol({k: complex(*rng.standard_normal(2)) for k in range(-45, 46)})
    w = lacunary(0.5, 2, CoefficientRule.constant(1.0), 2**10)
    shared = FourierSymbol({k: complex(*rng.standard_normal(2)) for k in range(0, 49, 6)})
    cases = [
        (trig, 320, (2, 3)),
        (trig45, 360, (2, 3)),
        (w, 2**13, (2, 3)),
        (shared, 384, (2, 3)),
        (lacunary(0.7, 3, CoefficientRule.constant(1.0), 3**6), 8 * 3**6, (3,)),
        (lacunary(0.5, 2, CoefficientRule.constant(1.0), 2**14), 2**17, (2,)),
    ]
    periods = set()  # which kinds of period P the pieces reach
    for a, size, gammas in cases:
        assert max(8 * a.n_max, 16) == size
        for gamma in gammas:
            for _, modes, _ in _norm_levels(a, gamma):
                period = size // math.gcd(size, *(k % size for k in modes.tolist()))
                periods.add("1" if period == 1 else "G" if period == size else "1 < P < G")
            levels = gathered_lp_norms(a, gamma, size)
            assert holder_norm_star(a, 0.5, gamma) == gathered_besov(levels, 0.5, INF, INF, gamma)
            for p in (1, 2, INF):
                for q in (1, 2, INF):
                    expected = gathered_besov(levels, 0.5, p, q, gamma)
                    assert besov_norm(a, 0.5, p, q, gamma) == expected
    assert periods == {"1", "1 < P < G", "G"}


def test_holder_norm_of_lacunary_families():
    w = lacunary(0.5, 2, CoefficientRule.constant(1.0), 64)
    assert holder_norm_star(w, 0.5, 2) == pytest.approx(1.0, abs=1e-10)
    w3 = lacunary(0.5, 2, CoefficientRule.from_head([3.0, 1.0]), 64)
    assert holder_norm_star(w3, 0.5, 2) == pytest.approx(3.0, abs=1e-10)
    assert holder_norm_star(FourierSymbol({}), 0.5, 2) == 0.0


def test_holder_norm_matches_sup_coefficient_generic():
    rng = np.random.default_rng(11)
    head = list(rng.uniform(0.2, 2.0, size=6))
    w = lacunary(0.3, 2, CoefficientRule.from_head(head), 2**5)
    assert holder_norm_star(w, 0.3, 2) == pytest.approx(max(head), abs=1e-10)


def test_besov_norm_lacunary():
    w3 = lacunary(0.5, 2, CoefficientRule.from_head([3.0, 1.0]), 64)
    assert besov_norm(w3, 0.5, 2, INF, 2) == pytest.approx(3.0, abs=1e-10)
    w = lacunary(0.5, 2, CoefficientRule.constant(1.0), 2**5)
    levels = 2 * 6  # +-(modes 1,2,4,8,16,32), one unit each
    assert besov_norm(w, 0.5, 2, 2, 2) == pytest.approx(math.sqrt(levels), abs=1e-10)
    assert besov_norm(FourierSymbol({}), 0.5, 2, 2, 2) == 0.0


def test_norms_reject_grids_whose_phase_indices_pass_int64():
    # (k mod G) * j needs G^2 < 2^63; the check comes before any allocation
    far = FourierSymbol({2**29: 1.0})  # default grid 2^32 angles
    with pytest.raises(ParameterError, match="too fine"):
        holder_norm_star(far, 0.5, 2)
    with pytest.raises(ParameterError, match="too fine"):
        besov_norm(far, 0.5, 2, 2, 2)
    # the first default grid past the bound: 3037000504^2 >= 2^63 > 3037000496^2
    edge = FourierSymbol({3037000504 // 8: 1.0})
    with pytest.raises(ParameterError, match="grid of 3037000504 angles is too fine"):
        holder_norm_star(edge, 0.5, 2)


@pytest.mark.parametrize("gamma", [2.5, True, math.nan, math.inf])
def test_norms_and_hats_refuse_a_base_that_is_not_an_integer_from_two(gamma):
    a = FourierSymbol({1: 1.0, 4: 0.5})
    calls = [
        lambda: besov_norm(a, 0.5, 2, 2, gamma),
        lambda: holder_norm_star(a, 0.5, gamma),
        lambda: hat_weights(1, gamma, [1, 2, 3]),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match=f"gamma must be an integer >= 2, got {gamma}"):
            call()


@pytest.mark.parametrize("n", [34, 35, 36])
def test_an_integral_float_base_weighs_like_the_integer(n):
    # above 2^53 the powers of 3.0 are rounded: block 34 gave its peak mode
    # 3^34 the weight 0.9999999999999997, and block 35 dropped 3^34 + 1
    modes = [3**n, 3**n - 1, 3**n + 1, 3 ** (n - 1) + 1]
    assert hat_weights(n, 3.0, modes).tolist() == hat_weights(n, 3, modes).tolist()


def test_besov_accepts_float_infinity():
    w = lacunary(0.5, 2, CoefficientRule.constant(1.0), 16)
    assert besov_norm(w, 0.5, float("inf"), INF, 2) == pytest.approx(
        besov_norm(w, 0.5, INF, INF, 2)
    )
    with pytest.raises(ParameterError):
        besov_norm(w, 0.5, 0.5, INF, 2)


def test_besov_22_equals_weighted_el2_on_lacunary_support():
    # on symbols supported on powers of gamma (and modes 0, +-1) the nested
    # (t, 2, 2) norm reduces exactly to an l2 sum with weights |k|^t
    rng = np.random.default_rng(5)
    gamma, t = 2, 0.5
    coeffs = {}
    for n in range(0, 6):
        coeffs[gamma**n] = complex(rng.standard_normal())
        coeffs[-(gamma**n)] = complex(rng.standard_normal())
    a = FourierSymbol(coeffs)
    direct = math.sqrt(
        sum((max(abs(k), 1) ** t * abs(v)) ** 2 for k, v in a.coeffs.items())
    )
    assert besov_norm(a, t, 2, 2, gamma) == pytest.approx(direct, rel=1e-10)


def test_besov_22_generic_symbol_stays_comparable():
    rng = np.random.default_rng(6)
    a = FourierSymbol({int(k): complex(rng.standard_normal()) for k in range(1, 20)})
    t = 0.5
    direct = math.sqrt(sum((abs(k) ** t * abs(v)) ** 2 for k, v in a.coeffs.items()))
    ratio = besov_norm(a, t, 2, 2, 2) / direct
    assert 0.5 < ratio < 2.0


@pytest.mark.parametrize(
    "gamma, size", [(2, 2**13), (2, 2**17), (3, 8 * 3**6), (5, 8 * 5**4), (2, 360)]
)
def test_mode_values_pieces_equal_the_gather_bit_for_bit(gamma, size):
    # r = g = gcd(r, G) reads roots[::g], r = G - g reads roots[0] and then
    # roots[G-g], roots[G-2g], ..., and any other residue is gathered; the
    # oracle is the scalar-first product of the gathered roots, pieces of
    # 2^14 entries and more included, which ``c * <temporary>`` would form
    # array first
    rng = np.random.default_rng(gamma * size)
    roots = np.exp(1j * (2.0 * np.pi * np.arange(size) / size))
    levels = [gamma**n for n in range(12) if gamma**n < size]
    residues = {0, 7, 6 * 7, size // 2, size - 1, size - 6, *levels, *(size - k for k in levels)}
    kinds = set()
    for r in sorted(residues):
        g = math.gcd(r, size)
        kinds.add("r = g" if r == g else "r = G - g" if r == size - g else "gathered")
        for c in (complex(*rng.standard_normal(2)), -0.75 + 0j, complex(0.0, -1.0)):
            values = _mode_values(roots, r, c)
            gathered = np.multiply(c, roots[np.arange(size // g) * r % size])
            assert values.view(np.uint64).tolist() == gathered.view(np.uint64).tolist()
    assert kinds == {"r = g", "r = G - g", "gathered"}


def test_mode_values_symbols_equal_the_full_grid_gather():
    # single complex modes, one per residue kind, on a grid of 2^17 and of 360
    for modes, band in (((1, -1, 2**14, -(2**13), 3 * 2**12, 5), 2**14), ((1, -3, 44, 45), 45)):
        for k in modes:
            a = FourierSymbol({k: complex(0.6, -0.8), band: 0.25})
            levels = gathered_lp_norms(a, 2, max(8 * band, 16))
            for p, q in ((INF, INF), (2, 2), (1, INF)):
                assert besov_norm(a, 0.5, p, q, 2) == gathered_besov(levels, 0.5, p, q, 2)
