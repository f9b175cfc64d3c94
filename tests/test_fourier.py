import math

import numpy as np
import pytest

from circletrace.errors import ParameterError
from circletrace.fourier import (
    CoefficientRule,
    FourierSymbol,
    WeierstrassParams,
    circle_grid,
    constant_symbol,
    cosine_symbol,
    hardy_split,
    mode_symbol,
    sample_to_symbol,
    symbol_eval,
    symbol_from_json_obj,
    symbol_to_json_obj,
    weierstrass_symbol,
)


def lacunary(alpha, gamma, c, cutoff):
    return weierstrass_symbol(WeierstrassParams(alpha, gamma, c), cutoff)


def test_weierstrass_coefficient_values():
    w = lacunary(0.5, 2, CoefficientRule.constant(1.0), 16)
    assert w[4] == pytest.approx(0.5)  # level n=2: 2^(-0.5*2)
    assert w[-4] == pytest.approx(0.5)
    assert sorted(w.coeffs) == [-16, -8, -4, -2, -1, 1, 2, 4, 8, 16]


def test_weierstrass_zero_sequence_gives_zero_symbol():
    w = lacunary(0.5, 2, CoefficientRule.constant(0.0), 16)
    assert w.coeffs == {}


def test_weierstrass_alternating_base_three():
    c = CoefficientRule.from_head([1.0, 2.0], extension="periodic")
    w = lacunary(0.3, 3, c, 100)
    assert sorted(abs(k) for k in w.coeffs if k > 0) == [1, 3, 9, 27, 81]
    assert w[9] == pytest.approx(3 ** (-0.6) * 1.0)
    assert w[3] == pytest.approx(3 ** (-0.3) * 2.0)


def test_weierstrass_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        WeierstrassParams(1.5, 2, CoefficientRule.constant(1.0))
    with pytest.raises(ParameterError):
        WeierstrassParams(0.5, 1, CoefficientRule.constant(1.0))
    with pytest.raises(ParameterError):
        weierstrass_symbol(WeierstrassParams(0.5, 2, CoefficientRule.constant(1.0)), 0)


def test_sample_pure_mode():
    grid = circle_grid(16)
    sym = sample_to_symbol(np.exp(3j * grid))
    assert sym[3] == pytest.approx(1.0)
    others = [abs(v) for k, v in sym.coeffs.items() if k != 3]
    assert max(others, default=0.0) < 1e-12


def test_sample_constant():
    sym = sample_to_symbol(np.full(8, 2.0 + 0j))
    assert sym[0] == pytest.approx(2.0)


def test_sample_weierstrass_round_trip():
    w = lacunary(0.5, 2, CoefficientRule.constant(1.0), 8)
    recovered = sample_to_symbol(symbol_eval(w, circle_grid(64)))
    for k in set(w.coeffs) | set(recovered.coeffs):
        assert abs(recovered[k] - w[k]) < 1e-12


def test_sample_rejects_non_power_of_two():
    with pytest.raises(ParameterError):
        sample_to_symbol(np.zeros(12, dtype=complex))


def test_round_trip_random_band_limited():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(1, 12))
        coeffs = {
            int(k): complex(rng.standard_normal(), rng.standard_normal())
            for k in range(-d, d + 1)
        }
        a = FourierSymbol(coeffs)
        size = 1
        while size < 2 * a.n_max + 2:
            size *= 2
        back = sample_to_symbol(symbol_eval(a, circle_grid(size)))
        for k in set(a.coeffs) | set(back.coeffs):
            assert abs(back[k] - a[k]) < 1e-12


def test_hardy_split_symmetric_pair():
    a = FourierSymbol({1: 1.0, -1: 1.0})
    plus, minus = hardy_split(a)
    assert plus.coeffs == {1: 1.0 + 0j}
    assert minus.coeffs == {-1: 1.0 + 0j}


def test_hardy_split_constant_is_holomorphic():
    plus, minus = hardy_split(constant_symbol(1.0))
    assert plus.coeffs == {0: 1.0 + 0j}
    assert minus.coeffs == {}


def test_hardy_split_weierstrass_and_exact_sum():
    w = lacunary(0.5, 2, CoefficientRule.constant(1.0), 8)
    plus, minus = hardy_split(w)
    assert sorted(plus.coeffs) == [1, 2, 4, 8]
    assert sorted(minus.coeffs) == [-8, -4, -2, -1]
    assert (plus + minus).coeffs == w.coeffs


def test_symbol_eval_examples():
    assert symbol_eval(mode_symbol(1), [0.0])[0] == pytest.approx(1.0)
    a = FourierSymbol({1: 1.0, -1: 1.0})
    assert abs(symbol_eval(a, [math.pi / 2])[0]) < 1e-15
    w = lacunary(0.5, 2, CoefficientRule.constant(1.0), 64)
    expected = sum(2.0 * 2 ** (-0.5 * n) for n in range(7))  # levels 1..64
    assert symbol_eval(w, [0.0])[0].real == pytest.approx(expected)


def test_real_valued_flag_validation():
    FourierSymbol({1: 1 + 2j, -1: 1 - 2j}, real_valued=True)
    with pytest.raises(ParameterError):
        FourierSymbol({1: 1 + 2j, -1: 1 + 2j}, real_valued=True)


def test_zero_coefficients_are_pruned():
    a = FourierSymbol({0: 0.0, 3: 1.0, 5: 0j})
    assert sorted(a.coeffs) == [3]
    assert a.n_max == 3


def test_json_interchange_round_trip():
    a = FourierSymbol({3: 1 + 2j, -1: 0.5, 0: -2.0})
    obj = symbol_to_json_obj(a)
    assert [entry[0] for entry in obj["modes"]] == [-1, 0, 3]
    back = symbol_from_json_obj(obj)
    assert back.coeffs == a.coeffs
    with pytest.raises(ParameterError):
        symbol_from_json_obj({"nope": []})


def test_cosine_symbol_halves():
    c = cosine_symbol(4)
    assert c[4] == pytest.approx(0.5)
    assert c[-4] == pytest.approx(0.5)


class TestCoefficientRule:
    def test_constant_and_periodic(self):
        assert list(CoefficientRule.constant(2.0).values(4)) == [2, 2, 2, 2]
        rule = CoefficientRule.from_head([1.0, 2.0], extension="periodic")
        assert list(rule.values(5)) == [1, 2, 1, 2, 1]

    def test_block_indicator_matches_interval_definition(self):
        rule = CoefficientRule.block_indicator(2)
        vals = rule.values(300)

        def direct(n):
            j = 0
            while 4**j <= n:
                if 4**j <= n < 2 * 4**j:
                    return 0.0
                j += 1
            return 1.0

        for n in range(300):
            assert vals[n] == direct(n)

    def test_sqrt_log_cos(self):
        rule = CoefficientRule.sqrt_log_cos()
        vals = rule.values(10)
        assert vals[0] == pytest.approx(math.sqrt(3.0))
        assert vals[5] == pytest.approx(math.sqrt(2 + math.cos(math.log(5))))
        n = np.arange(4000, dtype=float)
        n[0] = 1.0
        assert rule.values(4000).tobytes() == np.sqrt(2.0 + np.cos(np.log(n))).tobytes()

    def test_validation(self):
        with pytest.raises(ParameterError):
            CoefficientRule(extension="constant")
        with pytest.raises(ParameterError):
            CoefficientRule(extension="block-indicator", base=1)
        with pytest.raises(ParameterError):
            CoefficientRule(head=(float("nan"),), extension="constant")


def test_json_non_numeric_mode_entries_are_parameter_errors():
    for entry in ([1, "x", 0], [1, 0, [2]], ["x", 1, 0], [None, 1, 0]):
        with pytest.raises(ParameterError, match="malformed mode entry"):
            symbol_from_json_obj({"modes": [entry]})
    with pytest.raises(ParameterError):
        symbol_from_json_obj({"modes": 5})
