"""Clifford generators, phase products and twisted torus trace sums.

The graded two-dimensional spinor trace against one Dirac phase and three
phase differences is purely imaginary; graded_trace_2d returns the real
coefficient tau with trace = i * tau.  The matrix route below recomputes the
trace from explicit 2x2 products, so closed form and matrices stay
independent checks of each other.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circletrace import nc_torus
from circletrace.errors import ParameterError
from circletrace.nc_torus import (
    AntisymmetricForm,
    LatticeSymbol,
    ModeTuple,
    clifford_rep,
    dirac_coefficients,
    dirac_phase,
    graded_trace_2d,
    grading_dirac_coefficients,
    identity_coefficients,
    lattice_ball,
    phase_product_matrix,
    torus_trace_partial,
    twist_phase,
)


def random_zero_sum_tuple(rng, span=3):
    k1 = rng.integers(-span, span + 1, size=2)
    k2 = rng.integers(-span, span + 1, size=2)
    k3 = -(k1 + k2)
    k4 = rng.integers(-span, span + 1, size=2)
    return ModeTuple((tuple(k1), tuple(k2), tuple(k3)), tuple(k4))


def matrix_side_trace(rep, modes):
    t_matrix = rep.grading @ dirac_phase(rep, modes.last)
    return complex(np.trace(t_matrix @ phase_product_matrix(rep, modes)))


def test_dimension_one_is_scalar():
    rep = clifford_rep(1)
    assert rep.dim_s == 1
    assert rep.gammas[0][0, 0] == pytest.approx(1.0)


def test_dimension_two_matches_complex_identification():
    rep = clifford_rep(2)
    f = dirac_phase(rep, (3, 4))
    kappa = (3 + 4j) / 5.0
    assert f[0, 1] == pytest.approx(kappa)
    assert f[1, 0] == pytest.approx(kappa.conjugate())
    assert np.array_equal(rep.grading, np.diag([1.0 + 0j, -1.0 + 0j]))


def test_dimension_three_volume_element_is_central():
    rep = clifford_rep(3)
    volume = rep.gammas[0] @ rep.gammas[1] @ rep.gammas[2]
    assert np.allclose(volume, -1j * np.eye(2), atol=1e-14) or np.allclose(
        volume, 1j * np.eye(2), atol=1e-14
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_clifford_relations(n):
    rep = clifford_rep(n)
    assert rep.dim_s == 2 ** (n // 2)
    eye = np.eye(rep.dim_s)
    for i, gi in enumerate(rep.gammas):
        assert np.max(np.abs(gi - gi.conj().T)) < 1e-12
        assert np.max(np.abs(gi @ gi.conj().T - eye)) < 1e-12
        for j, gj in enumerate(rep.gammas):
            anti = gi @ gj + gj @ gi
            target = 2.0 * eye if i == j else 0.0 * eye
            assert np.max(np.abs(anti - target)) < 1e-12
    if n % 2 == 0:
        grading = rep.grading
        assert np.max(np.abs(grading - grading.conj().T)) < 1e-12
        assert np.max(np.abs(grading @ grading - eye)) < 1e-12
        for gi in rep.gammas:
            assert np.max(np.abs(grading @ gi + gi @ grading)) < 1e-12


def test_dirac_phase_conventions():
    rep = clifford_rep(4)
    assert not dirac_phase(rep, (0, 0, 0, 0)).any()
    assert np.array_equal(dirac_phase(rep, (1, 0, 0, 0)), rep.gammas[0])
    rng = np.random.default_rng(0)
    for _ in range(10):
        k = rng.integers(-5, 6, size=4)
        if not k.any():
            continue
        f = dirac_phase(rep, k)
        assert np.max(np.abs(f @ f - np.eye(rep.dim_s))) < 1e-12


def test_phase_product_degenerate_cases():
    rep = clifford_rep(2)
    zero = ModeTuple(((0, 0),), (2, 1))
    assert not phase_product_matrix(rep, zero).any()
    k_last = (1, 2)
    doubled = ModeTuple(((-2, -4),), k_last)
    expected = -2.0 * dirac_phase(rep, k_last)
    assert np.allclose(phase_product_matrix(rep, doubled), expected, atol=1e-14)


def test_unimodular_product_identity():
    # the algebraic engine of the two-dimensional reduction: for unimodular
    # w, z, u the product w(conj(w)-conj(z))(z-u)(conj(u)-conj(w)) collapses
    # to 2i times the sum of the three pairwise imaginary parts
    rng = np.random.default_rng(1)
    w, z, u = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(3, 10_000)))
    lhs = w * (w.conj() - z.conj()) * (z - u) * (u.conj() - w.conj())
    rhs = 2j * (
        (w * z.conj()).imag + (z * u.conj()).imag + (u * w.conj()).imag
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_graded_trace_matches_matrix_side():
    rep = clifford_rep(2)
    rng = np.random.default_rng(2)
    degenerate_seen = 0
    for _ in range(2000):
        modes = random_zero_sum_tuple(rng)
        closed = graded_trace_2d(modes)
        trace = matrix_side_trace(rep, modes)
        assert abs(trace - 1j * closed) < 1e-10
        sums = modes.suffix_sums()
        if not (sums[1].any() and sums[2].any() and sums[3].any()):
            degenerate_seen += 1
    assert degenerate_seen > 0  # the sweep must exercise the reduced branches


def test_graded_trace_parallel_modes_vanish():
    modes = ModeTuple(((2, 0), (-3, 0), (1, 0)), (4, 0))
    assert graded_trace_2d(modes) == 0.0


def test_graded_trace_rejects_nonzero_sum():
    with pytest.raises(ParameterError):
        graded_trace_2d(ModeTuple(((1, 0), (0, 1), (0, 0)), (1, 0)))


def test_twist_phase_properties():
    rng = np.random.default_rng(3)
    zero = AntisymmetricForm.zero(2)
    modes = random_zero_sum_tuple(rng)
    assert twist_phase(modes, zero) == pytest.approx(1.0)
    upper = np.triu(rng.standard_normal((2, 2)), k=1)
    form = AntisymmetricForm(upper - upper.T)
    # adjacent inverse pairs carry no area: phase is exactly 1
    for _ in range(20):
        k = tuple(int(c) for c in rng.integers(-4, 5, size=2))
        k_last = tuple(int(c) for c in rng.integers(-4, 5, size=2))
        pair = ModeTuple((k, tuple(-c for c in k)), k_last)
        assert abs(twist_phase(pair, form) - 1.0) < 1e-12
    # longer zero-sum tuples pick up the symplectic area of the tuple
    for _ in range(50):
        modes = random_zero_sum_tuple(rng)
        k1, k2, _ = modes.vectors
        area = form.pair(k1, k2)
        phase = twist_phase(modes, form)
        assert abs(abs(phase) - 1.0) < 1e-14
        assert phase == pytest.approx(complex(math.cos(area), math.sin(area)), abs=1e-12)
    # the group-commutator tuple shows the area phase cannot cancel in general
    commutator = ModeTuple(((1, 0), (0, 1), (-1, 0), (0, -1)), (0, 0))
    theta12 = form.theta[0, 1]
    assert twist_phase(commutator, form) == pytest.approx(
        complex(math.cos(2 * theta12), math.sin(2 * theta12)), abs=1e-12
    )
    skew = ModeTuple(((1, 0), (0, 1)), (2, -1))  # not zero-sum
    phase = twist_phase(skew, form)
    assert abs(abs(phase) - 1.0) < 1e-14
    assert abs(phase - 1.0) > 1e-3


def test_antisymmetric_form_validation():
    with pytest.raises(ParameterError):
        AntisymmetricForm(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_lattice_ball_includes_boundary_ties():
    ball = [tuple(row) for row in lattice_ball(2, 25).tolist()]
    assert (3, 4) in ball and (5, 0) in ball  # |k| = 5 = 25^(1/2) exactly
    assert (5, 1) not in ball
    assert ball[0] == (0, 0)


@pytest.mark.parametrize("n_trunc", [64.0, True, "64", 0])
def test_lattice_ball_refuses_a_truncation_that_is_not_an_integer_from_one(n_trunc):
    with pytest.raises(ParameterError, match="truncation must be an integer >= 1"):
        lattice_ball(2, n_trunc)


def test_lattice_ball_takes_a_numpy_integer_truncation():
    assert np.array_equal(lattice_ball(2, np.int64(25)), lattice_ball(2, 25))


def test_torus_trace_zero_symbols():
    rep = clifford_rep(2)
    empty = LatticeSymbol(2, {})
    seq = torus_trace_partial(rep, identity_coefficients(rep), [empty], 16)
    assert not np.any(seq.values)


def test_lattice_modes_refuse_a_coordinate_that_is_not_an_integer():
    for bad in ((1.5, 0), (1.0, 0), ("1", 0), (True, 0), (0, False)):
        with pytest.raises(ParameterError, match="not an integer"):
            LatticeSymbol(2, {bad: 1.0})
        with pytest.raises(ParameterError, match="not an integer"):
            LatticeSymbol.symmetric_pair(bad)
    sym = LatticeSymbol(2, {(np.int64(1), 0): 2.0})
    assert sym.coeffs == {(1, 0): 2.0} and type(next(iter(sym.coeffs))[0]) is int
    assert LatticeSymbol.symmetric_pair([np.int32(0), 2]).support() == [(0, -2), (0, 2)]


def test_torus_trace_one_dimensional_single_commutator_vanishes():
    rep = clifford_rep(1)
    sym = LatticeSymbol.symmetric_pair((3,), 1.0)
    seq = torus_trace_partial(rep, dirac_coefficients(rep), [sym], 32)
    assert np.max(np.abs(seq.values)) < 1e-14


def test_torus_trace_twist_enters_as_tuple_area_phase():
    # for this configuration every zero-sum tuple has the same symplectic
    # area theta_12, so twisting rotates the whole sequence by exp(i*theta_12)
    rep = clifford_rep(2)
    symbols = [
        LatticeSymbol.symmetric_pair((1, 0)),
        LatticeSymbol.symmetric_pair((0, 1)),
        LatticeSymbol.symmetric_pair((1, 1)),
    ]
    t_map = grading_dirac_coefficients(rep)
    n_trunc = 64
    base = torus_trace_partial(rep, t_map, symbols, n_trunc)
    rng = np.random.default_rng(4)
    for _ in range(3):
        upper = np.triu(rng.standard_normal((2, 2)), k=1)
        form = AntisymmetricForm(upper - upper.T)
        twisted = torus_trace_partial(rep, t_map, symbols, n_trunc, form)
        rotation = np.exp(1j * form.theta[0, 1])
        assert np.max(np.abs(twisted.values - rotation * base.values)) < 1e-10
        assert np.max(np.abs(np.abs(twisted.values) - np.abs(base.values))) < 1e-10


@pytest.mark.parametrize("n, t_name", [(2, "grading-dirac"), (3, "dirac")])
def test_one_ball_walk_gives_each_twist_its_own_sums_bit_for_bit(n, t_name, monkeypatch):
    monkeypatch.setattr(nc_torus, "_BLOCK_ENTRIES", 64)  # several blocks of the ball
    rep = clifford_rep(n)
    t_map = (grading_dirac_coefficients if t_name == "grading-dirac" else dirac_coefficients)(rep)
    unit = np.eye(n, dtype=int)
    symbols = [
        LatticeSymbol.symmetric_pair(unit[0], 0.5 - 0.25j),
        LatticeSymbol.symmetric_pair(unit[1] - unit[0], 1.5),
        LatticeSymbol(n, {tuple(unit[1]): -0.75j, tuple(-unit[1]): 2.0}),
    ]
    rng = np.random.default_rng(8)
    forms = []
    for _ in range(2):
        upper = np.triu(rng.uniform(-1.0, 1.0, (n, n)), k=1)
        forms.append(AntisymmetricForm(upper - upper.T))
    twists = [forms[0], None, forms[1]]
    walked = nc_torus._torus_trace_partials(rep, t_map, symbols, 48, twists)
    for seq, twist in zip(walked, twists):
        alone = torus_trace_partial(rep, t_map, symbols, 48, twist)
        assert np.array_equal(seq.points, alone.points)
        assert seq.values.tobytes() == alone.values.tobytes()
    assert walked[0].values.tobytes() != walked[1].values.tobytes()


def test_torus_trace_untwisted_matches_closed_form_enumeration():
    import itertools

    rep = clifford_rep(2)
    symbols = [
        LatticeSymbol.symmetric_pair((1, 0)),
        LatticeSymbol.symmetric_pair((0, 1)),
        LatticeSymbol.symmetric_pair((1, 1)),
    ]
    n_trunc = 64
    base = torus_trace_partial(rep, grading_dirac_coefficients(rep), symbols, n_trunc)
    supports = [sym.support() for sym in symbols]
    shells: dict[int, complex] = {}
    for k_last in lattice_ball(2, n_trunc):
        total = 0j
        for combo in itertools.product(*supports):
            if any(sum(v[i] for v in combo) for i in range(2)):
                continue
            coeff = 1.0 + 0j
            for sym, v in zip(symbols, combo):
                coeff *= sym.coeffs[v]
            total += coeff * 1j * graded_trace_2d(ModeTuple(combo, k_last))
        q = sum(c * c for c in k_last)
        shells[q] = shells.get(q, 0j) + total
    expected = []
    for big_n in range(1, n_trunc + 1):
        running = sum(v for q, v in shells.items() if q <= big_n)
        expected.append(running / math.log(2 + big_n))
    assert np.max(np.abs(base.values - np.asarray(expected))) < 1e-12


def brute_force_ball(n, n_trunc):
    radius = 0
    while (radius + 1) ** n <= n_trunc:
        radius += 1
    ball = [
        v
        for v in itertools.product(range(-radius, radius + 1), repeat=n)
        if sum(c * c for c in v) ** n <= n_trunc**2
    ]
    return sorted(ball, key=lambda v: (sum(c * c for c in v), v))


# (n, N); a boundary tie (|k|^2)^n = N^2 occurs at (1, 5), (2, 25), (3, 8), (4, 9),
# (5, 32), (6, 27), (7, 128) and (8, 16)
BALL_CASES = [
    (1, 1), (1, 5), (1, 40), (2, 1), (2, 25), (2, 50), (3, 8), (3, 100), (4, 9),
    (4, 100), (5, 32), (6, 27), (7, 128), (8, 9), (8, 16),
]


@pytest.mark.parametrize("n, n_trunc", BALL_CASES)
def test_lattice_ball_matches_brute_force(n, n_trunc):
    ball = lattice_ball(n, n_trunc)
    assert ball.dtype == np.int64 and ball.shape[1:] == (n,)
    assert ball.tolist() == [list(v) for v in brute_force_ball(n, n_trunc)]


def per_point_trace_partial(rep, t_map, symbols, n_trunc, form):
    """The per-point algorithm: one reference mode and one tuple at a time."""
    tuples = []
    for combo in itertools.product(*(sym.support() for sym in symbols)):
        if not any(sum(v[i] for v in combo) for i in range(rep.n)):
            coeff = 1.0 + 0j
            for sym, v in zip(symbols, combo):
                coeff *= sym.coeffs[v]
            tuples.append((combo, coeff))
    shells = []
    for k_last in brute_force_ball(rep.n, n_trunc):
        t_matrix = t_map(k_last)
        total = 0j
        for combo, coeff in tuples:
            modes = ModeTuple(combo, k_last)
            trace = np.trace(t_matrix @ phase_product_matrix(rep, modes))
            total += coeff * twist_phase(modes, form) * trace
        shells.append((sum(c * c for c in k_last), total))
    values, running, idx = [], 0j, 0
    for big_n in range(1, n_trunc + 1):
        while idx < len(shells) and shells[idx][0] ** rep.n <= big_n**2:
            running += shells[idx][1]
            idx += 1
        values.append(running / math.log(2 + big_n))
    return np.asarray(values)


def unit(n, i):
    return tuple(int(j == i) for j in range(n))


def oracle_symbols(n, rng):
    """Pairs along e1, e2, e1 + e2 (and the commutator tuple e1, e2, -e1, -e2)."""
    e1, e2 = unit(n, 0), unit(n, 1 % n)
    e12 = tuple(a + b for a, b in zip(e1, e2))
    if n == 1:
        e2, e12 = (2,), (3,)

    def pair(v):
        amp = complex(*rng.standard_normal(2))
        return LatticeSymbol(n, {v: amp, tuple(-c for c in v): amp.conjugate()})

    return [
        [pair(e1), pair(e1)],  # adjacent inverse pairs: the suffix sum at K = +-e1 vanishes
        [pair(e1), pair(e2), pair(e12)],
        [pair(e1), pair(e2), pair(e1), pair(e2)],
    ]


@pytest.mark.parametrize("n, n_trunc", [(1, 25), (2, 20), (3, 20), (4, 9)])
def test_batched_trace_matches_per_point_oracle(n, n_trunc, monkeypatch):
    monkeypatch.setattr(nc_torus, "_BLOCK_ENTRIES", 37)  # many blocks, a ragged last one
    rep = clifford_rep(n)
    rng = np.random.default_rng(10 + n)
    t_maps = [dirac_coefficients(rep), identity_coefficients(rep)]
    if n % 2 == 0:
        t_maps.append(grading_dirac_coefficients(rep))
    upper = np.triu(rng.standard_normal((n, n)), k=1)
    forms = [AntisymmetricForm.zero(n), AntisymmetricForm(upper - upper.T)]
    for symbols in oracle_symbols(n, rng):
        for t_map in t_maps:
            for form in forms:
                batched = torus_trace_partial(rep, t_map, symbols, n_trunc, form).values
                expected = per_point_trace_partial(rep, t_map, symbols, n_trunc, form)
                scale = np.max(np.abs(expected))
                if scale < 1e-12:  # vanishes up to the roundoff of its O(1) terms
                    scale = 1.0
                assert np.max(np.abs(batched - expected)) <= 1e-13 * scale


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=4),
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            st.lists(st.floats(-3, 3), min_size=n * n, max_size=n * n),
        )
    )
)
def test_zero_sum_twist_phase_is_independent_of_reference_mode(case):
    head, k_last, entries = case
    n = len(k_last)
    closing = tuple(-sum(v[i] for v in head) for i in range(n))
    vectors = [tuple(v) for v in head] + [closing]
    upper = np.triu(np.reshape(entries, (n, n)), k=1)
    form = AntisymmetricForm(upper - upper.T)
    at_origin = twist_phase(ModeTuple(vectors, (0,) * n), form)
    assert abs(twist_phase(ModeTuple(vectors, k_last), form) - at_origin) < 1e-12


def test_single_mode_helpers_reject_a_stack():
    stack = np.array([[1, 2], [3, 4]])  # B = n = 2, which a pairing would not notice
    form = AntisymmetricForm(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(ParameterError):
        twist_phase(ModeTuple(((1, 0), (-1, 0)), stack), form)
    with pytest.raises(ParameterError):
        graded_trace_2d(ModeTuple(((1, 0), (0, 1), (-1, -1)), stack))


def test_stacked_helpers_match_single_modes():
    rep = clifford_rep(4)
    stack = np.random.default_rng(6).integers(-3, 4, size=(9, 4))
    stack[0] = 0
    combo = ((1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0))
    products = phase_product_matrix(rep, ModeTuple(combo, stack))
    for t_map in (
        grading_dirac_coefficients(rep), dirac_coefficients(rep), identity_coefficients(rep)
    ):
        assert t_map(stack).shape == (9, 4, 4)
        for k, t_matrix in zip(stack, t_map(stack)):
            assert np.array_equal(t_matrix, t_map(k))
    for k, product in zip(stack, products):
        assert np.array_equal(product, phase_product_matrix(rep, ModeTuple(combo, k)))
