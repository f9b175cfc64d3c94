import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circletrace.dixmier import residue_sequence
from circletrace.errors import BasisMismatchError, ParameterError
from circletrace.fourier import (
    CoefficientRule,
    FourierSymbol,
    WeierstrassParams,
    constant_symbol,
    mode_symbol,
    weierstrass_symbol,
)
from circletrace.operators import (
    BasisIndexMap,
    OrderingRule,
    TruncatedOperator,
    antiholomorphic_basis,
    commutator_matrix,
    compress,
    dense_commutator,
    full_basis,
    hankel_matrix,
    hardy_basis,
    hardy_compress,
    operator_product,
    operator_to_json_obj,
    szego_projection,
)


def random_symbol(rng, degree, lo=0.3, hi=1.0):
    coeffs = {}
    for k in range(-degree, degree + 1):
        amp = rng.uniform(lo, hi)
        coeffs[k] = complex(amp * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    return FourierSymbol(coeffs)


def diagonal_oracle(a, b, l, degree):
    return -sum(a[k] * b[-k] for k in range(l + 1, degree + 1))


def test_hankel_single_mode_is_rank_one():
    h = hankel_matrix(mode_symbol(1), 8)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(h.matrix, expected)


def test_hankel_ignores_antiholomorphic_part():
    a = FourierSymbol({-1: 2.0, -3: 1.0, 0: 5.0})
    assert not hankel_matrix(a, 6).matrix.any()


def test_hankel_weierstrass_antidiagonals():
    w = weierstrass_symbol(WeierstrassParams(0.5, 2, CoefficientRule.constant(1.0)), 8)
    h = hankel_matrix(w, 8).matrix
    for l in range(8):
        for i in range(8):
            k = l + i + 1
            if k in (1, 2, 4, 8):
                n = k.bit_length() - 1
                assert h[l, i] == pytest.approx(2 ** (-0.5 * n))
            else:
                assert h[l, i] == 0


def test_hankel_rank_bounded_by_analytic_degree():
    rng = np.random.default_rng(0)
    a = random_symbol(rng, 5)
    mu = np.linalg.svd(hankel_matrix(a, 32).matrix, compute_uv=False)
    assert np.all(mu[5:] < 1e-12)


def test_commutator_of_constant_vanishes():
    assert not commutator_matrix(constant_symbol(3.0), 4).matrix.any()


def test_commutator_single_mode_entries():
    op = commutator_matrix(mode_symbol(1), 2)
    labels = op.row_basis.labels  # (0, 1, -1, 2, -2)
    nonzero = {
        (labels[i], labels[j]): op.matrix[i, j]
        for i in range(5)
        for j in range(5)
        if op.matrix[i, j] != 0
    }
    assert nonzero == {(0, -1): 1.0 + 0j}


def test_commutator_adjoint_law():
    rng = np.random.default_rng(1)
    a = random_symbol(rng, 6)
    lhs = commutator_matrix(a, 12).matrix.conj().T
    conjugate = FourierSymbol({-k: v.conjugate() for k, v in a.coeffs.items()})
    rhs = -commutator_matrix(conjugate, 12).matrix
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_commutator_skew_for_real_symbol():
    w = weierstrass_symbol(WeierstrassParams(0.5, 2, CoefficientRule.constant(1.0)), 8)
    c = commutator_matrix(w, 16).matrix
    assert np.allclose(c.conj().T, -c, atol=1e-14)


def signed_symbol(rng, degree, real=False):
    """Random coefficients with negative parts and signed zeros mixed in."""
    coeffs = {}
    for k in range(-degree, degree + 1):
        re, im = rng.standard_normal(2)
        pick = rng.integers(5)
        im = 0.0 if real or pick == 0 else -0.0 if pick == 1 else im
        re = -0.0 if pick == 2 else re
        if pick != 3:  # leave some modes absent
            coeffs[k] = complex(re, im)
    return FourierSymbol(coeffs)


def coefficient_vector(a, lo, hi):
    return np.array([a[k] for k in range(lo, hi + 1)], dtype=complex)


def gathered_hankel(a, n):
    """The index-matrix build: vec[l + i + 1] gathered from a_0..a_{2N},
    stored real when the gathered entries are."""
    vec = coefficient_vector(a, 0, 2 * n)
    block = vec[np.add.outer(np.arange(n), np.arange(n)) + 1]
    return block.real if not block.imag.any() else block


def gathered_commutator(a, n):
    """The sign x gather build over the mode-difference matrix."""
    labels = full_basis(n).labels
    vec = coefficient_vector(a, -2 * n, 2 * n)
    diff = labels[:, None] - labels[None, :]
    sign = (labels[:, None] >= 0).astype(float) - (labels[None, :] >= 0).astype(float)
    return sign * vec[diff + 2 * n]


def gathered_multiplication(a, basis):
    labels = basis.labels
    span = int(labels.max() - labels.min())
    vec = coefficient_vector(a, -span, span)
    return vec[labels[:, None] - labels[None, :] + span]


def same_bits(left, right):
    return left.dtype == right.dtype and np.array_equal(
        np.ascontiguousarray(left).view(np.uint64), np.ascontiguousarray(right).view(np.uint64)
    )


def multiplication(a, basis):
    """Multiplication by ``a`` compressed to ``basis``, [m, l] = a_{m-l}, as a
    caller's dense matrix."""
    return TruncatedOperator(gathered_multiplication(a, basis), basis, basis)


def reflection(n):
    """2P - 1 on modes -n..n as a caller's dense matrix: +1 on modes >= 0, -1 below."""
    basis = full_basis(n)
    return TruncatedOperator(np.diag(np.where(basis.labels >= 0, 1.0, -1.0)), basis, basis)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
@pytest.mark.parametrize("real", [True, False])
def test_hankel_view_matches_gathered_build(n, real):
    rng = np.random.default_rng(n)
    for degree in (1, n, 2 * n + 3):
        a = signed_symbol(rng, degree, real)
        assert same_bits(hankel_matrix(a, n).matrix, gathered_hankel(a, n))


@st.composite
def hankel_cases(draw):
    """A truncation n and a symbol whose modes lie anywhere in -3n..3n, only
    below 0, only at or beyond 2n where none enters the block, or nowhere;
    with real or complex coefficients."""
    n = draw(st.integers(1, 40))
    lo, hi = draw(st.sampled_from([(-3 * n, 3 * n), (-3 * n, -1), (2 * n, 3 * n), (0, 0)]))
    modes = draw(st.lists(st.integers(lo, hi), max_size=12, unique=True))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = lambda: (rng.standard_normal(), 0.0 if real else rng.standard_normal())
    return n, FourierSymbol({k: complex(*parts()) for k in modes})


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(hankel_cases())
def test_hankel_block_is_the_corner_its_modes_reach(case):
    n, a = case
    op = hankel_matrix(a, n)
    assert same_bits(op.matrix, gathered_hankel(a, n))
    top = min(n, max((k for k in a.coeffs if 0 < k < 2 * n), default=0))
    assert op.block.shape == (top, top)
    assert op.rows.tolist() == op.cols.tolist() == list(range(top))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_hankel_dtype_follows_the_coefficients_it_reads(n):
    # i + z^3: a_0 is complex but never enters the block
    a = FourierSymbol({0: 1j, 3: 1.0})
    block = hankel_matrix(a, n).matrix
    complex_build = coefficient_vector(a, 0, 2 * n)[np.add.outer(np.arange(n), np.arange(n)) + 1]
    assert block.dtype == np.float64
    assert same_bits(block, complex_build.real)


def test_hankel_matrix_is_a_read_only_copy():
    a = FourierSymbol({k: 1.0 / k for k in range(1, 16)})
    op = hankel_matrix(a, 8)
    assert not op.matrix.flags.writeable
    assert op.matrix.flags.owndata and op.matrix.flags.c_contiguous
    assert op.matrix.strides == (64, 8)  # one slot per entry, none shared


@pytest.mark.parametrize("n", [1, 2, 5, 32])
def test_commutator_blocks_match_sign_times_gather(n):
    # the dense build the dump writes keeps every signed zero; the supported
    # operator's zeros outside its block are +0.0
    rng = np.random.default_rng(10 + n)
    for degree in (1, n, 2 * n + 1):
        a = signed_symbol(rng, degree)
        assert same_bits(dense_commutator(a, n).matrix, gathered_commutator(a, n))
        assert np.array_equal(commutator_matrix(a, n).matrix, gathered_commutator(a, n))


def test_every_builder_returns_a_plain_operator():
    a = random_symbol(np.random.default_rng(3), 3)
    comm = commutator_matrix(a, 6)
    for op in (
        hankel_matrix(a, 6),
        comm,
        dense_commutator(a, 6),
        szego_projection(6),
        operator_product([szego_projection(6), comm, comm]),
        compress(comm, full_basis(3), full_basis(3)),
        hardy_compress(comm, 6),
    ):
        assert type(op) is TruncatedOperator


def traced_peak(build):
    """(result, peak bytes traced while building it)."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_builders_hold_no_entry_sized_temporaries():
    # a builder allocates one array per operator, the block it keeps: the
    # copy of the Hankel view, and only blocks for the commutator, the
    # projection and the compression.
    # Beyond a whole-matrix block it may hold 10% of that block; beyond a
    # partial one, its coefficient, label and index vectors, at most 512
    # bytes per basis mode and well under one full-size array
    a = random_symbol(np.random.default_rng(2), 16)
    comm = commutator_matrix(a, 256)
    for build in (
        lambda: hankel_matrix(a, 256),
        lambda: commutator_matrix(a, 512),
        lambda: szego_projection(256),
        lambda: compress(comm, full_basis(256), full_basis(256)),
    ):
        op, peak = traced_peak(build)
        assert type(op.block) is np.ndarray
        owner = op.block
        while owner is not None:  # the block and every array it is a view of
            assert not isinstance(owner, np.ndarray) or not owner.flags.writeable
            owner = getattr(owner, "base", None)
        whole = op.block.shape == op.shape
        assert peak < op.block.nbytes + (0.1 * op.block.nbytes if whole else 512 * max(op.shape))


def test_caller_arrays_are_copied_and_stay_writeable():
    for caller in (np.arange(6.0).reshape(2, 3), np.ones((2, 3), dtype=complex)):
        op = TruncatedOperator(caller, hardy_basis(2), hardy_basis(3))
        assert caller.flags.writeable and not op.matrix.flags.writeable
        before = op.matrix.copy()
        caller[0, 0] = 7.0
        assert np.array_equal(op.matrix, before) and op.matrix[0, 0] != 7.0


def test_szego_operators_are_stored_real():
    op = szego_projection(2)
    assert op.matrix.dtype == np.float64
    assert np.array_equal(op.matrix, np.diag([1.0, 1.0, 0.0, 1.0, 0.0]))


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_szego_matrices_match_the_diagonal_build(n):
    labels = full_basis(n).labels
    assert same_bits(szego_projection(n).matrix, np.diag((labels >= 0).astype(float)))


def test_product_of_single_operator_is_itself():
    op = szego_projection(3)
    assert np.array_equal(operator_product([op]).matrix, op.matrix)


def test_product_rejects_basis_mismatch():
    h = hankel_matrix(mode_symbol(1), 4)
    with pytest.raises(BasisMismatchError):
        operator_product([h, h])


def test_hardy_block_of_commutator_product_matches_hankel_product():
    # P [P,a] [P,b] on modes 0..N-1 equals -H(a) K(b) with
    # K(b)[i, l] = b_{-(i+l+1)}, the Hankel array of the reflected symbol
    rng = np.random.default_rng(2)
    a, b = random_symbol(rng, 4), random_symbol(rng, 4)
    n = 16
    product = operator_product(
        [szego_projection(n), commutator_matrix(a, n), commutator_matrix(b, n)]
    )
    block = hardy_compress(product, n).matrix
    reflected = FourierSymbol({-k: v for k, v in b.coeffs.items()})
    expected = -hankel_matrix(a, n).matrix @ hankel_matrix(reflected, n).matrix
    assert np.allclose(block, expected, atol=1e-13)


def test_reflection_weighted_trace_of_rank_one_pair():
    n = 4
    prod = operator_product(
        [
            reflection(n),
            commutator_matrix(mode_symbol(1), n),
            commutator_matrix(mode_symbol(-1), n),
        ]
    )
    assert prod.diagonal().sum() == pytest.approx(-1.0)


def test_safe_band_diagonal_oracle():
    rng = np.random.default_rng(3)
    degree, n = 8, 32
    a, b = random_symbol(rng, degree), random_symbol(rng, degree)
    product = operator_product(
        [szego_projection(n), commutator_matrix(a, n), commutator_matrix(b, n)]
    )
    block = hardy_compress(product, n).matrix
    for l in range(n - degree):
        assert abs(block[l, l] - diagonal_oracle(a, b, l, degree)) < 1e-13


def test_truncation_exactness_inside_safe_band():
    # entries inside the safe band must not move when the truncation grows
    rng = np.random.default_rng(4)
    degree = 6
    a, b = random_symbol(rng, degree), random_symbol(rng, degree)

    def hardy_block(n):
        prod = operator_product(
            [szego_projection(n), commutator_matrix(a, n), commutator_matrix(b, n)]
        )
        return hardy_compress(prod, n).matrix

    small, large = hardy_block(24), hardy_block(48)
    safe = 24 - degree
    assert np.allclose(small[:safe, :safe], large[:safe, :safe], atol=1e-14)


def test_multiplication_block_reproduces_hankel():
    rng = np.random.default_rng(5)
    a = random_symbol(rng, 3)
    n = 8
    mult = multiplication(a, full_basis(n))
    proj = szego_projection(n)
    ident = TruncatedOperator(
        np.eye(2 * n + 1, dtype=complex), full_basis(n), full_basis(n)
    )
    upper = operator_product(
        [proj, mult, TruncatedOperator(ident.matrix - proj.matrix, full_basis(n), full_basis(n))]
    )
    hank = hankel_matrix(a, n)
    # read the Hardy x antiholomorphic block out of the full-basis matrix
    labels = list(full_basis(n).labels)
    rows = [labels.index(l) for l in range(n)]
    cols = [labels.index(-1 - i) for i in range(n)]
    # the full-basis truncation only carries modes down to -n, so compare the
    # alias-free upper-left quarter
    quarter = n // 2
    assert np.allclose(
        upper.matrix[np.ix_(rows, cols)][:quarter, :quarter],
        hank.matrix[:quarter, :quarter],
        atol=1e-14,
    )


def test_compress_and_json_dump():
    op = reflection(2)
    block = compress(op, hardy_basis(2), hardy_basis(2))
    assert np.array_equal(block.matrix, np.eye(2, dtype=complex))
    obj = operator_to_json_obj(block)
    assert obj["row_basis"] == {"ordering": "hardy-natural", "labels": [0, 1]}
    assert obj["rows"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(BasisMismatchError):
        compress(block, hardy_basis(3), hardy_basis(3))


def test_basis_validation():
    assert antiholomorphic_basis(3).labels.tolist() == [-1, -2, -3]
    assert full_basis(2).labels.tolist() == [0, 1, -1, 2, -2]


def _loop_labels(rule, size):
    """Reference labels, built one mode at a time."""
    if rule is OrderingRule.HARDY_NATURAL:
        return list(range(size))
    if rule is OrderingRule.ANTIHOLOMORPHIC:
        return [-1 - i for i in range(size)]
    labels = [0]
    m = 1
    while len(labels) < size:
        labels.append(m)
        if len(labels) < size:
            labels.append(-m)
        m += 1
    return labels[:size]


@pytest.mark.parametrize("rule", list(OrderingRule))
def test_basis_labels_follow_rule(rule):
    for size in range(10):
        labels = BasisIndexMap(rule, size).labels
        assert labels.dtype == np.int64
        assert labels.tolist() == _loop_labels(rule, size)


def test_basis_equality_is_rule_and_size():
    assert hardy_basis(4) == BasisIndexMap(OrderingRule.HARDY_NATURAL, 4)
    assert hash(full_basis(3)) == hash(BasisIndexMap(OrderingRule.FULL_BY_MODULUS, 7))
    assert hardy_basis(4) != hardy_basis(5)
    assert hardy_basis(4) != antiholomorphic_basis(4)
    assert hardy_basis(1) != BasisIndexMap(OrderingRule.FULL_BY_MODULUS, 1)
    with pytest.raises(ParameterError):
        BasisIndexMap(OrderingRule.HARDY_NATURAL, -1)


def test_compress_selects_labels_of_full_basis():
    rng = np.random.default_rng(4)
    n = 6
    mult = multiplication(random_symbol(rng, 4), full_basis(n))
    block = compress(mult, hardy_basis(n), antiholomorphic_basis(n))
    labels = list(full_basis(n).labels)
    rows = [labels.index(l) for l in range(n)]
    cols = [labels.index(-1 - i) for i in range(n)]
    assert np.array_equal(block.matrix, mult.matrix[np.ix_(rows, cols)])
    with pytest.raises(BasisMismatchError, match="compression label -7 missing"):
        compress(mult, hardy_basis(n), antiholomorphic_basis(n + 1))


def _lookup_compress(op, row_basis, col_basis):
    """Reference compression, one label at a time: the sub-matrix, or the first
    missing label, rows before columns."""
    row_at = {k: i for i, k in enumerate(op.row_basis.labels.tolist())}
    col_at = {k: i for i, k in enumerate(op.col_basis.labels.tolist())}
    wanted = [(row_at, row_basis), (col_at, col_basis)]
    for at, basis in wanted:
        for k in basis.labels.tolist():
            if k not in at:
                return k
    rows, cols = ([at[k] for k in basis.labels.tolist()] for at, basis in wanted)
    return op.matrix[np.ix_(rows, cols)]


@pytest.mark.parametrize("op_rule", list(OrderingRule))
def test_compress_matches_label_lookup_for_every_ordering(op_rule):
    rng = np.random.default_rng(9)
    op = multiplication(random_symbol(rng, 3), BasisIndexMap(op_rule, 9))
    for row_rule, col_rule in [(r, c) for r in OrderingRule for c in OrderingRule]:
        for row_size, col_size in [(0, 0), (3, 5), (5, 3), (9, 9), (10, 2), (2, 10)]:
            rows, cols = BasisIndexMap(row_rule, row_size), BasisIndexMap(col_rule, col_size)
            expected = _lookup_compress(op, rows, cols)
            if isinstance(expected, int):
                message = f"compression label {expected} missing from operator basis"
                with pytest.raises(BasisMismatchError, match=f"^{message}$"):
                    compress(op, rows, cols)
            else:
                block = compress(op, rows, cols)
                assert (block.row_basis, block.col_basis) == (rows, cols)
                assert np.array_equal(block.matrix, expected)


def test_operator_dump_is_plain_json():
    rng = np.random.default_rng(5)
    obj = operator_to_json_obj(commutator_matrix(random_symbol(rng, 2), 3))
    text = json.dumps(obj)
    assert json.loads(text)["col_basis"]["labels"] == [0, 1, -1, 2, -2, 3, -3]


def test_operator_validation():
    with pytest.raises(ParameterError):
        TruncatedOperator(np.zeros((2, 3)), hardy_basis(2), hardy_basis(2))
    for bad in ([[np.inf, 0], [0, 0]], [[0, -np.inf], [0, 0]], [[0, 0], [np.nan, 0]],
                [[0, 0], [0, complex(1.0, np.nan)]], [[complex(0, -np.inf), 0], [0, 0]]):
        with pytest.raises(ParameterError):
            TruncatedOperator(np.array(bad), hardy_basis(2), hardy_basis(2))
    huge = np.array([[1.7e308, 1e308], [-1.7e308, complex(0, 1.7e308)]])
    for finite in (huge, huge.T, huge.real.T):  # either memory order
        op = TruncatedOperator(finite, hardy_basis(2), hardy_basis(2))
        assert np.array_equal(op.matrix, finite)
    with pytest.raises(ParameterError):
        TruncatedOperator(np.array([[0, np.nan], [0, 0]]).T, hardy_basis(2), hardy_basis(2))
    assert TruncatedOperator(np.zeros((0, 2)), hardy_basis(0), hardy_basis(2)).shape == (0, 2)


def dense_chain(mats):
    """Plain successive @ over the given matrices."""
    out = mats[0]
    for mat in mats[1:]:
        out = out @ mat
    return out


def assert_product_matches_dense(ops, bitwise=True):
    """The zero-aware product against plain successive @ on unmodified copies.

    ``bitwise``: equal bytes up to the sign of zero.  Where the dense route
    sums only exact zeros, its sign follows the BLAS kernel (-0.0 on some
    shapes with OpenBLAS) while a skipped block reads +0.0; adding +0.0
    maps -0.0 to +0.0 and leaves every other entry's bits alone.

    Otherwise the stated tolerance: a trimmed GEMM may take another kernel
    path or grouping of the same nonzero terms, so an entry may move by
    rounding, never beyond 2 (r - 1)(k + 2) eps |M_1| ... |M_r| for r factors
    of inner size at most k (each route is within half of that of the exact
    product).
    """
    before = [op.matrix.tobytes() for op in ops]
    got = operator_product(ops).matrix
    dense = dense_chain([op.matrix.copy() for op in ops])
    assert got.dtype == dense.dtype and got.shape == dense.shape
    if bitwise:
        assert (got + 0.0).tobytes() == (dense + 0.0).tobytes()
    else:
        k = max(op.shape[0] for op in ops[1:])
        scale = dense_chain([np.abs(op.matrix) for op in ops])
        tol = 2 * (len(ops) - 1) * (k + 2) * np.finfo(float).eps * scale
        assert np.all(np.abs(got - dense) <= tol)
    assert [op.matrix.tobytes() for op in ops] == before
    return got


@pytest.mark.parametrize("n", [8, 64, 512])
def test_residue_chain_product_matches_dense_route(n):
    rng = np.random.default_rng(20 + n)
    for degree in sorted({1, 4, min(16, n), min(40, n)}):
        a, b = random_symbol(rng, degree), random_symbol(rng, degree)
        p, ca, cb = szego_projection(n), commutator_matrix(a, n), commutator_matrix(b, n)
        # each entry of P [P,a] is one exact product 1 * x: bit for bit on any BLAS
        assert assert_product_matches_dense([p, ca]).dtype == np.complex128
        # the full chain sums up to 2 * degree terms per entry (bit for bit
        # with OpenBLAS 0.3 for degree <= 32, a few ulps apart beyond)
        assert_product_matches_dense([p, ca, cb], bitwise=False)


def test_product_with_nothing_to_trim_is_the_dense_product():
    n = 16
    a = random_symbol(np.random.default_rng(7), 2 * n)
    chain = [reflection(n), multiplication(a, full_basis(n))]
    assert chain[1].matrix.all()  # no zero row, column or inner index
    got = assert_product_matches_dense(chain)
    assert got.tobytes() == dense_chain([op.matrix for op in chain]).tobytes()


def test_product_with_an_all_zero_factor():
    n = 8
    zero = commutator_matrix(constant_symbol(3.0), n)
    a = random_symbol(np.random.default_rng(8), 3)
    for chain in (
        [szego_projection(n), zero],
        [commutator_matrix(a, n), zero, reflection(n)],
    ):
        assert not assert_product_matches_dense(chain).any()


def test_product_over_rectangular_bases():
    rng = np.random.default_rng(9)
    n = 12
    a, b = random_symbol(rng, 5), random_symbol(rng, 5)
    mult = multiplication(b, full_basis(n))
    down = compress(mult, antiholomorphic_basis(n), hardy_basis(n))
    across = compress(mult, hardy_basis(n), antiholomorphic_basis(n))
    real = hankel_matrix(FourierSymbol({1: 2.0, 3: -1.0}), n)
    assert_product_matches_dense([hankel_matrix(a, n), down], bitwise=False)
    assert_product_matches_dense([hankel_matrix(a, n), down, across], bitwise=False)
    assert assert_product_matches_dense([real, down], bitwise=False).shape == (n, n)
    back = TruncatedOperator(real.matrix.T, antiholomorphic_basis(n), hardy_basis(n))
    assert assert_product_matches_dense([real, back], bitwise=False).dtype == np.float64


def test_single_factor_product_keeps_matrix_and_dtype():
    for op in (
        szego_projection(3),
        commutator_matrix(mode_symbol(2), 3),
        hankel_matrix(mode_symbol(3), 4),
    ):
        prod = operator_product([op])
        assert prod.matrix.dtype == op.matrix.dtype
        assert prod.matrix.tobytes() == op.matrix.tobytes()
        assert (prod.row_basis, prod.col_basis) == (op.row_basis, op.col_basis)
    assert operator_product([reflection(3), szego_projection(3)]).matrix.dtype == np.float64


def dense_route_product(mats):
    """The product as operators formed it before they carried their support,
    on dense matrices: each step drops the running product's all-zero rows,
    the inner indices zero on either side and the next factor's all-zero
    columns, multiplies the rest, and the result is put back at full size."""
    block = mats[0]
    rows, cols = np.arange(block.shape[0]), np.arange(block.shape[1])
    for right in mats[1:]:
        keep = block.any(axis=1)
        inner = block.any(axis=0) & right.any(axis=1)[cols]
        right_cols = np.flatnonzero(right.any(axis=0))
        if not (keep.all() and inner.all()):
            block = block[np.ix_(keep, inner)]
        if cols[inner].size < right.shape[0] or right_cols.size < right.shape[1]:
            right = right[np.ix_(cols[inner], right_cols)]
        block, rows, cols = block @ right, rows[keep], right_cols
    shape = (mats[0].shape[0], mats[-1].shape[1])
    if block.shape == shape:
        return block
    mat = np.zeros(shape, dtype=block.dtype)
    mat[np.ix_(rows, cols)] = block
    return mat


@st.composite
def gapped_symbols(draw):
    """Trig polynomials with gaps, one-sided ones, constants and zero."""
    kind = draw(st.sampled_from(["gaps", "plus", "minus", "constant", "zero"]))
    degree = draw(st.integers(1, 40))
    if kind in ("constant", "zero"):
        modes = [0] if kind == "constant" else []
    else:
        lo, hi = {"gaps": (-degree, degree), "plus": (1, degree), "minus": (-degree, -1)}[kind]
        modes = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=12, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return FourierSymbol({k: complex(*rng.standard_normal(2)) for k in modes})


@st.composite
def full_basis_chains(draw):
    n = draw(st.integers(1, 40))
    basis = full_basis(n)
    builders = {
        "projection": lambda: szego_projection(n),
        "reflection": lambda: reflection(n),
        "commutator": lambda: commutator_matrix(draw(gapped_symbols()), n),
        "multiplication": lambda: multiplication(draw(gapped_symbols()), basis),
        # a caller's dense array, zero rows and columns included
        "caller": lambda: TruncatedOperator(
            np.array(commutator_matrix(draw(gapped_symbols()), n).matrix), basis, basis
        ),
    }
    names = draw(st.lists(st.sampled_from(sorted(builders)), min_size=1, max_size=4))
    return n, [builders[name]() for name in names]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(full_basis_chains())
def test_supported_residue_chain_equals_the_dense_route(chain):
    # bit for bit up to the sign of zero: where a route sums only exact
    # zeros, the sign follows the BLAS kernel or the zero fill
    n, ops = chain
    block = hardy_compress(operator_product(ops), n)
    residue = residue_sequence(block)
    dense = dense_route_product([op.matrix for op in ops])
    at = _positions_of(full_basis(n), range(n))
    dense_block = dense[np.ix_(at, at)]
    sums = np.cumsum(np.diagonal(dense_block))
    assert block.matrix.dtype == dense_block.dtype
    assert (block.matrix + 0.0).tobytes() == (dense_block + 0.0).tobytes()
    assert (residue.partial_sums + 0.0).tobytes() == (sums + 0.0).tobytes()
    norm = np.log(np.arange(n) + 2.0)
    assert (residue.values + 0.0).tobytes() == (sums / norm + 0.0).tobytes()


def _positions_of(basis, labels):
    where = {k: i for i, k in enumerate(basis.labels.tolist())}
    return np.array([where[k] for k in labels])


def test_supports_follow_the_symbol_modes():
    n = 16
    op = commutator_matrix(FourierSymbol({3: 1.0, 5: 2.0, -2: 1.0}), n)
    labels = op.row_basis.labels
    assert sorted(labels[op.rows].tolist()) == list(range(-2, 5))
    assert sorted(labels[op.cols].tolist()) == list(range(-5, 2))
    proj = szego_projection(n)
    assert (labels[proj.rows] >= 0).all() and proj.rows.size == n + 1
    assert traced_peak(lambda: szego_projection(512))[1] < 100_000  # a view of 1025 numbers
    for whole in (reflection(n), multiplication(mode_symbol(1), full_basis(n))):
        assert whole.block.shape == whole.shape and whole.matrix is whole.block


def test_supported_operator_validation():
    basis = hardy_basis(4)
    op = TruncatedOperator(np.ones((2, 1)), basis, basis, [1, 3], [2])
    assert same_bits(op.matrix, _scatter(4, [1, 3], [2]))
    assert op.diagonal().tolist() == [0.0, 0.0, 0.0, 0.0]
    assert TruncatedOperator(np.ones((4, 4)), basis, basis).rows.tolist() == [0, 1, 2, 3]
    for rows, cols, block in (
        ([3, 1], [2], np.ones((2, 1))),  # not increasing
        ([1, 4], [2], np.ones((2, 1))),  # beyond the basis
        ([-1, 1], [2], np.ones((2, 1))),
        ([1, 3], [2], np.ones((1, 2))),  # block shape disagrees with the support
        ([1, 3], [2], np.array([[1.0], [np.inf]])),
    ):
        with pytest.raises(ParameterError):
            TruncatedOperator(block, basis, basis, rows, cols)


def _scatter(size, rows, cols):
    mat = np.zeros((size, size))
    mat[np.ix_(rows, cols)] = 1.0
    return mat


def test_residue_chain_holds_no_full_size_array():
    # the dense route holds a 1025 x 1025 complex array (16.8 MB) per
    # commutator at n = 512; the supported one only blocks of d(d+1) scale
    rng = np.random.default_rng(12)
    a, b = random_symbol(rng, 16), random_symbol(rng, 16)
    n = 512

    def chain():
        ops = [szego_projection(n), commutator_matrix(a, n), commutator_matrix(b, n)]
        return residue_sequence(hardy_compress(operator_product(ops), n))

    chain()
    residue, peak = traced_peak(chain)
    assert residue.size == n
    assert peak < 2_000_000


def test_residue_chain_multiplies_only_rows_nonzero_on_the_inner_positions(monkeypatch):
    # P's block covers the 513 nonnegative modes, but only the 16 modes 0..15
    # meet [P,a]'s rows; the other 497 rows of P are zero there and are dropped
    from circletrace import operators

    rng = np.random.default_rng(12)
    a, b = random_symbol(rng, 16), random_symbol(rng, 16)
    n = 512
    gather, gathered = operators._gather, []

    def recording(block, rows, cols):
        gathered.append(gather(block, rows, cols))
        return gathered[-1]

    monkeypatch.setattr(operators, "_gather", recording)
    operator_product([szego_projection(n), commutator_matrix(a, n), commutator_matrix(b, n)])
    lefts = gathered[::2]  # each step gathers its left operand, then its right one
    assert len(gathered) == 4
    for left in lefts:
        assert left.shape == (16, 16)
        assert left.any(axis=1).all()


def test_winding_dump_writes_the_dense_commutator(tmp_path):
    from circletrace.cli import main

    a = FourierSymbol({2: complex(-1.5, 0.0), -1: complex(0.25, -0.5), 0: complex(-2.0, 1.0)})
    out = tmp_path / "op.json"
    arg = json.dumps({"modes": [[k, v.real, v.imag] for k, v in sorted(a.coeffs.items())]})
    argv = ["winding", "--a", arg, "--N", "6", "--dump-operator", str(out)]
    assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
    basis = full_basis(6)
    dense = TruncatedOperator(gathered_commutator(a, 6), basis, basis)
    assert out.read_bytes() == json.dumps(operator_to_json_obj(dense)).encode()
