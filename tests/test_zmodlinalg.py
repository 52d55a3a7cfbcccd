from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import permutation_det, rref_mod_prime
from brauerkit.oracle import solutions, span_closure
from brauerkit.zmodlinalg import (
    DimensionMismatchError,
    ModulusTooLargeError,
    _check_modulus,
    _headroom,
    _work_dtype,
    det_int,
    howell_form,
    howell_kernel,
    howell_reduce,
    howell_span,
    howell_span_order,
    smith_normal_form,
    solve_mod,
)


def check_smith(M):
    M = np.asarray(M, dtype=object)
    U, D, V = smith_normal_form(M)
    assert np.array_equal(U @ M @ V, D)
    m, k = M.shape
    diag = [int(D[i, i]) for i in range(min(m, k))]
    for i in range(m):
        for j in range(k):
            if i != j:
                assert D[i, j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert abs(det_int(U)) == 1
    assert abs(det_int(V)) == 1
    return diag


def test_smith_identity():
    U, D, V = smith_normal_form(np.eye(2, dtype=int))
    assert np.array_equal(D, np.eye(2, dtype=object))
    assert np.array_equal(U, np.eye(2, dtype=object))
    assert np.array_equal(V, np.eye(2, dtype=object))


def test_smith_frozen_2x2():
    # gcd of entries is 2 and |det| = 8, so the diagonal must be (2, 4)
    diag = check_smith([[2, 4], [6, 8]])
    assert diag == [2, 4]


def test_smith_zero_matrix():
    U, D, V = smith_normal_form(np.zeros((2, 3), dtype=int))
    assert not D.any()
    assert np.array_equal(U, np.eye(2, dtype=object))
    assert np.array_equal(V, np.eye(3, dtype=object))


def test_smith_divisibility_needs_folding():
    # diag(2, 3) is not in normal form; the chain forces (1, 6)
    assert check_smith([[2, 0], [0, 3]]) == [1, 6]
    assert check_smith([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == [1, 30, 30]


def test_smith_rectangular_and_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        check_smith(rng.integers(-50, 51, size=(m, k)))


def test_smith_rejects_non_matrix():
    with pytest.raises(DimensionMismatchError):
        smith_normal_form(np.zeros(3, dtype=int))


def brute_det(M):
    M = [list(map(int, row)) for row in M]
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * brute_det(minor)
    return total


def test_det_matches_cofactor_expansion():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        M = rng.integers(-9, 10, size=(n, n))
        assert det_int(M) == brute_det(M)


def test_det_singular():
    assert det_int([[1, 2], [2, 4]]) == 0


@pytest.mark.parametrize(
    "M",
    [
        [[0, 1], [0, 2]],
        [[1, 2, 3], [0, 0, 5], [0, 0, 7]],
        [[0, 1], [1, 0]],
        [[0, 0, 1], [0, 2, 0], [3, 0, 0]],
        [[0, 2, 1, 0], [0, 0, 3, 1], [4, 1, 0, 0], [0, 5, 0, 0]],
    ],
    ids=["zero-column", "zero-column-below", "swap", "two-swaps", "swap-4"],
)
def test_det_pivot_search_matches_permutation_expansion(M):
    # a zero pivot is swapped for the first nonzero entry below it, or the
    # column has none and the matrix is singular
    assert det_int(M) == permutation_det(M)


@pytest.mark.parametrize("bad", [1.5, 2.0, "3", np.float64(2.0)])
def test_smith_and_det_refuse_non_integer_entries(bad):
    # read through operator.index; truncated, 1.5 would read as 1
    with pytest.raises(TypeError):
        smith_normal_form([[bad, 2]])
    with pytest.raises(TypeError):
        det_int([[bad]])


def test_smith_and_det_take_integers_of_any_kind():
    M = np.array([[4, 6], [2, 8]], dtype=np.int16)
    assert det_int(M) == 20 == det_int([[np.int64(4), 6], [np.uint8(2), 8]])
    assert det_int([[2**70, 1], [0, True]]) == 2**70
    _, D, _ = smith_normal_form(M)
    assert D.tolist() == [[2, 0], [0, 10]]
    assert all(type(v) is int for v in D.flat)


def test_det_of_the_empty_matrix_and_a_non_square_one():
    assert det_int(np.zeros((0, 0), dtype=np.int64)) == 1 == permutation_det([])
    with pytest.raises(DimensionMismatchError, match="2x3"):
        det_int([[1, 2, 3], [4, 5, 6]])


def test_howell_single_row_already_canonical():
    assert howell_form([[2]], 4).tolist() == [[2]]


def test_howell_frozen_z4():
    H1 = howell_form([[2, 0], [0, 2], [1, 1]], 4)
    H2 = howell_form([[1, 1], [0, 2]], 4)
    assert H1.tolist() == H2.tolist() == [[1, 1], [0, 2]]
    assert span_closure(H1, 4) == span_closure([[2, 0], [0, 2], [1, 1]], 4)


def test_howell_prime_modulus_is_rref():
    M = [[1, 2, 0], [0, 1, 1], [1, 0, 2]]
    H = howell_form(M, 5)
    # full rank over a field: identity staircase with 1-pivots
    assert H.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_howell_annihilator_rows_are_generated():
    # (2) over Z/4 annihilates to (0, 2): the span of row (1, 3) over Z/4
    # contains (2, 2) but also needs (0, 2) to be closed under the
    # weak "leading coefficient" structure
    H = howell_form([[2, 1]], 4)
    assert span_closure(H, 4) == span_closure([[2, 1]], 4)
    assert H.shape[0] == 2  # the annihilator contributes a second row


def test_howell_empty_and_zero():
    assert howell_form(np.zeros((0, 3), dtype=int), 6).shape == (0, 3)
    assert howell_form(np.zeros((2, 3), dtype=int), 6).shape == (0, 3)


def _max_cols(n: int) -> int:
    """Widest row length, up to 4, whose full space has at most 10^4 vectors."""
    return max(c for c in range(1, 5) if n**c <= 10**4)


def test_howell_canonical_for_span():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 6, 8, 9, 12, 16, 27):
        for _ in range(30):
            rows = int(rng.integers(1, 4))
            cols = int(rng.integers(1, _max_cols(n) + 1))
            M = rng.integers(0, n, size=(rows, cols))
            H = howell_form(M, n)
            base = span_closure(M, n)
            assert base == span_closure(H, n)
            assert np.array_equal(howell_form(H, n), H)
            # any other generating set of the same span canonicalizes equally
            extra = sorted(base)[int(rng.integers(0, len(base)))]
            M2 = np.vstack([M[::-1], np.asarray(extra, dtype=np.int64)])
            assert np.array_equal(howell_form(M2, n), H)


def test_howell_distinct_spans_distinct_forms():
    seen = {}
    rng = np.random.default_rng(5)
    for _ in range(120):
        M = rng.integers(0, 6, size=(2, 3))
        key = frozenset(span_closure(M, 6))
        form = howell_form(M, 6).tobytes()
        if key in seen:
            assert seen[key] == form
        seen[key] = form
    forms = {}
    for key, form in seen.items():
        assert forms.setdefault(form, key) == key


def test_howell_span_matches_closure():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 6, 8, 9, 12, 16, 27):
        for _ in range(20):
            M = rng.integers(0, n, size=(int(rng.integers(0, 4)), _max_cols(n)))
            H = howell_form(M, n)
            span = howell_span(H, n)
            assert span == sorted(span_closure(H, n))
            assert len(span) == howell_span_order(H, n)


def test_howell_span_rejects_repeated_pivot_column():
    # both rows lead in column 0, so the pivot combinations repeat vectors
    with pytest.raises(ValueError):
        howell_span(np.array([[1, 0], [1, 0]]), 2)
    with pytest.raises(ValueError):
        howell_span(np.array([[2, 1], [2, 3]]), 4)
    # increasing pivots, but the annihilator row (0, 2) is missing
    with pytest.raises(ValueError):
        howell_span(np.array([[2, 1]]), 4)


def test_howell_modulus_limit():
    # 2^31 - 1 is prime and the largest such modulus with 2(n-1)^2 < 2^63
    n = 2**31 - 1
    M = np.random.default_rng(29).integers(0, n, size=(3, 4))
    assert howell_form(M, n).tolist() == rref_mod_prime(M.tolist(), n)
    assert howell_form([[3]], 2**31).tolist() == [[1]]
    A = M.tolist()
    x = [int(v) for v in np.random.default_rng(31).integers(0, n, size=4)]
    c = [sum(a * v for a, v in zip(row, x)) % n for row in A]
    x0, kernel = solve_mod(M, c, n)
    assert [sum(a * int(v) for a, v in zip(row, x0)) % n for row in A] == c
    assert kernel.shape == (1, 4)
    assert all(sum(a * int(v) for a, v in zip(row, kernel[0])) % n == 0 for row in A)
    for big in (2**31 + 1, 10**12 + 39):
        with pytest.raises(ModulusTooLargeError):
            howell_form([[1, 2]], big)
        with pytest.raises(ModulusTooLargeError):
            howell_reduce([[1, 2]], [[3, 4]], big)
        with pytest.raises(ModulusTooLargeError):
            solve_mod([[1, 2]], [3], big)


def _combined_rows(R, count, n, rng):
    """``count`` rows a*R[i] + b*R[j] mod n, so the span of R does not grow."""
    i = rng.integers(0, len(R), size=count)
    j = rng.integers(0, len(R), size=count)
    a = rng.integers(0, n, size=(count, 1))
    b = rng.integers(0, n, size=(count, 1))
    return (a * R[i] % n + b * R[j] % n) % n


def test_howell_dense_wide_matches_rref():
    # dense inputs of the size the stacked explicit intersection builds
    rng = np.random.default_rng(41)
    # 2^29 - 3 is prime with int64 headroom 32: howell_form reduces the
    # whole matrix mid-run, every 32 columns
    for n in (97, 2**29 - 3, 2**31 - 1):
        full = rng.integers(0, n, size=(140, 120))
        R = rng.integers(0, n, size=(100, 120))
        deficient = np.vstack([R, _combined_rows(R, 41, n, rng)])[rng.permutation(141)]
        for M, rank in ((full, 120), (deficient, 100)):
            H = howell_form(M, n)
            assert H.tolist() == rref_mod_prime(M.tolist(), n)
            assert H.shape == (rank, 120)


def _check_howell_invariants(H, n):
    leads = [int(np.flatnonzero(row)[0]) for row in H]
    assert all(a < b for a, b in zip(leads, leads[1:]))
    for i, c in enumerate(leads):
        p = int(H[i, c])
        assert n % p == 0
        assert (H[:i, c] < p).all()
        annihilator = ((n // p) * H[i] % n)[None]
        assert not howell_reduce(H[i + 1 :], annihilator, n).any()


def _howell_inputs(n, rng):
    """Random matrices over Z/n: uniform, built from divisors of n, (for
    n = 2^31) full of n - 1 and n - 2^k entries, the largest residues, and
    dense 10 x 40 ones."""
    divisors = np.array([d for d in (1, 2, 3, 4, 5, 8, 9, 12, 2**16, 2**30) if n % d == 0])
    for _ in range(12):
        shape = (int(rng.integers(1, 30)), int(rng.integers(1, 20)))
        yield rng.integers(0, n, size=shape)
        scale = divisors[rng.integers(0, len(divisors), size=shape)]
        yield scale * rng.integers(0, n, size=shape) % n
        yield (n - scale) * rng.integers(0, 2, size=shape)
    for _ in range(6):
        yield rng.integers(0, n, size=(10, 40))


def _unimodular_mix(M, n, rng):
    """Rows of M shuffled, scaled by units, and added to one another."""
    M = M[rng.permutation(len(M))] % n
    for _ in range(3 * len(M)):
        i, j = (int(v) for v in rng.integers(0, len(M), size=2))
        if i != j:
            M[j] = (M[j] + int(rng.integers(0, n)) * M[i] % n) % n
        M[i] = (n - 1) * M[i] % n
    return M


# 2^31 - 2 is composite with int64 headroom 2, so a dense 40-column input
# is reduced whole every other column
@pytest.mark.parametrize("n", [12, 360, 2**30, 2**31 - 2, 2**31])
def test_howell_invariants_and_canonicity(n):
    rng = np.random.default_rng(n % 1000 + 7)
    for M in _howell_inputs(n, rng):
        H = howell_form(M, n)
        _check_howell_invariants(H, n)
        assert not howell_reduce(H, M, n).any()
        assert np.array_equal(howell_form(H, n), H)
        assert np.array_equal(howell_form(_unimodular_mix(M, n, rng), n), H)
        # negating every entry keeps the span
        assert np.array_equal(howell_form(-M % n, n), H)


def _layouts(M):
    """Views and copies equal to ``M`` in other memory layouts: Fortran
    order, a transposed view and a view with negative strides."""
    yield np.asfortranarray(M)
    yield np.ascontiguousarray(M.T).T
    yield np.ascontiguousarray(M[::-1, ::-1])[::-1, ::-1]


@pytest.mark.parametrize("n", [12, 97, 2**31 - 2, 2**31])
def test_memory_layout_does_not_change_a_result(n):
    # howell_form works on a transposed copy of its input; every Z/n
    # routine gives what it gives on the C-ordered copy, and howell_form
    # returns a C-contiguous int64 array
    rng = np.random.default_rng(n % 1000 + 13)
    for M in _howell_inputs(n, rng):
        H = howell_form(M, n)
        assert H.dtype == np.int64 and H.flags.c_contiguous
        c = rng.integers(0, n, size=len(M))
        rhs = rng.integers(0, n, size=len(H))
        want = (
            howell_kernel(H, n).tolist(),
            _plain(solve_mod(H, rhs, n)),
            _plain(solve_mod(M, M[:, 0].copy(), n)),
            _plain(solve_mod(M, c, n)),
            howell_reduce(H, M, n).tolist(),
        )
        layouts = zip(_layouts(M), _layouts(H), _layouts(c[None]), _layouts(rhs[None]))
        for A, B, v, b in layouts:
            out = howell_form(A, n)
            assert out.dtype == np.int64 and out.flags.c_contiguous
            assert np.array_equal(out, H)
            got = (
                howell_kernel(B, n).tolist(),
                _plain(solve_mod(B, b[0], n)),
                _plain(solve_mod(A, A[:, 0], n)),
                _plain(solve_mod(A, v[0], n)),
                howell_reduce(B, A, n).tolist(),
            )
            assert got == want


def _padded_inputs(n, rng):
    """Tall and wide matrices over Z/n whose rows are interleaved with zero
    rows, repeated rows and multiples of rows (by units and non-units); a
    wide one has at most n^3 vectors in its span."""
    c = _max_cols(n) if n <= 30 else 12
    wide = (2, 10) if n <= 30 else (3, 20)
    for rows, width in ((3 * c, c), (c + 1, c), wide, (1, 1)):
        for _ in range(4):
            R = rng.integers(0, n, size=(rows, width))
            R[:, : int(rng.integers(0, width))] %= int(rng.choice([1, 2, 3, n]))
            extra = np.vstack(
                [
                    np.zeros((rows, width), dtype=np.int64),
                    R[rng.integers(0, rows, size=rows)],
                    rng.integers(0, n, size=(rows, 1)) * R[::-1] % n,
                ]
            )
            M = np.vstack([R, extra])[rng.permutation(4 * rows)]
            yield M


@pytest.mark.parametrize("n", [12, 30, 360, 2**31])
def test_howell_zero_repeated_and_multiple_rows(n):
    # zero, repeated and dependent rows, in every position
    rng = np.random.default_rng(n % 1000 + 11)
    for M in _padded_inputs(n, rng):
        H = howell_form(M, n)
        _check_howell_invariants(H, n)
        assert not howell_reduce(H, M, n).any()
        assert np.array_equal(howell_form(_unimodular_mix(M, n, rng), n), H)
        assert np.array_equal(howell_form(H, n), H)
        if n <= 30:
            assert span_closure(H, n) == span_closure(M, n)


def test_howell_no_unit_in_leading_column():
    # in these cases no entry of the first column generates its ideal, all
    # of Z/n, so the pivot row has to be combined from several rows; the
    # random cases draw that column from the non-units
    cases = [
        ([[4, 1], [3, 0]], 12),
        ([[6, 1, 0], [4, 0, 1], [3, 1, 1]], 12),
        ([[10, 1], [15, 0], [6, 1]], 30),
        ([[0, 2], [4, 1], [3, 0]], 12),
    ]
    rng = np.random.default_rng(43)
    nonunits = {12: [0, 2, 3, 4, 6, 8, 9, 10], 30: [0, 2, 3, 5, 6, 10, 15, 20]}
    for n, values in nonunits.items():
        for _ in range(40):
            M = rng.choice(values, size=(int(rng.integers(2, 5)), 2))
            M[:, 1] = rng.integers(0, n, size=len(M))
            cases.append((M.tolist(), n))
    for M, n in cases:
        H = howell_form(M, n)
        _check_howell_invariants(H, n)
        assert span_closure(H, n) == span_closure(M, n)
    assert howell_form([[4, 1], [3, 0]], 12).tolist() == [[1, 1], [0, 3]]


# howell_form works in int32 for n <= 2^15 (headroom 2 at 2^15) and in int64
# above; these moduli sit on both sides of that bound
INT32_EDGE_PRIMES = (32749, 32771)
INT32_EDGE_COMPOSITES = {32766: (2, 3, 43, 127), 32768: (2,), 32770: (2, 5, 29, 113)}


def test_int32_tier_ends_at_two_to_the_15():
    # int32 while its headroom is 2, as int64's is at 2^31: there the
    # extended-gcd combination, two products below (n-1)^2, stays below 2^31
    assert _headroom(2**15, np.int32) == 2 and _headroom(2**15 + 1, np.int32) == 1
    assert 2 * (2**15 - 1) ** 2 < 2**31 <= 2 * (2**15) ** 2
    assert _headroom(2**31) == 2
    assert _work_dtype(2) is _work_dtype(97) is _work_dtype(2**15) is np.int32
    assert _work_dtype(2**15 + 1) is _work_dtype(2**31) is np.int64


def _int32_edge_inputs(n, rng, primes=()):
    """Matrices over Z/n: all-zero, tall, wide, dense with 12 columns (so
    the whole matrix is reduced every other column, at headroom 2), and,
    for each prime p of ``primes``, columns of multiples of p, so that the
    ideal of a column has no generator in it at a composite n that is no
    prime power, and the pivot is an extended-gcd combination."""
    yield np.zeros((4, 5), dtype=np.int64)
    yield rng.integers(0, n, size=(25, 4))
    yield rng.integers(0, n, size=(3, 9))
    yield rng.integers(0, n, size=(16, 12))
    if primes:
        for shape in ((6, 5), (12, 8), (20, 4)):
            factor = rng.choice(primes, size=shape)
            yield factor * rng.integers(0, n // max(primes), size=shape) % n


@pytest.mark.parametrize("n", INT32_EDGE_PRIMES)
def test_howell_at_primes_around_two_to_the_15_is_rref(n):
    rng = np.random.default_rng(n)
    for M in _int32_edge_inputs(n, rng):
        H = howell_form(M, n)
        assert H.dtype == np.int64
        assert H.tolist() == rref_mod_prime(M.tolist(), n)


def _smith_span_order(M, n: int) -> int:
    """|row span of M over Z/n| from the Smith form of M over Z, in Python
    ints: the span is the direct sum of the Z/(n / gcd(d_i, n))."""
    if not len(M):
        return 1
    _, D, _ = smith_normal_form(M)
    return prod(n // gcd(int(D[i, i]), n) for i in range(min(D.shape)))


def _check_span_of(H, M, n):
    """H spans what M spans over Z/n: M reduces to 0 by H, and each row of
    H is a combination x U of the distinct rows U of M, checked in Python
    ints; the order of the span is read off the Smith form of U over Z."""
    U = np.unique(M, axis=0)
    _check_howell_invariants(H, n)
    assert howell_span_order(H, n) == _smith_span_order(U, n)
    assert not howell_reduce(H, M, n).any()
    for h in H.tolist():
        x, _ = solve_mod(U.T, h, n)
        combo = [sum(int(a) * int(v) for a, v in zip(x, col)) % n for col in U.T]
        assert combo == h


@pytest.mark.parametrize("n", sorted(INT32_EDGE_COMPOSITES))
def test_howell_at_composites_around_two_to_the_15(n):
    rng = np.random.default_rng(n)
    for M in _int32_edge_inputs(n, rng, INT32_EDGE_COMPOSITES[n]):
        H = howell_form(M, n)
        assert H.dtype == np.int64
        _check_span_of(H, M, n)
        assert np.array_equal(howell_form(_unimodular_mix(M, n, rng), n), H)


def _tall_inputs(n, rng):
    """2,000 x 12 matrices over Z/n, most rows zero or repeated: the others
    are copies of a few base rows times 1, 2, 3, -1 or n/d, d the least
    prime of n below 7, so at composite n some are annihilator multiples
    of others.  One base has its leading columns multiplied by d, one has
    leading zero columns; the third, 12 uniform rows, is copied times 1 or
    -1 only, which keeps the Smith form over Z of the distinct rows small."""
    d = next((p for p in (2, 3, 5) if n % p == 0), 1)
    few = (1, 2, 3, n - 1, n // d)
    for base, scales in (
        (rng.integers(0, n, size=(5, 12)) * np.repeat([d, 1], 6) % n, few),
        (rng.integers(0, n, size=(5, 12)) * np.repeat([0, 1], [4, 8]), few),
        (rng.integers(0, n, size=(12, 12)), (1, n - 1)),
    ):
        M = np.zeros((2000, 12), dtype=np.int64)
        live = rng.integers(0, 2000, size=500)
        scale = rng.choice(scales, size=(500, 1))
        M[live] = base[rng.integers(0, len(base), size=500)] * scale % n
        yield M


@pytest.mark.parametrize("n", [12, 97, 2**15, 2**15 + 1, 2**31 - 1])
def test_howell_of_tall_inputs_with_zero_and_repeated_rows(n):
    # a tall input takes the same column steps as its nonzero rows, in the
    # int32 tier up to 2^15 and in int64 above
    rng = np.random.default_rng(n % 1000 + 3)
    for M in _tall_inputs(n, rng):
        H = howell_form(M, n)
        assert np.array_equal(H, howell_form(M[M.any(axis=1)], n))
        if n in (97, 2**31 - 1):
            assert H.tolist() == rref_mod_prime(M.tolist(), n)
        else:
            _check_span_of(H, M, n)


def test_solve_mod_frozen_z4():
    assert solve_mod([[2]], [1], 4) is None
    x, kernel = solve_mod([[2]], [2], 4)
    assert (2 * int(x[0])) % 4 == 2
    assert span_closure(kernel, 4) == {(0,), (2,)}


def test_solve_mod_inconsistent_zero_row():
    assert solve_mod([[0, 0]], [3], 6) is None
    x, kernel = solve_mod([[0, 0]], [0], 6)
    assert len(span_closure(kernel, 6)) == 36


def test_solve_mod_no_equations_no_unknowns():
    for n in (2, 6, 97):
        x, kernel = solve_mod(np.zeros((0, 0), dtype=np.int64), [], n)
        assert x.shape == (0,)
        assert kernel.shape == (0, 0)
    # an empty basis leaves the rows as they are, with or without columns
    assert howell_reduce(np.zeros((0, 0)), np.zeros((2, 0)), 6).shape == (2, 0)
    assert howell_reduce(np.zeros((0, 2)), [[7, 3]], 6).tolist() == [[1, 3]]


def test_solve_mod_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_mod([[1, 2]], [1, 2], 4)


def test_solve_mod_exhaustive_z6():
    rng = np.random.default_rng(17)
    for n in (4, 6, 8, 9, 12):
        # the widest k with n^k <= 2 * 10^4 keeps the brute force small
        k_max = max(k for k in range(1, 8) if n**k <= 2 * 10**4)
        for _ in range(25):
            m = int(rng.integers(0, 4))
            k = int(rng.integers(1, k_max + 1))
            A = rng.integers(0, n, size=(m, k))
            c = rng.integers(0, n, size=m)
            brute = solutions(A, c, n, k)
            res = solve_mod(A, c, n)
            if res is None:
                assert not brute
                continue
            x0, kernel = res
            assert tuple(int(v) for v in x0) in brute
            span = np.array(sorted(span_closure(kernel, n)), dtype=np.int64)
            coset = set(map(tuple, ((span + x0) % n).tolist()))
            assert coset == brute
            # solution count equals kernel size
            assert len(brute) == len(span)


# Systems whose Howell forms have pivots above 1, with the exact
# (particular, kernel) solve_mod returns; a particular coordinate at a pivot
# p is fixed only mod n/p, so these pin which of its p representatives
# comes back
_PINNED_SOLUTIONS = [
    ([[2, 1], [0, 2]], [3, 2], 4, ([1, 1], [[2, 0], [1, 2]])),
    (
        [[2, 0, 1], [0, 2, 2]],
        [3, 0],
        4,
        ([1, 1, 1], [[2, 0, 0], [0, 2, 0], [1, 0, 2]]),
    ),
    ([[2, 1], [0, 2]], [1, 1], 4, None),
    (
        [[4, 6, 3], [8, 2, 9]],
        [5, 3],
        12,
        ([2, 1, 1], [[3, 0, 0], [0, 6, 0], [0, 3, 2]]),
    ),
    ([[6, 4], [3, 8]], [2, 1], 12, ([3, 2], [[4, 0], [0, 3]])),
    ([[6, 4], [3, 8]], [1, 0], 12, None),
    (
        [[6, 4, 9], [12, 18, 3], [0, 6, 24]],
        [29, 27, 18],
        36,
        ([5, 11, 7], [[6, 0, 0], [0, 18, 0], [0, 0, 12]]),
    ),
    ([[4, 10]], [30], 36, ([5, 1], [[9, 0], [4, 2]])),
    (
        [[2, 6, 1], [4, 0, 2]],
        [35, 34],
        2**31 - 2,
        ([8, 3, 1], [[1073741823, 0, 0], [0, 357913941, 0], [1073741822, 0, 2]]),
    ),
    (
        [[6, 24690], [0, 14]],
        [1073902380, 1073741914],
        2**31 - 2,
        ([255652827, 76695851], [[357913941, 0], [153391689, 153391689]]),
    ),
]


@pytest.mark.parametrize(
    "A, c, n, want",
    _PINNED_SOLUTIONS,
    ids=[f"n{case[2]}-{i}" for i, case in enumerate(_PINNED_SOLUTIONS)],
)
def test_solve_mod_pins_its_representatives(A, c, n, want):
    assert _plain(solve_mod(A, c, n)) == want


def _check_kernel_against_brute(M, n):
    k = M.shape[1]
    H = howell_form(M, n)
    span = span_closure(H, n)
    kernel = howell_kernel(H, n)
    assert kernel.shape[1] == k
    assert span_closure(kernel, n) == solutions(sorted(span), 0, n, k)
    assert howell_span_order(howell_form(kernel, n), n) == n**k // len(span)
    particular, again = solve_mod(H, np.zeros(len(H), dtype=np.int64), n)
    assert not particular.any()
    assert np.array_equal(again, kernel)
    # a right-hand side in the image of H: the particular solution solves it
    rhs = H @ (np.arange(1, k + 1) % n) % n
    particular, again = solve_mod(H, rhs, n)
    assert np.array_equal(H @ particular % n, rhs)
    assert np.array_equal(again, kernel)


def test_howell_kernel_is_brute_annihilator():
    rng = np.random.default_rng(47)
    for n in (2, 4, 6, 8, 9, 12, 36):
        k_max = max(k for k in range(1, 6) if n**k <= 5000)
        divisors = [d for d in range(1, n) if n % d == 0]
        for _ in range(25):
            shape = (int(rng.integers(0, 4)), int(rng.integers(1, k_max + 1)))
            M = rng.integers(0, n, size=shape)
            if rng.integers(0, 2):
                # multiples of divisors of n give pivots above 1
                M = M * rng.choice(divisors, size=shape) % n
            _check_kernel_against_brute(M, n)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 4, 6, 8, 9, 12]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, max(k for k in range(1, 5) if n**k <= 2000)).flatmap(
                lambda k: st.lists(
                    st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
                    min_size=1,
                    max_size=3,
                )
            ),
        )
    )
)
def test_howell_kernel_property_small_n(case):
    n, rows = case
    _check_kernel_against_brute(np.array(rows, dtype=np.int64), n)


@pytest.mark.parametrize("n", [2**31 - 1, 12])
def test_howell_kernel_wide_form(n):
    # the width of the stacked explicit intersection at g = 8
    rng = np.random.default_rng(53)
    H = howell_form(rng.integers(0, n, size=(119, 120)), n)
    pivots = [int(row[np.flatnonzero(row)[0]]) for row in H]
    if n == 12:
        # annihilator rows make the form square, with pivots 4 and 3
        assert H.shape == (120, 120) and max(pivots) > 1
    else:
        assert H.shape == (119, 120) and max(pivots) == 1
    kernel = howell_kernel(H, n)
    assert kernel.shape[0] >= 1
    Hobj = H.astype(object)
    for v in kernel:
        assert not (Hobj.dot(v.astype(object)) % n).any()
    # n^120 / |span| kernel vectors, counted on the kernel's own Howell form
    order = howell_span_order(howell_form(kernel, n), n)
    assert order * howell_span_order(H, n) == n**120
    x = rng.integers(0, n, size=120).astype(object)
    rhs = Hobj.dot(x) % n
    particular, _ = solve_mod(H, rhs.astype(np.int64), n)
    assert ((Hobj.dot(particular.astype(object)) - rhs) % n == 0).all()


@pytest.mark.parametrize("n", [2, 97, 2**31 - 1])
def test_howell_kernel_at_a_prime_is_one_vector_per_free_column(n):
    # over a field the Howell form is the reduced row echelon form, every
    # pivot is 1, and the kernel is e_f - sum_i H[i, f] e_(c_i) for each
    # free column f, in increasing f
    rng = np.random.default_rng(59)
    for shape in ((1, 1), (3, 7), (6, 6), (12, 20)):
        M = rng.integers(0, n, size=shape)
        M[:, rng.integers(0, shape[1])] = 0
        H = howell_form(M, n)
        cols = [int(np.flatnonzero(row)[0]) for row in H]
        free = [f for f in range(shape[1]) if f not in cols]
        expected = np.zeros((len(free), shape[1]), dtype=np.int64)
        for j, f in enumerate(free):
            expected[j, f] = 1
            expected[j, cols] = -H[:, f] % n
        assert howell_kernel(H, n).tolist() == expected.tolist()
        particular, _ = solve_mod(H, np.zeros(len(H), dtype=np.int64), n)
        assert particular.tolist() == [0] * shape[1]


def test_howell_kernel_unsolvable_and_rejected():
    # 2x = 1 has no solution mod 4; the kernel of 2x is {0, 2}
    assert solve_mod([[2]], [1], 4) is None
    assert span_closure(howell_kernel([[2]], 4), 4) == {(0,), (2,)}
    # increasing pivots, but the annihilator row (0, 2) of (2, 1) is missing
    with pytest.raises(ValueError):
        howell_kernel([[2, 1]], 4)
    with pytest.raises(ValueError):
        howell_kernel([[1, 0], [1, 1]], 6)
    with pytest.raises(ValueError):
        howell_kernel([[1, 0], [0, 0]], 6)
    # echelon but not reduced: the unit pivot of row 1 has a 1 above it
    with pytest.raises(ValueError, match="not a Howell form"):
        howell_kernel([[1, 1, 0], [0, 1, 1]], 5)
    with pytest.raises(DimensionMismatchError):
        solve_mod([[1, 0]], [1, 2], 6)
    with pytest.raises(ModulusTooLargeError):
        howell_kernel([[1, 0]], 2**31 + 1)
    kernel = howell_kernel(np.zeros((0, 3), dtype=np.int64), 6)
    assert kernel.tolist() == np.eye(3, dtype=int).tolist()
    particular, _ = solve_mod(np.zeros((0, 3), dtype=np.int64), [], 6)
    assert particular.tolist() == [0, 0, 0]


def _each_caller_input(entry):
    """Every Z/n routine with ``entry`` in one of its caller inputs, mod 5."""
    row = [[entry, 1]]
    return {
        "howell_form": lambda: howell_form(row, 5),
        "howell_reduce basis": lambda: howell_reduce(row, [[1, 2]], 5),
        "howell_reduce rows": lambda: howell_reduce([[1, 0]], row, 5),
        "howell_kernel": lambda: howell_kernel(row, 5),
        "solve_mod": lambda: solve_mod(row, [1], 5),
        "solve_mod rhs": lambda: solve_mod([[1, 0]], [entry], 5),
        "howell_span": lambda: howell_span(row, 5),
        "howell_span_order": lambda: howell_span_order(row, 5),
    }


def _plain(value):
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize("routine", sorted(_each_caller_input(0)))
def test_non_integer_entries_are_a_type_error(routine):
    # truncated, 1.5 would read as 1 and 2.5 as 2
    for entry, dtype in ((1.5, "float64"), (2.0, "float64"), (1 + 2j, "complex")):
        with pytest.raises(TypeError, match=dtype):
            _each_caller_input(entry)[routine]()
    with pytest.raises(TypeError, match="str"):
        _each_caller_input("1")[routine]()


@pytest.mark.parametrize("routine", sorted(_each_caller_input(0)))
def test_integers_of_any_size_reduce_exactly(routine):
    # each entry is 1 mod 5: a Python int past 2^64, a negative one, one
    # numpy reads as float64 next to a small int, and a uint64 past 2^63
    want = _plain(_each_caller_input(1)[routine]())
    for entry in (2**70 + 2, 5 - 2**70, 2**63 + 3, np.uint64(2**63 + 3)):
        assert _plain(_each_caller_input(entry)[routine]()) == want


@pytest.mark.parametrize(
    "dtype, n",
    [(np.uint8, 1000), (np.uint16, 70000), (np.uint32, 2**31), (np.uint64, 2**31)],
)
def test_unsigned_input_reduces_past_its_dtype(dtype, n):
    # n does not fit a uint8 or uint16; uint32 and uint64 entries run past
    # the largest modulus.  Each answer is that of the same Python ints.
    top = int(np.iinfo(dtype).max)

    def lift(v):  # the largest entry of the dtype that is v mod n
        return v + n * ((top - v) // n)

    M = np.array([[top, 7, 3], [3, top - 1, 2]], dtype=dtype)
    unit_rows = np.array([[1, 0, top], [0, 1, top]], dtype=dtype)
    # a Howell form of span 4: pivot n/4, and 4 times the row is 0
    quarter = np.array([[lift(n // 4), lift(0), lift(n // 4)]], dtype=dtype)
    c = np.array([top, 3], dtype=dtype)

    def each(f):
        return {
            "howell_form": howell_form(f(M), n),
            "howell_reduce": howell_reduce(f(unit_rows), f(M), n),
            "howell_kernel": howell_kernel(f(unit_rows), n),
            "solve_mod": solve_mod(f(M), f(c), n),
            "solve_mod unit rows": solve_mod(f(unit_rows), f(c), n),
            "howell_span": howell_span(f(quarter), n),
            "howell_span_order": howell_span_order(f(quarter), n),
        }

    got = each(lambda A: A)
    want = each(lambda A: A.astype(object))
    assert {k: _plain(v) for k, v in got.items()} == {
        k: _plain(v) for k, v in want.items()
    }
    arrays = [v for v in got.values() if isinstance(v, np.ndarray)]
    arrays += [a for v in got.values() if isinstance(v, tuple) for a in v]
    assert arrays and all(a.dtype == np.int64 for a in arrays)
    assert got["howell_span_order"] == len(got["howell_span"]) == 4


def test_empty_inputs_of_any_dtype_are_accepted():
    for dtype in (np.float64, np.complex128, np.str_, object):
        empty = np.zeros((0, 3), dtype=dtype)
        assert howell_form(empty, 6).shape == (0, 3)
        assert howell_reduce(empty, [[7, 3, 1]], 6).tolist() == [[1, 3, 1]]
        assert howell_span_order(empty, 6) == 1
        assert howell_kernel(empty, 6).tolist() == np.eye(3, dtype=int).tolist()
        assert solve_mod(empty, np.zeros(0, dtype=dtype), 6)[0].tolist() == [0, 0, 0]


@pytest.mark.parametrize("n", [1, 0, -5])
def test_moduli_below_two_are_refused(n):
    for call in (lambda: _check_modulus(n), lambda: howell_form([[1, 0]], n)):
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            call()


def _each_routine(n, H):
    """Every public Z/n routine over Z/n, ``H`` a Howell form over Z/n."""
    A = [[2, 3, 5], [4, 6, 1], [8, 0, 10]]
    return {
        "howell_form": lambda: howell_form(A, n),
        "howell_reduce": lambda: howell_reduce(H, [[1, 2, 0], [5, 7, 11]], n),
        "howell_span": lambda: howell_span(H, n),
        "howell_span_order": lambda: howell_span_order(H, n),
        "howell_kernel": lambda: howell_kernel(H, n),
        "solve_mod": lambda: solve_mod(A, [1, 2, 3], n),
    }


_NUMPY_MODULI = [np.int32(97), np.int64(97), np.uint64(97), np.int32(12), np.uint64(12)]


@pytest.mark.parametrize("routine", sorted(_each_routine(2, None)))
@pytest.mark.parametrize("modulus", _NUMPY_MODULI, ids=repr)
def test_a_numpy_integer_modulus_gives_the_python_int_result(routine, modulus):
    # the modulus is read once as the int it is: the same values, dtypes
    # and Python scalar types as with that int
    n = int(modulus)
    H = howell_form([[2, 3, 5], [4, 6, 1]], n)
    want = _each_routine(n, H)[routine]()
    assert repr(_each_routine(modulus, H)[routine]()) == repr(want)


@pytest.mark.parametrize("routine", sorted(_each_routine(2, None)))
def test_a_modulus_that_is_no_integer_or_too_large_is_refused(routine):
    H = [[1, 0, 0]]
    for modulus in (97.0, "97"):
        with pytest.raises(TypeError):
            _each_routine(modulus, H)[routine]()
    # (n - 1)^2 wraps to 0 in int64 at 2^32 + 1: read as an int, it does not
    for modulus in (np.int64(2**31 + 1), np.int64(2**32 + 1)):
        with pytest.raises(ModulusTooLargeError):
            _each_routine(modulus, H)[routine]()
