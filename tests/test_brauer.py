import ast
import dataclasses
import random
import re
from collections import Counter
from itertools import combinations, product
from functools import cache
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brute import bicyclic_count, plucker_key, prime_powers, rref_mod_prime
from brauerkit import brauer, finab
from brauerkit.brauer import (
    MODE_ALL_PAIRS,
    MODE_PRIMITIVE_PAIRS,
    BicyclicFamily,
    FormSubmodule,
    all_bicyclics,
    bogomolov_intersection,
    compute_G,
    isotropic_bicyclics,
    restriction_kernel,
    verify_main_inclusions,
)
from brauerkit.finab import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    FinAbGroup,
    Subgroup,
    is_bicyclic_rr,
    subgroup_from_generators,
)
from brauerkit.oracle import (
    minor_vector,
    pair_span_size,
    solutions,
    span_closure,
    symplectic_value,
    vanishing_forms,
)
from brauerkit.sympl import AltForm, SymplecticSpace, eval_form, weil_form
from brauerkit.zmodlinalg import (
    DimensionMismatchError,
    ModulusTooLargeError,
    howell_form,
    howell_reduce,
    solve_mod,
)


def test_form_submodule_constructors():
    sp = SymplecticSpace(g=2, r=4)
    full = FormSubmodule.full(sp)
    assert full.order == 4**6
    assert full.rank == 6
    triv = FormSubmodule.trivial(sp)
    assert triv.order == 1
    assert triv.rank == 0
    span = FormSubmodule.weil_span(sp)
    assert span.order == 4
    assert span.rank == 1
    assert span.contains_vector(weil_form(sp).vector())
    assert span.contains(weil_form(sp))
    assert span.contains_vector((2, 0, 0, 0, 0, 2))
    assert not span.contains_vector((1, 0, 0, 0, 0, 0))
    assert triv.is_submodule_of(span)
    assert span.is_submodule_of(full)
    assert not full.is_submodule_of(span)


def test_form_rows_of_the_wrong_width_are_rejected():
    # reshaped to width 6, these two rows of width 3 would read as the one
    # row (1, 0, 0, 0, 0, 1): the wrong module, with no error
    sp = SymplecticSpace(g=2, r=3)
    glued = [[1, 0, 0], [0, 0, 1]]
    with pytest.raises(DimensionMismatchError):
        FormSubmodule.from_rows(sp, glued)
    with pytest.raises(DimensionMismatchError):
        brauer._cut(sp, glued)
    span = FormSubmodule.weil_span(sp)
    for vec in ([[1, 0], [0, 0], [0, 1]], (1, 0, 0)):
        with pytest.raises(DimensionMismatchError):
            span.contains_vector(vec)
    assert FormSubmodule.from_rows(sp, []) == FormSubmodule.trivial(sp)
    assert FormSubmodule.from_forms(sp, []) == FormSubmodule.trivial(sp)


def test_form_rows_refuse_non_integers_and_reduce_big_ints():
    # truncated, 1.5 would read as 1 and give the span of (1, 0, ..., 0)
    sp = SymplecticSpace(g=2, r=5)
    span = FormSubmodule.weil_span(sp)
    for entry in (1.5, 2.0, 1 + 2j, "1"):
        row = [entry, 0, 0, 0, 0, 0]
        with pytest.raises(TypeError):
            FormSubmodule.from_rows(sp, [row])
        with pytest.raises(TypeError):
            brauer._cut(sp, [row])
        with pytest.raises(TypeError):
            span.contains_vector(row)
    # 2^70 + 2, 2 - 2^80 and 2^63 + 3 are 1 mod 5, whatever numpy's dtype
    # guess, so each row is e = (1, 0, 0, 0, 0, 1)
    for big in ([2**70 + 2, 0, 0, 0, 0, 2 - 2**80], [2**63 + 3, 0, 0, 0, 0, 1]):
        assert FormSubmodule.from_rows(sp, [big]) == span
        assert brauer._cut(sp, [big]) == brauer._cut(sp, [[1, 0, 0, 0, 0, 1]])
        assert span.contains_vector(big)


def test_form_submodule_vectors_and_forms():
    sp = SymplecticSpace(g=1, r=4)
    span = FormSubmodule.weil_span(sp)
    assert sorted(span.vectors()) == [(0,), (1,), (2,), (3,)]
    forms = span.forms()
    assert all(isinstance(f, AltForm) for f in forms)
    rebuilt = FormSubmodule.from_forms(sp, forms)
    assert rebuilt == span


def test_form_submodule_vectors_past_cap_raise_cap_exceeded():
    span = FormSubmodule.full(SymplecticSpace(g=2, r=2))
    assert span.order == 64
    with pytest.raises(CapExceededError):
        span.vectors(cap=63)
    with pytest.raises(CapExceededError):
        span.forms(cap=63)
    assert len(span.vectors(cap=64)) == 64


def test_compute_g_rejects_unknown_mode():
    with pytest.raises(ValueError):
        compute_G(SymplecticSpace(g=2, r=2), "every-pair")


def test_compute_g_genus_one_is_whole_space():
    # with one hyperbolic pair every alternating form is a pairing multiple,
    # so no isotropic constraint can cut anything
    for r in (2, 3, 4, 6):
        sp = SymplecticSpace(g=1, r=r)
        G = compute_G(sp, MODE_ALL_PAIRS)
        assert G == FormSubmodule.full(sp)
        assert G == FormSubmodule.weil_span(sp)


def test_compute_g_g2_r2_order_two():
    sp = SymplecticSpace(g=2, r=2)
    for mode in (MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS):
        G = compute_G(sp, mode)
        assert G.order == 2
        assert G == FormSubmodule.weil_span(sp)


def test_compute_g_matches_exhaustive_filter():
    for g, r, mode, bicyclic in [
        (2, 2, MODE_ALL_PAIRS, False),
        (2, 2, MODE_PRIMITIVE_PAIRS, True),
        (2, 3, MODE_ALL_PAIRS, False),
        (2, 3, MODE_PRIMITIVE_PAIRS, True),
    ]:
        sp = SymplecticSpace(g=g, r=r)
        got = set(compute_G(sp, mode).vectors())
        assert got == vanishing_forms(g, r, isotropic_only=True, bicyclic_only=bicyclic)


def test_pairing_span_contained_both_modes():
    for g, r in [(2, 2), (2, 3), (2, 4), (3, 2)]:
        sp = SymplecticSpace(g=g, r=r)
        span = FormSubmodule.weil_span(sp)
        g_all = compute_G(sp, MODE_ALL_PAIRS)
        g_prim = compute_G(sp, MODE_PRIMITIVE_PAIRS)
        assert span.is_submodule_of(g_all)
        assert g_all.is_submodule_of(g_prim)  # fewer constraints on the right


def test_compute_g_cap():
    # the cap is charged with the 5g(g - 1)/2 witness pairs, 5 at g = 2
    sp = SymplecticSpace(g=2, r=3)
    with pytest.raises(CapExceededError, match="^5 witness pairs exceed cap 4$"):
        compute_G(sp, MODE_ALL_PAIRS, cap=4)
    assert compute_G(sp, MODE_ALL_PAIRS, cap=5) == FormSubmodule.weil_span(sp)


def test_span_filter_drops_exactly_rows_in_span():
    # two membership tests for a Howell basis, both from zmodlinalg:
    # reduction against it (howell_reduce, which FormSubmodule.contains_vector
    # uses), and K v = 0 for its kernel K (over Z/n a row span is the
    # annihilator of its kernel)
    rng = np.random.default_rng(33)
    for n in (2, 3, 4, 6, 8, 9, 12):
        cols = 4 if n >= 6 else 5
        for _ in range(30):
            gens = rng.integers(0, n, size=(int(rng.integers(0, 5)), cols))
            basis = howell_form(gens, n)
            _, K = solve_mod(basis, np.zeros(basis.shape[0], dtype=np.int64), n)
            span = span_closure(basis, n)
            inside = rng.integers(0, n, size=(6, basis.shape[0])) @ basis
            rows = np.vstack([inside, rng.integers(0, n, size=(10, cols))]) % n
            want = [tuple(row) in span for row in rows.tolist()]
            assert (~howell_reduce(basis, rows, n).any(axis=1)).tolist() == want
            assert (~((rows @ K.T) % n).any(axis=1)).tolist() == want


@pytest.mark.parametrize(
    "g, r", [(1, 2), (1, 4), (1, 6), (1, 8), (1, 9), (1, 12)]
    + [(2, r) for r in range(2, 7)]
)
def test_cut_matches_brute_force(g, r):
    sp = SymplecticSpace(g=g, r=r)
    m = sp.form_rank
    rng = np.random.default_rng(100 * g + r)
    for _ in range(12):
        # scaling a generator by a random factor mod r gives torsion spans
        gens = rng.integers(0, r, size=(int(rng.integers(0, 4)), m))
        gens = gens * rng.integers(1, r, size=(gens.shape[0], 1)) % r
        S = FormSubmodule.from_rows(sp, gens)
        K = np.array(S.generators, dtype=np.int64).reshape(-1, m)
        N1, N2 = (rng.integers(0, r, size=(int(rng.integers(0, 3)), m)) for _ in "12")
        cut1, killed = brauer._cut(sp, N1, S), solutions(N1, 0, r, m)
        assert set(cut1.vectors()) == killed & span_closure(K, r)
        # cutting twice is cutting once by the stacked rows
        assert brauer._cut(sp, N2, cut1) == brauer._cut(sp, np.vstack([N1, N2]), S)
        # rows that kill all of S, and no rows at all, return S itself
        killers = sorted(solutions(K, 0, r, m))
        picks = rng.integers(0, len(killers), size=2)
        assert brauer._cut(sp, [killers[i] for i in picks], S) is S
        assert brauer._cut(sp, np.zeros((0, m), dtype=np.int64), S) is S
        assert brauer._cut(sp, [], S) is S
        # without a submodule, the kernel of N on every form
        ker = brauer._cut(sp, N1)
        assert set(ker.vectors(cap=r**m)) == killed
        assert ker == brauer._cut(sp, N1, FormSubmodule.full(sp))


def _shell_brute(g, r):
    """S1 by enumeration: nonzero vectors, support <= 2, entries 1 or r - 1."""
    return [
        v
        for v in product(range(r), repeat=2 * g)
        if 0 < sum(map(bool, v)) <= 2 and all(c in (0, 1, r - 1) for c in v)
    ]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [2, 3, 4, 6])
def test_witness_pairs_are_the_papers(g, r):
    # the library's witness pairs against the list written out below, each
    # one against the brute-force pairing, span size and minors
    sp = SymplecticSpace(g=g, r=r)
    X, Y = brauer._witness_pairs(sp)
    pairs = list(zip(map(tuple, X.tolist()), map(tuple, Y.tolist())))
    assert len(pairs) == 5 * g * (g - 1) // 2
    assert set(pairs) == set(_witness_pairs(g, r))
    for (x, y), row in zip(pairs, brauer._minor_rows(X, Y, r).tolist()):
        assert symplectic_value(x, y, r) == 0
        assert pair_span_size(x, y, r) == r * r
        assert tuple(row) == minor_vector(x, y, r)


@pytest.mark.parametrize("g", [2, 3, 4])
@pytest.mark.parametrize("r", [2**31 - 1, 2**31])
@pytest.mark.parametrize("bicyclic", [True, False])
def test_shell_pairs_are_exact_at_the_modulus_limit(g, r, bicyclic):
    # the witness pairs, which are pairs of the shell S1, at the largest
    # moduli the Z/r routines accept: their int64 minor rows against Python
    # ints, and the cut of the selected mode against span(e)
    sp = SymplecticSpace(g=g, r=r)
    X, Y = brauer._witness_pairs(sp)
    pairs = list(zip(map(tuple, X.tolist()), map(tuple, Y.tolist())))
    assert set(pairs) == set(_witness_pairs(g, r))
    for (x, y), row in zip(pairs, brauer._minor_rows(X, Y, r).tolist()):
        assert symplectic_value(x, y, r) == 0
        assert gcd(r, *row) == 1
        assert tuple(row) == minor_vector(x, y, r)
    mode = MODE_PRIMITIVE_PAIRS if bicyclic else MODE_ALL_PAIRS
    assert compute_G(sp, mode) == FormSubmodule.weil_span(sp)


def _refuse_to_list(*args, **kwargs):
    raise RuntimeError("the scan listed group elements")


@pytest.mark.parametrize("g, r", [(2, 3), (3, 4), (4, 2), (4, 6)])
@pytest.mark.parametrize("mode", [MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS])
def test_compute_g_is_one_cut_by_the_witness_rows(monkeypatch, g, r, mode):
    # one floor check of every form by the 5g(g - 1)/2 witness rows, with
    # no group element listed
    check = brauer._cut_to_floor
    calls = []

    def counted(space, rows, floor, where):
        calls.append((len(rows), floor))
        return check(space, rows, floor, where)

    monkeypatch.setattr(brauer, "_cut_to_floor", counted)
    monkeypatch.setattr(FinAbGroup, "coordinate_table", _refuse_to_list)
    sp = SymplecticSpace(g=g, r=r)
    assert compute_G(sp, mode) == FormSubmodule.weil_span(sp)
    assert calls == [(5 * g * (g - 1) // 2, FormSubmodule.weil_span(sp))]


def test_scan_at_genus_one_lists_no_element(monkeypatch):
    # m = 1, so every form is a multiple of e: there is no witness pair, and
    # the cut by no rows is every form
    monkeypatch.setattr(FinAbGroup, "coordinate_table", _refuse_to_list)
    for r in (2, 3, 4, 6):
        sp = SymplecticSpace(g=1, r=r)
        X, Y = brauer._witness_pairs(sp)
        assert X.shape == Y.shape == (0, 2)
        for mode in (MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS):
            assert compute_G(sp, mode) == FormSubmodule.full(sp)


def test_scan_raises_if_the_shell_ends_before_the_stop(monkeypatch):
    # without the (a_i + a_j, b_i - b_j) pairs the cut leaves every form
    # sum c_i (a_i, b_i), r^g of them, so it never reaches span(e); the
    # error names a generator outside span(e)
    witness_pairs = brauer._witness_pairs

    def without_mixed_pairs(space):
        X, Y = witness_pairs(space)
        single = (X != 0).sum(axis=1) == 1
        return X[single], Y[single]

    monkeypatch.setattr(brauer, "_witness_pairs", without_mixed_pairs)
    sp = SymplecticSpace(g=2, r=3)
    e_span = FormSubmodule.weil_span(sp)
    for mode in (MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS):
        message = rf"^the {mode} witness pairs at g = 2, r = 3 cut to 9 forms: generator "
        with pytest.raises(RuntimeError, match=message) as raised:
            compute_G(sp, mode)
        named = re.search(r"generator (\(.*?\))", str(raised.value)).group(1)
        vec = ast.literal_eval(named)
        assert len(vec) == sp.form_rank
        assert not e_span.contains_vector(vec)


def test_scan_names_e_if_the_cut_is_smaller_than_span_e(monkeypatch):
    # with (a_1, b_1) among the pairs the cut also kills e: it is {0}, so
    # no generator lies outside span(e), and the error names e instead
    witness_pairs = brauer._witness_pairs

    def with_a1_b1(space):
        X, Y = witness_pairs(space)
        a1, b1 = np.eye(space.dim, dtype=np.int64)[:2]
        return np.vstack([X, a1]), np.vstack([Y, b1])

    monkeypatch.setattr(brauer, "_witness_pairs", with_a1_b1)
    sp = SymplecticSpace(g=2, r=3)
    e = weil_form(sp).vector()
    for mode in (MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS):
        message = (
            rf"^the {mode} witness pairs at g = 2, r = 3 cut to 1 forms: "
            rf"e = {re.escape(str(e))} is outside the cut$"
        )
        with pytest.raises(RuntimeError, match=message):
            compute_G(sp, mode)


def test_a_witness_cut_of_the_floor_order_but_not_its_value_is_a_runtime_error(
    monkeypatch,
):
    # with (a_1, b_1) in place of the last mixed pair (a_1 + a_2, b_1 - b_2)
    # the cut is span(e_(a_2 b_2)): r forms, as many as span(e), but not
    # span(e), so a check by order alone would return it
    witness_pairs = brauer._witness_pairs

    def swapped_last_mixed_pair(space):
        X, Y = witness_pairs(space)
        X, Y = X.copy(), Y.copy()
        X[-1], Y[-1] = np.eye(space.dim, dtype=np.int64)[:2]
        return X, Y

    monkeypatch.setattr(brauer, "_witness_pairs", swapped_last_mixed_pair)
    sp = SymplecticSpace(g=2, r=5)
    for mode in (MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS):
        message = (
            rf"^the {mode} witness pairs at g = 2, r = 5 cut to 5 forms: "
            r"generator \(0, 0, 0, 0, 0, 1\) is outside span\(e\)$"
        )
        with pytest.raises(RuntimeError, match=message):
            compute_G(sp, mode)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [2, 3, 4, 6, 12, 97, 2**31 - 1, 2**31])
def test_written_down_spans_match_an_independent_route(monkeypatch, g, r):
    # span(e) and {0} are written down, not canonicalized: they must be
    # what from_forms and from_rows compute, and their span what the
    # naive closure finds
    sp = SymplecticSpace(g=g, r=r)
    e = weil_form(sp)
    computed_span = FormSubmodule.from_forms(sp, [e])
    computed_trivial = FormSubmodule.from_rows(sp, [])
    def no_howell_form(*args):
        raise AssertionError("a written-down span called howell_form")

    monkeypatch.setattr(brauer, "howell_form", no_howell_form)
    span = FormSubmodule.weil_span(sp)
    assert span == computed_span and span.order == r
    assert FormSubmodule.trivial(sp) == computed_trivial
    if r <= 97:
        vectors = span.vectors()
        assert set(vectors) == span_closure([e.vector()], r)
        assert len(vectors) == r


def _witness_pairs(g, r):
    """The paper's witness pairs (a_i, a_j), (b_i, b_j), (a_i, b_j),
    (a_j, b_i) and (a_i + a_j, b_i - b_j), i < j, as coordinate tuples."""

    def vec(*terms):
        v = [0] * (2 * g)
        for coord, c in terms:
            v[coord] = c % r
        return tuple(v)

    pairs = []
    for i, j in combinations(range(g), 2):
        a_i, b_i, a_j, b_j = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
        pairs += [
            (vec((a_i, 1)), vec((a_j, 1))),
            (vec((b_i, 1)), vec((b_j, 1))),
            (vec((a_i, 1)), vec((b_j, 1))),
            (vec((a_j, 1)), vec((b_i, 1))),
            (vec((a_i, 1), (a_j, 1)), vec((b_i, 1), (b_j, -1))),
        ]
    return pairs


@pytest.mark.parametrize("g, r", [(2, r) for r in range(2, 7)] + [(3, 2)])
def test_witness_pairs_in_the_shell_kill_all_but_the_pairing_span(g, r):
    # the certificate behind the witness cut of compute_G, by brute force: the
    # witness pairs lie in S1, are isotropic and bicyclic, and the forms
    # their minor rows kill are exactly the multiples of e
    pairs = _witness_pairs(g, r)
    assert len(pairs) == 5 * g * (g - 1) // 2
    shell = set(_shell_brute(g, r))
    for x, y in pairs:
        assert x in shell and y in shell
        assert symplectic_value(x, y, r) == 0
        assert pair_span_size(x, y, r) == r * r
    rows = np.array([minor_vector(x, y, r) for x, y in pairs], dtype=np.int64)
    killed = solutions(rows, 0, r, rows.shape[1])
    d = 2 * g
    e = [int(i % 2 == 0 and j == i + 1) for i in range(d) for j in range(i + 1, d)]
    assert killed == {tuple(c * v for v in e) for c in range(r)}


@pytest.mark.parametrize(
    "g, r",
    [(3, 5), (4, 2), (4, 3), (2, 30), (3, 6), (4, 6), (3, 12), (8, 3), (12, 2)],
)
@pytest.mark.parametrize("mode", [MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS])
def test_compute_g_is_pairing_span_beyond_acceptance_grid(g, r, mode):
    sp = SymplecticSpace(g=g, r=r)
    assert compute_G(sp, mode) == FormSubmodule.weil_span(sp)


@pytest.mark.parametrize("r, prime_powers", [(6, (2, 3)), (12, (4, 3))])
@pytest.mark.parametrize("mode", [MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS])
def test_compute_g_is_crt_sum_over_prime_powers(r, prime_powers, mode):
    # G(r) is the sum over q exactly dividing r of G(q) carried into Z/r by
    # the idempotent (r/q) * ((r/q)^-1 mod q), which is 1 mod q and 0 mod r/q
    sp = SymplecticSpace(g=2, r=r)
    lifted = []
    for q in prime_powers:
        idempotent = (r // q) * pow(r // q, -1, q) % r
        Gq = compute_G(SymplecticSpace(g=2, r=q), mode)
        lifted += [[idempotent * c % r for c in row] for row in Gq.generators]
    assert compute_G(sp, mode) == FormSubmodule.from_rows(sp, lifted)


@pytest.mark.parametrize("r", [2**16, 2**31 - 1])
def test_compute_g_past_the_table_size_limit_lists_no_table(monkeypatch, r):
    # a coordinate table of (Z/r)^4 is past numpy's size limit at both
    # moduli, but G costs 5 witness pairs and lists no group element
    monkeypatch.setattr(FinAbGroup, "coordinate_table", _refuse_to_list)
    sp = SymplecticSpace(g=2, r=r)
    for mode in (MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS):
        assert compute_G(sp, mode) == FormSubmodule.weil_span(sp)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_compute_g_rejects_modulus_past_2_31_before_the_shell(monkeypatch, g):
    # the modulus check comes before the witness pairs are built, at g = 1 too
    monkeypatch.setattr(brauer, "_witness_pairs", _refuse_to_list)
    monkeypatch.setattr(FinAbGroup, "coordinate_table", _refuse_to_list)
    sp = SymplecticSpace(g=g, r=2**31 + 1)
    for mode in (MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS):
        with pytest.raises(ModulusTooLargeError):
            compute_G(sp, mode, cap=10**40)


def test_restriction_kernel_trivial_subgroup():
    sp = SymplecticSpace(g=2, r=3)
    triv = subgroup_from_generators(sp.group, [])
    assert restriction_kernel(sp, triv) == FormSubmodule.full(sp)


def test_restriction_kernel_frozen_a1_a2():
    sp = SymplecticSpace(g=2, r=2)
    sub = subgroup_from_generators(sp.group, [sp.a(1), sp.a(2)])
    ker = restriction_kernel(sp, sub)
    assert ker.order == 32

    # brute: forms vanishing on every pair of subgroup elements
    members = [e.coords for e in sub.elements()]
    rows = set()
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            rows.add(minor_vector(x, y, 2))
    assert set(ker.vectors()) == solutions(sorted(rows), 0, 2, 6)


def test_restriction_kernel_contains_e_for_isotropic_members():
    sp = SymplecticSpace(g=2, r=3)
    e_vec = weil_form(sp).vector()
    for member in isotropic_bicyclics(sp):
        assert restriction_kernel(sp, member).contains_vector(e_vec)


def test_isotropic_bicyclics_genus_one_empty():
    sp = SymplecticSpace(g=1, r=2)
    fam = isotropic_bicyclics(sp)
    assert len(fam) == 0
    # directly: every independent ordered pair in (Z/2)^2 pairs to 1
    elems = [(0, 1), (1, 0), (1, 1)]
    for x in elems:
        for y in elems:
            if x != y:
                assert symplectic_value(x, y, 2) == 1


def test_isotropic_bicyclics_counts():
    # maximal isotropic subgroup counts over a prime field: (r+1)(r^2+1)
    assert len(isotropic_bicyclics(SymplecticSpace(g=2, r=2))) == 15
    assert len(isotropic_bicyclics(SymplecticSpace(g=2, r=3))) == 40


def test_all_bicyclics_count_g2_r2():
    # rank-2 subgroup count of (Z/2)^4: Gaussian binomial (15 * 14) / (3 * 2)
    fam = all_bicyclics(SymplecticSpace(g=2, r=2))
    assert len(fam) == 35


def test_family_members_are_distinct_and_bicyclic():
    sp = SymplecticSpace(g=2, r=4)
    fam = isotropic_bicyclics(sp)
    e = weil_form(sp)
    seen = set()
    for member in fam:
        assert member.canonical_generators not in seen
        seen.add(member.canonical_generators)
        assert member.invariant_factors() == (4, 4)
        # canonical generators may include annihilator rows beyond the
        # defining pair; isotropy must hold across all of them
        gens = member.generators()
        for i, x in enumerate(gens):
            for y in gens[i + 1 :]:
                assert eval_form(e, x, y) == 0
    assert all(tag == "isotropic-pair" for tag in fam.provenance)


def _naive_family_spans(g: int, r: int) -> dict[bool, set]:
    """Element sets of the (Z/r)^2 subgroups spanned by element pairs, by a
    plain double loop over the elements: every subgroup (key False) and
    those of isotropic pairs (key True).

    A pair spans (Z/r)^2 when its r^2 combinations a x + b y are distinct;
    a span is kept as the bytes of the sorted codes of its elements, each
    read base r.
    """
    d = 2 * g
    elems = np.array(list(product(range(r), repeat=d)), dtype=np.int64)
    a, b = np.array(list(product(range(r), repeat=2)), dtype=np.int64).T
    code = r ** np.arange(d - 1, -1, -1)
    spans = {True: set(), False: set()}
    for i, x in enumerate(elems):
        Y = elems[i + 1 :]
        S = np.sort((a[:, None] * x + b[:, None] * Y[:, None]) % r @ code, axis=1)
        free = (np.diff(S, axis=1) != 0).all(axis=1)
        isotropic = (Y[:, 1::2] @ x[::2] - Y[:, ::2] @ x[1::2]) % r == 0
        keys = np.ascontiguousarray(S).view(f"V{S.itemsize * r * r}").ravel()
        spans[False].update(keys[free].tolist())
        spans[True].update(keys[free & isotropic].tolist())
    return spans


def _element_codes(member, r: int) -> bytes:
    """The member's elements as ``_naive_family_spans`` keeps a span."""
    d = member.parent.rank
    codes = (
        sum(c * r ** (d - 1 - j) for j, c in enumerate(v))
        for v in span_closure(member.canonical_generators, r)
    )
    return np.array(sorted(codes), dtype=np.int64).tobytes()


def test_family_members_match_naive_pair_loop():
    # the chart lists exactly the subgroups a plain double loop over the
    # elements meets, isotropic or not, each once
    for r in (2, 3, 4, 6):
        sp = SymplecticSpace(g=2, r=r)
        naive = _naive_family_spans(2, r)
        for isotropic, enumerate_family in (
            (True, isotropic_bicyclics),
            (False, all_bicyclics),
        ):
            spans = [_element_codes(m, r) for m in enumerate_family(sp)]
            assert len(spans) == len(set(spans))
            assert set(spans) == naive[isotropic], (r, isotropic)


def _pivot_columns(member, p: int) -> tuple[int, ...]:
    """Pivot columns of the member reduced mod the prime p."""
    return tuple(row.index(1) for row in rref_mod_prime(member.canonical_generators, p))


@pytest.mark.parametrize("r, p, rest", [(3, 3, 1), (4, 2, 1), (5, 5, 1), (6, 2, 3)])
def test_family_order_is_the_chart_order(r, p, rest):
    # deterministic, and ordered by the pivot columns (c1, c2) mod the first
    # prime p; at composite r each basis mod p^k is combined with the whole
    # list for the rest of r, itself in chart order
    sp = SymplecticSpace(g=2, r=r)
    for isotropic, enumerate_family in (
        (True, isotropic_bicyclics),
        (False, all_bicyclics),
    ):
        fam = enumerate_family(sp)
        assert fam.members == enumerate_family(sp).members
        outer = [_pivot_columns(m, p) for m in fam]
        assert all(len(key) == 2 for key in outer)
        assert outer == sorted(outer)
        if rest > 1:
            block = bicyclic_count(2, rest, isotropic)
            inner = [_pivot_columns(m, rest) for m in fam]
            assert inner[:block] == sorted(inner[:block])
            assert all(key == inner[i % block] for i, key in enumerate(inner))


FAMILIES = ((isotropic_bicyclics, True), (all_bicyclics, False))


def _refuse_to_chart(*args, **kwargs):
    raise RuntimeError("the family listed a chart")


@pytest.mark.parametrize(
    "g, r", [(2, 4), (2, 6), (2, 8), (2, 9), (2, 12), (3, 2), (3, 3)]
)
def test_family_sizes_match_closed_form(monkeypatch, g, r):
    # the cap is charged with exactly the member count: a family fits a cap
    # of its own size, and one below it is refused before any chart is listed
    sp = SymplecticSpace(g=g, r=r)
    counts = {
        enumerate_family: bicyclic_count(g, r, isotropic=isotropic)
        for enumerate_family, isotropic in FAMILIES
    }
    for enumerate_family, count in counts.items():
        assert len(enumerate_family(sp, cap=count)) == count
    monkeypatch.setattr(brauer, "_chart", _refuse_to_chart)
    for enumerate_family, count in counts.items():
        message = f"^family of {count} members exceeds cap {count - 1}$"
        with pytest.raises(CapExceededError, match=message):
            enumerate_family(sp, cap=count - 1)


def test_isotropic_family_past_the_default_cap_is_refused_before_any_chart(
    monkeypatch,
):
    # (3, 10) has 315 * 101556 isotropic members in a group of only 10^6
    monkeypatch.setattr(brauer, "_chart", _refuse_to_chart)
    sp = SymplecticSpace(g=3, r=10)
    message = f"^family of 31990140 members exceeds cap {DEFAULT_ENUMERATION_CAP}$"
    with pytest.raises(CapExceededError, match=message):
        isotropic_bicyclics(sp)


@pytest.mark.parametrize("g, r", [(2, 3), (2, 5), (3, 2)])
def test_prime_family_members_are_built_in_howell_form(g, r):
    # at prime r a member is built from its chart basis without a Howell
    # call; it must be the subgroup that canonicalization gives
    sp = SymplecticSpace(g=g, r=r)
    for enumerate_family in (isotropic_bicyclics, all_bicyclics):
        for member in enumerate_family(sp):
            x, y = member.canonical_generators
            canonical = subgroup_from_generators(
                sp.group, [sp.element(x), sp.element(y)]
            )
            assert member == canonical
            assert member.canonical_generators == canonical.canonical_generators
            assert member.order == canonical.order == r * r


def test_families_list_no_table(monkeypatch):
    monkeypatch.setattr(FinAbGroup, "coordinate_table", _refuse_to_list)
    for g, r in [(1, 6), (2, 3), (2, 4), (2, 6)]:
        sp = SymplecticSpace(g=g, r=r)
        for enumerate_family, isotropic in FAMILIES:
            count = bicyclic_count(g, r, isotropic=isotropic)
            assert len(enumerate_family(sp)) == count
            if count:
                with pytest.raises(CapExceededError):
                    enumerate_family(sp, cap=count - 1)


@pytest.mark.parametrize(
    "g, r", [(1, 4), (1, 6), (2, 4), (2, 5), (2, 6), (2, 12), (3, 2)]
)
def test_family_intersection_matches_generator_rows(g, r):
    # an enumerated family holds its chart and nothing built from it; its
    # intersection, checked by a cut by the minor rows of its block heads on
    # first use, is the same intersection as the one stacked cut by the generator-pair
    # rows of a family built by hand from the same members, and len counts
    # those members
    sp = SymplecticSpace(g=g, r=r)
    for enumerate_family, isotropic in FAMILIES:
        fam = enumerate_family(sp)
        built = {"members", "provenance", "_keys", "_intersection"}
        assert not built & fam.__dict__.keys()
        streamed = bogomolov_intersection(sp, fam)
        assert not built - {"_intersection"} & fam.__dict__.keys()
        assert len(fam) == len(fam.members) == bicyclic_count(g, r, isotropic)
        stacked = BicyclicFamily(sp, fam.members, fam.provenance)
        assert streamed == bogomolov_intersection(sp, stacked)


def _refuse_to_build(*args, **kwargs):
    raise RuntimeError("a family member was built")


def _refuse_z_r_bases(*args, **kwargs):
    raise RuntimeError("a chart basis over Z/r was formed")


@pytest.mark.parametrize(
    "g, r, families",
    [
        pytest.param(2, 4, FAMILIES, id="2-4"),
        pytest.param(2, 6, FAMILIES, id="2-6"),
        pytest.param(2, 12, FAMILIES, id="2-12"),
        pytest.param(3, 2, FAMILIES, id="3-2"),
        # two odd prime powers, 6,240 members
        pytest.param(2, 15, FAMILIES[:1], id="isotropic-2-15"),
    ],
)
def test_family_len_and_intersection_build_no_member(monkeypatch, g, r, families):
    # len is the closed-form count, and the intersection checks each prime
    # power q's chart on its own, over Z/q, once, by the minor rows of its
    # block heads: no basis is offered twice for one q (a basis can repeat
    # across q), no q more than its chart's bases (the closed form over
    # Z/q), no check lists more rows than the form rank, and the checked
    # floor is the intersection over every member; neither lists a chart whole
    # (_chart), forms a chart basis over Z/r (_bases), goes through
    # _members_of or builds a Subgroup
    sp = SymplecticSpace(g=g, r=r)
    check, basis_rows, offered, bases = brauer._cut_to_floor, brauer._basis_rows, [], []

    def counted_check(space, rows, floor, where):
        offered.append(len(rows))
        return check(space, rows, floor, where)

    def recorded_basis_rows(B, n):
        bases.extend((n, tuple(map(tuple, xy))) for xy in B.tolist())
        return basis_rows(B, n)

    monkeypatch.setattr(brauer, "_cut_to_floor", counted_check)
    monkeypatch.setattr(brauer, "_basis_rows", recorded_basis_rows)
    monkeypatch.setattr(BicyclicFamily, "_bases", _refuse_z_r_bases)
    monkeypatch.setattr(brauer, "_chart", _refuse_to_chart)
    monkeypatch.setattr(brauer, "_members_of", _refuse_to_build)
    monkeypatch.setattr(Subgroup, "__init__", _refuse_to_build)
    stopped = []
    for enumerate_family, isotropic in families:
        offered.clear()
        bases.clear()
        fam = enumerate_family(sp)
        assert len(fam) == bicyclic_count(g, r, isotropic=isotropic)
        inter = bogomolov_intersection(sp, fam)
        want = FormSubmodule.weil_span(sp) if isotropic else FormSubmodule.trivial(sp)
        assert inter == want
        assert len(set(bases)) == len(bases) == sum(offered)
        for q, n in Counter(q for q, _ in bases).items():
            assert n <= bicyclic_count(g, q, isotropic=isotropic)
        assert len(offered) == len(brauer._prime_powers(r))
        assert max(offered) <= sp.form_rank
        assert "members" not in fam.__dict__
        stopped.append((fam, inter))
    monkeypatch.undo()
    for fam, inter in stopped:
        stacked = BicyclicFamily(sp, fam.members, fam.provenance)
        assert inter == bogomolov_intersection(sp, stacked)


@pytest.mark.parametrize(
    "enumerate_family, g, r, cuts",
    [
        (all_bicyclics, 3, 5, {5: 1}),
        (all_bicyclics, 3, 6, {2: 1, 3: 1}),
        (isotropic_bicyclics, 3, 7, {7: 1}),
        (isotropic_bicyclics, 3, 6, {2: 1, 3: 1}),
    ],
    ids=["all-3-5", "all-3-6", "isotropic-3-7", "isotropic-3-6"],
)
def test_each_prime_power_stops_at_the_first_cut_of_its_floor(
    monkeypatch, enumerate_family, g, r, cuts
):
    # each q is checked once, by its block heads, at the floor's order (q
    # for span(e), 1 for {0}), where the chart read in member order took
    # 814, 2 + 23 and 1,222 slices of 96 bases
    sp = SymplecticSpace(g=g, r=r)
    fam = enumerate_family(sp)
    check, orders = brauer._cut_to_floor, {}

    def recorded_check(space, rows, floor, where):
        out = check(space, rows, floor, where)
        orders.setdefault(space.r, []).append(out.order)
        return out

    monkeypatch.setattr(brauer, "_cut_to_floor", recorded_check)
    bogomolov_intersection(sp, fam)
    assert {q: len(seen) for q, seen in orders.items()} == cuts
    for q, seen in orders.items():
        floor = q if enumerate_family is isotropic_bicyclics else 1
        assert seen[-1] == floor and all(order > floor for order in seen[:-1])


_FAMILY_POINTS = [
    (isotropic_bicyclics, 2, 2),
    (all_bicyclics, 2, 2),
    (isotropic_bicyclics, 2, 3),
    (all_bicyclics, 2, 3),
    (isotropic_bicyclics, 2, 4),
    (all_bicyclics, 2, 4),
    (isotropic_bicyclics, 3, 2),
    (all_bicyclics, 3, 2),
    (isotropic_bicyclics, 2, 5),
]


@pytest.mark.parametrize("enumerate_family, g, r", _FAMILY_POINTS)
def test_each_family_workload_point_reaches_its_floor_in_one_cut(
    monkeypatch, enumerate_family, g, r
):
    # the nine points of the family benchmark: one floor check by the block
    # heads, one per pivot block (form_rank of them, the isotropic family's
    # last block being empty), passes
    sp = SymplecticSpace(g=g, r=r)
    check, offered = brauer._cut_to_floor, []

    def counted_check(space, rows, floor, where):
        offered.append(len(rows))
        return check(space, rows, floor, where)

    monkeypatch.setattr(brauer, "_cut_to_floor", counted_check)
    inter = bogomolov_intersection(sp, enumerate_family(sp))
    iso = enumerate_family is isotropic_bicyclics
    assert inter == (FormSubmodule.weil_span(sp) if iso else FormSubmodule.trivial(sp))
    assert offered == [sp.form_rank - iso]


@pytest.mark.parametrize(
    "enumerate_family, g, r, want",
    [
        # 3.18 * 10^8 members: the default cap refuses it
        pytest.param(all_bicyclics, 4, 5, FormSubmodule.trivial, id="all-4-5"),
        # 980,400 members
        pytest.param(isotropic_bicyclics, 3, 7, FormSubmodule.weil_span, id="isotropic-3-7"),
        pytest.param(isotropic_bicyclics, 3, 97, FormSubmodule.weil_span, id="isotropic-3-97"),
        pytest.param(all_bicyclics, 3, 97, FormSubmodule.trivial, id="all-3-97"),
        # 9.8 * 10^25 members; the last pivot block has no isotropic basis,
        # so no head
        pytest.param(isotropic_bicyclics, 8, 9, FormSubmodule.weil_span, id="isotropic-8-9"),
    ],
)
def test_a_lazy_chart_reaches_its_floor_with_no_chart_listed(
    monkeypatch, enumerate_family, g, r, want
):
    # the check takes each block's written-down head alone, so a family
    # whose chart could not be listed is checked at its floor in one check
    monkeypatch.setattr(brauer, "_chart", _refuse_to_chart)
    sp = SymplecticSpace(g=g, r=r)
    check, cuts = brauer._cut_to_floor, []

    def counted_check(space, rows, floor, where):
        cuts.append(len(rows))
        return check(space, rows, floor, where)

    monkeypatch.setattr(brauer, "_cut_to_floor", counted_check)
    fam = enumerate_family(sp, cap=10**100)
    # size, not len: len() cannot return the 9.8 * 10^25 members at (8, 9)
    iso = enumerate_family is isotropic_bicyclics
    assert fam.size == bicyclic_count(g, r, isotropic=iso)
    assert bogomolov_intersection(sp, fam) == want(sp)
    assert cuts == [sp.form_rank - iso]


def test_hashing_a_family_builds_no_member(monkeypatch):
    # a family hashes by (space, len), which equal families share
    monkeypatch.setattr(brauer, "_members_of", _refuse_to_build)
    for enumerate_family, g, r in [(all_bicyclics, 3, 4), (isotropic_bicyclics, 2, 6)]:
        sp = SymplecticSpace(g=g, r=r)
        fam = enumerate_family(sp)
        hash(fam)
        assert "members" not in fam.__dict__
    monkeypatch.undo()
    sp = SymplecticSpace(g=2, r=6)
    fam = isotropic_bicyclics(sp)
    assert hash(fam) == hash(BicyclicFamily(sp, fam.members, fam.provenance))


@pytest.mark.parametrize(
    "enumerate_family, g, r",
    [(all_bicyclics, 3, 4), (isotropic_bicyclics, 2, 6)],
    ids=["all-3-4", "isotropic-2-6"],
)
def test_families_with_the_same_parts_are_equal_with_no_member_built(
    monkeypatch, enumerate_family, g, r
):
    # two enumerations of one point hold the same parts, and so do the two
    # families they grow by one pair, so each pair is equal with no member
    # built; (a_1, b_1) is added to the isotropic family, and all_bicyclics
    # already holds it
    monkeypatch.setattr(brauer, "_members_of", _refuse_to_build)
    sp = SymplecticSpace(g=g, r=r)
    fam, again = enumerate_family(sp), enumerate_family(sp)
    assert fam == again and again == fam
    x, y = sp.a(1), sp.b(1)
    grown, grown_again = fam.with_pair(x, y), again.with_pair(x, y)
    assert grown == grown_again
    assert len(grown) == len(fam) + (enumerate_family is isotropic_bicyclics)
    for f in (fam, again, grown, grown_again):
        assert "members" not in f.__dict__


@pytest.mark.parametrize("r", [4, 6])
def test_an_added_basis_is_cut_after_the_chart_stops(monkeypatch, r):
    # the isotropic chart's cut is span(e) from its block heads alone, but
    # a basis that with_pair added need not be isotropic: (a_1, b_1) is not,
    # and its minor row cuts e
    sp = SymplecticSpace(g=2, r=r)
    fam = isotropic_bicyclics(sp)
    wider = fam.with_pair(sp.a(1), sp.b(1))
    assert "_intersection" not in fam.__dict__.keys() | wider.__dict__.keys()
    cut, offered = brauer._cut, []

    def counted_cut(space, rows, sub=None):
        offered.append(len(rows))
        return cut(space, rows, sub)

    monkeypatch.setattr(brauer, "_cut", counted_cut)
    assert bogomolov_intersection(sp, wider) == FormSubmodule.trivial(sp)
    *chart, added = offered
    assert added == 1 and sum(chart) < len(fam)


@pytest.mark.parametrize("r, short", [(6, 3), (12, 4), (15, 5)], ids=["6", "12", "15"])
def test_a_chart_cut_short_at_one_prime_power_is_a_runtime_error(monkeypatch, r, short):
    # an enumerated chart's heads cut to its floor mod every q; with the
    # floor check over Z/q given the first head's row alone at one q, that
    # q's cut keeps every form with 0 at (a_1, b_1), and the error names
    # that q, the cut's order and a generator outside {0}
    check = brauer._cut_to_floor

    def short_check(space, rows, floor, where):
        return check(space, rows[:1] if space.r == short else rows, floor, where)

    monkeypatch.setattr(brauer, "_cut_to_floor", short_check)
    sp = SymplecticSpace(g=2, r=r)
    message = (
        rf"^the all bicyclic heads at g = 2, q = {short} cut to {short**5} forms: "
        r"generator \(.*\) is outside \{0\}$"
    )
    with pytest.raises(RuntimeError, match=message):
        bogomolov_intersection(sp, all_bicyclics(sp))


_SCAN_POINTS = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4)]


@pytest.mark.parametrize(
    "enumerate_family, g, r", [(None, g, r) for g, r in _SCAN_POINTS] + _FAMILY_POINTS
)
def test_a_floor_that_passes_takes_one_howell_form_per_prime_power_and_no_kernel(
    monkeypatch, enumerate_family, g, r
):
    # the seven scan points check G at r, the nine family points the chart
    # floor at each prime power q: each check is one Howell form of its
    # rows, and no kernel is solved
    calls = Counter()
    for name in ("howell_form", "howell_kernel"):

        def counted(*args, _name=name, _real=getattr(brauer, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(brauer, name, counted)
    sp = SymplecticSpace(g=g, r=r)
    if enumerate_family is None:
        assert compute_G(sp) == FormSubmodule.weil_span(sp)
        checks = 1
    else:
        iso = enumerate_family is isotropic_bicyclics
        want = FormSubmodule.weil_span(sp) if iso else FormSubmodule.trivial(sp)
        assert bogomolov_intersection(sp, enumerate_family(sp)) == want
        checks = len(brauer._prime_powers(r))
    assert calls == {"howell_form": checks}


def _head_rows(sp, isotropic: bool) -> np.ndarray:
    heads = np.array(brauer._heads(sp.dim, isotropic), dtype=np.int64)
    return brauer._basis_rows(heads, sp.r)


# rows that reach a floor, with that floor: the witness rows and the
# isotropic heads reach span(e), the heads of every pivot block {0}
_ROWS_AND_FLOORS = [
    (lambda sp: brauer._minor_rows(*brauer._witness_pairs(sp), sp.r), FormSubmodule.weil_span),
    (lambda sp: _head_rows(sp, True), FormSubmodule.weil_span),
    (lambda sp: _head_rows(sp, False), FormSubmodule.trivial),
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_floor_check_agrees_with_the_full_cut(data):
    # rows that reach their floor, perturbed up to three times: a row
    # dropped, repeated, scaled or replaced by random values.  The check
    # returns the floor exactly when the full cut is the floor, and
    # otherwise raises with the cut's order and its first generator
    # outside the floor, or e when the cut lies below span(e)
    g, r = data.draw(st.sampled_from([(2, 4), (2, 6), (2, 12), (3, 4), (3, 6), (2, 5), (3, 2)]))
    sp = SymplecticSpace(g=g, r=r)
    make_rows, make_floor = data.draw(st.sampled_from(_ROWS_AND_FLOORS))
    rows, floor = make_rows(sp).tolist(), make_floor(sp)
    for _ in range(data.draw(st.integers(0, 3))):
        if not rows:
            break
        i = data.draw(st.integers(0, len(rows) - 1))
        how = data.draw(st.sampled_from(["drop", "repeat", "scale", "replace"]))
        if how == "drop":
            del rows[i]
        elif how == "repeat":
            rows.insert(data.draw(st.integers(0, len(rows))), rows[i])
        elif how == "scale":
            c = data.draw(st.integers(0, r - 1))
            rows[i] = [c * v % r for v in rows[i]]
        else:
            m = sp.form_rank
            rows[i] = data.draw(st.lists(st.integers(0, r - 1), min_size=m, max_size=m))
    where = f"the rows at g = {g}, r = {r}"
    cut = brauer._cut(sp, rows)
    if cut == floor:
        assert brauer._cut_to_floor(sp, rows, floor, where) == floor
        return
    span = span_closure(floor.generators, r) if floor.rank else {(0,) * sp.form_rank}
    outside = [v for v in cut.generators if v not in span]
    if outside:
        why = f"generator {outside[0]} is outside {'span(e)' if floor.rank else '{0}'}"
    else:
        why = f"e = {floor.generators[0]} is outside the cut"
    message = f"{where} cut to {cut.order} forms: {why}"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        brauer._cut_to_floor(sp, rows, floor, where)


@pytest.mark.parametrize("make_rows, make_floor", _ROWS_AND_FLOORS)
def test_a_miss_whose_cut_is_the_floor_says_so(monkeypatch, make_rows, make_floor):
    # a floor check that misses builds the cut to name what is off the
    # floor; a cut that is the floor after all (here the containment
    # product is made to read nonzero) is reported as such, for {0} too,
    # which has no e to name
    sp = SymplecticSpace(g=2, r=6)
    rows, floor = make_rows(sp), make_floor(sp)
    monkeypatch.setattr(brauer, "_matmul_mod", lambda A, B, n: np.ones((1, 1), dtype=np.int64))
    message = r"^the rows cut to the floor, but the floor check missed it$"
    with pytest.raises(RuntimeError, match=message):
        brauer._cut_to_floor(sp, rows, floor, "the rows")


@pytest.mark.parametrize("g, r", [(2, 2**31 - 1), (3, 10007)])
def test_a_family_at_a_large_prime_has_the_closed_form_size_and_its_floor(g, r):
    # the chart's count is the trial-division oracle's, and its floor is
    # checked by one small Howell form, far past any listing
    sp = SymplecticSpace(g=g, r=r)
    for enumerate_family, isotropic in FAMILIES:
        fam = enumerate_family(sp, cap=10**100)
        assert fam.size == bicyclic_count(g, r, isotropic=isotropic)
        want = FormSubmodule.weil_span(sp) if isotropic else FormSubmodule.trivial(sp)
        assert bogomolov_intersection(sp, fam) == want


def _closed_form_head(g: int, c1: int, c2: int, isotropic: bool):
    """The first basis of pivot block (c1, c2) in member order, from the
    basis convention alone (a_i, b_i at coordinates 2i - 2, 2i - 1): the
    pair (e_c1, e_c2), except that the isotropic head of (a_i, b_i), i < g,
    is (a_i + b_g, b_i + a_g), and (a_g, b_g) has none."""
    d = 2 * g

    def e(*coords):
        return tuple(int(j in coords) for j in range(d))

    if not isotropic or c1 % 2 or c2 != c1 + 1:
        return e(c1), e(c2)
    return None if c2 == d - 1 else (e(c1, d - 1), e(c2, d - 2))


def _block_firsts(chart: np.ndarray, p: int) -> list:
    """The first basis of each pivot block of a listed chart, in order; a
    basis's pivot pair is its first minor that is a unit mod p."""
    X, Y = chart[:, 0], chart[:, 1]
    I, J = np.triu_indices(chart.shape[2], 1)
    units = (X[:, I] * Y[:, J] - X[:, J] * Y[:, I]) % p != 0
    _, first = np.unique(units.argmax(axis=1), return_index=True)
    return [tuple(map(tuple, xy)) for xy in chart[np.sort(first)].tolist()]


@pytest.mark.parametrize(
    "p, q", [(2, 2), (3, 3), (2, 4), (3, 9), (5, 25), (97, 97), (2**31 - 1, 2**31 - 1)]
)
def test_block_heads_are_the_closed_form_bases(p, q):
    # the intersection cuts a chart by these heads alone: each is the closed
    # form, isotropic in plain ints when the family is, and its own chart
    # basis; where the chart can be listed (up to 10^5 bases), the
    # heads are the first basis of each of its pivot blocks
    for g in range(1, 9):
        sp = SymplecticSpace(g=g, r=q)
        for isotropic in (True, False):
            pivots = combinations(range(2 * g), 2)
            want = [h for c1, c2 in pivots if (h := _closed_form_head(g, c1, c2, isotropic))]
            heads = brauer._heads(2 * g, isotropic)
            assert heads == want, (g, isotropic)
            for head in heads:
                if isotropic:
                    assert symplectic_value(*head, q) == 0
                assert brauer._chart_key(sp, head) == head
            if bicyclic_count(g, q, isotropic) <= 10**5:
                assert _block_firsts(brauer._chart(sp, p, q, isotropic), p) == heads


@pytest.mark.parametrize(
    "enumerate_family, kind, floor, name",
    [
        (isotropic_bicyclics, "isotropic", 5, r"span\(e\)"),
        (all_bicyclics, "all", 1, r"\{0\}"),
    ],
    ids=["isotropic", "all"],
)
def test_a_dropped_block_head_is_a_runtime_error(
    monkeypatch, enumerate_family, kind, floor, name
):
    # with no head for the block of (a_1, a_2), coefficient 1, that
    # coefficient is free: the cut is 5 times the floor, and the error names
    # the unit form there
    heads, a1_a2 = brauer._heads, _closed_form_head(3, 0, 2, False)

    def dropped(d, isotropic):
        return [head for head in heads(d, isotropic) if head != a1_a2]

    monkeypatch.setattr(brauer, "_heads", dropped)
    sp = SymplecticSpace(g=3, r=5)
    message = (
        rf"^the {kind} bicyclic heads at g = 3, q = 5 cut to {5 * floor} forms: "
        rf"generator \(.*\) is outside {name}$"
    )
    with pytest.raises(RuntimeError, match=message) as raised:
        bogomolov_intersection(sp, enumerate_family(sp))
    named = re.search(r"generator (\(.*?\))", str(raised.value)).group(1)
    assert ast.literal_eval(named) == tuple(int(k == 1) for k in range(sp.form_rank))


@pytest.mark.parametrize(
    "swapped, tail",
    [
        ((0, 1), r"cut to 3 forms: generator \(0, 0, 0, 0, 0, 1\) is outside span\(e\)"),
        ((2, 3), r"cut to 1 forms: e = \(1, 0, 0, 0, 0, 1\) is outside the cut"),
    ],
    ids=["a1-b1", "a2-b2"],
)
def test_a_non_isotropic_head_is_a_runtime_error(monkeypatch, swapped, tail):
    # the all chart's head of (a_1, b_1) kills e_(a_1 b_1): the cut is
    # span(e_(a_2 b_2)), as many forms as span(e) but not span(e); the head
    # (a_2, b_2) given to the block that has no isotropic basis kills
    # e_(a_2 b_2) as well, so the cut is {0}, below span(e), and the error
    # names e
    def swap(d, isotropic):
        heads = (
            _closed_form_head(d // 2, c1, c2, isotropic and (c1, c2) != swapped)
            for c1, c2 in combinations(range(d), 2)
        )
        return [head for head in heads if head]

    monkeypatch.setattr(brauer, "_heads", swap)
    sp = SymplecticSpace(g=2, r=3)
    message = rf"^the isotropic bicyclic heads at g = 2, q = 3 {tail}$"
    with pytest.raises(RuntimeError, match=message):
        bogomolov_intersection(sp, isotropic_bicyclics(sp))


def test_a_chart_listing_tests_isotropy_in_bounded_steps(monkeypatch):
    # at isotropic (2, 37) a pivot block has 37^2 x's and 37^2 y's, more
    # pairs than one step may test: every product is at most _STEP pairs,
    # and the stepped listing is the one taken in a single step
    assert 37**4 > brauer._STEP
    sp = SymplecticSpace(g=2, r=37)
    matmul_mod, sizes = brauer._matmul_mod, []

    def recorded(A, B, n):
        out = matmul_mod(A, B, n)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(brauer, "_matmul_mod", recorded)
    stepped = brauer._chart(sp, 37, 37, True)
    assert max(sizes) <= brauer._STEP < sum(sizes)
    assert len(stepped) == bicyclic_count(2, 37, isotropic=True)
    monkeypatch.setattr(brauer, "_STEP", 37**4)
    assert np.array_equal(brauer._chart(sp, 37, 37, True), stepped)


def test_a_family_past_the_int64_limit_has_a_size_a_hash_and_equality():
    # (8, 9) has about 10^26 members: size is the closed form as a Python
    # int, hash and == read it, and only len() is past Python's limit
    sp = SymplecticSpace(g=8, r=9)
    families = []
    for enumerate_family, isotropic in FAMILIES:
        fam, again = enumerate_family(sp, cap=10**30), enumerate_family(sp, cap=10**30)
        assert fam.size == bicyclic_count(8, 9, isotropic) > 2**63 - 1
        assert fam == again and hash(fam) == hash(again)
        with pytest.raises(OverflowError):
            len(fam)
        families.append(fam)
    assert families[0] != families[1]
    assert "members" not in families[0].__dict__ | families[1].__dict__


def test_a_chart_that_drops_a_basis_is_a_runtime_error(monkeypatch):
    # len is the closed form and nothing is listed at enumeration; members
    # lists each chart whole, and a listed count that misses len is a bug,
    # raised, not asserted, and named
    chart = brauer._chart

    def short_chart(*args):
        return chart(*args)[1:]

    monkeypatch.setattr(brauer, "_chart", short_chart)
    sp = SymplecticSpace(g=2, r=4)
    for enumerate_family, isotropic in FAMILIES:
        kind = "isotropic" if isotropic else "all"
        count = bicyclic_count(2, 4, isotropic=isotropic)
        fam = enumerate_family(sp)
        assert len(fam) == count
        message = (
            rf"^the {kind} bicyclic chart at g = 2, r = 4 lists {count - 1} "
            rf"bases, not the {count} members of the closed form$"
        )
        with pytest.raises(RuntimeError, match=message):
            fam.members


def _bicyclic_pairs(g: int, r: int):
    """Every element pair of (Z/r)^(2g) whose minors have gcd prime to r."""
    elems = list(product(range(r), repeat=2 * g))
    return [
        (x, y)
        for i, x in enumerate(elems)
        for y in elems[i + 1 :]
        if gcd(r, *minor_vector(x, y, r)) == 1
    ]


def _rebased(x, y, a, b, c, d, r):
    """The pair (a x + b y, c x + d y) mod r."""
    return tuple(
        tuple((s * xi + t * yi) % r for xi, yi in zip(x, y))
        for s, t in ((a, b), (c, d))
    )


def _random_bicyclic_pairs(g: int, r: int, rng, count: int):
    """``count`` random pairs spanning (Z/r)^2 drawn from the numpy
    generator ``rng``, in runs of four: a pair, then three other bases of
    its span (a x + b y, c x + d y) with ad - bc a unit."""
    pairs = []
    while len(pairs) < count:
        x, y = (tuple(int(v) for v in rng.integers(0, r, 2 * g)) for _ in range(2))
        if gcd(r, *minor_vector(x, y, r)) != 1:
            continue
        pairs.append((x, y))
        while len(pairs) % 4:
            a, b, c, d = (int(v) for v in rng.integers(0, r, 4))
            if gcd(r, a * d - b * c) == 1:
                pairs.append(_rebased(x, y, a, b, c, d, r))
    return pairs


def _assert_keys_match_span_closure(pairs, r: int, key) -> dict[tuple, frozenset]:
    # equal keys exactly when the pairs span the same subgroup: the span of
    # each pair lies in the closure of the first pair with its key (both have
    # r^2 elements, so they are equal), and distinct keys have distinct spans
    spans: dict[tuple, frozenset] = {}
    for x, y in pairs:
        k = key(x, y)
        if k not in spans:
            spans[k] = frozenset(span_closure([x, y], r))
        assert x in spans[k] and y in spans[k], (x, y)
    assert all(len(span) == r * r for span in spans.values())
    assert len(set(spans.values())) == len(spans)
    return spans


@pytest.mark.parametrize(
    "g, r", [(1, r) for r in range(2, 13)] + [(2, 2), (2, 3)]
)
def test_plucker_key_matches_span_closure(g, r):
    # the Plücker key names the span of a pair; the chart lists each span
    # of a bicyclic pair exactly once
    spans = _assert_keys_match_span_closure(
        _bicyclic_pairs(g, r), r, lambda x, y: plucker_key(x, y, r)
    )
    fam = all_bicyclics(SymplecticSpace(g=g, r=r))
    assert len(fam) == len(spans)
    assert {frozenset(span_closure(m.canonical_generators, r)) for m in fam} == set(
        spans.values()
    )


@pytest.mark.parametrize("r", [6, 12])
def test_plucker_key_matches_span_closure_sampled(r):
    # composite r at g = 2, where no single minor need be a unit mod r: random
    # bicyclic pairs, each followed by three bases of its span (a x + b y,
    # c x + d y) with ad - bc a unit; the span of every isotropic pair is a
    # member of the isotropic family
    pairs = _random_bicyclic_pairs(2, r, np.random.default_rng(r), 1200)
    _assert_keys_match_span_closure(pairs, r, lambda x, y: plucker_key(x, y, r))
    sp = SymplecticSpace(g=2, r=r)
    members = set(isotropic_bicyclics(sp).members)
    isotropic = [(x, y) for x, y in pairs if symplectic_value(x, y, r) == 0]
    assert isotropic
    for x, y in isotropic:
        span = subgroup_from_generators(sp.group, [sp.element(x), sp.element(y)])
        assert span in members


@pytest.mark.parametrize("g, r", [(1, 12), (2, 4)])
def test_plucker_key_matches_subgroup_equality(g, r):
    # equal keys exactly when the subgroups are equal, and the subgroups are
    # the members of the chart family
    sp = SymplecticSpace(g=g, r=r)
    group = sp.group
    pairs = _bicyclic_pairs(g, r)
    subs = [
        subgroup_from_generators(group, [group.element(x), group.element(y)])
        for x, y in pairs
    ]
    keys = [plucker_key(x, y, r) for x, y in pairs]
    assert len(set(keys)) == len(set(subs)) == len(set(zip(keys, subs)))
    assert set(subs) == set(all_bicyclics(sp).members)


def _member_howell_calls(monkeypatch, sp) -> list:
    """Patch ``brauer.howell_form`` to record each 2 x 2g input, the only
    shape a member canonicalization gives (cuts have g(2g - 1) columns)."""
    calls = []

    def counted(A, n):
        if np.asarray(A).shape == (2, sp.dim):
            calls.append(A)
        return howell_form(A, n)

    monkeypatch.setattr(brauer, "howell_form", counted)
    return calls


def _leading_minor(minors) -> int:
    return next(m for m in minors if m)


def test_family_canonicalizes_once_per_member(monkeypatch):
    # enumeration calls no howell_form at all; a member is written down from
    # its chart basis on the first read of members, and only one whose first
    # nonzero minor is not a unit mod r goes through one 2-row howell_form
    calls = []

    def counted(A, n):
        calls.append(np.asarray(A).shape)
        return howell_form(A, n)

    monkeypatch.setattr(brauer, "howell_form", counted)
    for g, r in [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2)]:
        sp = SymplecticSpace(g=g, r=r)
        for enumerate_family in (isotropic_bicyclics, all_bicyclics):
            fam = enumerate_family(sp)
            assert len(fam) and not calls
            if r in (2, 3, 5):  # at prime r every leading minor is 1
                assert fam.members and not calls
    sp = SymplecticSpace(g=2, r=4)
    for enumerate_family in (isotropic_bicyclics, all_bicyclics):
        fam = enumerate_family(sp)
        assert len(fam.members) == len(fam)
        bases = fam._bases().tolist()
        rows = [minor_vector(x, y, 4) for x, y in bases]
        non_units = sum(gcd(_leading_minor(row), 4) != 1 for row in rows)
        assert calls == [(2, sp.dim)] * non_units
        assert 0 < non_units < len(fam)
        assert fam.members and len(calls) == non_units  # built once
        calls.clear()


@pytest.mark.parametrize("r", [4, 6, 8])
def test_plane_matches_subgroup_from_generators_on_chart_pairs(monkeypatch, r):
    # every member of all_bicyclics is built by _members_of from its chart
    # pair, in one call on the first read of members
    sp = SymplecticSpace(g=2, r=r)
    members_of = brauer._members_of
    pairs = []

    def recorded(space, B):
        pairs.append(B.tolist())
        return members_of(space, B)

    monkeypatch.setattr(brauer, "_members_of", recorded)
    fam = all_bicyclics(sp)
    assert not pairs  # members are built on first read
    assert len(fam.members) == len(fam) and len(pairs) == 1
    assert fam.members and len(pairs) == 1  # a second read builds none
    assert len(pairs[0]) == len(fam)
    for member, (x, y) in zip(fam, pairs[0]):
        assert member == subgroup_from_generators(
            sp.group, [sp.element(x), sp.element(y)]
        )


def _draw_vector(rng, dim: int, r: int, sparse: bool) -> tuple[int, ...]:
    if not sparse:
        return tuple(rng.randrange(r) for _ in range(dim))
    return tuple(rng.randrange(r) if rng.random() < 0.3 else 0 for _ in range(dim))


def test_plane_matches_subgroup_from_generators_on_random_pairs(monkeypatch):
    # a member built from the chart key of a random pair is the canonical
    # subgroup of the pair: the key itself when its first nonzero minor is a
    # unit, else one howell_form, up to the largest modulus the Z/r
    # routines accept
    rng = random.Random(2020)
    branches = Counter()
    for r in (2, 3, 4, 6, 8, 9, 12, 30, 36, 97, 2**31 - 1, 2**31):
        for g in (1, 2, 3, 8):
            sp = SymplecticSpace(g=g, r=r)
            calls = _member_howell_calls(monkeypatch, sp)
            for sparse in (False, True):
                checked = 0
                for _ in range(400):
                    x, y = (_draw_vector(rng, sp.dim, r, sparse) for _ in range(2))
                    if gcd(r, *minor_vector(x, y, r)) != 1:
                        continue
                    key = brauer._chart_key(sp, (x, y))
                    calls.clear()
                    (got,) = brauer._members_of(sp, np.array([key], dtype=np.int64))
                    assert got == subgroup_from_generators(
                        sp.group, [sp.element(x), sp.element(y)]
                    ), (r, g, x, y)
                    unit = gcd(_leading_minor(minor_vector(*key, r)), r) == 1
                    assert len(calls) == (0 if unit else 1)
                    if unit:
                        assert got.canonical_generators == key
                    branches[unit] += 1
                    checked += 1
                    if checked == 15:
                        break
                assert checked, (r, g, sparse)
    assert branches[True] and branches[False]


def test_plane_refuses_a_pair_that_is_not_bicyclic():
    # a member is only ever built from a chart basis: a pair that spans no
    # (Z/r)^2 is refused where it comes in, by with_pair
    sp = SymplecticSpace(g=2, r=6)
    fam = BicyclicFamily(sp, (), ())
    for x, y in [
        (sp.a(1), 2 * sp.a(2)),  # spans Z/6 x Z/3
        (sp.a(1), sp.a(1)),
        (sp.group.zero(), sp.group.zero()),
    ]:
        with pytest.raises(ValueError, match=r"does not generate a \(Z/r\)\^2"):
            fam.with_pair(x, y)


@pytest.mark.parametrize("g, r", [(2, 4), (2, 6), (2, 9), (2, 12), (3, 6), (2, 30)])
def test_chart_key_matches_span_closure(g, r):
    # the naive oracle: equal keys exactly when the span closures are equal,
    # and the key is a basis of the span it names
    sp = SymplecticSpace(g=g, r=r)
    pairs = _random_bicyclic_pairs(g, r, np.random.default_rng(100 * g + r), 400)
    spans = _assert_keys_match_span_closure(
        pairs, r, lambda x, y: brauer._chart_key(sp, (x, y))
    )
    assert all(set(span_closure(key, r)) == span for key, span in spans.items())
    assert 1 < len(spans) <= 100  # each run of four names one span


# the invertible changes of basis (a, b, c, d) mod 6, drawn from a list so
# that only the pair is filtered
_CHANGES_MOD_6 = [
    (a, b, c, d)
    for a, b, c, d in product(range(6), repeat=4)
    if gcd(6, a * d - b * c) == 1
]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=4, max_size=4),
    st.lists(st.integers(0, 5), min_size=4, max_size=4),
    st.sampled_from(_CHANGES_MOD_6),
)
def test_chart_key_names_the_span_at_r_6(x, y, change):
    r = 6
    sp = SymplecticSpace(g=2, r=r)
    assume(gcd(r, *minor_vector(x, y, r)) == 1)
    a, b, c, d = change
    key = brauer._chart_key(sp, (x, y))
    assert brauer._chart_key(sp, _rebased(x, y, a, b, c, d, r)) == key
    assert set(span_closure(key, r)) == set(span_closure([x, y], r))


def _random_rebasings(sp, rng, count: int):
    """``count`` triples (x, y, (x', y')) of a random pair spanning
    (Z/r)^2, dense or sparse, and another basis of its span."""
    r, out = sp.r, []
    while len(out) < count:
        sparse = len(out) % 2 == 1
        x, y = (_draw_vector(rng, sp.dim, r, sparse) for _ in range(2))
        if gcd(r, *minor_vector(x, y, r)) != 1:
            continue
        a, b, c, d = (rng.randrange(r) for _ in range(4))
        if gcd(r, a * d - b * c) == 1:
            out.append((x, y, _rebased(x, y, a, b, c, d, r)))
    return out


@pytest.mark.parametrize("r", [2**31 - 1, 30030, 10**12 + 39])
def test_chart_key_is_a_fixed_point_and_basis_free(r):
    # the key is a basis of the span it names, so it is its own key, and
    # every basis of the span has that key; 30030 has six primes, and past
    # 2^31, where with_pair refuses r, the key is still exact in Python ints
    sp = SymplecticSpace(g=3, r=r)
    for x, y, rebased in _random_rebasings(sp, random.Random(r), 40):
        key = brauer._chart_key(sp, (x, y))
        assert brauer._chart_key(sp, key) == key
        assert brauer._chart_key(sp, rebased) == key


@pytest.mark.parametrize("r", [2**31 - 1, 30030])
def test_chart_key_spans_the_subgroup_of_its_pair(r):
    # the canonical subgroup of the key is that of the pair
    sp = SymplecticSpace(g=3, r=r)
    for x, y, _ in _random_rebasings(sp, random.Random(r + 1), 20):
        key = brauer._chart_key(sp, (x, y))
        assert subgroup_from_generators(
            sp.group, [sp.element(v) for v in key]
        ) == subgroup_from_generators(sp.group, [sp.element(x), sp.element(y)])


@pytest.mark.parametrize("g, r", [(2, 3), (2, 4), (2, 6), (3, 2), (2, 10)])
def test_every_chart_basis_is_its_own_key(g, r):
    # the key is the enumerator's basis: _chart's, lifted by the same CRT unit
    sp = SymplecticSpace(g=g, r=r)
    bases = all_bicyclics(sp)._bases().tolist()
    assert len(bases) == bicyclic_count(g, r, isotropic=False)
    for xy in bases:
        assert brauer._chart_key(sp, xy) == tuple(map(tuple, xy))


@pytest.mark.parametrize(
    "r, x, y",
    [
        (6, (1, 0, 0, 0), (0, 2, 0, 0)),  # Z/6 x Z/3
        (6, (1, 0, 0, 0), (3, 0, 0, 0)),
        (6, (0, 0, 0, 0), (0, 0, 0, 0)),
        (12, (1, 0, 0, 0), (0, 2, 0, 0)),  # unit minors mod 3, none mod 2
        (12, (1, 0, 0, 0), (0, 3, 0, 0)),  # unit minors mod 2, none mod 3
        (12, (2, 4, 0, 6), (0, 2, 4, 2)),
    ],
)
def test_chart_key_refuses_a_pair_that_is_not_bicyclic(r, x, y):
    with pytest.raises(ValueError, match=r"does not generate a \(Z/r\)\^2"):
        brauer._chart_key(SymplecticSpace(g=2, r=r), (x, y))


@pytest.mark.parametrize("g, r", [(3, 12), (4, 97)])
def test_a_with_pair_chain_builds_no_member(monkeypatch, g, r):
    # a member added by with_pair is its chart key alone: the chain makes no
    # howell_form call, builds no Subgroup, converts no pair to residues,
    # builds no minor row and factors r once; members, provenance and the
    # intersection are those of the pairs it was given
    sp = SymplecticSpace(g=g, r=r)
    pairs = _transvected_witness_pairs(sp, np.random.default_rng(24))
    counts = Counter()

    def counted(name, call):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)

        return wrapper

    for name in ("howell_form", "_residues", "_minor_rows", "_members_of"):
        monkeypatch.setattr(brauer, name, counted(name, getattr(brauer, name)))
    monkeypatch.setattr(finab, "howell_form", counted("howell_form", howell_form))
    monkeypatch.setattr(Subgroup, "__init__", counted("Subgroup", Subgroup.__init__))
    factor = counted("factorization", brauer._prime_powers.__wrapped__)
    monkeypatch.setattr(brauer, "_prime_powers", cache(factor))
    fam = BicyclicFamily(sp, (), ())
    for x, y in pairs:
        fam = fam.with_pair(x, y)
    assert len(fam) == len(pairs) == 5 * g * (g - 1) // 2
    assert counts == {"factorization": 1}
    monkeypatch.undo()
    assert fam.members == tuple(
        subgroup_from_generators(sp.group, [x, y]) for x, y in pairs
    )
    assert fam.provenance == ("user-supplied",) * len(pairs)
    by_hand = BicyclicFamily(sp, fam.members, fam.provenance)
    inter = bogomolov_intersection(sp, fam)
    assert inter == bogomolov_intersection(sp, by_hand) == FormSubmodule.weil_span(sp)


# pairs whose span has a Howell form of three rows, none of whose pairs spans it
_THREE_ROW_PAIRS = {
    6: ((3, 3, 0, 2), (4, 3, 3, 2)),  # Howell form (1,0,3,0), (0,3,3,0), (0,0,0,2)
    12: ((1, 11, 1, 10), (5, 7, 8, 1)),
}


@pytest.mark.parametrize("r", [6, 12])
def test_with_pair_dedupes_a_family_built_by_hand(r):
    # a pair is matched to a member given by hand as the canonical Subgroup
    # it spans, three-row Howell form or not; a pair spanning a member
    # leaves the family as it is, a member that is no (Z/r)^2 summand of
    # the space's module matches no pair, and a foreign member is still
    # named by the intersection
    sp = SymplecticSpace(g=2, r=r)
    x, y = map(sp.element, _THREE_ROW_PAIRS[r])
    three_rows = subgroup_from_generators(sp.group, [x, y])
    assert len(three_rows.canonical_generators) == 3 and three_rows.order == r * r
    plain = subgroup_from_generators(sp.group, [sp.a(1), sp.b(2)])
    smaller = subgroup_from_generators(sp.group, [sp.a(1), 2 * sp.a(2)])  # not (Z/r)^2
    other = SymplecticSpace(g=2, r=2 * r)
    foreign = subgroup_from_generators(other.group, [other.a(1), other.a(2)])
    members = (three_rows, plain, smaller, foreign)
    fam = BicyclicFamily(sp, members, ("three-rows", "plain", "smaller", "foreign"))
    for pair in [(x, y), (y, x + y), (x - y, 5 * y), (sp.b(2), sp.a(1) + sp.b(2))]:
        assert fam.with_pair(*pair) is fam
    wider = fam.with_pair(sp.a(1), sp.a(2))
    assert len(wider) == 5 and wider.members[:4] == members
    assert wider.with_pair(sp.a(2), sp.a(1) + sp.a(2)) is wider
    with pytest.raises(ValueError, match="does not generate"):
        fam.with_pair(sp.a(1), 2 * sp.a(2))
    with pytest.raises(ValueError, match=r"member 3 \(foreign\)"):
        bogomolov_intersection(sp, wider)


def test_a_member_of_order_r_squared_that_is_no_summand_is_its_own_key():
    # Z/2 x Z/2 x Z/4 has order 16 = r^2 at r = 4 but no unit minor mod 2, so
    # it has no chart basis and is keyed by itself
    sp = SymplecticSpace(g=2, r=4)
    gens = [sp.element(v) for v in ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0))]
    member = subgroup_from_generators(sp.group, gens)
    assert member.order == 16 and sorted(member.invariant_factors()) == [2, 2, 4]
    fam = BicyclicFamily(sp, (member,), ("by-hand",))
    assert member in fam._keys
    wider = fam.with_pair(sp.a(1), sp.b(1))
    assert len(wider) == 2 and wider.members[0] == member
    stacked = BicyclicFamily(sp, wider.members, wider.provenance)
    inter = bogomolov_intersection(sp, wider)
    assert inter == bogomolov_intersection(sp, stacked) and inter.order == 512


def test_with_pair_checks_the_group_then_the_modulus(monkeypatch):
    # both before any product of residues: past 2^31 one would wrap int64
    monkeypatch.setattr(brauer, "_minor_rows", _refuse_to_list)
    monkeypatch.setattr(brauer, "_members_of", _refuse_to_list)
    monkeypatch.setattr(brauer, "_chart_key", _refuse_to_list)
    other = SymplecticSpace(g=2, r=5)
    for r in (7, 2**31 + 1, 10**12 + 39):
        sp = SymplecticSpace(g=2, r=r)
        fam = BicyclicFamily(sp, (), ())
        for x, y in [(sp.a(1), other.b(1)), (other.a(1), sp.b(1))]:
            with pytest.raises(ValueError, match="generator belongs to a different group"):
                fam.with_pair(x, y)
    for r in (2**31 + 1, 10**12 + 39):
        sp = SymplecticSpace(g=2, r=r)
        fam = BicyclicFamily(sp, (), ())
        x, y = sp.element([r - 1, 1, r - 2, 3]), sp.element([r - 3, r - 1, 1, 0])
        with pytest.raises(ModulusTooLargeError, match=rf"modulus {r} "):
            fam.with_pair(x, y)


def test_family_with_pair():
    sp = SymplecticSpace(g=2, r=3)
    fam = BicyclicFamily(space=sp, members=(), provenance=())
    grown = fam.with_pair(sp.a(1), sp.a(2))
    assert len(grown) == 1
    assert grown.provenance == ("user-supplied",)
    again = grown.with_pair(sp.a(2), sp.a(1))  # same subgroup, swapped pair
    assert len(again) == 1
    with pytest.raises(ValueError):
        grown.with_pair(sp.a(1), 2 * sp.a(1) + sp.a(2) * 0)


def test_family_with_pair_composite_r():
    sp = SymplecticSpace(g=2, r=6)
    fam = BicyclicFamily(space=sp, members=(), provenance=())
    with pytest.raises(ValueError):
        fam.with_pair(sp.a(1), 2 * sp.a(2))  # spans Z/6 x Z/3, of order 18
    grown = fam.with_pair(sp.a(1) + sp.a(2), sp.b(1) - 2 * sp.b(2))
    assert len(grown) == 1
    assert grown.members[0].order == 36



def test_families_compare_by_value_whichever_class_holds_them():
    # a grown or an enumerated family equals the family built by hand from
    # its members and provenance, and hashes the same
    sp = SymplecticSpace(g=2, r=6)
    grown = BicyclicFamily(sp, (), ()).with_pair(sp.a(1), sp.b(1))
    grown = grown.with_pair(sp.a(1) + sp.a(2), sp.b(1) - 2 * sp.b(2))
    by_hand = BicyclicFamily(sp, grown.members, grown.provenance)
    assert grown == by_hand and by_hand == grown
    assert hash(grown) == hash(by_hand)
    assert grown != BicyclicFamily(sp, grown.members, ("tag", "tag"))
    assert grown != BicyclicFamily(sp, grown.members[:1], grown.provenance[:1])
    assert grown != by_hand.members
    fam = isotropic_bicyclics(sp)
    assert fam == BicyclicFamily(sp, fam.members, fam.provenance)
    assert fam != grown
    small = SymplecticSpace(g=2, r=3)
    assert BicyclicFamily(small, (), ()) != BicyclicFamily(sp, (), ())
    line = SymplecticSpace(g=1, r=3)  # no isotropic member at g = 1
    assert isotropic_bicyclics(line) == BicyclicFamily(line, (), ())


def test_bogomolov_empty_family_is_whole_space():
    sp = SymplecticSpace(g=2, r=3)
    fam = BicyclicFamily(space=sp, members=(), provenance=())
    assert bogomolov_intersection(sp, fam) == FormSubmodule.full(sp)


def test_bogomolov_streamed_equals_explicit():
    for g, r in [(2, 2), (2, 3), (2, 4), (3, 2)]:
        sp = SymplecticSpace(g=g, r=r)
        explicit = bogomolov_intersection(sp, isotropic_bicyclics(sp))
        streamed = bogomolov_intersection(sp, None)
        assert explicit == streamed


def test_bogomolov_isotropic_family_small_cases():
    for r in (2, 3, 5):
        sp = SymplecticSpace(g=2, r=r)
        gp = bogomolov_intersection(sp, isotropic_bicyclics(sp))
        assert gp == FormSubmodule.weil_span(sp)


def test_bogomolov_r5_sampling_crosscheck():
    # every vector outside the pairing span must violate some family member
    sp = SymplecticSpace(g=2, r=5)
    fam = isotropic_bicyclics(sp)
    span = FormSubmodule.weil_span(sp)
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 25:
        vec = tuple(int(v) for v in rng.integers(0, 5, size=6))
        if span.contains_vector(vec):
            continue
        form = AltForm.from_vector(sp, vec)
        violated = any(
            eval_form(form, m.generators()[0], m.generators()[1]) != 0 for m in fam
        )
        assert violated, vec
        checked += 1


def test_bogomolov_monotone_in_family():
    sp = SymplecticSpace(g=2, r=3)
    fam = isotropic_bicyclics(sp)
    half = BicyclicFamily(
        space=sp, members=fam.members[:10], provenance=fam.provenance[:10]
    )
    big = bogomolov_intersection(sp, fam)
    small = bogomolov_intersection(sp, half)
    assert big.is_submodule_of(small)


def test_bogomolov_all_bicyclics_trivial():
    sp = SymplecticSpace(g=2, r=2)
    gp = bogomolov_intersection(sp, all_bicyclics(sp))
    assert gp == FormSubmodule.trivial(sp)
    assert set(gp.vectors()) == vanishing_forms(
        2, 2, isotropic_only=False, bicyclic_only=True
    )


@pytest.mark.parametrize("g, r", [(2, 9), (3, 3)])
def test_bogomolov_rejects_a_member_of_another_module(g, r):
    sp = SymplecticSpace(g=2, r=3)
    other = SymplecticSpace(g=g, r=r)
    foreign = subgroup_from_generators(other.group, [other.a(1), other.a(2)])
    own = subgroup_from_generators(sp.group, [sp.a(1), sp.a(2)])
    fam = BicyclicFamily(sp, (own, foreign), ("mine", "foreign"))
    with pytest.raises(ValueError, match=r"member 1 \(foreign\)"):
        bogomolov_intersection(sp, fam)


def _witness_pairs_of(sp):
    """The paper's witness pairs, as element pairs of the space."""
    for i, j in combinations(range(1, sp.g + 1), 2):
        yield from (
            (sp.a(i), sp.a(j)),
            (sp.b(i), sp.b(j)),
            (sp.a(i), sp.b(j)),
            (sp.a(j), sp.b(i)),
            (sp.a(i) + sp.a(j), sp.b(i) - sp.b(j)),
        )


def _witness_family(sp):
    """The family of the paper's witness pairs, grown pair by pair."""
    fam = BicyclicFamily(sp, (), ())
    for x, y in _witness_pairs_of(sp):
        fam = fam.with_pair(x, y)
    return fam


def _random_pair(sp, rng):
    """A random pair, made isotropic half of the time when x has a unit
    a_i coordinate: e(x, b_i) = x_(a_i), so y - e(x, y) x_(a_i)^(-1) b_i."""
    r = sp.r
    x = [int(v) for v in rng.integers(0, r, size=sp.dim)]
    y = [int(v) for v in rng.integers(0, r, size=sp.dim)]
    units = [i for i in range(0, sp.dim, 2) if gcd(x[i], r) == 1]
    if units and rng.random() < 0.5:
        i = units[0]
        t = symplectic_value(x, y, r) * pow(x[i], -1, r) % r
        y[i + 1] = (y[i + 1] - t) % r
    return sp.element(x), sp.element(y)


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("r", [2, 4, 6, 8, 9, 12, 97, 2**31 - 1])
def test_seeded_intersection_matches_stacked(g, r):
    # a family grown after an intersection inherits it (one small solve);
    # a fresh family of the same members stacks every member's rows
    sp = SymplecticSpace(g=g, r=r)
    rng = np.random.default_rng(1000 * g + r % 1000)
    compared = 0
    for _ in range(3):
        fam = BicyclicFamily(sp, (), ())
        for _ in range(10):
            try:
                fam = fam.with_pair(*_random_pair(sp, rng))
            except ValueError:
                continue
            if rng.random() < 0.6:
                stacked = BicyclicFamily(sp, fam.members, fam.provenance)
                assert bogomolov_intersection(sp, fam) == bogomolov_intersection(
                    sp, stacked
                )
                compared += 1
    assert compared


def test_seeded_witness_family_at_int64_limit():
    sp = SymplecticSpace(g=8, r=2**31 - 1)
    fam = _witness_family(sp)
    assert len(fam) == 140
    assert bogomolov_intersection(sp, fam) == FormSubmodule.weil_span(sp)
    wider = fam.with_pair(sp.a(1), sp.b(1))
    assert "_intersection" in wider.__dict__  # seeded, not stacked
    assert bogomolov_intersection(sp, wider) == FormSubmodule.trivial(sp)


@pytest.mark.parametrize("r", [2, 12, 97, 2**31 - 1])
def test_matmul_mod_is_exact(r):
    rng = np.random.default_rng(r % 1000)
    A = rng.integers(0, r, size=(5, 120), dtype=np.int64)
    B = rng.integers(0, r, size=(120, 3), dtype=np.int64)
    exact = (A.astype(object) @ B.astype(object)) % r
    assert brauer._matmul_mod(A, B, r).tolist() == exact.tolist()


def test_matmul_mod_past_2_31_is_a_typed_error():
    # 2^31 is the largest modulus the Z/r routines accept: two terms per
    # chunk, still exact; above it the product is refused, not wrapped
    r = 2**31
    A = np.array([[r - 1, r - 2, 1]], dtype=np.int64)
    B = np.array([[r - 1], [r - 1], [r - 3]], dtype=np.int64)
    exact = (A.astype(object) @ B.astype(object)) % r
    assert brauer._matmul_mod(A, B, r).tolist() == exact.tolist()
    for big in (r + 1, 3_037_000_500, 4 * 10**9):
        with pytest.raises(ModulusTooLargeError, match=rf"modulus {big} "):
            brauer._matmul_mod(A, B, big)


def _refuse_generator_rows(*args):
    raise RuntimeError("generator rows were built")


def test_grown_family_intersects_only_the_new_member(monkeypatch):
    # the new member's constraint is the one minor row of its pair: no
    # generator rows, and the seeded cut's Howell form gets that one row
    sp = SymplecticSpace(g=3, r=12)
    fam = _witness_family(sp)
    bogomolov_intersection(sp, fam)
    rows_in = []

    def counted_howell_form(A, n):
        rows_in.append(np.asarray(A).shape[0])
        return howell_form(A, n)

    monkeypatch.setattr(brauer, "_generator_rows", _refuse_generator_rows)
    monkeypatch.setattr(brauer, "howell_form", counted_howell_form)
    wider = fam.with_pair(sp.a(1) + sp.b(2), sp.b(1))
    assert bogomolov_intersection(sp, wider) == FormSubmodule.trivial(sp)
    assert rows_in and rows_in[0] == 1 and max(rows_in) <= 1


def _transvected_witness_pairs(sp, rng):
    """The paper's witness pairs moved by a random symplectic automorphism,
    a product of 2g transvections x -> x + c e(x, v) v."""
    r = sp.r
    moves = [
        ([int(t) for t in rng.integers(0, r, size=sp.dim)], int(rng.integers(1, r)))
        for _ in range(sp.dim)
    ]

    def move(x):
        x = list(x.coords)
        for v, c in moves:
            t = c * symplectic_value(x, v, r)
            x = [(xi + t * vi) % r for xi, vi in zip(x, v)]
        return sp.element(x)

    return [(move(x), move(y)) for x, y in _witness_pairs_of(sp)]


@pytest.mark.parametrize("g, r", [(4, 12), (3, 30), (3, 36)])
def test_family_grown_without_intersection_matches_stacked(monkeypatch, g, r):
    # grown as the witness workload grows it: from an empty family, with no
    # intersection until the end, one cut by one minor row per member; a
    # hand-built family of the same members stacks their generator rows,
    # three or more for members whose Howell form has three or more rows
    sp = SymplecticSpace(g=g, r=r)
    fam = BicyclicFamily(sp, (), ())
    for x, y in _transvected_witness_pairs(sp, np.random.default_rng(r)):
        fam = fam.with_pair(x, y)
        assert "_intersection" not in fam.__dict__
    assert len(fam) == 5 * g * (g - 1) // 2
    stacked = BicyclicFamily(sp, fam.members, fam.provenance)
    assert max(len(m.canonical_generators) for m in fam) >= 3
    cut, offered = brauer._cut, []

    def counted_cut(space, rows, sub=None):
        offered.append(np.shape(rows))
        return cut(space, rows, sub)

    monkeypatch.setattr(brauer, "_cut", counted_cut)
    inter = bogomolov_intersection(sp, fam)
    assert offered == [(len(fam), sp.form_rank)]
    assert inter == bogomolov_intersection(sp, stacked) == FormSubmodule.weil_span(sp)
    assert len(offered) == 2 and offered[1][0] > len(fam)


@pytest.mark.parametrize("g, r", [(2, 3), (2, 4), (2, 6)])
def test_with_pair_on_an_enumerated_family_builds_no_generator_rows(
    monkeypatch, g, r
):
    # with_pair dedupes an enumerated family by its chart bases: it builds no
    # member, no generator rows and no stacked rows, and a pair that spans a
    # member, given in another basis, leaves the family as it is
    sp = SymplecticSpace(g=g, r=r)
    fam = isotropic_bicyclics(sp)
    bogomolov_intersection(sp, fam)  # so the grown family's cut is seeded
    monkeypatch.setattr(brauer, "_generator_rows", _refuse_generator_rows)
    monkeypatch.setattr(brauer, "_members_of", _refuse_to_build)
    monkeypatch.setattr(Subgroup, "__init__", _refuse_to_build)
    x, y = map(sp.element, fam._bases()[0].tolist())
    assert fam.with_pair(x, y) is fam
    assert fam.with_pair(y, x + y) is fam
    x, y = sp.a(1), sp.b(1) + sp.a(2)  # e(x, y) = 1: not an isotropic member
    wider = fam.with_pair(x, y)
    assert len(wider) == len(fam) + 1
    assert "_intersection" in wider.__dict__
    assert not {"members", "provenance"} & (fam.__dict__.keys() | wider.__dict__.keys())
    # the chart is tested by its definition: no chart basis is in a key set
    assert not fam._keys and len(wider._keys) == 1
    monkeypatch.undo()
    stacked = BicyclicFamily(sp, wider.members, wider.provenance)
    assert bogomolov_intersection(sp, wider) == bogomolov_intersection(sp, stacked)
    assert bogomolov_intersection(sp, wider) == FormSubmodule.trivial(sp)


@pytest.mark.parametrize("g, r", [(2, 2), (2, 4), (2, 6), (2, 9), (2, 12), (3, 2)])
def test_with_pair_on_an_enumerated_family_is_a_chart_membership_test(g, r):
    # a pair leaves an enumerated family as it is exactly when its span is a
    # member: every (Z/r)^2 summand for all_bicyclics, the isotropic ones for
    # isotropic_bicyclics; no chart basis goes into the dedupe set
    sp = SymplecticSpace(g=g, r=r)
    rng = np.random.default_rng(10 * g + r)
    pairs = []
    while len(pairs) < 60:
        x, y = _random_pair(sp, rng)
        if gcd(r, *minor_vector(x.coords, y.coords, r)) == 1:
            pairs.append((x, y))
    for enumerate_family, isotropic in FAMILIES:
        fam = enumerate_family(sp)
        members = set(fam.members)
        kept = Counter()
        for x, y in pairs:
            span = subgroup_from_generators(sp.group, [x, y])
            assert (fam.with_pair(x, y) is fam) == (span in members), (x, y)
            kept[span in members] += 1
        assert kept[True] and bool(kept[False]) == isotropic, kept
        assert not fam._keys


def test_growing_a_family_with_a_foreign_member_still_names_it(monkeypatch):
    # with_pair computes no member's rows up front, so the foreign member
    # is found, and named, when the grown family is intersected
    sp = SymplecticSpace(g=2, r=3)
    other = SymplecticSpace(g=2, r=9)
    foreign = subgroup_from_generators(other.group, [other.a(1), other.a(2)])
    own = subgroup_from_generators(sp.group, [sp.a(1), sp.a(2)])
    fam = BicyclicFamily(sp, (own, foreign), ("mine", "foreign"))
    with monkeypatch.context() as patched:
        patched.setattr(brauer, "_generator_rows", _refuse_generator_rows)
        wider = fam.with_pair(sp.b(1), sp.b(2))
    assert len(wider) == 3
    with pytest.raises(ValueError, match=r"member 1 \(foreign\)"):
        bogomolov_intersection(sp, wider)


_SP, _OTHER = SymplecticSpace(g=2, r=3), SymplecticSpace(g=2, r=5)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: FormSubmodule.weil_span(_SP).contains(weil_form(_OTHER)),
            "form lives on a different space",
        ),
        (
            lambda: FormSubmodule.trivial(_SP).is_submodule_of(
                FormSubmodule.trivial(_OTHER)
            ),
            "submodules of different spaces",
        ),
        (
            lambda: restriction_kernel(
                _SP, subgroup_from_generators(_OTHER.group, [_OTHER.a(1)])
            ),
            "subgroup does not sit in the space's module",
        ),
        (
            lambda: BicyclicFamily(_SP, (), ("orphan",)),
            "one provenance tag per member",
        ),
        (
            lambda: bogomolov_intersection(_SP, BicyclicFamily(_OTHER, (), ())),
            "family belongs to a different space",
        ),
        (
            lambda: verify_main_inclusions(_SP, mode="some-pairs"),
            "unknown mode 'some-pairs'",
        ),
    ],
    ids=[
        "contains-foreign-form",
        "submodule-across-spaces",
        "restriction-kernel-foreign-subgroup",
        "provenance-length",
        "intersection-foreign-family",
        "verify-unknown-mode",
    ],
)
def test_foreign_or_malformed_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_verify_report_g2_r2():
    rep = verify_main_inclusions(SymplecticSpace(g=2, r=2))
    d = rep.as_dict()
    assert d["g"] == 2 and d["r"] == 2
    assert d["form_rank"] == 6
    assert d["weil_span_order"] == 2
    assert d["g_order_all_pairs"] == 2
    assert d["g_order_primitive_pairs"] == 2
    assert d["gprime_order"] == 2
    assert all(rep.inclusion_flags().values())


def test_verify_report_g2_r4():
    rep = verify_main_inclusions(SymplecticSpace(g=2, r=4))
    assert rep.g_order_all_pairs == 4
    assert rep.gprime_order == 4
    assert rep.e_in_gprime
    assert rep.gprime_subset_g_all and rep.gprime_subset_g_primitive
    assert rep.g_all_equals_weil_span and rep.g_primitive_equals_weil_span


def test_verify_main_inclusions_makes_one_witness_cut(monkeypatch):
    # both modes of compute_G are the same floor check, and G' is the
    # primitive-pairs G: one check serves all three
    check = brauer._cut_to_floor
    calls = []

    def counted(*args):
        calls.append(1)
        return check(*args)

    monkeypatch.setattr(brauer, "_cut_to_floor", counted)
    rep = verify_main_inclusions(SymplecticSpace(g=3, r=4))
    assert len(calls) == 1
    assert all(rep.inclusion_flags().values())
    assert rep.g_order_all_pairs == rep.g_order_primitive_pairs == 4


def test_verify_report_single_mode_leaves_other_fields_unset():
    rep = verify_main_inclusions(SymplecticSpace(g=2, r=2), mode=MODE_ALL_PAIRS)
    assert rep.g_order_all_pairs == 2
    assert rep.g_order_primitive_pairs is None
    assert rep.gprime_subset_g_primitive is None
    # G' is computed even when primitive-pairs mode is not requested
    assert rep.gprime_order == 2
    flags = rep.inclusion_flags()
    assert "g_primitive_equals_weil_span" not in flags
    assert flags["g_all_equals_weil_span"] is True


def test_g3_r2_outside_span_violates_an_isotropic_pair():
    sp = SymplecticSpace(g=3, r=2)
    rep = verify_main_inclusions(sp)
    assert rep.g_order_all_pairs == 2
    span = FormSubmodule.weil_span(sp)
    elems = [e for e in sp.group.elements()]
    e_form = weil_form(sp)
    rng = np.random.default_rng(8)
    for _ in range(10):
        vec = tuple(int(v) for v in rng.integers(0, 2, size=sp.form_rank))
        if span.contains_vector(vec):
            continue
        form = AltForm.from_vector(sp, vec)
        found = False
        for i, x in enumerate(elems):
            for y in elems[i + 1 :]:
                if eval_form(e_form, x, y) == 0 and eval_form(form, x, y) != 0:
                    found = True
                    break
            if found:
                break
        assert found, vec


def test_minor_constraint_row_nonzero_iff_bicyclic():
    # primitivity of the generating pair is visible mod every prime divisor
    rng = np.random.default_rng(14)
    for r in (2, 3, 4, 6):
        sp = SymplecticSpace(g=2, r=r)
        primes = {p for p in (2, 3, 5) if r % p == 0}
        for _ in range(60):
            x = [int(v) for v in rng.integers(0, r, size=4)]
            y = [int(v) for v in rng.integers(0, r, size=4)]
            row = np.array(minor_vector(x, y, r), dtype=np.int64)
            nonvanishing = all((row % p).any() for p in primes)
            assert nonvanishing == is_bicyclic_rr(
                sp.group.element(x), sp.group.element(y), r
            )


@pytest.mark.parametrize("mode", ["both", MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS])
def test_report_as_dict_is_asdict_in_a_fresh_dict(mode):
    rep = verify_main_inclusions(SymplecticSpace(g=2, r=6), mode=mode)
    d = rep.as_dict()
    assert d == dataclasses.asdict(rep)
    assert list(d) == list(dataclasses.asdict(rep))
    assert d is not rep.as_dict()
    d["g"] = 99
    assert rep.as_dict()["g"] == 2


def test_prime_powers_match_trial_division_up_to_10_5():
    factor = brauer._prime_powers.__wrapped__  # uncached, so the cache stays small
    for n in range(1, 10**5 + 1):
        # (p, q, u): each prime, its power q || n, and the CRT idempotent u
        want = tuple(
            (p, q, (n // q) * pow(n // q, -1, q) % n) for p, q in prime_powers(n)
        )
        assert factor(n) == want, n


@pytest.mark.parametrize(
    "factors",
    [
        {10**14 + 31: 1},
        {2**61 - 1: 1},
        {2**89 - 1: 1},
        {10**7 + 19: 1, 10**7 + 79: 1},
        {2**31 - 1: 1, 10**12 + 39: 1},
        {97: 1, 2**31 - 1: 2},
        {2: 64},
        {3: 40, 10**6 + 3: 1, 10**6 + 33: 1},
    ],
    ids=lambda factors: "*".join(f"{p}^{k}" for p, k in factors.items()),
)
def test_prime_powers_of_known_factorizations_past_10_14(factors):
    n = prod(p**k for p, k in factors.items())
    want = tuple(
        (p, p**k, (n // p**k) * pow(n // p**k, -1, p**k) % n)
        for p, k in sorted(factors.items())
    )
    assert brauer._prime_powers.__wrapped__(n) == want


def test_a_family_at_a_large_prime_is_refused_by_its_count_at_once(monkeypatch):
    # the cap is charged through the factorization of r, which takes no
    # trial division up to sqrt(r)
    monkeypatch.setattr(brauer, "_chart", _refuse_to_chart)
    sp = SymplecticSpace(g=2, r=10**14 + 31)
    with pytest.raises(CapExceededError, match=r"^family of \d+ members exceeds cap"):
        isotropic_bicyclics(sp)


@pytest.mark.parametrize("r", [2**31 + 11, 2**61 - 1, 10**30 + 57])
def test_a_family_past_the_int64_limit_is_refused_by_its_cut(monkeypatch, r):
    # with a cap raised past its count, the block heads are read lazily and
    # their conversion refuses the modulus, typed
    monkeypatch.setattr(brauer, "_chart", _refuse_to_chart)
    sp = SymplecticSpace(g=2, r=r)
    fam = isotropic_bicyclics(sp, cap=10**200)
    with pytest.raises(ModulusTooLargeError):
        bogomolov_intersection(sp, fam)
