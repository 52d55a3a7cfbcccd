import numpy as np
import pytest

from brauerkit.finab import FinAbGroup
from brauerkit.oracle import symplectic_value
from brauerkit.sympl import (
    AltForm,
    SymplecticSpace,
    eval_form,
    form_space,
    radical,
    upper_index_pairs,
    weil_form,
)
from brauerkit.zmodlinalg import DimensionMismatchError


def test_space_basics():
    sp = SymplecticSpace(g=2, r=3)
    assert sp.dim == 4
    assert sp.form_rank == 6
    assert sp.group == FinAbGroup((3, 3, 3, 3))
    assert sp.a(1).coords == (1, 0, 0, 0)
    assert sp.b(1).coords == (0, 1, 0, 0)
    assert sp.a(2).coords == (0, 0, 1, 0)
    assert sp.b(2).coords == (0, 0, 0, 1)


def test_space_validation():
    with pytest.raises(ValueError):
        SymplecticSpace(g=0, r=3)
    with pytest.raises(ValueError):
        SymplecticSpace(g=2, r=1)
    with pytest.raises(IndexError):
        SymplecticSpace(g=2, r=3).a(3)
    for i in (0, 3):
        with pytest.raises(IndexError, match=f"b-index {i} outside 1..2"):
            SymplecticSpace(g=2, r=3).b(i)


def test_upper_index_pairs_order():
    assert upper_index_pairs(4) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]
    for dim in range(9):
        pairs = upper_index_pairs(dim)
        assert pairs == [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        assert all(type(i) is int and type(j) is int for i, j in pairs)


def test_altform_coeff_validation():
    sp = SymplecticSpace(g=1, r=4)
    form = AltForm.from_vector(sp, [7])  # reduced mod r
    assert form.vector() == (3,)
    with pytest.raises(ValueError):
        AltForm.from_vector(sp, [1, 2])


def test_altform_refuses_a_bad_matrix_and_a_sum_across_spaces():
    sp = SymplecticSpace(g=1, r=4)
    with pytest.raises(DimensionMismatchError, match="must be 2x2"):
        AltForm(sp, ((0, 1),))
    with pytest.raises(DimensionMismatchError, match="must be 2x2"):
        AltForm(sp, ((0, 1, 0), (0, 0, 0)))
    with pytest.raises(ValueError, match="strictly upper triangular"):
        AltForm(sp, ((0, 1), (3, 0)))
    with pytest.raises(ValueError, match="strictly upper triangular"):
        AltForm(sp, ((1, 1), (0, 0)))
    with pytest.raises(DimensionMismatchError, match="forms on different spaces"):
        weil_form(sp) + weil_form(SymplecticSpace(g=1, r=2))


def test_altform_vector_roundtrip():
    sp = SymplecticSpace(g=2, r=5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        vec = tuple(int(v) for v in rng.integers(0, 5, size=6))
        assert AltForm.from_vector(sp, vec).vector() == vec


def test_full_matrix_is_antisymmetric_zero_diagonal():
    sp = SymplecticSpace(g=2, r=6)
    rng = np.random.default_rng(1)
    form = AltForm.from_vector(sp, rng.integers(0, 6, size=6))
    M = form.full_matrix()
    assert not np.diagonal(M).any()
    assert np.array_equal((-M) % 6, M.T % 6)


def test_eval_matches_matrix_product():
    sp = SymplecticSpace(g=2, r=6)
    rng = np.random.default_rng(2)
    for _ in range(20):
        form = AltForm.from_vector(sp, rng.integers(0, 6, size=6))
        x = sp.element(rng.integers(0, 6, size=4))
        y = sp.element(rng.integers(0, 6, size=4))
        M = form.full_matrix()
        expected = int(np.array(x.coords) @ M @ np.array(y.coords)) % 6
        assert eval_form(form, x, y) == expected


def test_weil_delta_values():
    for g in (1, 2, 3):
        for r in (2, 3, 5, 6):
            sp = SymplecticSpace(g=g, r=r)
            e = weil_form(sp)
            for i in range(1, g + 1):
                for j in range(1, g + 1):
                    assert eval_form(e, sp.a(i), sp.b(j)) == (1 if i == j else 0)
                    assert eval_form(e, sp.a(i), sp.a(j)) == 0
                    assert eval_form(e, sp.b(i), sp.b(j)) == 0
            assert eval_form(e, sp.b(1), sp.a(1)) == r - 1


def test_weil_matches_direct_formula():
    rng = np.random.default_rng(3)
    for g, r in [(1, 4), (2, 5), (3, 6)]:
        sp = SymplecticSpace(g=g, r=r)
        e = weil_form(sp)
        for _ in range(25):
            x = sp.element(rng.integers(0, r, size=2 * g))
            y = sp.element(rng.integers(0, r, size=2 * g))
            assert eval_form(e, x, y) == symplectic_value(x.coords, y.coords, r)


def test_mixed_basis_pair_values():
    # e(a1 + b2, a2 + b1) = e(a1, b1) + e(b2, a2) = 1 - 1 = 0 for every r;
    # e(a1 + b2, a2 - b1) = e(a1, a2) - e(a1, b1) + e(b2, a2) - e(b2, b1)
    #                     = 0 - 1 - 1 - 0 = -2, which only vanishes mod 2
    for r in range(2, 9):
        sp = SymplecticSpace(g=2, r=r)
        e = weil_form(sp)
        plus = eval_form(e, sp.a(1) + sp.b(2), sp.a(2) + sp.b(1))
        minus = eval_form(e, sp.a(1) + sp.b(2), sp.a(2) - sp.b(1))
        assert plus == 0
        assert minus == (-2) % r
    sp = SymplecticSpace(g=2, r=2)
    assert eval_form(weil_form(sp), sp.a(1) + sp.b(2), sp.a(2) - sp.b(1)) == 0


def test_bilinearity_antisymmetry_alternating():
    rng = np.random.default_rng(4)
    for g, r in [(1, 2), (2, 4), (2, 7), (3, 6)]:
        sp = SymplecticSpace(g=g, r=r)
        for _ in range(8):
            form = AltForm.from_vector(sp, rng.integers(0, r, size=sp.form_rank))
            x = sp.element(rng.integers(0, r, size=2 * g))
            y = sp.element(rng.integers(0, r, size=2 * g))
            z = sp.element(rng.integers(0, r, size=2 * g))
            assert eval_form(form, x + y, z) == (
                eval_form(form, x, z) + eval_form(form, y, z)
            ) % r
            assert eval_form(form, x, y + z) == (
                eval_form(form, x, y) + eval_form(form, x, z)
            ) % r
            assert (eval_form(form, x, y) + eval_form(form, y, x)) % r == 0
            assert eval_form(form, x, x) == 0
            assert eval_form(form, x, sp.group.zero()) == 0


def test_form_addition_and_scaling():
    sp = SymplecticSpace(g=2, r=5)
    rng = np.random.default_rng(5)
    f = AltForm.from_vector(sp, rng.integers(0, 5, size=6))
    h = AltForm.from_vector(sp, rng.integers(0, 5, size=6))
    x = sp.element(rng.integers(0, 5, size=4))
    y = sp.element(rng.integers(0, 5, size=4))
    assert eval_form(f + h, x, y) == (eval_form(f, x, y) + eval_form(h, x, y)) % 5
    assert eval_form(3 * f, x, y) == (3 * eval_form(f, x, y)) % 5


def test_eval_rejects_foreign_elements():
    sp = SymplecticSpace(g=2, r=3)
    other = SymplecticSpace(g=2, r=5)
    with pytest.raises(DimensionMismatchError):
        eval_form(weil_form(sp), other.a(1), other.b(1))


def test_radical_of_weil_is_trivial():
    for g, r in [(1, 2), (1, 6), (2, 3), (2, 4), (3, 2)]:
        sp = SymplecticSpace(g=g, r=r)
        assert radical(weil_form(sp)).order == 1


def test_radical_of_zero_form_is_whole_group():
    sp = SymplecticSpace(g=2, r=4)
    zero = AltForm.from_vector(sp, [0] * 6)
    assert radical(zero).order == sp.group.order


def test_radical_of_single_pair_form():
    # coefficient only on (a1, b1): radical is spanned by the other 2g - 2
    # basis vectors
    for g, r in [(2, 3), (3, 4)]:
        sp = SymplecticSpace(g=g, r=r)
        vec = [0] * sp.form_rank
        vec[0] = 1  # the (0, 1) index pair comes first
        form = AltForm.from_vector(sp, vec)
        rad = radical(form)
        assert rad.order == r ** (2 * g - 2)
        for i in range(2, g + 1):
            assert rad.contains(sp.a(i))
            assert rad.contains(sp.b(i))
        assert not rad.contains(sp.a(1))
        assert not rad.contains(sp.b(1))


def test_radical_enumerated_small():
    # cross-check by scanning the whole group at g = 1, r = 4
    sp = SymplecticSpace(g=1, r=4)
    form = AltForm.from_vector(sp, [2])
    rad = radical(form)
    direct = {
        x.coords
        for x in sp.group.elements()
        if all(eval_form(form, x, y) == 0 for y in sp.group.elements())
    }
    assert {e.coords for e in rad.elements()} == direct


def test_form_space_dimensions():
    assert form_space(SymplecticSpace(g=1, r=7)).rank == 1
    fs = form_space(SymplecticSpace(g=2, r=2))
    assert fs.rank == 6
    assert fs.order == 64
    assert form_space(SymplecticSpace(g=2, r=3)).order == 3**6
