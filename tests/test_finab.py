from math import gcd, prod

import numpy as np
import pytest

from brute import (
    count_k_solutions_brute,
    element_order_brute,
    torsion_counts,
)
from brauerkit.finab import (
    CapExceededError,
    FinAbGroup,
    NonHomocyclicError,
    Subgroup,
    TableTooLargeError,
    cartier_dual,
    count_solutions,
    element_order,
    is_bicyclic_rr,
    is_primitive,
    subgroup_from_generators,
)
from brauerkit.oracle import pair_span_size
from brauerkit.sympl import SymplecticSpace


def test_an_element_of_the_wrong_rank_is_refused():
    with pytest.raises(ValueError, match="element has 1 coordinates, group has rank 2"):
        FinAbGroup((2, 2)).element((1,))


@pytest.mark.parametrize("bad", [1.9, 2.0, "3", np.float64(2.0), np.True_, 1 + 0j])
def test_non_integer_coordinates_and_factors_are_a_type_error(bad):
    # read through operator.index, as the Z/n routines read their entries:
    # truncated, 1.9 would read as 1 and "3" as 3
    for factors in [(5, 5), (2, 4)]:  # homocyclic, then mixed factors
        with pytest.raises(TypeError):
            FinAbGroup(factors).element([0, bad])
    with pytest.raises(TypeError):
        FinAbGroup((bad, 4))
    with pytest.raises(TypeError):
        SymplecticSpace(g=2, r=5).element([bad, 3, 0, True])


def test_integer_coordinates_and_factors_of_any_kind_are_accepted():
    # Python ints of any size, Python bools and numpy integers
    one = [True, np.int64(6), np.uint8(11), 2**70 + 1]
    for factors in [(5, 5, 5, 5), (1 + 1, 10, 10, 20)]:
        coords = FinAbGroup(factors).element(one).coords
        assert coords == tuple(int(v) % d for v, d in zip(one, factors))
        assert all(type(c) is int for c in coords)
    G = FinAbGroup((np.int64(2), True + 3, np.uint16(8)))
    assert G.invariant_factors == (2, 4, 8)
    assert all(type(d) is int for d in G.invariant_factors)


def test_elements_of_another_group_are_refused():
    G, H = FinAbGroup((4, 4)), FinAbGroup((2, 2))
    x, foreign = G.element((1, 0)), H.element((1, 0))
    sub = subgroup_from_generators(G, [x])
    with pytest.raises(ValueError, match="element belongs to a different group"):
        sub.contains(foreign)
    with pytest.raises(ValueError, match="generator belongs to a different group"):
        subgroup_from_generators(G, [x, foreign])
    with pytest.raises(ValueError, match="elements belong to different groups"):
        is_bicyclic_rr(x, foreign, 4)
    with pytest.raises(ValueError, match="target belongs to a different group"):
        count_solutions(G, 2, foreign)


def test_homocyclic_needs_equal_factors_and_the_trivial_group_prints_0():
    assert not FinAbGroup((2, 4)).is_homocyclic()
    assert not FinAbGroup((2, 4)).is_homocyclic(4)
    assert FinAbGroup((4, 4)).is_homocyclic(4)
    assert not FinAbGroup(()).is_homocyclic()
    assert str(FinAbGroup(())) == "0"
    assert str(FinAbGroup((2, 4))) == "Z/2 x Z/4"


def test_group_validation():
    with pytest.raises(ValueError):
        FinAbGroup((4, 2))  # chain must ascend
    with pytest.raises(ValueError):
        FinAbGroup((1, 2))
    with pytest.raises(ValueError):
        FinAbGroup((2, 3))  # 2 does not divide 3


def test_group_basics():
    G = FinAbGroup((2, 4))
    assert G.order == 8
    assert G.exponent == 4
    assert G.rank == 2
    assert str(G) == "Z/2 x Z/4"
    assert not G.is_homocyclic()
    assert FinAbGroup((3, 3, 3)).is_homocyclic(3)


def test_trivial_group():
    T = FinAbGroup(())
    assert T.order == 1
    assert T.exponent == 1
    assert list(T.elements()) == [T.zero()]
    assert cartier_dual(T) == T


def test_element_arithmetic():
    G = FinAbGroup((2, 4))
    x = G.element([1, 3])
    y = G.element([1, 2])
    assert (x + y).coords == (0, 1)
    assert (x - y).coords == (0, 1)
    assert (-x).coords == (1, 1)
    assert (3 * x).coords == (1, 1)
    assert (x * 4).coords == (0, 0)
    assert G.zero().is_zero


def test_element_reduction_and_cross_group():
    G = FinAbGroup((2, 4))
    assert G.element([5, -1]).coords == (1, 3)
    H = FinAbGroup((2, 2))
    with pytest.raises(ValueError):
        G.element([1, 1]) + H.element([1, 1])


def test_elements_iteration_matches_coordinate_table():
    G = FinAbGroup((2, 6))
    listed = [e.coords for e in G.elements()]
    assert listed == [tuple(row) for row in G.coordinate_table().tolist()]
    assert len(listed) == 12
    assert len(set(listed)) == 12


def test_coordinate_table_beyond_numpy_size_limit():
    G = FinAbGroup((2**32, 2**32))
    with pytest.raises(TableTooLargeError, match="array size limit"):
        G.coordinate_table(cap=G.order)
    assert issubclass(TableTooLargeError, ValueError)


def test_elements_cap():
    G = FinAbGroup((100, 100, 100))
    with pytest.raises(CapExceededError):
        list(G.elements(cap=10))


def test_element_order_examples():
    # Z/2 + Z/12 is the invariant-factor form of Z/4 + Z/6; (1, 6) plays
    # the role of an element with both coordinate orders equal to 2
    G = FinAbGroup((2, 12))
    assert element_order(G.zero()) == 1
    assert element_order(G.element([1, 6])) == 2
    assert element_order(G.element([1, 4])) == 6
    H = FinAbGroup((5,) * 4)
    assert element_order(H.element([1, 0, 0, 0])) == 5


def test_element_order_brute_agreement():
    rng = np.random.default_rng(2)
    for factors in [(2, 4), (6, 6), (2, 2, 8), (3, 9), (12,)]:
        G = FinAbGroup(factors)
        for _ in range(20):
            coords = [int(rng.integers(0, d)) for d in factors]
            assert element_order(G.element(coords)) == element_order_brute(
                coords, factors
            )


def test_is_primitive():
    G = FinAbGroup((4,) * 4)
    assert is_primitive(G.element([1, 0, 0, 0]), 4)
    assert not is_primitive(G.element([2, 0, 0, 0]), 4)  # order 2
    H = FinAbGroup((6,) * 4)
    assert is_primitive(H.element([2, 3, 0, 0]), 6)  # lcm(3, 2) = 6
    with pytest.raises(NonHomocyclicError):
        is_primitive(FinAbGroup((2, 4)).element([1, 1]), 4)


def test_subgroup_empty_generators():
    G = FinAbGroup((4, 4))
    S = subgroup_from_generators(G, [])
    assert S.order == 1
    assert S.contains(G.zero())
    assert not S.contains(G.element([2, 0]))
    assert S.invariant_factors() == ()


def test_subgroup_frozen_z4_square():
    G = FinAbGroup((4, 4))
    S = subgroup_from_generators(G, [G.element([2, 0]), G.element([0, 2])])
    assert S.order == 4
    assert S.invariant_factors() == (2, 2)
    assert S.contains(G.element([2, 2]))
    assert not S.contains(G.element([1, 1]))
    got = {e.coords for e in S.elements()}
    assert got == {(0, 0), (2, 0), (0, 2), (2, 2)}


def coordinate_closure(factors, gens) -> set[tuple[int, ...]]:
    """The subgroup of Z/d_1 x ... x Z/d_k generated by the coordinate
    tuples ``gens``: 0 and every sum reached by adding a generator, each
    coordinate reduced mod its own factor d_i.  Plain tuples, so it shares
    no arithmetic with ``GroupElement`` or ``Subgroup``."""
    zero = (0,) * len(factors)
    seen, frontier = {zero}, [zero]
    while frontier:
        cur = frontier.pop()
        for h in gens:
            nxt = tuple((a + b) % d for a, b, d in zip(cur, h, factors))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _random_coords(factors, rng, count: int) -> list[tuple[int, ...]]:
    return [tuple(int(rng.integers(0, d)) for d in factors) for _ in range(count)]


def test_subgroup_canonicalization_is_generator_independent():
    rng = np.random.default_rng(9)
    for factors in [(4, 4), (2, 4, 8), (6, 6)]:
        G = FinAbGroup(factors)
        for _ in range(15):
            coords = _random_coords(factors, rng, 3)
            gens = [G.element(c) for c in coords]
            S = subgroup_from_generators(G, gens)
            # shuffled, duplicated, and summed generators give the same subgroup
            alt = [gens[2], gens[0], gens[1], gens[0] + gens[1], gens[2]]
            T = subgroup_from_generators(G, alt)
            assert S == T
            closure = coordinate_closure(factors, coords)
            assert S.order == len(closure)
            assert {e.coords for e in S.elements()} == closure


def test_subgroup_elements_match_closure():
    # every a x + b y, in plain coordinates reduced per factor
    for factors, (x, y) in [
        ((2, 4, 4), ((1, 2, 0), (0, 2, 2))),
        ((2, 4, 8), ((1, 3, 6), (0, 2, 4))),
    ]:
        G = FinAbGroup(factors)
        S = subgroup_from_generators(G, [G.element(x), G.element(y)])
        top = factors[-1]
        direct = {
            tuple((a * u + b * v) % d for u, v, d in zip(x, y, factors))
            for a in range(top)
            for b in range(top)
        }
        assert {e.coords for e in S.elements()} == direct
        assert S.order == len(direct) == len(coordinate_closure(factors, [x, y]))


def test_subgroup_in_non_homocyclic_group():
    G = FinAbGroup((2, 6))
    S = subgroup_from_generators(G, [G.element([1, 3])])
    assert S.order == 2
    assert S.invariant_factors() == (2,)
    assert S.contains(G.element([1, 3]))
    assert not S.contains(G.element([0, 3]))


def test_subgroup_contains_matches_elements():
    rng = np.random.default_rng(12)
    for factors in [(4, 4), (2, 6), (2, 4, 4)]:
        G = FinAbGroup(factors)
        for _ in range(6):
            coords = _random_coords(factors, rng, int(rng.integers(0, 3)))
            S = subgroup_from_generators(G, [G.element(c) for c in coords])
            inside = coordinate_closure(factors, coords)
            for x in G.elements():
                assert S.contains(x) == (x.coords in inside)


def test_subgroup_generators_roundtrip():
    G = FinAbGroup((4, 4, 4))
    S = subgroup_from_generators(G, [G.element([1, 1, 0]), G.element([0, 2, 2])])
    T = subgroup_from_generators(G, S.generators())
    assert S == T


def test_is_bicyclic_basic_pairs():
    for r in (2, 3, 4, 6, 10**12 + 39):
        G = FinAbGroup((r,) * 4)
        a1 = G.element([1, 0, 0, 0])
        b1 = G.element([0, 1, 0, 0])
        assert is_bicyclic_rr(a1, b1, r)
        assert not is_bicyclic_rr(a1, a1, r)  # span too small
        assert not is_bicyclic_rr(a1, 2 * a1 if r > 2 else G.zero(), r)


def test_is_bicyclic_frozen_false_case():
    G = FinAbGroup((4,) * 4)
    sigma = G.element([1, 1, 0, 0])
    tau = G.element([1, 3, 0, 0])
    # both primitive, but sigma + tau = (2, 0, 0, 0) collapses the span to order 8
    assert subgroup_from_generators(G, [sigma, tau]).order == 8
    assert not is_bicyclic_rr(sigma, tau, 4)


def test_is_bicyclic_matches_span_size_brute():
    rng = np.random.default_rng(4)
    for r in (2, 3, 4):
        G = FinAbGroup((r,) * 4)
        for _ in range(40):
            x = [int(rng.integers(0, r)) for _ in range(4)]
            y = [int(rng.integers(0, r)) for _ in range(4)]
            expected = pair_span_size(x, y, r) == r * r
            assert is_bicyclic_rr(G.element(x), G.element(y), r) == expected


def test_is_bicyclic_rejects_wrong_exponent():
    G = FinAbGroup((2, 4))
    with pytest.raises(NonHomocyclicError):
        is_bicyclic_rr(G.element([1, 1]), G.element([0, 1]), 4)


def test_cartier_dual_examples():
    for r in (2, 5, 9):
        assert cartier_dual(FinAbGroup((r,))) == FinAbGroup((r,))
    G = FinAbGroup((2, 4))
    assert cartier_dual(G) == G
    assert cartier_dual(cartier_dual(G)) == G


def test_count_solutions_examples():
    G = FinAbGroup((4,) * 4)
    assert count_solutions(G, 2, G.zero()) == 16
    assert count_solutions(G, 2, G.element([1, 0, 0, 0])) == 0
    assert count_solutions(G, 1, G.element([3, 2, 1, 0])) == 1


def test_count_solutions_brute_agreement():
    rng = np.random.default_rng(6)
    for factors in [(4, 4), (2, 6), (3, 3, 9), (8,)]:
        G = FinAbGroup(factors)
        for _ in range(12):
            k = int(rng.integers(0, 9))
            c = [int(rng.integers(0, d)) for d in factors]
            assert count_solutions(G, k, G.element(c)) == count_k_solutions_brute(
                factors, k, c
            )


def test_subgroup_invariant_factors_product_is_order():
    rng = np.random.default_rng(13)
    for factors in [(4, 4, 4), (2, 2, 6), (9, 9)]:
        G = FinAbGroup(factors)
        for _ in range(10):
            gens = [
                G.element([int(rng.integers(0, d)) for d in factors])
                for _ in range(2)
            ]
            S = subgroup_from_generators(G, gens)
            inv = S.invariant_factors()
            prod = 1
            for d in inv:
                assert d >= 2
                prod *= d
            assert prod == S.order
            for a, b in zip(inv, inv[1:]):
                assert b % a == 0


def test_subgroup_invariant_factors_match_torsion_counts():
    # a group with factors e_i has prod gcd(d, e_i) elements killed by d,
    # and these counts over every d | N fix its isomorphism type
    rng = np.random.default_rng(17)
    for factors in [(4, 4, 4), (2, 2, 6), (2, 4, 8), (3, 6, 12), (9, 9)]:
        G = FinAbGroup(factors)
        N = G.exponent
        for _ in range(8):
            gens = [
                [int(rng.integers(0, d)) for d in factors]
                for _ in range(int(rng.integers(1, 4)))
            ]
            S = subgroup_from_generators(G, [G.element(c) for c in gens])
            inv = S.invariant_factors()
            scaled = [[c * (N // d) for c, d in zip(v, factors)] for v in gens]
            for d, count in torsion_counts(scaled, N).items():
                assert count == prod(gcd(d, e) for e in inv), (factors, gens, d)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: FinAbGroup((3, 3)).coordinate_table(cap=8),
            "group order 9 exceeds cap 8",
        ),
        (
            lambda: subgroup_from_generators(
                FinAbGroup((3, 3)), [FinAbGroup((3, 3)).element((1, 2))]
            ).elements(cap=2),
            "subgroup order 3 exceeds cap 2",
        ),
    ],
    ids=["coordinate-table", "subgroup-elements"],
)
def test_listing_past_the_cap_is_refused(call, message):
    with pytest.raises(CapExceededError, match=message):
        call()
