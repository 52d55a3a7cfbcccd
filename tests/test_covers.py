import pytest

from brute import count_k_solutions_brute
from brauerkit.covers import (
    BadModelError,
    CoverModel,
    fixed_locus_count_r2,
    picard_quotient_order,
    prym_component_count,
    quotient_component_count,
    twisted_norm_exponent,
)
from brauerkit.finab import FinAbGroup, subgroup_from_generators


def model_for(r: int, d: int, g: int = 2) -> CoverModel:
    G = FinAbGroup((r,) * (2 * g)) if r > 1 else FinAbGroup((2,) * (2 * g))
    tau = G.element([1] + [0] * (2 * g - 1)) if r > 1 else G.zero()
    return CoverModel.from_tau(tau, d)


def test_from_tau_reads_order():
    G = FinAbGroup((4,) * 4)
    m = CoverModel.from_tau(G.element([2, 0, 0, 0]), 1)
    assert m.r == 2  # tau of order 2 inside exponent-4 group
    assert m.kernel_subgroup.order == 2


@pytest.mark.parametrize(
    "r, g, message",
    [(0, 2, "cover degree must be >= 1, got 0"), (4, 0, "genus must be >= 1, got 0")],
)
def test_cover_model_refuses_a_degree_or_genus_below_1(r, g, message):
    G = FinAbGroup((4,) * 4)
    K = subgroup_from_generators(G, [G.element([1, 0, 0, 0])])
    with pytest.raises(ValueError, match=message):
        CoverModel(r=r, g=g, d=0, kernel_subgroup=K)


def test_from_tau_requires_even_rank():
    with pytest.raises(BadModelError):
        CoverModel.from_tau(FinAbGroup((4, 4, 4)).element([1, 0, 0]), 0)


def test_cover_model_kernel_order_validated():
    G = FinAbGroup((4,) * 4)
    K = subgroup_from_generators(G, [G.element([2, 0, 0, 0])])
    with pytest.raises(BadModelError):
        CoverModel(r=4, g=2, d=0, kernel_subgroup=K)  # |K| = 2, not 4


def test_prym_component_count_examples():
    assert prym_component_count(model_for(2, 0)) == 2
    assert prym_component_count(model_for(5, 3)) == 5
    assert prym_component_count(model_for(1, 0)) == 1  # degenerate trivial cover


def test_prym_equals_r_generally():
    for r in range(2, 13):
        for g in (1, 2, 3):
            assert prym_component_count(model_for(r, 0, g)) == r


def test_quotient_component_count_examples():
    assert quotient_component_count(model_for(2, 0)) == 2
    assert quotient_component_count(model_for(4, 2)) == 2
    assert quotient_component_count(model_for(3, 1)) == 1


def test_quotient_periodic_in_d_and_divides_prym():
    for r in range(2, 13):
        for d in range(-3, 2 * r):
            m1 = model_for(r, d)
            m2 = model_for(r, d % r)
            q = quotient_component_count(m1)
            assert q == quotient_component_count(m2)
            assert prym_component_count(m1) % q == 0


def test_twisted_norm_exponent_values():
    assert twisted_norm_exponent(2) == 1
    assert twisted_norm_exponent(3) == 0
    assert twisted_norm_exponent(4) == 2
    for r in range(2, 20):
        expected = 0 if r % 2 else r // 2
        assert twisted_norm_exponent(r) == expected
    with pytest.raises(ValueError):
        twisted_norm_exponent(1)


def test_picard_quotient_order_examples():
    assert picard_quotient_order(2, 0) == 2
    assert picard_quotient_order(6, 4) == 2
    assert picard_quotient_order(5, 3) == 1
    with pytest.raises(ValueError):
        picard_quotient_order(1, 0)


def test_picard_equals_quotient_count():
    for r in range(2, 13):
        for d in range(r):
            assert picard_quotient_order(r, d) == quotient_component_count(
                model_for(r, d)
            )


def test_fixed_locus_examples():
    G = FinAbGroup((4,) * 4)
    assert fixed_locus_count_r2(2, G.element([2, 0, 0, 0])) == 16
    assert fixed_locus_count_r2(2, G.zero()) == 16


def test_fixed_locus_rejects_bad_model():
    G6 = FinAbGroup((6,) * 4)
    with pytest.raises(BadModelError):
        fixed_locus_count_r2(2, G6.element([3, 0, 0, 0]))  # 4 does not divide 6
    G4 = FinAbGroup((4,) * 4)
    with pytest.raises(BadModelError):
        fixed_locus_count_r2(1, G4.element([2, 0, 0, 0]))  # rank mismatch


def test_fixed_locus_rejects_non_two_torsion():
    G = FinAbGroup((4,) * 4)
    with pytest.raises(ValueError):
        fixed_locus_count_r2(2, G.element([1, 0, 0, 0]))


def test_fixed_locus_brute_force_g2():
    # direct scan of all 256 points per torsion class
    G = FinAbGroup((4,) * 4)
    two_torsion = [
        c for c in ((a, b, c_, d) for a in (0, 2) for b in (0, 2)
                    for c_ in (0, 2) for d in (0, 2))
    ]
    for tau in two_torsion:
        got = fixed_locus_count_r2(2, G.element(tau))
        neg = [(-t) % 4 for t in tau]
        assert got == count_k_solutions_brute((4,) * 4, 2, neg)
        assert got in (0, 16)


def test_fixed_locus_value_set_g3():
    G = FinAbGroup((4,) * 6)
    for tau in [(2, 0, 0, 0, 0, 0), (2, 2, 2, 2, 2, 2), (0, 0, 0, 2, 0, 0)]:
        assert fixed_locus_count_r2(3, G.element(tau)) in (0, 64)


def test_fixed_locus_stable_across_torsion_scale():
    # the same class seen in (Z/4)^4 and (Z/8)^4 gives the same count
    G4 = FinAbGroup((4,) * 4)
    G8 = FinAbGroup((8,) * 4)
    for tau4 in [(0, 0, 0, 0), (2, 0, 0, 0), (2, 2, 0, 2)]:
        tau8 = tuple(2 * t for t in tau4)
        assert fixed_locus_count_r2(2, G4.element(tau4)) == fixed_locus_count_r2(
            2, G8.element(tau8)
        )
