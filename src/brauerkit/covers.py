"""Component and exponent bookkeeping for cyclic covering data.

A degree-r cyclic cover with Galois group generated by a torsion class tau
is modeled by the subgroup K = <tau> it spans; the geometry enters only
through a handful of counts:

* connected components of the torsor parametrizing the cover's Prym part
  are indexed by the Cartier dual of K, so there are exactly |K| = r;
* components of the quotient-side moduli with topological type d collapse
  to gcd(r, d), which is also the order of the relevant Picard quotient;
* the twisted norm of the cover multiplies the r torsion classes together,
  picking up the exponent 1 + 2 + ... + (r-1) = r(r-1)/2 mod r, which
  vanishes iff r is odd and equals r/2 for even r;
* for degree 2, composing a square root of the twist with dualization has
  its fixed locus counted by the solutions of 2x = -tau, a set of size
  either 0 or 2^{2g} (for genus 2 the locus sits in codimension two in the
  3-fold model, so the count is the whole story there).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .finab import (
    GroupElement,
    Subgroup,
    count_solutions,
    element_order,
    subgroup_from_generators,
)

__all__ = [
    "BadModelError",
    "CoverModel",
    "prym_component_count",
    "quotient_component_count",
    "twisted_norm_exponent",
    "picard_quotient_order",
    "fixed_locus_count_r2",
]


class BadModelError(ValueError):
    """The torsion model does not support the requested computation."""


@dataclass(frozen=True)
class CoverModel:
    """Degree-r cyclic cover datum: genus, topological type d mod r, and the
    order-r kernel subgroup generated by the covering class."""

    r: int
    g: int
    d: int
    kernel_subgroup: Subgroup

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"cover degree must be >= 1, got {self.r}")
        if self.g < 1:
            raise ValueError(f"genus must be >= 1, got {self.g}")
        if self.kernel_subgroup.order != self.r:
            raise BadModelError(
                f"kernel subgroup has order {self.kernel_subgroup.order}, "
                f"expected {self.r}"
            )

    @classmethod
    def from_tau(cls, tau: GroupElement, d: int) -> CoverModel:
        """Model of the cover cut out by the torsion class tau.

        The degree is the order of tau; the parent must be homocyclic of
        even rank 2g.  tau = 0 gives the degenerate trivial cover (r = 1).
        """
        parent = tau.parent
        if parent.rank % 2:
            raise BadModelError("parent must have even rank 2g")
        r = element_order(tau)
        K = subgroup_from_generators(parent, [tau])
        return cls(r=r, g=parent.rank // 2, d=d, kernel_subgroup=K)


def prym_component_count(model: CoverModel) -> int:
    """Components indexed by the Cartier dual of the kernel K: |K| = r."""
    return model.kernel_subgroup.order


def quotient_component_count(model: CoverModel) -> int:
    """Components surviving on the quotient side: gcd(r, d), gcd(r, 0) = r."""
    return gcd(model.r, model.d)


def twisted_norm_exponent(r: int) -> int:
    """Exponent r(r-1)/2 mod r picked up by the twisted norm.

    Zero iff r is odd; r/2 for even r.
    """
    if r < 2:
        raise ValueError(f"cover degree must be >= 2, got {r}")
    return (r * (r - 1) // 2) % r


def picard_quotient_order(r: int, d: int) -> int:
    """Order of the cyclic Picard quotient attached to type d: gcd(r, d)."""
    if r < 2:
        raise ValueError(f"cover degree must be >= 2, got {r}")
    return gcd(r, d)


def fixed_locus_count_r2(g: int, tau_class: GroupElement) -> int:
    """Solutions of 2x = -tau in the torsion model (Z/N)^{2g}, 4 | N.

    Counts the fixed points of the degree-2 square-root-of-the-twist
    involution: either 0 or 2^{2g}, and independent of N once 4 | N.
    Requires 2*tau = 0; a class of larger order has no meaning here.
    """
    parent = tau_class.parent
    if not parent.is_homocyclic() or parent.rank != 2 * g:
        raise BadModelError(
            f"model must be homocyclic of rank {2 * g}, got {parent}"
        )
    if parent.exponent % 4:
        raise BadModelError(f"model exponent {parent.exponent} not divisible by 4")
    if element_order(tau_class) > 2:
        raise ValueError("tau_class must satisfy 2*tau = 0")
    return count_solutions(parent, 2, -tau_class)
