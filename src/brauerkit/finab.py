"""Finite abelian groups in invariant-factor coordinates.

A group is a product Z/d_1 x ... x Z/d_k with d_1 | d_2 | ... and every
d_i >= 2; elements are coordinate tuples.  Factors and coordinates are read
through ``operator.index``, so Python ints, bools and numpy integers are
taken as the Python ints they are, and a float, a str or a numpy float or
bool is a ``TypeError`` rather than truncated.  Subgroups are
canonicalized by embedding the group into (Z/N)^k, N the exponent, scaling
coordinate i by N/d_i, and taking the Howell form of the generator rows
over Z/N.  Equal subgroups therefore have equal ``canonical_generators``,
independent of the generating set they came from.

Any operation that has to walk a whole group refuses once the order passes
an enumeration cap (default 10**7, always overridable per call).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from math import gcd, lcm, prod
from operator import index

import numpy as np

from .zmodlinalg import (
    _span_order,
    howell_form,
    howell_reduce,
    howell_span,
    smith_normal_form,
)

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "CapExceededError",
    "NonHomocyclicError",
    "TableTooLargeError",
    "FinAbGroup",
    "GroupElement",
    "Subgroup",
    "element_order",
    "is_primitive",
    "subgroup_from_generators",
    "is_bicyclic_rr",
    "cartier_dual",
    "count_solutions",
]

DEFAULT_ENUMERATION_CAP = 10_000_000


class CapExceededError(RuntimeError):
    """An enumeration would visit more elements than the configured cap."""


class NonHomocyclicError(ValueError):
    """The operation only makes sense for groups (Z/r)^k."""


class TableTooLargeError(ValueError):
    """A coordinate table has more bytes than a numpy array can index."""


@dataclass(frozen=True)
class FinAbGroup:
    """Finite abelian group given by its invariant factor chain."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        facs = tuple(map(index, self.invariant_factors))
        object.__setattr__(self, "invariant_factors", facs)
        for d in facs:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(facs, facs[1:]):
            if b % a:
                raise ValueError(f"broken divisibility chain: {a} does not divide {b}")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def is_homocyclic(self, r: int | None = None) -> bool:
        if not self.invariant_factors:
            return False
        first = self.invariant_factors[0]
        if any(d != first for d in self.invariant_factors):
            return False
        return r is None or first == r

    def element(self, coords) -> GroupElement:
        return GroupElement(self, tuple(coords))

    def zero(self) -> GroupElement:
        return GroupElement(self, (0,) * self.rank)

    def elements(self, cap: int = DEFAULT_ENUMERATION_CAP):
        """All elements, last coordinate varying fastest."""
        if self.order > cap:
            raise CapExceededError(f"group order {self.order} exceeds cap {cap}")
        for coords in product(*(range(d) for d in self.invariant_factors)):
            yield GroupElement(self, coords)

    def coordinate_table(self, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
        """(order x rank) int64 array of all coordinate rows, in elements()
        order; ``CapExceededError`` past the cap, then ``TableTooLargeError``
        past numpy's array size limit, before anything is allocated."""
        n, k = self.order, self.rank
        if n > cap:
            raise CapExceededError(f"group order {n} exceeds cap {cap}")
        if n * k * 8 > np.iinfo(np.intp).max:
            raise TableTooLargeError(
                f"a {n} x {k} int64 coordinate table of {self} is beyond "
                "numpy's array size limit"
            )
        out = np.zeros((n, k), dtype=np.int64)
        idx = np.arange(n)
        stride = n
        for j, d in enumerate(self.invariant_factors):
            stride //= d
            out[:, j] = (idx // stride) % d
        return out

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "0"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


@dataclass(frozen=True)
class GroupElement:
    parent: FinAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        facs, coords = self.parent.invariant_factors, self.coords
        if len(coords) != len(facs):
            raise ValueError(
                f"element has {len(coords)} coordinates, group has rank {len(facs)}"
            )
        if facs and facs[0] == facs[-1]:
            # homocyclic, as d_1 | ... | d_k: one exponent reduces every
            # coordinate
            d = facs[0]
            coords = tuple([c % d for c in map(index, coords)])
        else:
            coords = tuple([index(c) % d for c, d in zip(coords, facs)])
        object.__setattr__(self, "coords", coords)

    def _check_same_parent(self, other: GroupElement):
        if self.parent != other.parent:
            raise ValueError("elements belong to different groups")

    def __add__(self, other: GroupElement) -> GroupElement:
        self._check_same_parent(other)
        return GroupElement(
            self.parent, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: GroupElement) -> GroupElement:
        self._check_same_parent(other)
        return GroupElement(
            self.parent, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> GroupElement:
        return GroupElement(self.parent, tuple(-a for a in self.coords))

    def __mul__(self, scalar: int) -> GroupElement:
        return GroupElement(self.parent, tuple(scalar * a for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def element_order(x: GroupElement) -> int:
    """Least m >= 1 with m*x = 0."""
    return reduce(
        lcm,
        (d // gcd(d, c) for d, c in zip(x.parent.invariant_factors, x.coords)),
        1,
    )


def is_primitive(x: GroupElement, r: int) -> bool:
    """Whether x has maximal order r in a homocyclic group (Z/r)^k."""
    if not x.parent.is_homocyclic(r):
        raise NonHomocyclicError(f"parent {x.parent} is not homocyclic of exponent {r}")
    return element_order(x) == r


def _scales(parent: FinAbGroup) -> list[int]:
    N = parent.exponent
    return [N // d for d in parent.invariant_factors]


def _embed_rows(parent: FinAbGroup, elems) -> np.ndarray:
    # coordinate i is below d_i, so its scaled value is below N
    coords = np.array([e.coords for e in elems], dtype=np.int64)
    return coords.reshape(len(elems), parent.rank) * np.array(_scales(parent))


@dataclass(frozen=True)
class Subgroup:
    """Subgroup in canonical (scaled-embedding Howell) presentation.

    Build these with :func:`subgroup_from_generators`; two Subgroup values of
    the same parent are equal iff they are the same subgroup.
    """

    parent: FinAbGroup
    canonical_generators: tuple[tuple[int, ...], ...]
    order: int

    def _modulus(self) -> int:
        return max(self.parent.exponent, 2)

    def contains(self, x: GroupElement) -> bool:
        if x.parent != self.parent:
            raise ValueError("element belongs to a different group")
        if not self.canonical_generators:
            return x.is_zero()
        H = np.array(self.canonical_generators, dtype=np.int64)
        row = _embed_rows(self.parent, [x])
        return not howell_reduce(H, row, self._modulus()).any()

    def _pull_back(self, rows) -> list[GroupElement]:
        """Embedded rows over Z/N back to group coordinates (divide by N/d_i)."""
        scales = _scales(self.parent)
        return [
            GroupElement(self.parent, tuple(v // s for v, s in zip(row, scales)))
            for row in rows
        ]

    def generators(self) -> list[GroupElement]:
        """Canonical generators pulled back to group coordinates."""
        return self._pull_back(self.canonical_generators)

    def elements(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[GroupElement]:
        if self.order > cap:
            raise CapExceededError(f"subgroup order {self.order} exceeds cap {cap}")
        gens = self.canonical_generators
        H = np.array(gens, dtype=np.int64).reshape(len(gens), self.parent.rank)
        return self._pull_back(howell_span(H, self._modulus()))

    def invariant_factors(self) -> tuple[int, ...]:
        """Isomorphism type of the subgroup, as an invariant factor chain.

        The scaled embedding is injective, so the subgroup is the row span
        over Z/N of the canonical generators C.  If U C V = D is the Smith
        form over Z, V is an automorphism of (Z/N)^k, so the span is the
        direct sum of the Z/(N / gcd(d_i, N)).
        """
        if not self.canonical_generators:
            return ()
        N = self._modulus()
        _, D, _ = smith_normal_form(self.canonical_generators)
        orders = (N // gcd(int(D[i, i]), N) for i in range(min(D.shape)))
        facs = tuple(sorted(q for q in orders if q > 1))
        if prod(facs) != self.order:
            raise RuntimeError(
                f"invariant factors {facs} do not multiply to the order {self.order}"
            )
        return facs


def subgroup_from_generators(parent: FinAbGroup, gens) -> Subgroup:
    """Subgroup generated by ``gens``; canonical regardless of generator order."""
    gens = list(gens)
    for g in gens:
        if g.parent != parent:
            raise ValueError("generator belongs to a different group")
    if parent.rank == 0 or not gens:
        return Subgroup(parent, (), 1)
    N = max(parent.exponent, 2)
    rows = _embed_rows(parent, gens)
    H = howell_form(rows, N)
    return Subgroup(parent, tuple(map(tuple, H.tolist())), _span_order(H, N))


def is_bicyclic_rr(sigma: GroupElement, tau: GroupElement, r: int) -> bool:
    """Whether sigma and tau generate a subgroup isomorphic to (Z/r)^2.

    Requires a homocyclic parent of exponent r.  The span has order r^2
    exactly when the gcd of the 2x2 minors of sigma, tau is prime to r: that
    gcd is the product of the Smith invariant factors of the integer matrix
    with rows sigma and tau.
    """
    if sigma.parent != tau.parent:
        raise ValueError("elements belong to different groups")
    if not sigma.parent.is_homocyclic(r):
        raise NonHomocyclicError(
            f"parent {sigma.parent} is not homocyclic of exponent {r}"
        )
    x, y = sigma.coords, tau.coords
    minors = (x[i] * y[j] - x[j] * y[i] for i, j in combinations(range(len(x)), 2))
    return gcd(r, *minors) == 1


def cartier_dual(G: FinAbGroup | Subgroup) -> FinAbGroup:
    """Dual group Hom(G, C*); same invariant factors, so an involution."""
    facs = G.invariant_factors() if isinstance(G, Subgroup) else G.invariant_factors
    return FinAbGroup(facs)


def count_solutions(parent: FinAbGroup, k: int, c: GroupElement) -> int:
    """Number of x in the group with k*x = c.

    Either 0 or the order of the k-torsion subgroup, coordinatewise.
    """
    if c.parent != parent:
        raise ValueError("target belongs to a different group")
    total = 1
    for d, ci in zip(parent.invariant_factors, c.coords):
        g = gcd(k, d)
        if ci % g:
            return 0
        total *= g
    return total
