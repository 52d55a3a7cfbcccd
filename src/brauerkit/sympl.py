"""The torsion symplectic module (Z/r)^{2g} and alternating forms on it.

Basis ordering convention, used by every coefficient matrix and all CLI
output: coordinates come in hyperbolic pairs a_1, b_1, a_2, b_2, ..., so
a_i is coordinate 2i-2 and b_i is coordinate 2i-1 (i is 1-based).

An alternating bi-multiplicative map to the r-th roots of unity is written
additively with values in Z/r and stored by its strictly upper triangular
coefficient matrix: b(x, y) = sum_{i<j} c[i][j] * (x_i y_j - x_j y_i).  The
standard pairing pairs a_i with b_i and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from operator import index

import numpy as np

from .finab import FinAbGroup, GroupElement, Subgroup, subgroup_from_generators
from .zmodlinalg import DimensionMismatchError, howell_form, howell_kernel

__all__ = [
    "SymplecticSpace",
    "AltForm",
    "upper_index_pairs",
    "weil_form",
    "eval_form",
    "radical",
    "form_space",
]


@cache
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays I, J of the pairs i < j of range(d), lexicographic; cached."""
    return np.triu_indices(d, 1)


def upper_index_pairs(dim: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, in the flattening order used everywhere."""
    I, J = _upper_pairs(dim)
    return list(zip(I.tolist(), J.tolist()))


@dataclass(frozen=True)
class SymplecticSpace:
    """(Z/r)^{2g} with the hyperbolic basis convention above.  g and r are
    read through ``operator.index`` and kept as Python ints."""

    g: int
    r: int

    def __post_init__(self):
        object.__setattr__(self, "g", index(self.g))
        object.__setattr__(self, "r", index(self.r))
        if self.g < 1:
            raise ValueError(f"genus must be >= 1, got {self.g}")
        if self.r < 2:
            raise ValueError(f"modulus must be >= 2, got {self.r}")

    @property
    def dim(self) -> int:
        return 2 * self.g

    @property
    def form_rank(self) -> int:
        """Number of independent alternating coefficients, g(2g - 1)."""
        return self.g * (2 * self.g - 1)

    @cached_property
    def group(self) -> FinAbGroup:
        # built once per space; cached_property writes to __dict__ directly,
        # so the frozen dataclass allows it and equality and hashing ignore it
        return FinAbGroup((self.r,) * self.dim)

    def element(self, coords) -> GroupElement:
        return self.group.element(coords)

    def a(self, i: int) -> GroupElement:
        if not 1 <= i <= self.g:
            raise IndexError(f"a-index {i} outside 1..{self.g}")
        coords = [0] * self.dim
        coords[2 * i - 2] = 1
        return self.element(coords)

    def b(self, i: int) -> GroupElement:
        if not 1 <= i <= self.g:
            raise IndexError(f"b-index {i} outside 1..{self.g}")
        coords = [0] * self.dim
        coords[2 * i - 1] = 1
        return self.element(coords)


@dataclass(frozen=True)
class AltForm:
    """Alternating form stored by strictly upper triangular coefficients,
    each read through ``operator.index`` (also from ``from_vector``)."""

    space: SymplecticSpace
    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        dim = self.space.dim
        r = self.space.r
        if len(self.coeffs) != dim or any(len(row) != dim for row in self.coeffs):
            raise DimensionMismatchError(
                f"coefficient matrix must be {dim}x{dim}"
            )
        reduced = []
        for i, row in enumerate(self.coeffs):
            for j in range(i + 1):
                if row[j]:
                    raise ValueError("coefficients must be strictly upper triangular")
            reduced.append(tuple(index(v) % r for v in row))
        object.__setattr__(self, "coeffs", tuple(reduced))

    @classmethod
    def from_vector(cls, space: SymplecticSpace, vec) -> AltForm:
        vec = list(vec)
        pairs = upper_index_pairs(space.dim)
        if len(vec) != len(pairs):
            raise DimensionMismatchError(
                f"expected {len(pairs)} coefficients, got {len(vec)}"
            )
        mat = [[0] * space.dim for _ in range(space.dim)]
        for v, (i, j) in zip(vec, pairs):
            mat[i][j] = v
        return cls(space, tuple(map(tuple, mat)))

    def vector(self) -> tuple[int, ...]:
        """Coefficients flattened in upper_index_pairs order."""
        return tuple(self.coeffs[i][j] for i, j in upper_index_pairs(self.space.dim))

    def full_matrix(self) -> np.ndarray:
        """Antisymmetrized coefficient matrix C - C^T over Z/r."""
        C = np.array(self.coeffs, dtype=np.int64)
        return (C - C.T) % self.space.r

    def __add__(self, other: AltForm) -> AltForm:
        if self.space != other.space:
            raise DimensionMismatchError("forms on different spaces")
        return AltForm.from_vector(
            self.space, [a + b for a, b in zip(self.vector(), other.vector())]
        )

    def __mul__(self, scalar: int) -> AltForm:
        return AltForm.from_vector(self.space, [scalar * v for v in self.vector()])

    __rmul__ = __mul__


def weil_form(space: SymplecticSpace) -> AltForm:
    """The standard pairing: e(a_i, b_j) = delta_ij, basis vectors otherwise
    orthogonal, extended alternating bilinearly."""
    dim = space.dim
    mat = [[0] * dim for _ in range(dim)]
    for i in range(space.g):
        mat[2 * i][2 * i + 1] = 1
    return AltForm(space, tuple(map(tuple, mat)))


def eval_form(b: AltForm, x: GroupElement, y: GroupElement) -> int:
    """b(x, y) as an element of Z/r."""
    grp = b.space.group
    if x.parent != grp or y.parent != grp:
        raise DimensionMismatchError("arguments do not live in the form's module")
    r = b.space.r
    total = 0
    for i, j in upper_index_pairs(b.space.dim):
        c = b.coeffs[i][j]
        if c:
            total += c * (x.coords[i] * y.coords[j] - x.coords[j] * y.coords[i])
    return total % r


def radical(b: AltForm) -> Subgroup:
    """Subgroup {x : b(x, y) = 0 for all y}."""
    space = b.space
    A = b.full_matrix()
    kernel = howell_kernel(howell_form(A, space.r), space.r)
    gens = [space.element(row) for row in kernel]
    return subgroup_from_generators(space.group, gens)


def form_space(space: SymplecticSpace):
    """The full module of alternating forms, as a form submodule of rank
    g(2g - 1) over Z/r."""
    from .brauer import FormSubmodule  # deferred to avoid an import cycle

    return FormSubmodule.full(space)
