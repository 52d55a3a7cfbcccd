"""Vanishing submodules of alternating forms and bicyclic restriction kernels.

Operations here answer, in exact arithmetic over Z/r:

* which alternating forms vanish on every isotropic pair of the standard
  pairing (``compute_G``, one cut by the paper's witness pairs),
  optionally restricted to pairs that generate a (Z/r)^2 subgroup;
* which forms die under restriction to a given subgroup
  (``restriction_kernel``);
* the intersection of those restriction kernels over a family of bicyclic
  subgroups (``bogomolov_intersection``), the family being either explicit
  or, left implicit, that of all isotropic bicyclic pairs.

All of it is linear algebra on the g(2g-1) upper-triangular coefficients:
a pair (x, y) imposes the single linear constraint
sum_{i<j} v_ij (x_i y_j - x_j y_i) = 0 on a coefficient vector v, and a
subgroup imposes the constraints of its generator pairs (enough, by
bilinearity).  Every kernel comes from one step, ``_cut``: the forms of a
submodule that a batch of constraint rows kills.  Submodules are kept in
Howell form, so every result is canonical and runs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache, cached_property
from itertools import combinations
from math import gcd, prod

import numpy as np

from .finab import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    GroupElement,
    Subgroup,
)
from .sympl import AltForm, SymplecticSpace, _upper_pairs, weil_form
from .zmodlinalg import (
    _check_modulus,
    _matmul_mod,
    _residues,
    _span_order,
    howell_form,
    howell_kernel,
    howell_reduce,
    howell_span,
)

__all__ = [
    "MODE_ALL_PAIRS",
    "MODE_PRIMITIVE_PAIRS",
    "FormSubmodule",
    "BicyclicFamily",
    "compute_G",
    "restriction_kernel",
    "isotropic_bicyclics",
    "all_bicyclics",
    "bogomolov_intersection",
    "InclusionReport",
    "verify_main_inclusions",
]

MODE_ALL_PAIRS = "all-pairs"
MODE_PRIMITIVE_PAIRS = "primitive-pairs"

# the bases of Miller-Rabin: with all of them, a strong probable prime below
# 3.3 * 10^24 is prime
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to every base of ``_WITNESSES``, for n > 41 with no
    factor among them: exact below 3.3 * 10^24, a strong probable-prime
    test past it."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor(n: int) -> list[int]:
    """The prime factors of n >= 1 with multiplicity, unordered: the primes
    of ``_WITNESSES`` by division, then Pollard's rho (x -> x^2 + c, Floyd's
    cycle) splits each composite part left."""
    factors = []
    for p in _WITNESSES:
        while n % p == 0:
            n //= p
            factors.append(p)
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if _is_prime(m):
            factors.append(m)
            continue
        d, c = m, 0
        while d == m:  # a c whose cycle closes mod m as a whole: take the next
            x = y = 2
            d, c = 1, c + 1
            while d == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                d = gcd(x - y, m)
        parts += [d, m // d]
    return factors


@cache
def _prime_powers(n: int) -> tuple[tuple[int, int, int], ...]:
    """(p, q, u) for each prime power q = p^k exactly dividing n, p
    ascending, u the CRT unit of q (1 mod q, 0 mod n / q); cached, since
    every ``with_pair`` call reads it.  The primes come from ``_factor``."""
    factors, out = _factor(n), []
    for p in sorted(set(factors)):
        q = p ** factors.count(p)
        out.append((p, q, (n // q) * pow(n // q, -1, q) % n))
    return tuple(out)


@dataclass(frozen=True)
class FormSubmodule:
    """Submodule of the alternating forms on a space, in canonical form.

    ``generators`` are Howell-form rows of flattened coefficient vectors
    (upper_index_pairs order) over Z/r, so two values are equal iff they are
    the same submodule.  ``order`` counts the forms in the span and divides
    r^(g(2g-1)).
    """

    space: SymplecticSpace
    generators: tuple[tuple[int, ...], ...]
    order: int

    @classmethod
    def from_rows(cls, space: SymplecticSpace, rows) -> FormSubmodule:
        # converted once: howell_form keeps its own input check, and the
        # order is read off the pivots of the form it returns
        r = space.r
        H = howell_form(_form_rows(space, rows), r)
        return cls(space, tuple(map(tuple, H.tolist())), _span_order(H, r))

    @classmethod
    def from_forms(cls, space: SymplecticSpace, forms) -> FormSubmodule:
        return cls.from_rows(space, [f.vector() for f in forms])

    @classmethod
    def full(cls, space: SymplecticSpace) -> FormSubmodule:
        # the identity is its own Howell form
        m = space.form_rank
        identity = tuple(map(tuple, np.eye(m, dtype=np.int64).tolist()))
        return cls(space, identity, space.r**m)

    @classmethod
    def trivial(cls, space: SymplecticSpace) -> FormSubmodule:
        return cls(space, (), 1)

    @classmethod
    @cache
    def weil_span(cls, space: SymplecticSpace) -> FormSubmodule:
        # e is 1 at (a_1, b_1), index 0: the one row is its own Howell form;
        # built once per space, since every floor check compares with it
        return cls(space, (weil_form(space).vector(),), space.r)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @cached_property
    def _matrix(self) -> np.ndarray:
        """The generators as a read-only k x m int64 matrix."""
        H = _form_rows(self.space, self.generators)
        H.flags.writeable = False
        return H

    def contains_vector(self, vec) -> bool:
        row = _form_rows(self.space, [vec])
        return not howell_reduce(self._matrix, row, self.space.r).any()

    def contains(self, form: AltForm) -> bool:
        if form.space != self.space:
            raise ValueError("form lives on a different space")
        return self.contains_vector(form.vector())

    def is_submodule_of(self, other: FormSubmodule) -> bool:
        if other.space != self.space:
            raise ValueError("submodules of different spaces")
        return not howell_reduce(other._matrix, self._matrix, self.space.r).any()

    def vectors(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[tuple[int, ...]]:
        """Every coefficient vector in the span, sorted.

        ``CapExceededError`` when the span has more than ``cap`` forms.
        """
        if self.order > cap:
            raise CapExceededError(f"span of {self.order} forms exceeds cap {cap}")
        return howell_span(self._matrix, self.space.r)

    def forms(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[AltForm]:
        return [AltForm.from_vector(self.space, v) for v in self.vectors(cap)]


def _form_rows(space: SymplecticSpace, rows) -> np.ndarray:
    """``rows`` as an s x m matrix over Z/r, m the form rank (0 x m if empty).

    ``DimensionMismatchError`` for any other shape, so no rows are glued.
    """
    return _residues(rows, space.r, space.form_rank)


# ---------------------------------------------------------------------------
# constraint machinery


def _minor_rows(X: np.ndarray, Y: np.ndarray, r: int) -> np.ndarray:
    """Constraint rows x_i y_j - x_j y_i (i < j) mod r of the pairs (x, y),
    x and y the rows of X and Y broadcast against each other."""
    I, J = _upper_pairs(X.shape[-1])
    return (X[..., I] * Y[..., J] - X[..., J] * Y[..., I]) % r


def _generator_rows(space: SymplecticSpace, subgroups) -> np.ndarray:
    """Constraint rows of the pairs of canonical generators of each of
    ``subgroups``, stacked: one conversion and one ``_minor_rows`` for all
    the subgroups with the same number of canonical generators."""
    groups = {}
    for subgroup in subgroups:
        gens = subgroup.canonical_generators
        groups.setdefault(len(gens), []).extend(gens)
    rows = [np.zeros((0, space.form_rank), dtype=np.int64)]
    for d, gens in groups.items():
        if d < 2:
            continue
        # (Z/r)^(2g) is homocyclic: canonical generators are already coordinates
        G = _residues(gens, space.r, space.dim).reshape(-1, d, space.dim)
        a, b = _upper_pairs(d)
        rows.append(_minor_rows(G[:, a], G[:, b], space.r).reshape(-1, space.form_rank))
    return np.concatenate(rows)


def _cut(
    space: SymplecticSpace, rows, sub: FormSubmodule | None = None
) -> FormSubmodule:
    """The forms of ``sub`` (of every form when ``None``) that each row kills.

    With K the generators of ``sub`` and N the rows, entries in [0, r), that
    is {c K : (N K^T) c = 0}: one Howell form and one kernel of the s x k
    matrix N K^T, both products through ``_matmul_mod`` (N itself when
    ``sub`` is ``None``; no identity K is built).  ``sub`` comes back
    unchanged when N K^T = 0.  Cutting by N1 and then N2 is cutting by them
    stacked.
    """
    r = space.r
    N = _form_rows(space, rows)
    if sub is None:
        K, P = None, N
    else:
        K = sub._matrix
        P = _matmul_mod(N, K.T, r)
        if not P.any():
            return sub
    C = howell_kernel(howell_form(P, r), r)
    return FormSubmodule.from_rows(space, C if K is None else _matmul_mod(C, K, r))


def _witness_pairs(space: SymplecticSpace) -> tuple[np.ndarray, np.ndarray]:
    """The paper's witness pairs (a_i, a_j), (b_i, b_j), (a_i, b_j), (a_j, b_i)
    and (a_i + a_j, b_i - b_j), i < j, as int64 arrays X, Y over Z/r: row k
    of X pairs with row k of Y.  There are 5g(g - 1)/2, none at g = 1.
    """
    E = np.eye(space.dim, dtype=np.int64)
    a, b = E[0::2], E[1::2]
    I, J = _upper_pairs(space.g)
    X = np.concatenate([a[I], b[I], a[I], a[J], a[I] + a[J]])
    Y = np.concatenate([a[J], b[J], b[J], b[I], (b[I] - b[J]) % space.r])
    return X, Y


def compute_G(
    space: SymplecticSpace,
    mode: str = MODE_ALL_PAIRS,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> FormSubmodule:
    """Forms vanishing wherever the standard pairing vanishes.

    ``all-pairs`` constrains by every pair (x, y) with e(x, y) = 0;
    ``primitive-pairs`` only by those pairs whose span is (Z/r)^2.

    Both are the cut of every form by the minor rows of the witness pairs
    W (``_witness_pairs``), verified to be span(e) with no kernel solved
    (``_cut_to_floor``: one Howell form of the rows for the cut's order,
    one product for containment).  Each pair of W is isotropic with a
    unit minor, so W lies in the selected pairs of either mode, and a
    form that kills W vanishes on every pair of basis vectors but the
    (a_i, b_i), where it takes one value: the cut is span(e).  Every
    isotropic pair is killed by e, so span(e) <= G <= cut(W) = span(e)
    in both modes.  A cut of any other value is a bug (``RuntimeError``
    naming the mode, g, r, the cut's order and a generator outside
    span(e), or e if the cut is smaller).
    No group element is listed: the cap is charged with the witness
    pairs, ``CapExceededError`` when there are more than ``cap``, after
    ``ModulusTooLargeError`` for r > 2^31 (``_check_modulus``).
    """
    if mode not in (MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS):
        raise ValueError(f"unknown mode {mode!r}")
    r = space.r
    _check_modulus(r)
    if (pairs := 5 * space.g * (space.g - 1) // 2) > cap:
        raise CapExceededError(f"{pairs} witness pairs exceed cap {cap}")
    return _cut_to_floor(
        space,
        _minor_rows(*_witness_pairs(space), r),
        FormSubmodule.weil_span(space),
        f"the {mode} witness pairs at g = {space.g}, r = {r}",
    )


def _cut_to_floor(
    space: SymplecticSpace, rows, floor: FormSubmodule, where: str
) -> FormSubmodule:
    """``floor``, span(e) or {0}, once it is verified to be the forms that
    every row kills: no kernel is solved.  With N the rows over Z/r and m
    the form rank, |ker N| |span N| = r^m (Smith form), so the floor is
    ker N by value iff r^m / |span N|, read off one Howell form of N, is
    the floor's order and N kills the floor's generators (N floor^T = 0).
    A miss is a bug: only then is the cut built (``_cut``), for a
    ``RuntimeError`` naming ``where``, the cut's order and a generator of
    the cut outside the floor, or e if there is none (the cut lies below
    span(e)); a cut that is the floor after all is reported as such."""
    r, N = space.r, _form_rows(space, rows)
    if (
        r**space.form_rank // _span_order(howell_form(N, r), r) == floor.order
        and not _matmul_mod(N, floor._matrix.T, r).any()
    ):
        return floor
    cut = _cut(space, N)
    if cut == floor:
        raise RuntimeError(f"{where} cut to the floor, but the floor check missed it")
    outside = next((v for v in cut.generators if not floor.contains_vector(v)), None)
    if outside is None:
        why = f"e = {floor.generators[0]} is outside the cut"
    else:
        why = f"generator {outside} is outside {'span(e)' if floor.rank else '{0}'}"
    raise RuntimeError(f"{where} cut to {cut.order} forms: {why}")


def restriction_kernel(space: SymplecticSpace, subgroup: Subgroup) -> FormSubmodule:
    """Forms whose restriction to the subgroup vanishes identically.

    Constraints on a generating set suffice: an alternating bilinear form
    vanishes on A x A iff it vanishes on all pairs of generators of A.
    """
    if subgroup.parent != space.group:
        raise ValueError("subgroup does not sit in the space's module")
    return _cut(space, _generator_rows(space, [subgroup]))


class BicyclicFamily:
    """Deduplicated family of (Z/r)^2 subgroups with per-member provenance.

    A family has up to three parts, in member order:

    1. the ``Subgroup`` members given by hand (``BicyclicFamily(space,
       members, provenance)``);
    2. an enumerator's chart (``_enumerate_bicyclics``), held as its tag
       and closed-form count alone, since the chart is a function of
       (space, tag): for each prime power q of r, the bases that
       ``_chart`` lists over Z/q, whose members are the CRT combinations
       of one basis per q, the first q's outermost;
    3. the chart bases of the pairs that ``with_pair`` added, in order.

    ``with_pair`` names the span of a pair by its chart basis
    (``_chart_key``), the one basis of it that the chart lists, and
    matches a member given by hand as the ``Subgroup`` it is.  ``size``,
    ``hash`` and the intersection need no member: ``members`` builds those
    of parts 2 and 3 from ``_bases`` on first read (``_members_of``), and
    only there is a chart listed whole (``_chart``) and its listed count
    checked against ``size``.  Families compare by (space, members,
    provenance), so a grown or enumerated family equals the family built
    by hand from its members, and hash by (space, size), which equal
    families share.  Two families with the same parts are equal with no
    member built; members are compared only when the parts differ.

    The intersection of the members' restriction kernels is computed on
    first use and cached (``bogomolov_intersection`` returns it).  A form
    kills span(x, y) iff it kills (x, y), so an added basis contributes
    one constraint row, its minor row, and a member given by hand the
    generator-pair rows of its canonical generators; a chart is cut by
    the rows of its block heads alone, written down (``_heads``), with no
    chart listed (``_intersection``).
    """

    def __init__(self, space: SymplecticSpace, members, provenance):
        members, provenance = tuple(members), tuple(provenance)
        if len(members) != len(provenance):
            raise ValueError("one provenance tag per member")
        self.space = space
        self._given, self._given_tags = members, provenance
        self._tag, self._count = "", 0
        self._added = ()

    @property
    def size(self) -> int:
        """The number of members, a Python int: the members given by hand,
        the chart's closed-form count and the added bases.  ``len``
        returns it too, but Python's ``len`` raises ``OverflowError`` past
        2^63 - 1, which a chart can pass (``all_bicyclics`` at g = 8,
        r = 9 has about 10^26 members)."""
        return len(self._given) + self._count + len(self._added)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other):
        if not isinstance(other, BicyclicFamily):
            return NotImplemented
        if (self.space, self.size) != (other.space, other.size):
            return False
        # equal parts hold equal members and provenance, with none built
        parts = (self._given, self._given_tags, self._tag, self._added)
        if parts == (other._given, other._given_tags, other._tag, other._added):
            return True
        return (self.members, self.provenance) == (other.members, other.provenance)

    def __hash__(self):
        # what __eq__ compares first, so no member is built
        return hash((self.space, self.size))

    @cached_property
    def members(self) -> tuple[Subgroup, ...]:
        return self._given + _members_of(self.space, self._bases())

    @cached_property
    def provenance(self) -> tuple[str, ...]:
        added = ("user-supplied",) * len(self._added)
        return self._given_tags + (self._tag,) * self._count + added

    def _bases(self) -> np.ndarray:
        """The bases of parts 2 and 3 over Z/r, in member order, as one
        n x 2 x 2g array: every combination of one chart basis per q, each
        lifted by the CRT unit of q (1 mod q, 0 mod r / q) and summed mod r,
        the first q's bases outermost, then the added bases.  The one place
        a Z/r chart basis is formed, and the one reader of whole charts
        (``_chart``): a count of chart bases that differs from the closed
        form, ``_count``, is a bug (``RuntimeError`` naming the family, g
        and r)."""
        space, r, d = self.space, self.space.r, self.space.dim
        bases = np.zeros((1 if self._count else 0, 2, d), dtype=np.int64)
        if self._count:
            iso = self._tag == "isotropic-pair"
            prime_powers = _prime_powers(r)
            charts = [_chart(space, p, q, iso) for p, q, _ in prime_powers]
            if (listed := prod(map(len, charts))) != self._count:
                raise RuntimeError(
                    f"the {'isotropic' if iso else 'all'} bicyclic chart at "
                    f"g = {space.g}, r = {r} lists {listed} bases, not the "
                    f"{self._count} members of the closed form"
                )
            for (_, _, unit), chart in zip(prime_powers, charts):
                bases = ((bases[:, None] + unit * chart[None]) % r).reshape(-1, 2, d)
        added = np.array(self._added, dtype=np.int64).reshape(-1, 2, d)
        return np.concatenate([bases, added])

    @cached_property
    def _keys(self) -> frozenset:
        """The dedupe set of parts 1 and 3: the members given by hand, as
        ``Subgroup`` values, and the added chart bases.  Part 2 is its
        chart's definition (``_charted``)."""
        return frozenset(self._given) | frozenset(self._added)

    def _charted(self, key) -> bool:
        """Whether part 2 holds the summand with chart basis ``key``:
        ``all_bicyclics`` holds every (Z/r)^2 summand and
        ``isotropic_bicyclics`` those with e(x, y) = 0 mod r, since a span is
        isotropic iff its basis is."""
        if not self._count:
            return False
        if self._tag != "isotropic-pair":
            return True
        x, y = key
        e = sum(x[i] * y[i + 1] - x[i + 1] * y[i] for i in range(0, len(x), 2))
        return e % self.space.r == 0

    @cached_property
    def _intersection(self) -> FormSubmodule:
        """The parts cut in order from every form: the chart's floor is
        verified (``_cut_to_floor``), the other parts cut (``_cut``).

        Only ``_enumerate_bicyclics`` sets a chart, on an empty family, so
        parts 1 and 2 never coexist.  Part 1 is one cut by the stacked
        generator-pair rows of its members; ``ValueError`` names the first
        member that is not a subgroup of the space's module.  Part 2 is
        the chart's floor over Z/r: span(e) (``isotropic_bicyclics``) or
        {0} (``all_bicyclics``).  The floor kills every chart basis (an
        isotropic one has e(x, y) = 0), and for each prime power q one cut
        over ``SymplecticSpace(g, q)`` by the minor rows of the block
        heads (``_heads``), the first basis ``_chart`` lists for each
        pivot pair (c1, c2), the same at every q, reaches it:

        * all: the head is (e_c1, e_c2), whose minor row is the unit
          vector at (c1, c2), so the heads cut to {0};
        * isotropic, (c1, c2) not a pair (a_i, b_i): the head is
          (e_c1, e_c2), a unit row at every coefficient off the diagonal;
        * isotropic, (a_i, b_i) with i < g: the head is
          (a_i + b_g, b_i + a_g), whose row is e_(a_i b_i) - e_(a_g b_g)
          modulo the unit rows; (a_g, b_g) has no isotropic basis.

        So a form that kills the isotropic heads is 0 off the diagonal and
        constant on it, a multiple of e.  A form mod r is in the floor iff
        it is mod every q, so part 2 is the floor over Z/r once each q's
        heads are verified to cut to it, by one Howell form of their rows
        and one product, with no kernel solved (``_cut_to_floor``; a miss
        builds the cut and names the family, g, q, the cut's order and a
        generator outside the floor, or e if the cut lies below it).  The
        heads go through ``_residues``, which refuses q > 2^31 first.
        Part 3 is one cut by one minor row per added basis, since an added
        basis need not be isotropic.  A cut that cuts nothing costs one
        product.
        """
        space, r, sub = self.space, self.space.r, None
        if self._given:
            for k, member in enumerate(self._given):
                if member.parent != space.group:
                    raise ValueError(
                        f"member {k} ({self._given_tags[k]}) is a subgroup of "
                        f"{member.parent}, not of the space's module {space.group}"
                    )
            sub = _cut(space, _generator_rows(space, self._given))
        elif self._count:
            iso, g, d = self._tag == "isotropic-pair", space.g, space.dim
            floor = FormSubmodule.weil_span if iso else FormSubmodule.trivial
            heads, kind = [x + y for x, y in _heads(d, iso)], "isotropic" if iso else "all"
            for _, q, _ in _prime_powers(r):
                sq = space if q == r else SymplecticSpace(g, q)
                rows = _basis_rows(_residues(heads, q, 2 * d).reshape(-1, 2, d), q)
                where = f"the {kind} bicyclic heads at g = {g}, q = {q}"
                _cut_to_floor(sq, rows, floor(sq), where)
            sub = floor(space)
        if self._added:
            sub = _cut(space, _basis_rows(np.array(self._added, dtype=np.int64), r), sub)
        return sub if sub is not None else FormSubmodule.full(space)

    def with_pair(
        self, sigma: GroupElement, tau: GroupElement
    ) -> BicyclicFamily:
        """Family extended by the subgroup generated by a user-supplied pair.

        ``ValueError`` if sigma or tau is not an element of the space's
        module, then ``ModulusTooLargeError`` for r > 2^31, then
        ``ValueError`` unless the pair spans (Z/r)^2.  The pair is named by
        its chart basis (``_chart_key``, in Python ints), and this family
        comes back unchanged if it already holds that summand: the basis is
        an added one (``_keys``) or in the chart (``_charted``), or, when
        there are members given by hand, the member it spans
        (``_members_of``) is one of them, compared as a canonical
        ``Subgroup``.  Otherwise the grown family has this family's parts
        and the new basis added; no member or minor row is built until one
        is read.  If this family's intersection is already computed, the
        grown family's is seeded from it: this intersection cut by the new
        basis's one minor row, in place of cutting by every part.
        """
        space = self.space
        if sigma.parent != space.group or tau.parent != space.group:
            raise ValueError("generator belongs to a different group")
        _check_modulus(space.r)
        key = _chart_key(space, (sigma.coords, tau.coords))
        if key in self._keys or self._charted(key):
            return self
        if self._given and _members_of(space, np.array([key]))[0] in self._keys:
            return self
        grown = BicyclicFamily(space, self._given, self._given_tags)
        grown._tag, grown._count = self._tag, self._count
        grown._added, grown._keys = self._added + (key,), self._keys | {key}
        if "_intersection" in vars(self):
            rows = _basis_rows(np.array([key], dtype=np.int64), space.r)
            grown._intersection = _cut(space, rows, self._intersection)
        return grown


def _chart_key(space: SymplecticSpace, pair) -> tuple[tuple[int, ...], ...]:
    """The chart basis (x', y') of the (Z/r)^2 summand spanned by ``pair``
    = (x, y), coordinate sequences, in Python ints: for each prime power q
    of r, the one basis ``_chart`` lists for the summand mod q, lifted by
    the CRT unit of q as ``BicyclicFamily._bases`` lifts it.

    For each p, take the first minor (c1, c2) of the pair, in lexicographic
    (``upper_index_pairs``) order, that is a unit mod p: (c1, c2) are the
    pivot columns of the summand mod p, since the minors of any basis are a
    multiple of those of its reduced echelon basis.  The pair times the
    inverse a_q of its 2 x 2 block at (c1, c2), mod q, spans the same
    summand, is the identity at (c1, c2), and is the echelon basis mod p,
    so 0 mod p before its pivots: it is the chart basis mod q.  The blocks
    are combined first, A = sum of unit_q * a_q mod r, which is a_q mod
    every q, so the pair is mapped through A once, in one pass over its
    coordinates.  ``ValueError`` if some p has no unit minor (the pair
    spans no (Z/r)^2 summand).
    """
    r, (x, y) = space.r, pair
    a = b = c = d = 0
    for p, q, unit in _prime_powers(r):
        c1, c2, m = _unit_minor(x, y, p)
        # unit * (v mod q) = unit * v mod r, as unit is 0 mod r / q
        s = unit * pow(m, -1, q)
        a, b, c, d = a + y[c2] * s, b - x[c2] * s, c - y[c1] * s, d + x[c1] * s
    a, b, c, d = a % r, b % r, c % r, d % r
    return (
        tuple([(a * xk + b * yk) % r for xk, yk in zip(x, y)]),
        tuple([(c * xk + d * yk) % r for xk, yk in zip(x, y)]),
    )


def _unit_minor(x, y, p: int) -> tuple[int, int, int]:
    """(c1, c2, minor) of the first 2 x 2 minor of the pair (x, y), in
    lexicographic (``upper_index_pairs``) order, that is a unit mod the
    prime p; ``ValueError`` if there is none."""
    for c1 in range(len(x)):
        x1, y1 = x[c1], y[c1]
        for c2 in range(c1 + 1, len(x)):
            m = x1 * y[c2] - x[c2] * y1
            if m % p:
                return c1, c2, m
    raise ValueError("pair does not generate a (Z/r)^2 subgroup")


def _basis_rows(B: np.ndarray, r: int) -> np.ndarray:
    """Minor rows of the bases B, an n x 2 x 2g array over Z/r."""
    return _minor_rows(B[:, 0], B[:, 1], r)


def _members_of(space: SymplecticSpace, B: np.ndarray) -> tuple[Subgroup, ...]:
    """The members spanned by the chart bases B (n x 2 x 2g over Z/r), in
    order, in canonical form.

    Let u be the first nonzero minor of a basis (x, y), at (c1, c2).  If u
    is a unit, it is one mod every p, so (c1, c2) are the basis's pivot
    columns mod every q: x_c1 = y_c2 = 1 and x_c2 = y_c1 = 0.  Its entries
    x_j (j < c1) and y_j (j < c2) are minors before (c1, c2), up to sign,
    hence 0.  So the basis is its own Howell form, at any r.  Only a basis
    whose first nonzero minor is not a unit goes through ``howell_form``.
    """
    r, members = space.r, []
    for xy, minors in zip(B.tolist(), _basis_rows(B, r).tolist()):
        if gcd(next(filter(None, minors)), r) != 1:
            xy = howell_form(xy, r).tolist()
        members.append(Subgroup(space.group, tuple(map(tuple, xy)), r * r))
    return tuple(members)


def _heads(d: int, isotropic: bool) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The head of each pivot block (c1, c2) of a chart of (Z/q)^d, its
    first basis in member order (``_chart``), in pivot order, the same at
    every q: (e_c1, e_c2), the block's basis with every free entry 0.  An
    isotropic head must have e(x, y) = 0, which only the pairs (a_i, b_i)
    break: for i < g the first isotropic x is a_i + b_g, the last free
    entry set to 1, and its first isotropic y is b_i + a_g; (a_g, b_g) has
    no isotropic basis, since every entry before its pivots is a multiple
    of p, so e(x, y) = 1 mod p."""
    heads = []
    for c1, c2 in combinations(range(d), 2):
        x, y = [0] * d, [0] * d
        x[c1] = y[c2] = 1
        if isotropic and c2 == c1 ^ 1:
            if c2 == d - 1:
                continue
            x[d - 1] = y[d - 2] = 1
        heads.append((tuple(x), tuple(y)))
    return heads


# the most (x, y) pairs one step of ``_chart`` tests for isotropy at once
_STEP = 1 << 20


def _chart(space: SymplecticSpace, p: int, q: int, isotropic: bool) -> np.ndarray:
    """Bases (x, y) of the free rank-2 summands of (Z/q)^(2g), q = p^k, one
    per summand (isotropic ones only when ``isotropic``), in member order,
    as one n x 2 x 2g array: by pivot pair (c1, c2), then x, then y, each
    lexicographic, last coordinate fastest.  Only
    ``BicyclicFamily._bases``, for ``members``, lists a chart.

    Reduced mod p, a summand is a plane with pivot columns c1 < c2, and it
    has exactly one basis with x_c1 = y_c2 = 1, x_c2 = y_c1 = 0, x_j = 0
    mod p for j < c1 and y_j = 0 mod p for j < c2; every other entry is
    free.  That is the Schubert-cell chart of Gr(2, 2g) read over Z/q.

    A block's X and Y are built from their entry ranges, and an isotropic
    block keeps the pairs with X C Y^T = 0 mod q, C the pairing's matrix
    mod q, taking X in steps of at most ``_STEP`` pairs, so that no
    product outgrows a fixed size however large the block.
    """
    d = space.dim
    C = weil_form(space).full_matrix() % q

    def rows(c: int, z: int) -> np.ndarray:
        # 1 at c, 0 at z, a multiple of p before c, anything after
        entries = [
            np.array([int(j == c)]) if j in (c, z) else np.arange(0, q, p if j < c else 1)
            for j in range(d)
        ]
        return np.stack(np.meshgrid(*entries, indexing="ij"), axis=-1).reshape(-1, d)

    blocks = []
    for c1, c2 in combinations(range(d), 2):
        X, Y = rows(c1, c2), rows(c2, c1)
        if not isotropic:
            blocks.append(np.stack([X.repeat(len(Y), 0), np.tile(Y, (len(X), 1))], 1))
            continue
        XC, step = _matmul_mod(X, C, q), max(1, _STEP // len(Y))
        for s in range(0, len(X), step):
            i, j = np.nonzero(_matmul_mod(XC[s : s + step], Y.T, q) == 0)
            blocks.append(np.stack([X[s + i], Y[j]], 1))
    return np.concatenate(blocks)


def _enumerate_bicyclics(
    space: SymplecticSpace, isotropic_only: bool, cap: int
) -> BicyclicFamily:
    """The family of the chart of each prime power q = p^k exactly
    dividing r, kept as part 2 of a ``BicyclicFamily``: its tag and its
    closed-form member count, which is its ``size``.  Nothing is listed:
    the cut reads the written-down head of each of q's pivot blocks alone
    (``_heads``), and ``members`` lists the chart whole (``_chart``),
    checking its count there.

    The cap is charged with the closed-form member count
    (``CapExceededError`` past it).
    """
    r, g, n = space.r, space.g, space.dim
    iso = int(isotropic_only)
    count = 1
    for p, q, _ in _prime_powers(r):
        # F_p^n has (p^n - 1)(p^(n-1) - 1) / ((p - 1)(p^2 - 1)) planes, with
        # p^(n-2) for p^(n-1) the isotropic ones (none at g = 1); each lifts
        # to p^((k-1)d) summands over Z/q, d = 4g - 4, or 4g - 5 if isotropic
        planes = (p**n - 1) * (p ** (n - 1 - iso) - 1) // ((p - 1) * (p * p - 1))
        count *= planes * (q // p) ** (4 * g - 4 - iso) if planes else 0
    if count > cap:
        raise CapExceededError(f"family of {count} members exceeds cap {cap}")
    family = BicyclicFamily(space, (), ())
    family._count = count
    family._tag = "isotropic-pair" if isotropic_only else "bicyclic-pair"
    return family


def isotropic_bicyclics(
    space: SymplecticSpace, cap: int = DEFAULT_ENUMERATION_CAP
) -> BicyclicFamily:
    """All subgroups generated by a pair (x, y) with span (Z/r)^2 and
    e(x, y) = 0, each listed once, straight from the Grassmannian chart
    (``_enumerate_bicyclics``): one basis per member, no element pairs.
    There are about r^{4g-5} members, and the cap is charged with their
    exact count before any is listed (``CapExceededError`` past it)."""
    return _enumerate_bicyclics(space, isotropic_only=True, cap=cap)


def all_bicyclics(
    space: SymplecticSpace, cap: int = DEFAULT_ENUMERATION_CAP
) -> BicyclicFamily:
    """Every (Z/r)^2 subgroup, isotropically generated or not."""
    return _enumerate_bicyclics(space, isotropic_only=False, cap=cap)


def bogomolov_intersection(
    space: SymplecticSpace,
    family: BicyclicFamily | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> FormSubmodule:
    """Intersection of restriction kernels over a family of bicyclic subgroups.

    With an explicit family, every form is cut by each part of the family
    in turn (an empty family leaves the whole form module): the stacked
    generator-pair rows of the members given by hand, or an enumerator's
    chart, whose intersection is its floor, span(e) or {0}, verified for
    each prime power q of r from the minor rows over Z/q of at most
    form_rank block heads, written down in closed form: one Howell form
    of those rows and one product, with no kernel solved
    (``BicyclicFamily._intersection``); then one minor row per basis
    ``with_pair`` added.  No chart is listed, so a family far past the
    default cap, enumerated with a raised cap, costs one small check per q.
    The intersection is computed on first use and cached on the family, so
    a second call costs nothing, and a family grown by ``with_pair`` after
    an intersection costs one small cut of the cached one by the new
    basis's row.  ``cap`` is unused with an explicit family: its enumerator
    already charged it.  ``ValueError`` if the family belongs to another
    space or holds a subgroup of another module.

    With ``family=None`` the isotropic bicyclic family is never
    materialized.  A member contributes exactly the constraint of one
    generating pair, since on a bicyclic subgroup a form is determined by
    its value on any generating pair up to units, so this G' is the
    primitive-pairs G and is computed as such: the witness pairs' cut,
    verified to be span(e) (``compute_G``).
    """
    if family is None:
        return compute_G(space, MODE_PRIMITIVE_PAIRS, cap)
    if family.space != space:
        raise ValueError("family belongs to a different space")
    return family._intersection


@dataclass(frozen=True)
class InclusionReport:
    """Machine-readable summary of the main inclusion checks for one space.

    G refers to compute_G (per mode), G' to the intersection of isotropic
    bicyclic restriction kernels over the implicit family
    (``bogomolov_intersection(space, None)``), and the span of the standard
    pairing e is the expected value of both.  ``compute_G`` is the same
    witness cut in either mode, and that G' is the primitive-pairs G, so one
    cut is computed and reported under all three names: the subset flags
    hold by construction, and the explicit family route of
    ``bogomolov_intersection`` is the independent check of G'.
    """

    g: int
    r: int
    form_rank: int
    weil_span_order: int
    g_order_all_pairs: int | None
    g_order_primitive_pairs: int | None
    gprime_order: int
    e_in_gprime: bool
    gprime_subset_g_all: bool | None
    gprime_subset_g_primitive: bool | None
    g_all_equals_weil_span: bool | None
    g_primitive_equals_weil_span: bool | None
    gprime_equals_weil_span: bool

    def as_dict(self) -> dict:
        """A new ``{field: value}`` dict, in field order.  Every field is a
        scalar, so this equals ``dataclasses.asdict`` without its recursive
        deep copy."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def inclusion_flags(self) -> dict[str, bool]:
        """The pass/fail flags that gate an overall verification run."""
        flags = {"e_in_gprime": self.e_in_gprime}
        for name in (
            "gprime_subset_g_all",
            "gprime_subset_g_primitive",
            "g_all_equals_weil_span",
            "g_primitive_equals_weil_span",
        ):
            value = getattr(self, name)
            if value is not None:
                flags[name] = value
        return flags


def verify_main_inclusions(
    space: SymplecticSpace,
    cap: int = DEFAULT_ENUMERATION_CAP,
    mode: str = "both",
) -> InclusionReport:
    """Run the inclusion checks on one space and report every outcome."""
    if mode not in ("both", MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS):
        raise ValueError(f"unknown mode {mode!r}")
    e_span = FormSubmodule.weil_span(space)
    # both modes of G are the same witness cut, and the implicit-family G'
    # is the primitive-pairs G: one cut, so one of each flag, serves all three
    gprime = compute_G(space, MODE_PRIMITIVE_PAIRS, cap)
    subset, equal = gprime.is_submodule_of(gprime), gprime == e_span
    has_all = mode in ("both", MODE_ALL_PAIRS)
    has_prim = mode in ("both", MODE_PRIMITIVE_PAIRS)
    return InclusionReport(
        g=space.g,
        r=space.r,
        form_rank=space.form_rank,
        weil_span_order=e_span.order,
        g_order_all_pairs=gprime.order if has_all else None,
        g_order_primitive_pairs=gprime.order if has_prim else None,
        gprime_order=gprime.order,
        e_in_gprime=gprime.contains_vector(e_span.generators[0]),
        gprime_subset_g_all=subset if has_all else None,
        gprime_subset_g_primitive=subset if has_prim else None,
        g_all_equals_weil_span=equal if has_all else None,
        g_primitive_equals_weil_span=equal if has_prim else None,
        gprime_equals_weil_span=equal,
    )
