"""The three benchmark workloads: inputs drawn from a seed, the ops that call
brauerkit, and a check of every result against values derived here.

No expected value is obtained by a second call into brauerkit.  Orders,
flags and cover counts come from closed forms, member counts are pinned,
and the canonical generator of span(e) is written down from the basis
convention (a_i, b_i are coordinates 2i-2, 2i-1; coefficients are
flattened over index pairs i < j in lexicographic order).

Ops call the library through module attributes (``brauer.compute_G``, not a
name imported here) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from math import gcd

from brauerkit import brauer, cli, sympl

SCAN_POINTS = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4))
SCAN_D = (0, 1, 2)
SCAN_FLAGS = (
    "e_in_gprime",
    "gprime_subset_g_all",
    "gprime_subset_g_primitive",
    "g_all_equals_weil_span",
    "g_primitive_equals_weil_span",
    "gprime_equals_weil_span",
)

# Member counts of the explicit families, as read at the seed commit.  For
# prime r they equal the closed forms checked in _family_count_closed_form.
FAMILY_MEMBERS = {
    ("isotropic", 2, 2): 15,
    ("all", 2, 2): 35,
    ("isotropic", 2, 3): 40,
    ("all", 2, 3): 130,
    ("isotropic", 2, 4): 120,
    ("all", 2, 4): 560,
    ("isotropic", 3, 2): 315,
    ("all", 3, 2): 651,
    ("isotropic", 2, 5): 156,
}

WITNESS_GENERA = (3, 4, 6, 8)
# 12 is composite; 2^31 - 1 is the largest modulus whose square fits in int64;
# 10^12 + 39 is beyond it, where every op raises at the seed commit because
# howell_form wraps int64 and with_pair rejects a bicyclic pair.
WITNESS_MODULI = (12, 97, 2**31 - 1, 10**12 + 39)
WITNESS_REPEATS = 7  # 7 ops per (g, r): 112 ops per pass


class OpFailed(Exception):
    """An op returned a value that contradicts the independently known one."""


def pairing_vector(g: int) -> tuple[int, ...]:
    """Coefficient vector of the standard pairing e, one entry per i < j."""
    dim = 2 * g
    return tuple(
        int(i % 2 == 0 and j == i + 1) for i in range(dim) for j in range(i + 1, dim)
    )


def _expect(cond: bool, what: str):
    if not cond:
        raise OpFailed(what)


def _check_weil_span(sub, g: int, r: int, where: str):
    _expect(sub.order == r, f"{where}: order {sub.order}, want {r}")
    _expect(
        sub.generators == (pairing_vector(g),),
        f"{where}: generators {sub.generators} are not span(e)",
    )


def _check_trivial(sub, where: str):
    _expect(sub.order == 1 and sub.generators == (), f"{where}: order {sub.order}, want 1")


# ---------------------------------------------------------------------------
# scan: the `brauerkit table` path


class ScanOp:
    def __init__(self, g: int, r: int, outdir: str):
        self.name = f"scan g={g} r={r}"
        self.g, self.r = g, r
        self.path = os.path.join(outdir, f"table-g{g}-r{r}.json")
        self.argv = ["table", "--g", str(g), "--r", str(r), "--out", self.path]

    def run(self):
        return cli.main(self.argv)

    def check(self, exit_code) -> str:
        """Verify the report; return its digest, which must repeat exactly."""
        g, r = self.g, self.r
        _expect(exit_code == 0, f"{self.name}: exit code {exit_code}")
        with open(self.path, "rb") as fh:
            data = fh.read()
        records = json.loads(data)["records"]
        _expect(
            [(rec["g"], rec["r"], rec["d"]) for rec in records]
            == [(g, r, d) for d in SCAN_D],
            f"{self.name}: unexpected record keys",
        )
        for rec in records:
            d = rec["d"]
            where = f"{self.name} d={d}"
            _expect(rec["status"] == "ok", f"{where}: status {rec['status']}")
            _expect(rec["form_rank"] == g * (2 * g - 1), f"{where}: form_rank")
            for key in (
                "weil_span_order",
                "g_order_all_pairs",
                "g_order_primitive_pairs",
                "gprime_order",
            ):
                _expect(rec[key] == r, f"{where}: {key} = {rec[key]}, want {r}")
            for flag in SCAN_FLAGS:
                _expect(rec[flag] is True, f"{where}: {flag} = {rec[flag]}")
            _expect(rec["prym_components"] == r, f"{where}: prym_components")
            _expect(rec["quotient_components"] == gcd(r, d), f"{where}: quotient")
            _expect(rec["l"] == gcd(r, d), f"{where}: l")
            _expect(rec["twist_exponent"] == r * (r - 1) // 2 % r, f"{where}: twist")
        return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# family: explicit bicyclic families


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _family_count_closed_form(kind: str, g: int, q: int) -> int:
    """Planes in F_q^(2g): all of them, or the isotropic ones."""
    if kind == "all":
        return _gaussian_binomial(2 * g, 2, q)
    return _gaussian_binomial(g, 2, q) * (q**g + 1) * (q ** (g - 1) + 1)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, int(n**0.5) + 1))


def _check_pinned_counts():
    for (kind, g, r), count in FAMILY_MEMBERS.items():
        if _is_prime(r) and _family_count_closed_form(kind, g, r) != count:
            raise AssertionError(f"pinned member count {kind} g={g} r={r} is wrong")


class FamilyOp:
    def __init__(self, kind: str, g: int, r: int):
        self.name = f"family {kind} g={g} r={r}"
        self.kind, self.g, self.r = kind, g, r

    def run(self):
        space = sympl.SymplecticSpace(g=self.g, r=self.r)
        enumerate_family = (
            brauer.isotropic_bicyclics if self.kind == "isotropic" else brauer.all_bicyclics
        )
        family = enumerate_family(space)
        return len(family), brauer.bogomolov_intersection(space, family)

    def check(self, result) -> str:
        members, inter = result
        want = FAMILY_MEMBERS[(self.kind, self.g, self.r)]
        _expect(members == want, f"{self.name}: {members} members, want {want}")
        if self.kind == "isotropic":
            _check_weil_span(inter, self.g, self.r, self.name)
        else:
            _check_trivial(inter, self.name)
        return repr((members, inter.generators))


# ---------------------------------------------------------------------------
# witness: certificate-style families built from explicit pairs


def _pair(x, y, r: int) -> int:
    """e(x, y) mod r in plain integers."""
    return sum(x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i] for i in range(len(x) // 2)) % r


def _generates_rank_two_summand(x, y, r: int) -> bool:
    """Whether (x, y) spans (Z/r)^2: the 2x2 minors generate the unit ideal."""
    acc = r
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            acc = gcd(acc, x[i] * y[j] - x[j] * y[i])
            if acc == 1:
                return True
    return False


def _witness_pairs(g: int):
    """The 5g(g-1)/2 isotropic bicyclic witness pairs, then (a_1, b_1).

    A vector is given as its nonzero (coefficient, coordinate) terms.
    """
    pairs = []
    for i in range(g):
        ai, bi = 2 * i, 2 * i + 1
        for j in range(i + 1, g):
            aj, bj = 2 * j, 2 * j + 1
            pairs += [
                (((1, ai),), ((1, aj),)),
                (((1, bi),), ((1, bj),)),
                (((1, ai),), ((1, bj),)),
                (((1, aj),), ((1, bi),)),
                (((1, ai), (1, aj)), ((1, bi), (-1, bj))),
            ]
    return pairs, (((1, 0),), ((1, 1),))


def _draw_automorphism(g: int, r: int, rng: random.Random):
    """Seeded symplectic automorphism M, a product of 2g transvections
    x -> x + c e(x, v) v; returned as the images of the basis vectors."""
    dim = 2 * g
    transvections = [
        ([rng.randrange(r) for _ in range(dim)], rng.randrange(1, r)) for _ in range(dim)
    ]
    columns = []
    for k in range(dim):
        x = [int(i == k) for i in range(dim)]
        for v, c in transvections:
            t = c * _pair(x, v, r)
            x = [(xi + t * vi) % r for xi, vi in zip(x, v)]
        columns.append(x)
    return columns


class WitnessOp:
    def __init__(self, g: int, r: int, k: int, rng: random.Random):
        self.name = f"witness g={g} r={r} #{k}"
        self.g, self.r = g, r
        columns = _draw_automorphism(g, r, rng)

        def image(terms):
            return [sum(c * columns[j][i] for c, j in terms) % r for i in range(2 * g)]

        pairs, extra = _witness_pairs(g)
        self.images = [(image(x), image(y)) for x, y in pairs]
        self.extra = (image(extra[0]), image(extra[1]))

    def run(self):
        space = sympl.SymplecticSpace(g=self.g, r=self.r)
        family = brauer.BicyclicFamily(space, (), ())
        for x, y in self.images:
            family = family.with_pair(space.element(x), space.element(y))
        inter = brauer.bogomolov_intersection(space, family)
        equals_span = inter == brauer.FormSubmodule.weil_span(space)
        wider = family.with_pair(space.element(self.extra[0]), space.element(self.extra[1]))
        return len(family), inter, equals_span, len(wider), brauer.bogomolov_intersection(space, wider)

    def check(self, result) -> str:
        g, r = self.g, self.r
        for x, y in self.images:
            _expect(_pair(x, y, r) == 0, f"{self.name}: image pair is not isotropic")
            _expect(_generates_rank_two_summand(x, y, r), f"{self.name}: image pair not bicyclic")
        _expect(_pair(*self.extra, r) == 1, f"{self.name}: e(M a_1, M b_1) != 1")
        members, inter, equals_span, wider_members, wider = result
        want = 5 * g * (g - 1) // 2
        _expect(members == want, f"{self.name}: {members} members, want {want}")
        _check_weil_span(inter, g, r, self.name)
        _expect(equals_span is True, f"{self.name}: intersection != FormSubmodule.weil_span")
        _expect(wider_members == want + 1, f"{self.name}: extra pair not added")
        _check_trivial(wider, f"{self.name} with (M a_1, M b_1)")
        return repr((inter.generators, wider.generators))


def build(workload: str, seed: int, outdir: str) -> list:
    """The ops of one pass, in a seeded order."""
    rng = random.Random(seed)
    if workload == "scan":
        ops = [ScanOp(g, r, outdir) for g, r in SCAN_POINTS]
    elif workload == "family":
        _check_pinned_counts()
        ops = [FamilyOp(kind, g, r) for kind, g, r in FAMILY_MEMBERS]
    elif workload == "witness":
        ops = [
            WitnessOp(g, r, k, rng)
            for g in WITNESS_GENERA
            for r in WITNESS_MODULI
            for k in range(WITNESS_REPEATS)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
