"""Independent reference computations that only the tests use; the naive
oracle they share with ``brauerkit selftest`` is ``brauerkit.oracle``.

Everything here is as naive: direct enumeration, direct formula
evaluation, closed forms.  No canonical forms, no solvers, no shortcuts
shared with the package under test.
"""

from itertools import permutations, product
from math import gcd, prod

from brauerkit import oracle


def permutation_det(M) -> int:
    """Determinant by the Leibniz formula: the sum over every permutation
    of the product it picks, signed by its number of inversions; 1 for
    the 0 x 0 matrix."""
    M = [[int(v) for v in row] for row in M]
    n, total = len(M), 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(M[i][perm[i]] for i in range(n))
    return total


def element_order_brute(coords, factors) -> int:
    """Smallest k >= 1 with k*x = 0, found by repeated addition."""
    acc = tuple(c % d for c, d in zip(coords, factors))
    k = 1
    while any(acc):
        acc = tuple((a + c) % d for a, c, d in zip(acc, coords, factors))
        k += 1
    return k


def torsion_counts(rows, n: int) -> dict[int, int]:
    """For each d | n, how many v in the span of ``rows`` over Z/n have
    d*v = 0, counted over the additive closure."""
    span = oracle.span_closure(rows, n)
    return {
        d: sum(all(d * c % n == 0 for c in v) for v in span)
        for d in range(1, n + 1)
        if n % d == 0
    }


def rref_mod_prime(rows, p: int) -> list[list[int]]:
    """Reduced row echelon form over the field Z/p, in Python ints, zero rows
    dropped; over a prime modulus this is the Howell form."""
    rows = [[int(v) % p for v in row] for row in rows]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[col], -1, p)
        pivot = [v * inv % p for v in pivot]
        rows = [[(a - row[col] * b) % p for a, b in zip(row, pivot)] for row in rows]
        out = [[(a - row[col] * b) % p for a, b in zip(row, pivot)] for row in out]
        out.append(pivot)
    return out


def plucker_key(x, y, r: int) -> tuple[int, ...]:
    """The 2x2 minors of (x, y) up to a unit of Z/r: the least of the
    tuples u * minors mod r over the units u."""
    minors = oracle.minor_vector(x, y, r)
    return min(
        tuple(u * m % r for m in minors) for u in range(1, r) if gcd(u, r) == 1
    )


def count_k_solutions_brute(factors, k: int, target) -> int:
    total = 0
    for x in product(*(range(d) for d in factors)):
        if all((k * xi - t) % d == 0 for xi, t, d in zip(x, target, factors)):
            total += 1
    return total


def prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, q) for each prime p dividing n, ascending, q its power exactly
    dividing n, by trial division up to sqrt(n): what is left past it is
    prime."""
    out, p = [], 2
    while p * p <= n:
        q = 1
        while n % p == 0:
            n, q = n // p, q * p
        if q > 1:
            out.append((p, q))
        p += 1
    if n > 1:
        out.append((n, n))
    return out


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def bicyclic_count(g: int, r: int, isotropic: bool) -> int:
    """Number of (Z/r)^2 subgroups of (Z/r)^(2g), isotropic ones only when
    asked, from closed forms alone.

    Over F_p there are [2g choose 2]_p planes, of which [g choose 2]_p
    (p^g + 1)(p^(g-1) + 1) are isotropic.  A plane mod p lifts to
    p^((k-1) d) free summands over Z/p^k, d the dimension of the smooth
    scheme of planes: 2(2g - 2) for all of them, 4g - 5 for the isotropic
    ones.  The count over Z/r is the product over prime powers q = p^k || r.
    """
    total = 1
    for p, q in prime_powers(r):
        if isotropic:
            planes = gaussian_binomial(g, 2, p) * (p**g + 1) * (p ** (g - 1) + 1)
            d = 4 * g - 5
        else:
            planes = gaussian_binomial(2 * g, 2, p)
            d = 2 * (2 * g - 2)
        total *= planes * (q // p) ** d
    return total


def translation_orbit_count(r: int, d: int) -> int:
    """Orbits of x -> x + d on Z/r, each walked until it closes."""
    seen: set[int] = set()
    orbits = 0
    for x in range(r):
        if x in seen:
            continue
        orbits += 1
        while x not in seen:
            seen.add(x)
            x = (x + d) % r
    return orbits


def multiples_index(r: int, d: int) -> int:
    """Index of dZ/r in Z/r: r over the number of distinct multiples of d."""
    return r // len({k * d % r for k in range(r)})


def cyclic_hom_count(coords, factors, r: int) -> int:
    """Homomorphisms from the cyclic group generated by ``coords`` to Z/r,
    listed by the image y of the generator: k*coords -> k*y is well defined
    iff y is killed by the generator's order."""
    order = element_order_brute(coords, factors)
    return sum(1 for y in range(r) if order * y % r == 0)


def consecutive_sum_mod(r: int) -> int:
    """The sum of k over 0 <= k < r, taken mod r one term at a time."""
    total = 0
    for k in range(r):
        total = (total + k) % r
    return total
