"""Independent reference computations used to pin expected test values.

Everything here is deliberately naive: direct enumeration, direct formula
evaluation, additive closures grown one element at a time.  No canonical
forms, no solvers, no shortcuts shared with the package under test.
"""

from itertools import permutations, product
from math import gcd, prod

import numpy as np


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


def span_closure(rows, n: int) -> set[tuple[int, ...]]:
    """Additive closure of the given rows in (Z/n)^k."""
    arr = np.asarray(rows, dtype=np.int64)
    k = arr.shape[1] if arr.ndim == 2 else (len(rows[0]) if len(rows) else 0)
    rows = [tuple(int(v) % n for v in row) for row in rows]
    zero = (0,) * k
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for row in rows:
            nxt = tuple((a + b) % n for a, b in zip(cur, row))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def torsion_counts(rows, n: int) -> dict[int, int]:
    """For each d | n, how many v in the span of ``rows`` over Z/n have
    d*v = 0, counted over the additive closure."""
    span = span_closure(rows, n)
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


def pair_span_size(x, y, r: int) -> int:
    """Number of distinct combinations a*x + b*y over Z/r."""
    return len(
        {
            tuple((a * xi + b * yi) % r for xi, yi in zip(x, y))
            for a in range(r)
            for b in range(r)
        }
    )


def symplectic_value(x, y, r: int) -> int:
    """Standard pairing sum of x_{2i} y_{2i+1} - x_{2i+1} y_{2i}."""
    g = len(x) // 2
    return sum(x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i] for i in range(g)) % r


def minor_vector(x, y, r: int) -> tuple[int, ...]:
    """All 2x2 minors (x_i y_j - x_j y_i) mod r, i < j in row order."""
    d = len(x)
    return tuple(
        (x[i] * y[j] - x[j] * y[i]) % r for i in range(d) for j in range(i + 1, d)
    )


def plucker_key(x, y, r: int) -> tuple[int, ...]:
    """The 2x2 minors of (x, y) up to a unit of Z/r: the least of the
    tuples u * minors mod r over the units u."""
    minors = minor_vector(x, y, r)
    return min(
        tuple(u * m % r for m in minors) for u in range(1, r) if gcd(u, r) == 1
    )


def count_k_solutions_brute(factors, k: int, target) -> int:
    total = 0
    for x in product(*(range(d) for d in factors)):
        if all((k * xi - t) % d == 0 for xi, t, d in zip(x, target, factors)):
            total += 1
    return total


def vanishing_forms(
    g: int, r: int, isotropic_only: bool = True, bicyclic_only: bool = False
) -> set[tuple[int, ...]]:
    """Exhaustive filter: coefficient vectors killed by every selected pair.

    A form vector c (one coefficient per index pair i < j) is kept iff
    sum_k c_k * minor_k(x, y) = 0 mod r for every unordered element pair
    (x, y) passing the isotropy / bicyclicity filters.  Cost is only
    sensible while r^(2g) stays in the low tens of thousands.
    """
    dim = 2 * g
    m = dim * (dim - 1) // 2
    elems = [list(t) for t in product(range(r), repeat=dim)]
    rows: set[tuple[int, ...]] = set()
    for i, x in enumerate(elems):
        for y in elems[i + 1 :]:
            if isotropic_only and symplectic_value(x, y, r):
                continue
            if bicyclic_only and pair_span_size(x, y, r) != r * r:
                continue
            rows.add(minor_vector(x, y, r))
    rows.discard((0,) * m)
    R = np.array(sorted(rows), dtype=np.int64).reshape(len(rows), m)
    forms = np.array(list(product(range(r), repeat=m)), dtype=np.int64)
    kept: set[tuple[int, ...]] = set()
    for start in range(0, len(forms), 2048):
        F = forms[start : start + 2048]
        if R.shape[0]:
            ok = ~((F @ R.T) % r).any(axis=1)
        else:
            ok = np.ones(len(F), dtype=bool)
        for v in F[ok]:
            kept.add(tuple(int(c) for c in v))
    return kept


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
    ones.  The count over Z/r is the product over prime powers p^k || r,
    found by trial division up to sqrt(r): what is left past it is prime.
    """
    powers, p = {}, 2
    while p * p <= r:
        while r % p == 0:
            r //= p
            powers[p] = powers.get(p, 0) + 1
        p += 1
    if r > 1:
        powers[r] = 1
    total = 1
    for p, k in powers.items():
        if isotropic:
            planes = gaussian_binomial(g, 2, p) * (p**g + 1) * (p ** (g - 1) + 1)
            d = 4 * g - 5
        else:
            planes = gaussian_binomial(2 * g, 2, p)
            d = 2 * (2 * g - 2)
        total *= planes * p ** ((k - 1) * d)
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


def halving_solution_counts(taus, m: int) -> list[int]:
    """For each tau in (Z/m)^k, how many x in (Z/m)^k have 2x + tau = 0,
    by one scan of every x against every tau."""
    T = np.asarray(taus, dtype=np.int64)
    k = T.shape[1]
    X = np.array(list(product(range(m), repeat=k)), dtype=np.int64)
    return ((2 * X[None] + T[:, None]) % m == 0).all(axis=2).sum(axis=1).tolist()
