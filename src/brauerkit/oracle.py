"""The naive oracle that ``brauerkit selftest`` and the tests check the
fast paths against: direct enumeration, direct formula evaluation,
additive closures grown one element at a time.  It imports the standard
library and numpy only, no brauerkit module, so it shares no canonical
form, solver or shortcut with the code it checks.
"""

from itertools import product

import numpy as np

__all__ = [
    "minor_vector",
    "pair_span_size",
    "solutions",
    "span_closure",
    "symplectic_value",
    "vanishing_forms",
]


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


def solutions(A, c, n: int, k: int) -> set[tuple[int, ...]]:
    """Every x in (Z/n)^k with A x = c mod n, each x tested in turn, in
    chunks of 2048; ``c`` has one entry per row of A, or is a scalar."""
    A = np.asarray(A, dtype=np.int64).reshape(len(A), k)
    X = np.array(list(product(range(n), repeat=k)), dtype=np.int64)
    kept: set[tuple[int, ...]] = set()
    for start in range(0, len(X), 2048):
        F = X[start : start + 2048]
        ok = ~((F @ A.T - c) % n).any(axis=1)
        kept.update(map(tuple, F[ok].tolist()))
    return kept


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
    return solutions(sorted(rows), 0, r, m)
