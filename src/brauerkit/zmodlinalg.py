"""Exact dense linear algebra over Z and over Z/n.

Integer matrices are numpy arrays with ``dtype=object`` holding Python ints,
so the unimodular reductions never overflow no matter how the intermediate
entries grow.  The Smith form over Z serves
``finab.Subgroup.invariant_factors``; kernels come only from
``howell_kernel`` below.  Matrices over
Z/n are plain int64 arrays with every entry reduced into ``[0, n)``; the
modulus is passed alongside the matrix.  n need not be prime, which is why
row spans are canonicalized with the Howell form instead of Gaussian
elimination, and every Z/n routine runs on it.

The Howell form is built column by column (Howell 1986; Storjohann and
Mulders, ESA 1998): a pivot row clears its column in every other row in one
vectorized update, so the Python-level steps number the pivot columns.
``howell_form`` keeps its working matrix transposed, one C-contiguous row
per column, so that update, the reduction of the columns still to come and
the read of a column all run over contiguous memory; its input and output
are plain row-major matrices.  A column's pivot is its first unit when it
has one, and only a column with no unit pays for the gcd of its entries.
Kernels come from back-substitution on a Howell form (``howell_kernel``):
one step per pivot above 1, from the last, then one step for every unit
pivot at once, since a unit pivot's column is zero above it; ``solve_mod``
reads a particular solution off the kernel of [A | -c].  Its entries stay
in [0, n) between steps, so an update (a residue times a residue plus a
residue) is below n^2, and a row combination by extended gcds below
2(n-1)^2: exact in int64 while that is below 2^63, that is for n <= 2^31.
``howell_form`` delays its reduction mod n: a column step subtracts a term
in [0, (n-1)^2] from the entries it leaves unreduced, so after j steps
they lie in [-j(n-1)^2, n), and the whole matrix is reduced once j reaches
``_headroom(n)`` = (2^63 - 1 - n) // (n-1)^2, at least 2 for n <= 2^31.
That is the package's one int64 limit: every Z/n routine reads n as an int
(``_check_modulus``) and its input through ``_residues``, which raise
``ModulusTooLargeError`` for larger n rather than wrap around, and
products of residue matrices go through ``_matmul_mod``, summed in chunks
that stay below 2^63.  For n <= 2^15 the same bounds hold below 2^31, so
``howell_form`` keeps its working matrix in int32 there (``_work_dtype``),
whose update costs less, and returns int64 like every other routine.
"""

from __future__ import annotations

from math import gcd, prod
from operator import index

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "ModulusTooLargeError",
    "smith_normal_form",
    "det_int",
    "howell_form",
    "howell_reduce",
    "howell_span_order",
    "howell_span",
    "howell_kernel",
    "solve_mod",
]


class DimensionMismatchError(ValueError):
    """Operand shapes do not line up."""


class ModulusTooLargeError(ValueError):
    """The modulus is too large for exact int64 arithmetic: its int64
    headroom is below 2, that is n > 2^31."""


def as_int_matrix(M) -> np.ndarray:
    """Copy ``M`` into a fresh object-dtype array of Python ints, read
    through ``operator.index``, so a non-integer entry is a ``TypeError``."""
    A = np.asarray(M)
    if A.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {A.shape}")
    out = np.empty(A.shape, dtype=object)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            out[i, j] = index(A[i, j])
    return out


def _identity_obj(n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        out[i, i] = 1
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _smallest_nonzero(A: np.ndarray, t: int):
    """Position of a smallest-magnitude nonzero entry of A[t:, t:], or None."""
    best = None
    best_val = None
    for i in range(t, A.shape[0]):
        for j in range(t, A.shape[1]):
            v = A[i, j]
            if v and (best_val is None or abs(v) < best_val):
                best, best_val = (i, j), abs(v)
    return best


def _clear_pivot_column(A: np.ndarray, U: np.ndarray, t: int):
    """Zero A[t+1:, t] by unimodular row operations on A, repeated on U."""
    for i in range(t + 1, A.shape[0]):
        b = int(A[i, t])
        if not b:
            continue
        a = int(A[t, t])
        if b % a == 0:
            # plain elimination keeps the pivot row intact, so a clean pass
            # stays clean and the loop of smith_normal_form can terminate
            q = b // a
            A[i, :] = A[i, :] - q * A[t, :]
            U[i, :] = U[i, :] - q * U[t, :]
            continue
        g, s, u = _xgcd(a, b)
        row_t = s * A[t, :] + u * A[i, :]
        row_i = (-(b // g)) * A[t, :] + (a // g) * A[i, :]
        A[t, :], A[i, :] = row_t, row_i
        urow_t = s * U[t, :] + u * U[i, :]
        urow_i = (-(b // g)) * U[t, :] + (a // g) * U[i, :]
        U[t, :], U[i, :] = urow_t, urow_i


def smith_normal_form(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form over Z.

    Returns (U, D, V) with U @ M @ V == D, where U and V are unimodular
    (determinant +-1) and D is diagonal with nonnegative entries satisfying
    d1 | d2 | ... along the diagonal.
    """
    A = as_int_matrix(M)
    m, k = A.shape
    U = _identity_obj(m)
    V = _identity_obj(k)
    t = 0
    while t < min(m, k):
        piv = _smallest_nonzero(A, t)
        if piv is None:
            break
        i, j = piv
        if i != t:
            A[[t, i]] = A[[i, t]]
            U[[t, i]] = U[[i, t]]
        if j != t:
            A[:, [t, j]] = A[:, [j, t]]
            V[:, [t, j]] = V[:, [j, t]]
        while True:
            _clear_pivot_column(A, U, t)
            # transposes are views, so the row pass on (A.T, V.T) clears
            # the pivot row of A with column operations recorded in V
            _clear_pivot_column(A.T, V.T, t)
            if A[t + 1 :, t].any() or A[t, t + 1 :].any():
                continue
            bad = _find_nondivisible(A, t)
            if bad is None:
                break
            # fold an offending row into the pivot row so the next gcd pass
            # strictly shrinks the pivot
            A[t, :] = A[t, :] + A[bad, :]
            U[t, :] = U[t, :] + U[bad, :]
        t += 1
    for i in range(min(m, k)):
        if A[i, i] < 0:
            A[i, :] = -A[i, :]
            U[i, :] = -U[i, :]
    return U, A, V


def _find_nondivisible(A: np.ndarray, t: int):
    d = int(A[t, t])
    for i in range(t + 1, A.shape[0]):
        for j in range(t + 1, A.shape[1]):
            if A[i, j] % d:
                return i
    return None


def det_int(M) -> int:
    """Exact integer determinant via Bareiss fraction-free elimination."""
    A = as_int_matrix(M)
    n, nc = A.shape
    if n != nc:
        raise DimensionMismatchError(f"determinant of a {n}x{nc} matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(n - 1):
        if A[c, c] == 0:
            for i in range(c + 1, n):
                if A[i, c]:
                    A[[c, i]] = A[[i, c]]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                A[i, j] = (A[i, j] * A[c, c] - A[i, c] * A[c, j]) // prev
            A[i, c] = 0
        prev = A[c, c]
    return sign * int(A[n - 1, n - 1])


# ---------------------------------------------------------------------------
# Z/n


def _check_modulus(n) -> int:
    """n as an int, via ``operator.index`` (a float or a str: ``TypeError``);
    ``ModulusTooLargeError`` past 2^31, where the int64 headroom is below 2."""
    n = index(n)
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if _headroom(n) < 2:
        raise ModulusTooLargeError(
            f"modulus {n} is too large for exact int64 arithmetic (n <= 2^31)"
        )
    return n


def _residues(A, n: int, width: int | None = None) -> np.ndarray:
    """Caller input ``A`` as a fresh int64 matrix with entries in [0, n).

    Checks the modulus first.  Integers of any size are reduced exactly;
    other entries are a ``TypeError`` unless ``A`` is empty.
    ``DimensionMismatchError`` unless ``A`` is 2-d with ``width`` columns
    (any number when ``None``); an empty 1-d ``A`` is no rows of ``width``.
    """
    n = _check_modulus(n)
    M = np.asarray(A)
    if M.dtype != np.int64:
        if M.dtype.kind == "u":
            # reduced in uint64 first, which holds every n <= 2^31 (a small
            # dtype need not) and keeps entries above 2^63 exact
            M = M.astype(np.uint64) % np.uint64(n)
        elif not M.size:
            M = np.zeros(M.shape, dtype=np.int64)
        elif M.dtype.kind not in "bi":
            # numpy reads a list that mixes ints past 2^63 with small ones
            # as float64; read as objects, every int stays exact
            O = np.asarray(A, dtype=object)
            ints = (int, np.integer)
            bad = next((v for v in O.flat if not isinstance(v, ints)), None)
            if bad is not None:
                raise TypeError(
                    f"expected integer entries, got {type(bad).__name__} "
                    f"(dtype {M.dtype})"
                )
            M = O % n
        M = M.astype(np.int64)
    if width is not None and M.shape == (0,):
        M = M.reshape(0, width)
    if M.ndim != 2 or width not in (None, M.shape[1]):
        want = "a 2-d matrix" if width is None else f"rows of width {width}"
        raise DimensionMismatchError(f"expected {want}, got shape {M.shape}")
    return M % n


def _headroom(n: int, dtype=np.int64) -> int:
    """How many terms in [0, (n-1)^2] a residue in [0, n) can gain, or lose,
    and stay exact in ``dtype``: (2^63 - 1 - n) // (n - 1)^2 in int64, and
    (2^31 - 1 - n) // (n - 1)^2 in int32.

    In int64, two at n = 2^31, the largest modulus ``_check_modulus``
    accepts, 32 at 2^29 - 3 and about 10^15 at 97.  In int32, two at
    n = 2^15, one just past it and about 233,000 at 97.
    """
    top = 2**31 if dtype == np.int32 else 2**63
    return (top - 1 - n) // (n - 1) ** 2


def _work_dtype(n: int):
    """The dtype of ``howell_form``'s working matrix over Z/n: int32 while
    its headroom is at least 2, that is 2(n-1)^2 < 2^31 or n <= 2^15, the
    rule ``_check_modulus`` applies to int64 at 2^31; else int64."""
    return np.int32 if _headroom(n, np.int32) >= 2 else np.int64


def _matmul_mod(A: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """(A @ B) mod n for int64 matrices with entries in [0, n), exact.

    A term is below (n - 1)^2, so the inner dimension is summed in chunks of
    ``_headroom(n)`` terms, reduced mod n between chunks: one product at
    small n, two terms per step at n = 2^31.
    """
    n = _check_modulus(n)
    step = _headroom(n)
    out = A[:, :step] @ B[:step] % n
    for i in range(step, A.shape[1], step):
        out = (out + A[:, i : i + step] @ B[i : i + step]) % n
    return out


def _unit_multiplier(a: int, n: int) -> int:
    """A unit u mod n with u*a == gcd(a, n) (mod n).

    Needs 0 < a < n.  Exists because a/g is coprime to n/g; the inverse mod
    n/g is lifted to a unit mod n by stepping in multiples of n/g.
    """
    g = gcd(a, n)
    n1 = n // g
    u = pow((a // g) % n1, -1, n1)
    while gcd(u, n) != 1:
        u += n1
    return u % n


def howell_form(A, n: int) -> np.ndarray:
    """Canonical Howell form of the row span of ``A`` over Z/n.

    Two matrices over Z/n generate the same row span iff their Howell forms
    are identical, composite n included.  The result has strictly increasing
    pivot columns, every pivot divides n, and entries above a pivot are
    reduced modulo it.  A span of size s in (Z/n)^k comes out with pivots
    p_i such that s = prod(n // p_i).

    The working matrix is stored transposed, k x rows and C-contiguous, so
    a column of the matrix is one contiguous row of it and so is every row
    of the update below.  Columns go in increasing order, skipping those
    zero in every remaining row.  The pivot of column c has entry
    g = gcd(n, column): a unit times the first row with gcd(entry, n) = g,
    else a combination of rows by extended gcds.  That row is the first
    whose entry is a unit when there is one (g = 1, the quotients need no
    division); only a column with no unit has its gcd taken.  One update
    clears column c below it and reduces it above; its annihilator
    (n/g) * pivot joins the remaining rows.  The rows left past the last
    pivot are zero and are dropped once at the end.

    Reduction mod n is delayed.  Each step reduces only column c and the
    pivot row, so the update subtracts a quotient below n/g times a residue,
    a term in [0, (n-1)^2], and after j updates every entry lies in
    [-j(n-1)^2, n).  The whole matrix is reduced when j reaches
    ``_headroom(n, work)``, which keeps that exact in the working dtype,
    and before the steps that read more than column c: the extended-gcd
    combination, whose two products sum below 2(n-1)^2, and the skip of
    zero columns.  The working dtype is int32 for n <= 2^15, where that
    headroom is at least 2 and 2(n-1)^2 < 2^31, and int64 above
    (``_work_dtype``); the input is cast with the transpose copy and the
    output back to int64.  Column c itself needs no final reduction: the
    rows below lose exact multiples of g, and the rows above keep their
    residue mod g, which g | n makes that of their residue mod n.
    """
    # T is the working matrix transposed, C-contiguous: column c of the
    # matrix is the row T[c], and row i its column T[:, i]
    n = _check_modulus(n)
    M = _residues(A, n)
    work = _work_dtype(n)
    T = np.ascontiguousarray(M.T, dtype=work)
    k = T.shape[0]
    room = _headroom(n, work)
    # T[:, :t] holds the pivot rows found so far; T[:, t:] the remaining
    # rows, which are zero in every column before c; T[c:] has taken j
    # updates since it was last reduced
    t = c = j = 0
    while t < T.shape[1] and c < k:
        if j:
            # one remainder costs less than _reduce on a single column
            T[c] %= n
        vals = T[c, t:].tolist()
        if not any(vals):
            j = _reduce(T[c:], n, j)
            live = T[c:, t:].any(axis=1)
            if not live.any():
                break
            c += int(live.argmax())
            vals = T[c, t:].tolist()
        # a unit generates the whole ring, so the first unit is the first
        # row with gcd(entry, n) = gcd(n, column)
        g = 1
        h = next((i for i, v in enumerate(vals) if gcd(v, n) == 1), None)
        if h is None:
            g = gcd(n, *vals)
            h = next((i for i, v in enumerate(vals) if gcd(v, n) == g), None)
        if h is None:
            # no entry generates the column's ideal; s, u mod n keep the
            # products below (n-1)^2
            j = _reduce(T[c:], n, j)
            p = T[:, t]
            for r in T[:, t + 1 :].T:
                if gcd(int(p[c]), n) == g:
                    break
                _, s, u = _xgcd(int(p[c]), int(r[c]))
                p = ((s % n) * p + (u % n) * r) % n
            T = np.concatenate([T[:, :t], p[:, None], T[:, t:]], axis=1)
        else:
            # p (a unit times its row) replaces that row; row t moves there
            p = T[:, t + h] % n
            T[:, t + h] = T[:, t]
        a = int(p[c])
        if a != g:
            p = (_unit_multiplier(a, n) * p) % n
        # clear column c below slot t and reduce it above, each row losing
        # a quotient below n/g times p, a term in [0, (n-1)^2]; every row
        # of the update is contiguous.  Slot t then takes p.
        S = T[c:]
        S -= p[c:, None] * (S[:1] // g if g > 1 else S[:1])
        T[:, t] = p
        if g > 1:
            T = np.concatenate([T, ((n // g) * p % n)[:, None]], axis=1)
        t += 1
        c += 1
        j += 1
        if j == room:
            j = _reduce(T[c:], n, j)
    # every row past t is zero: each column was cleared below its pivot
    return np.ascontiguousarray((T[:, :t] % n).T, dtype=np.int64)


def _reduce(S: np.ndarray, n: int, j: int) -> int:
    """Reduce the integer block ``S`` into [0, n) in place unless it has taken
    no update (j = 0) since its last reduction; 0, the count after it."""
    if j:
        S -= (S // n) * n
    return 0


def _pivots(H: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pivot columns and pivots of the rows of ``H``, entries in [0, n).

    ``ValueError`` unless every row is nonzero, the pivot columns strictly
    increase and each pivot divides n: the shape of a Howell form.
    """
    nonzero = H != 0
    if not nonzero.any(axis=1).all():
        raise ValueError(f"not a Howell form over Z/{n}")
    cols = nonzero.argmax(axis=1) if H.shape[0] else np.zeros(0, dtype=np.intp)
    piv = H[np.arange(H.shape[0]), cols]
    if (np.diff(cols) <= 0).any() or (n % piv).any():
        raise ValueError(f"not a Howell form over Z/{n}")
    return cols, piv


def howell_span_order(H, n: int) -> int:
    """Number of vectors in the row span of a Howell form ``H`` over Z/n.

    Assumes ``H`` is ``howell_form`` output and does not check it.  The
    library itself reads the order of a Howell form it just computed with
    ``_span_order``, which skips the conversion of caller input.
    """
    n = _check_modulus(n)
    return _span_order(_residues(H, n), n)


def _span_order(H: np.ndarray, n: int) -> int:
    """``howell_span_order`` of a Howell form just computed by ``howell_form``:
    the product of n / p over its pivots p, with no conversion."""
    if not H.shape[0]:
        return 1
    piv = H[np.arange(H.shape[0]), (H != 0).argmax(axis=1)]
    return prod(n // p for p in piv.tolist())


def howell_span(H, n: int) -> list[tuple[int, ...]]:
    """Every vector in the row span of a Howell form ``H`` over Z/n, sorted.

    The span is the set of sums c_i * h_i with 0 <= c_i < n / pivot(h_i).
    ``ValueError`` unless ``H`` is a Howell form: the pivots pass
    ``_pivots``, and each row's annihilator multiple (n / pivot) * h_i
    reduces to zero against the rows below it.
    """
    n = _check_modulus(n)
    H = _residues(H, n)
    _, piv = _pivots(H, n)
    span = np.zeros((1, H.shape[1]), dtype=np.int64)
    for i in reversed(range(H.shape[0])):
        row, p = H[i], int(piv[i])
        if howell_reduce(H[i + 1 :], (n // p) * row[None], n).any():
            raise ValueError(f"not a Howell form over Z/{n}")
        mults = np.arange(n // p, dtype=np.int64)
        span = ((span[:, None, :] + mults[None, :, None] * row) % n).reshape(
            -1, H.shape[1]
        )
    return sorted(map(tuple, span.tolist()))


def howell_reduce(H, rows, n: int) -> np.ndarray:
    """Remainders of ``rows`` after reduction by a Howell form ``H`` over Z/n.

    Each pivot row of ``H``, in order, clears as much of its pivot column as
    a multiple of the pivot allows.  By the Howell property a row reduces to
    zero exactly when it lies in the row span of ``H``, so
    ``howell_reduce(H, rows, n).any(axis=1)`` marks the rows outside it.
    An empty basis leaves the rows unchanged.
    """
    n = _check_modulus(n)
    H = _residues(H, n)
    R = _residues(rows, n, H.shape[1])
    if H.shape[0] == 0:
        return R
    for h, c in zip(H, (H != 0).argmax(axis=1)):
        R = (R - (R[:, c] // h[c])[:, None] * h) % n
    return R


def howell_kernel(H, n: int) -> np.ndarray:
    """Rows generating {x : H @ x == 0 mod n}, by back-substitution on a
    Howell form ``H`` over Z/n (not in Howell form themselves).

    There is one seed e_f per non-pivot column f, in increasing f, then one
    seed (n/p) e_c per pivot p > 1 in column c, in increasing c.  From the
    last pivot row up, over the pivots p > 1, each seed's pivot coordinate
    is set to -(residual / p) mod n/p, and that column times H[:i, c] is
    added into the residuals of the rows above.  The Howell property puts
    (n/p) h_i in the span of the rows below, which every seed already
    satisfies, so p divides each seed's residual; ``ValueError`` if not,
    since ``H`` is then no Howell form.  Entries above a pivot are reduced
    modulo it, so a unit pivot's column is zero above it and its row adds
    nothing to the residuals above: every unit pivot coordinate is set to
    -residual mod n in one step at the end (``ValueError`` if such a column
    is nonzero above its pivot).  At prime n that step is the whole solve.
    Subtracting the e_f seeds, then the pivot seeds from the last pivot up,
    reduces any kernel vector to 0, so the seeds span the kernel.
    """
    n = _check_modulus(n)
    H = _residues(H, n)
    k = H.shape[1]
    cols, piv = _pivots(H, n)
    unit = piv == 1
    # a unit pivot's column is e_i, nonzero only at its own pivot
    if np.count_nonzero(H[:, cols[unit]]) != np.count_nonzero(unit):
        raise ValueError(f"not a Howell form over Z/{n}")
    pivotal = np.zeros(k, dtype=bool)
    pivotal[cols] = True
    free = np.flatnonzero(~pivotal)
    seed_cols = np.concatenate([free, cols[piv > 1]])
    scale = np.concatenate([np.ones(free.size, dtype=np.int64), n // piv[piv > 1]])
    # rows of X are the seeds; R their residuals
    X = np.zeros((seed_cols.size, k), dtype=np.int64)
    X[np.arange(seed_cols.size), seed_cols] = scale
    R = H[:, seed_cols].T * scale[:, None] % n
    for i in reversed(np.flatnonzero(~unit).tolist()):
        c, p = cols[i], int(piv[i])
        d = R[:, i]
        if (d % p).any():
            raise ValueError(f"not a Howell form over Z/{n}")
        delta = -(d // p) % (n // p)
        # only the pivot seed of row i is nonzero here, and its delta is 0
        X[:, c] += delta
        R[:, :i] = (R[:, :i] + delta[:, None] * H[:i, c]) % n
    # a unit pivot row adds delta * H[:i, c] = 0 to every residual above, so
    # those rows are solved together once the others are done
    X[:, cols[unit]] = -R[:, unit] % n
    return X


def solve_mod(A, c, n: int):
    """Solve A @ x == c over Z/n.

    Returns ``(particular, kernel)`` where ``kernel`` rows generate the full
    homogeneous solution set {x : A @ x == 0 mod n}, or ``None`` when the
    system has no solution.  A system with no equations has the identity
    kernel.

    The solutions are the kernel vectors of [A | -c] that end in 1
    (Storjohann and Mulders 1998).  A row of its Howell form that leads in
    the last column reads 0 = nonzero, so there is no solution; otherwise
    that column is free, and of the seeds ``howell_kernel`` returns, its
    own, (x, 1) with A x = c, is the only one nonzero there.  The others
    end in 0 and span the kernel of A.
    """
    n = _check_modulus(n)
    A = _residues(A, n)
    m, k = A.shape
    cvec = _residues(np.reshape(c, (1, -1)), n)[0]
    if cvec.size != m:
        raise DimensionMismatchError(f"rhs has length {cvec.size}, matrix has {m} rows")
    H = howell_form(np.hstack([A, -cvec[:, None] % n]), n)
    if H.shape[0] and not H[-1, :k].any():
        return None
    X = howell_kernel(H, n)
    last = X[:, k] != 0
    return X[last][0, :k], X[~last, :k]
