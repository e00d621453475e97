"""Independent oracles and generators shared by the test modules.

The rank and normal-form oracle here is deliberately a different algorithm
(dense Gauss-Jordan elimination over Fractions or residues) from anything in
the package, so it can sit on the other side of cross-checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import product
from math import factorial

from singulus.linalg import SparseMatrix, rank_mod_p
from singulus.tables import BettiTable


def dense_rref(rows, p=None) -> dict:
    """Plain Gauss-Jordan elimination on a dense list-of-lists copy, over Q
    or, given a prime p, over F_p.

    Returns {pivot column: {column: value}} without zero values, the shape
    of ``singulus.linalg.rref``.
    """
    if p is None:
        a = [[Fraction(v) for v in row] for row in rows]
    else:
        a = [[v % p for v in row] for row in rows]
    ncols = len(a[0]) if a else 0
    pivot_cols = []
    for c in range(ncols):
        rank = len(pivot_cols)
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        if p is None:
            inv = 1 / a[rank][c]
            a[rank] = [v * inv for v in a[rank]]
        else:
            inv = pow(a[rank][c], -1, p)
            a[rank] = [v * inv % p for v in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[rank])]
                if p is not None:
                    a[i] = [v % p for v in a[i]]
        pivot_cols.append(c)
    return {
        c: {j: v for j, v in enumerate(a[i]) if v} for i, c in enumerate(pivot_cols)
    }


def dense_rational_rank(rows) -> int:
    return len(dense_rref(rows))


def from_dense(array, modulus=None) -> SparseMatrix:
    rows = len(array)
    cols = len(array[0]) if rows else 0
    entries = [
        (r, c, v)
        for r, row in enumerate(array)
        for c, v in enumerate(row)
        if v
    ]
    return SparseMatrix(rows, cols, entries, modulus=modulus)


def to_dense(m: SparseMatrix):
    out = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), v in entries(m).items():
        out[r][c] = v
    return out


def entries(m: SparseMatrix) -> dict:
    """Every stored entry of m as a dict (row, col) -> value."""
    return {(r, c): v for r, row in enumerate(m.data) for c, v in row.items()}


def residue(x, p: int) -> int:
    """Image of the rational x in F_p by plain Fraction arithmetic; the
    independent reference for ``linalg.reduce_mod``."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroDivisionError(f"denominator divisible by {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def kernel_dim(m: SparseMatrix, p: int) -> int:
    return m.cols - rank_mod_p(m, p).rank


def evaluate_polynomial(coeffs, k):
    """Value at k of the polynomial with these coefficients, low first."""
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * k + c
    return total


def _lagrange(points) -> list[Fraction]:
    """Coefficients (low first, zeros trimmed) of the polynomial of degree
    < len(points) through the (x, y) points, by Lagrange's formula."""
    coeffs = [Fraction(0)] * len(points)
    for j, (xj, yj) in enumerate(points):
        basis = [Fraction(yj)]
        for m, (xm, _) in enumerate(points):
            if m != j:
                # multiply by (k - xm) / (xj - xm)
                shifted = [Fraction(0)] + basis
                for i, c in enumerate(basis):
                    shifted[i] -= xm * c
                basis = [c / (xj - xm) for c in shifted]
        coeffs = [a + b for a, b in zip(coeffs, basis)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def reference_hilbert_fit(n: int, vals, primes):
    """What ``oracle.hilbert_fit`` must return for the values vals[0..w],
    from the definition.

    A trailing zero: smooth, with k0 where the zero tail starts (a
    Jacobian algebra that is 0 in one degree is 0 in every later one).
    Otherwise P is the polynomial of degree <= r through the last r+4
    values, for the smallest r < n for which one exists, and k0 is the
    smallest index from which every value agrees with P.  Returns
    (poly, k0, delta, degree_sigma, tjurina), or (error type name, message,
    tail) for an error; tail is None except on a too-small window.  A
    bad-prime error names ``primes``, the working primes of the fit.
    """
    w = len(vals) - 1
    if vals[-1] == 0:
        k0 = w
        while k0 > 0 and vals[k0 - 1] == 0:
            k0 -= 1
        return (), k0, None, None, None
    poly = None
    for r in range(min(n, len(vals) - 3)):
        fit = _lagrange([(k, vals[k]) for k in range(w - r - 3, w + 1)])
        if len(fit) <= r + 1:  # degree <= r
            poly = fit
            break
    if poly is None:
        tail = vals[-6:]
        return (
            "WindowTooSmallError",
            f"no stabilization detected up to degree {w}; tail {tail}",
            tail,
        )
    k0 = w + 1
    while k0 > 0 and evaluate_polynomial(poly, k0 - 1) == vals[k0 - 1]:
        k0 -= 1
    delta = len(poly) - 1
    if delta > n - 2:
        return (
            "ValueError",
            f"Hilbert polynomial has degree {delta} > n-2 = {n - 2}; "
            "the input is not a reduced hypersurface",
            None,
        )
    lead = poly[-1] * factorial(delta)
    if lead <= 0:
        return (
            "BadPrimeError",
            f"degree of the singular subscheme must be positive, got {lead}; "
            f"the working primes {list(primes)} are bad for this polynomial",
            None,
        )
    return tuple(poly), k0, delta, int(lead), int(poly[0]) if delta == 0 else None


def grevlex_less(a, b) -> bool:
    """a < b in graded reverse-lexicographic order, by the definition: a
    has the lower total degree, or the same one and the rightmost nonzero
    entry of a - b is positive."""
    if sum(a) != sum(b):
        return sum(a) < sum(b)
    diff = [x - y for x, y in zip(a, b) if x != y]
    return bool(diff) and diff[-1] > 0


@lru_cache(maxsize=None)
def grevlex_exponents(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of all degree-k monomials in x0..xn, strictly
    increasing in grevlex, built as polynomials.grevlex_columns orders its
    keys: the last exponent e runs downwards, and in front of each value
    come the degree-(k-e) vectors in x0..x(n-1), already in order.  Cached,
    and so are the smaller bases it is built from."""
    if k < 0:
        raise ValueError("degree must be non-negative")
    if n == 0:
        return ((k,),)
    return tuple([h + (e,) for e in range(k, -1, -1) for h in grevlex_exponents(n - 1, k - e)])


def sorted_monomials(n: int, k: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the degree-k monomials by brute enumeration,
    sorted increasing with ``grevlex_less``."""
    exps = [e for e in product(range(k + 1), repeat=n + 1) if sum(e) == k]
    # the tuples are distinct, so one of a < b and b < a holds
    return sorted(exps, key=cmp_to_key(lambda a, b: -1 if grevlex_less(a, b) else 1))


def matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Sparse product a @ b, row by row."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    if a.modulus != b.modulus:
        raise ValueError("modulus mismatch")
    p = a.modulus
    out = {}
    for r, arow in enumerate(a.data):
        acc = {}
        for k, v in arow.items():
            for c, w in b.data[k].items():
                acc[c] = acc.get(c, 0) + v * w
        for c, v in acc.items():
            v = v % p if p else v
            if v:
                out[(r, c)] = v
    return SparseMatrix(a.rows, b.cols, out, modulus=p)


def repaired_table(rng: random.Random, n: int, d: int, t: int):
    """One attempt at a random table satisfying the alternating power-sum
    constraints for exponents 0..t-1.

    Random columns are drawn first; then the multiplicities of t pinned,
    distinct shift values are solved for exactly so that sigma_0 = n and
    sigma_j matches its expected value for 1 <= j < t.  Attempts whose
    exact solution is non-integral or negative return None.
    """
    if not 2 <= t <= n:
        raise ValueError("need 2 <= t <= n")
    columns = {}
    for k in range(1, n + 1):
        m = rng.randint(n, n + 3) if k == 1 else rng.randint(0, 4)
        columns[k] = [rng.randint(1, 3 * (d - 1)) for _ in range(m)]

    def fixed_sigma(j):
        total = 0
        for k in range(1, n + 1):
            s = sum(e**j for e in columns[k])
            total += s if k % 2 == 1 else -s
        return total

    base_v = rng.randint(1, 2 * d)
    slots = [(rng.randint(1, n), base_v + m) for m in range(t)]
    targets = [n] + [(-1) ** (j + 1) * (d - 1) ** j for j in range(1, t)]
    matrix = [
        [(1 if k % 2 == 1 else -1) * v**j for (k, v) in slots] for j in range(t)
    ]
    rhs = [targets[j] - fixed_sigma(j) for j in range(t)]
    # integer Cramer solve; consecutive pinned values keep the determinant small
    det = _int_det(matrix)
    counts = []
    for i in range(t):
        col_swapped = [row[:i] + [rhs[j]] + row[i + 1 :] for j, row in enumerate(matrix)]
        num = _int_det(col_swapped)
        c, rem = divmod(num, det)
        if rem or c < 0:
            return None
        counts.append(c)
    for (k, v), c in zip(slots, counts):
        columns[k].extend([v] * c)
    return BettiTable.of(n, d, columns)


def _int_det(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: each step's entries are minors of the input, so every
    division is exact and all values stay integers."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def generate_repaired_tables(seed: int, count: int, t_choices=(2, 3, 4)):
    """Yield `count` repaired tables, cycling the target exponent t."""
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < count:
        t = t_choices[produced % len(t_choices)]
        n = rng.randint(max(2, t), 5)
        d = rng.randint(3, 6)
        attempts += 1
        if attempts > 400 * count:
            raise RuntimeError("table generator acceptance rate collapsed")
        table = repaired_table(rng, n, d, t)
        if table is None:
            continue
        produced += 1
        yield t, table


# Frozen obstructed example tables (potential, not realizable).
def threefold_table_negative_degree() -> BettiTable:
    return BettiTable.of(
        4,
        3,
        {
            1: [2] * 9 + [3],
            2: [4] * 7 + [5] * 3,
            3: [6] * 2 + [7] * 3,
            4: [9],
        },
    )


def threefold_table_bound_violation() -> BettiTable:
    return BettiTable.of(
        4,
        3,
        {
            1: [2] * 10 + [10] * 17 + [14] * 17,
            2: [4] * 10 + [11] * 68,
            3: [6] * 5 + [12] * 102,
            4: [8] + [13] * 68,
        },
    )


def cusp_threefold_table() -> BettiTable:
    # hand tensor-product resolution of the triangle-plus-cube threefold
    return BettiTable.of(3, 3, {1: [1, 1, 2, 2, 2], 2: [3, 3]})
