"""Exact sparse linear algebra over word-size prime fields and the rationals.

Every rank and every normal form comes from one sparse elimination kernel
on rows (dicts column -> nonzero value), run over F_p with ``% p`` on ints
or over Q with plain Fraction arithmetic.  Ranks over a prime field are
lower bounds for the rational rank; the calling code computes everything
mod two independent primes and, on disagreement, runs the same kernel on
Fraction rows, so no silent rank loss can survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadPrimeError


@dataclass(frozen=True)
class RankCertificate:
    rank: int
    modulus: object  # prime int or the string "rational"
    pivot_cols: tuple[int, ...]

    def __post_init__(self):
        if self.rank != len(self.pivot_cols):
            raise ValueError("rank must equal the pivot-column count")


class SparseMatrix:
    """Immutable sparse matrix; entries is a dict (row, col) -> value.

    Untagged matrices hold exact rationals (or ints); a matrix tagged with a
    prime modulus holds ints in [0, p).  Zero entries are never stored.
    """

    __slots__ = ("rows", "cols", "entries", "modulus")

    def __init__(self, rows: int, cols: int, entries=(), modulus=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        self.modulus = modulus
        data = {}
        items = entries.items() if isinstance(entries, dict) else (
            ((r, c), v) for r, c, v in entries
        )
        for (r, c), v in items:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) out of range")
            if (r, c) in data:
                raise ValueError(f"duplicate entry at ({r},{c})")
            if modulus is not None:
                v = int(v)
                if not 0 <= v < modulus:
                    raise ValueError("tagged entries must lie in [0, p)")
            if v:
                data[(r, c)] = v
        self.entries = data

    def nnz(self) -> int:
        return len(self.entries)

    def row_dicts(self) -> list[dict]:
        out = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def __repr__(self):
        tag = f", mod {self.modulus}" if self.modulus else ""
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()}{tag})"


def reduce_mod(m: SparseMatrix, p: int) -> SparseMatrix:
    """Entrywise image in the field with p elements.

    A matrix holds a handful of distinct values, so each one is converted
    once; the entries of ``m`` are already validated and are not checked
    again.
    """
    if m.modulus is not None:
        if m.modulus == p:
            return m
        raise ValueError("matrix already reduced mod a different prime")
    images = {}
    entries = {}
    for (r, c), v in m.entries.items():
        x = images.get(v)
        if x is None:
            q = Fraction(v)
            if q.denominator % p == 0:
                raise BadPrimeError(
                    f"denominator of entry ({r},{c}) divisible by {p}"
                )
            x = images[v] = q.numerator * pow(q.denominator, -1, p) % p
        if x:
            entries[(r, c)] = x
    out = SparseMatrix(m.rows, m.cols, modulus=p)
    out.entries = entries
    return out


# -- the elimination kernel --------------------------------------------


def _subtract(row, f, prow, p):
    """row -= f * prow in place over F_p (Q when p is None), storing no zeros."""
    if p is None:
        for c, v in prow.items():
            x = row.get(c, 0) - f * v
            if x:
                row[c] = x
            else:
                del row[c]
    else:
        for c, v in prow.items():
            x = (row.get(c, 0) - f * v) % p
            if x:
                row[c] = x
            else:
                del row[c]


def _echelon(rows, p):
    """Semi-echelon form of sparse rows over F_p, or over Q when p is None.

    Each row is reduced at its leading (smallest) column against the pivots
    found so far.  A row that survives is scaled to a leading 1 and stored
    under that column; stored rows are never touched again.  Returns the
    dict pivot column -> row.  The pivot columns are canonical: column c is
    a pivot iff it lies outside the span of the columns before it.  Input
    rows must hold no zero values.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is not None:
                _subtract(row, row[c], prow, p)
                continue
            if p is None:
                inv = 1 / Fraction(row[c])
                pivots[c] = {cc: v * inv for cc, v in row.items()}
            else:
                inv = pow(row[c], -1, p)
                pivots[c] = {cc: v * inv % p for cc, v in row.items()}
            break
    return pivots


def rank_mod_p(m: SparseMatrix, p: int) -> RankCertificate:
    """Rank over F_p."""
    pivots = _echelon(reduce_mod(m, p).row_dicts(), p)
    return RankCertificate(len(pivots), p, tuple(sorted(pivots)))


def rank_rational(m: SparseMatrix) -> RankCertificate:
    """Exact rank over the rationals; settles prime-field disagreements."""
    if m.modulus is not None:
        raise ValueError("rational rank needs an unreduced matrix")
    pivots = _echelon(m.row_dicts(), None)
    return RankCertificate(len(pivots), "rational", tuple(sorted(pivots)))


def rref(rows, field):
    """Reduced row echelon form of sparse rows (dicts col -> nonzero value).

    Returns a dict mapping pivot column to its fully reduced, normalized
    row.  The result depends only on the row space and the column order,
    so pivot columns and normal forms are canonical.
    """
    p = field.modulus
    pivots = _echelon(rows, p)
    # descending order: every pivot row used to clear column cc > c is
    # already reduced, so it brings in free columns only
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for cc in [cc for cc in row if cc != c and cc in pivots]:
            _subtract(row, row[cc], pivots[cc], p)
    return pivots


# -- working primes ----------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24 with the fixed bases."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def deterministic_primes(seed: int, count: int = 2, lo: int = 1 << 30, hi: int = 1 << 31):
    """Distinct pseudorandom primes in [lo, hi), reproducible from the seed.

    The default range keeps products of two residues inside a 64-bit
    accumulator, per the double-word overflow rationale.
    """
    rng = random.Random(seed)
    primes: list[int] = []
    while len(primes) < count:
        cand = rng.randrange(lo | 1, hi, 2)
        if cand not in primes and is_probable_prime(cand):
            primes.append(cand)
    return primes



# -- fields seen by the oracle's quotient pieces ------------------------


class PrimeField:
    """F_p: checked conversion of rationals, and negation."""

    __slots__ = ("modulus",)

    def __init__(self, p: int):
        self.modulus = p

    def of(self, x):
        x = Fraction(x)
        if x.denominator % self.modulus == 0:
            raise BadPrimeError(f"denominator divisible by {self.modulus}")
        return x.numerator * pow(x.denominator, -1, self.modulus) % self.modulus

    def neg(self, a):
        return -a % self.modulus


class RationalField:
    __slots__ = ()
    modulus = None

    def of(self, x):
        return Fraction(x)

    def neg(self, a):
        return -a


QQ = RationalField()
