"""Exact sparse linear algebra over word-size prime fields and the rationals.

Every rank and every normal form comes from one sparse elimination kernel
on rows (dicts column -> nonzero value), run over F_p with ``% p`` on ints
or over Q with plain Fraction arithmetic.  Ranks over a prime field are
lower bounds for the rational rank; the calling code works mod two
independent primes at once and, where their fields part ways, runs the
same kernel on Fraction rows, so no silent rank loss can survive.

The kernel runs mod a product N of distinct primes, which by the Chinese
remainder theorem is one elimination over each prime field at once.
Pivots are picked by column alone, so the pass makes the same moves as
every per-prime pass until a row's leading entry is nonzero mod N but
not a unit, that is, zero mod some of the primes only.  There the
per-prime passes would part ways, and the kernel raises _NonUnitPivot;
a pass that finishes has left every per-prime result, reduced mod N.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd

from .errors import BadPrimeError


class _NonUnitPivot(Exception):
    """The pass mod N cannot stand in for Q: a new pivot's leading entry
    is not a unit mod a composite modulus, so the prime fields part ways,
    or (raised by the oracle) a factor of N divides every coefficient of a
    nonzero generator.  The caller redoes the work over the rationals.
    Not a ValueError, so no handler for bad input can take it for one."""


class Pivots(dict):
    """Pivot column -> pivot row, as the elimination kernel leaves them,
    each row stored as its tail: the row without its leading 1.

    ``rank`` is the number of pivots.  ``lead`` maps each pivot column to
    the index of the input row that created it.  Those rows are a basis
    of the row space; every other row reduced to zero.
    """

    __slots__ = ("lead",)

    @property
    def rank(self) -> int:
        return len(self)


class SparseMatrix:
    """Immutable sparse matrix stored as rows: ``data[r]`` is a dict
    column -> nonzero value, the format the elimination kernel works on.

    Untagged matrices hold ints or Fractions, never floats; a matrix tagged
    with a modulus p holds ints in [0, p).  Zero entries are never stored.
    """

    __slots__ = ("rows", "cols", "data", "modulus")

    def __init__(self, rows: int, cols: int, entries=(), modulus=None):
        """Checked construction from a dict (row, col) -> value or from
        (row, col, value) triples."""
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        data = [{} for _ in range(rows)]
        items = entries.items() if isinstance(entries, dict) else (
            ((r, c), v) for r, c, v in entries
        )
        for (r, c), v in items:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) out of range")
            if c in data[r]:
                raise ValueError(f"duplicate entry at ({r},{c})")
            if modulus is not None:
                if int(v) != v:
                    raise ValueError(f"tagged entry ({r},{c}) is not an integer")
                v = int(v)
                if not 0 <= v < modulus:
                    raise ValueError("tagged entries must lie in [0, p)")
            elif not isinstance(v, (int, Fraction)):
                raise ValueError(f"entry ({r},{c}) is {v!r}, not an int or a Fraction")
            if v:
                data[r][c] = v
        self.rows = rows
        self.cols = cols
        self.data = data
        self.modulus = modulus

    @classmethod
    def _from_rows(cls, cols: int, data: list, modulus=None) -> SparseMatrix:
        """Wrap rows the package built itself, unchecked: every column lies
        in range, no value is zero and tagged values lie in [0, p)."""
        m = cls.__new__(cls)
        m.rows = len(data)
        m.cols = cols
        m.data = data
        m.modulus = modulus
        return m

    def nnz(self) -> int:
        return sum(map(len, self.data))

    def __repr__(self):
        tag = f", mod {self.modulus}" if self.modulus else ""
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()}{tag})"


def reduce_mod(m: SparseMatrix, p: int) -> SparseMatrix:
    """Entrywise image in Z/p, p a prime or a product of distinct primes,
    row by row.  A denominator that shares a factor g with p raises
    BadPrimeError naming g.

    A matrix holds a handful of distinct values, so each one is converted
    once; the entries of ``m`` are already validated and are not checked
    again.
    """
    if m.modulus is not None:
        if m.modulus == p:
            return m
        raise ValueError("matrix already reduced mod a different prime")
    images = {v: Fraction(v) for v in set(chain.from_iterable(map(dict.values, m.data)))}
    bad = {v: g for v, q in images.items() if (g := gcd(q.denominator, p)) > 1}
    if bad:
        r, c, g = next(
            (r, c, bad[v]) for r, row in enumerate(m.data) for c, v in row.items() if v in bad
        )
        raise BadPrimeError(f"denominator of entry ({r},{c}) divisible by {g}", prime=g)
    images = {v: q.numerator * pow(q.denominator, -1, p) % p for v, q in images.items()}
    data = [{c: x for c, v in row.items() if (x := images[v])} for row in m.data]
    return SparseMatrix._from_rows(m.cols, data, p)


# -- the elimination kernel --------------------------------------------


def _subtract(row, f, prow, p):
    """row -= f * prow in place mod p (over Q when p is None), storing no
    zeros."""
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
            elif c in row:  # mod a product of primes, f * v itself can be 0
                del row[c]


def _divide(tail, x, p):
    """Divide the tail of a new pivot row, in place, by its leading entry x
    over F_p, or over Q when p is None, and return it.  An x that is not a
    unit mod a product of primes raises _NonUnitPivot."""
    if p is None:
        inv = 1 / Fraction(x)
        for c, v in tail.items():
            tail[c] = v * inv
        return tail
    try:
        inv = pow(x, -1, p)
    except ValueError:
        raise _NonUnitPivot(f"{x} is not a unit mod {p}") from None
    for c, v in tail.items():
        tail[c] = v * inv % p
    return tail


def _echelon(rows, p):
    """Semi-echelon form of sparse rows over F_p, or over Q when p is None.

    A row whose leading (smallest) column holds no pivot yet is stored
    there at once; any other row is reduced, in a copy, at its leading
    column against the pivots found so far until it vanishes or leads at a
    new column.  A row that survives is stored under that column as its
    tail, a copy scaled to a leading 1 with the 1 dropped, and is never
    touched again.  Returns the Pivots, pivot column -> tail, with
    ``lead`` recording the index of the row behind each pivot.  The pivot
    columns are canonical: column c is a pivot iff it lies outside the
    span of the columns before it.  So the pivots created by the first t
    rows are the leading columns of those rows' span.  Input rows must
    hold no zero values, and are left as they are.

    With p a product of distinct primes, a new pivot whose leading entry
    is not a unit mod p raises _NonUnitPivot (see the module docstring).
    """
    pivots = Pivots()
    lead = pivots.lead = {}
    for r, row in enumerate(rows):
        c = min(row) if row else None
        if c in pivots:
            row = dict(row)
            while c in pivots:
                _subtract(row, row.pop(c), pivots[c], p)
                c = min(row) if row else None
        if c is not None:
            x = row[c]
            if len(row) > 1:
                tail = row.copy()  # the caller owns it; an input row is never changed
                del tail[c]
            else:
                tail = {}  # smaller than a copy emptied by del, which keeps its table
            pivots[c] = tail if x == 1 else _divide(tail, x, p)
            lead[c] = r
    return pivots


def rank_mod_p(m: SparseMatrix, p: int) -> Pivots:
    """Semi-echelon form of m over F_p, whose ``rank`` is the rank."""
    return _echelon(reduce_mod(m, p).data, p)


def rank_rational(m: SparseMatrix) -> Pivots:
    """Semi-echelon form of m over the rationals, whose ``rank`` is the
    exact rank; settles prime-field disagreements."""
    if m.modulus is not None:
        raise ValueError("rational rank needs an unreduced matrix")
    return _echelon(m.data, None)


def rref(rows, field) -> Pivots:
    """Reduced row echelon form of sparse rows (dicts col -> nonzero value).

    Returns the Pivots, mapping each pivot column to the tail of its fully
    reduced, normalized row: minus the normal form of that column.  The
    rows depend only on the row space and the column order, so pivot
    columns and normal forms are canonical.
    """
    p = field.modulus
    pivots = _echelon(rows, p)
    # descending order: every pivot row used to clear column cc > c is
    # already reduced, so it brings in free columns only; an empty tail
    # has nothing to clear
    for c in sorted([c for c, tail in pivots.items() if tail], reverse=True):
        row = pivots[c]
        for cc in [cc for cc in row if cc in pivots]:
            _subtract(row, row.pop(cc), pivots[cc], p)
    return pivots


# -- working primes ----------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base above
# (1287836182261 * 2575672364521): below it the test is exact
_MR_EXACT_BELOW = 3317044064679887385961981
# psi_4, the least strong pseudoprime to the bases 2, 3, 5 and 7
# (151 * 751 * 28351): below it those four are exact, and every derived
# prime lies below 2^31 < psi_4
_PSI_4 = 3215031751


@lru_cache(maxsize=64)
def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, exact for n below _MR_EXACT_BELOW: the bases 2, 3, 5
    and 7 for n below psi_4, and 2..41 from there on.  Cached: each side
    checks a pinned prime once, and the two sides share one test."""
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
    for a in _MR_BASES[:4] if n < _PSI_4 else _MR_BASES:
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


# two primes from this range multiply to a modulus below 2^62, so a pair
# is eliminated as one modulus (see the module docstring)
_PRIME_LO, _PRIME_HI = 1 << 30, 1 << 31


def deterministic_primes(seed: int, count: int = 2):
    """Distinct pseudorandom primes in [2^30, 2^31), reproducible from the
    seed; the first ones do not depend on ``count``."""
    rng = random.Random(seed)
    primes: list[int] = []
    while len(primes) < count:
        cand = rng.randrange(_PRIME_LO | 1, _PRIME_HI, 2)
        if cand not in primes and is_probable_prime(cand):
            primes.append(cand)
    return primes


class Field:
    """The field rref works over: Z/N for ``modulus`` N a prime or a
    product of distinct primes, one pass for each of their fields at once
    (see the module docstring), or Q when ``modulus`` is None."""

    __slots__ = ("modulus",)

    def __init__(self, modulus=None):
        self.modulus = modulus


QQ = Field()
