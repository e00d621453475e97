"""Ground-truth invariants computed from an explicit defining polynomial.

Two independent pipelines live here.  The Hilbert side computes the graded
dimensions of the quotient by the partial-derivative ideal degree by degree
and fits the eventual polynomial, which carries the dimension and degree of
the singular subscheme.  The Betti side computes graded Betti numbers as the
homology of the quotient tensored with the Koszul complex on the variables,
which needs nothing beyond exact ranks of the Koszul differentials, each
built transposed from the pivot rows of the quotient pieces.

Each pipeline computes modulo its own two word-size primes, in one
elimination mod their product N.  Ranks over a prime field can only drop,
so a pass that finishes is wrong only where both primes drop a rank at
once; nothing proves that away, and the comparison of the two pipelines,
four primes in all, is the check.  A pass that splits reruns whole over
the rationals (see _exact).  "Certified" means one thing here: a stop of
either side proven by a regularity certificate over the pass's own field,
mod the side's N or, after a split, over Q (see _prove_regularity).
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from math import comb, factorial, gcd, prod
from operator import neg

from .errors import (
    BadPrimeError,
    ConeError,
    IncompleteTableError,
    NonHomogeneousError,
    WindowTooSmallError,
)
from .linalg import (
    Field,
    SparseMatrix,
    _MR_EXACT_BELOW,
    _NonUnitPivot,
    _echelon,
    deterministic_primes,
    is_probable_prime,
    rank_mod_p,
    rank_rational,
    reduce_mod,
    rref,
)
from .polynomials import (
    Polynomial,
    _integral_terms,
    _seed_of,
    dim_degree_piece,
    grevlex_columns,
    pack,
)
from .rules import (
    _newton_fit,
    full_report,
    hilbert_function_from_table,
    hilbert_polynomial_from_table,
    koszul_smooth_table,
)
from .tables import BettiTable


@dataclass(frozen=True)
class HilbertData:
    """Hilbert function of the Jacobian algebra with its fitted polynomial.

    ``delta`` is the degree of the eventual polynomial, or None when the
    function is eventually zero (smooth hypersurface, empty singular locus).
    ``degree_sigma`` is the leading coefficient times delta! and equals the
    degree of the singular subscheme; ``tjurina`` is the constant value when
    delta == 0.  ``stop`` is the degree proven to end the computation: the
    first zero value of a smooth input, or an m for which J_f is proven
    m-regular, so that every value from m on is the polynomial's (see
    hilbert_fit); None when every degree of the window was computed.
    """

    n: int
    d: int
    values: dict[int, int]
    poly: tuple[Fraction, ...]  # low coefficient first; () is the zero polynomial
    k0: int
    delta: int | None
    degree_sigma: int | None
    tjurina: int | None
    stop: int | None = None


def _validate(f: Polynomial):
    if f.is_zero():
        raise ValueError("the zero polynomial has no Jacobian algebra here")
    if not f.is_homogeneous():
        raise NonHomogeneousError("f must be homogeneous")
    if f.n < 2:
        raise ValueError("need at least three variables (n >= 2)")
    if f.degree < 3:
        raise ValueError("need degree d >= 3")
    if f.degree >= 1 << 16:
        raise ValueError(f"degree must be below 2^16, got {f.degree}")
    return f.n, f.degree


def _working_primes(f: Polynomial, primes, part: int) -> list[int]:
    """The distinct pinned primes in first-seen order, each
    Miller-Rabin-tested, or else the pair derived from part ``part`` of
    the input digest (see default_primes).  Distinct, because the
    pipelines work mod their product, which must be squarefree, so a
    pinned prime must lie below _MR_EXACT_BELOW, where the test is exact.
    Any prime reduces the partials, which are integral (see
    _partial_terms)."""
    if not primes:
        return list(default_primes(f, part))
    for p in primes:
        if p >= _MR_EXACT_BELOW:
            raise ValueError(f"{p} is too large: pinned primes must be below {_MR_EXACT_BELOW}")
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
    return list(dict.fromkeys(primes))


def _exact(run, plist):
    """run(N), a whole pass of one side mod N, the product of the working
    primes ``plist``, or where that splits run(None), the pass over Q.  It
    splits where the two prime fields would part ways (see linalg) and
    where a factor of N divides every coefficient of a nonzero partial,
    leaving ranks mod N saying nothing of ranks over Q (see _partials)."""
    try:
        return run(prod(plist))
    except _NonUnitPivot:
        return run(None)


# -- Jacobian graded pieces ---------------------------------------------


@lru_cache(maxsize=64)
def _partial_terms(f: Polynomial):
    """The partial derivatives of F, f times the lcm of its denominators
    (see _integral_terms), each as (packed exponents, int coefficient)
    pairs (see pack) in F's term order.  J_F = J_f, so both pipelines work
    on F: f itself for integral coefficients.  Every degree of both
    pipelines asks for them, so they are cached; callers must not change
    the lists."""
    terms = [(pack(e), e, c) for e, c in _integral_terms(f).items()]
    return [[(key - (1 << 16 * i), c * e[i]) for key, e, c in terms if e[i]] for i in range(f.n + 1)]


@lru_cache(maxsize=64)
def default_primes(f: Polynomial, part: int = 0) -> tuple[int, int]:
    """Working primes derived deterministically from the input digest: the
    first two of the stream seeded by its ``part``.

    The Betti side uses part 0 and the Hilbert side part 1, so the two
    sides compare four primes, not one pair twice.  Cached per polynomial;
    the tuple is shared by every caller."""
    return tuple(deterministic_primes(_seed_of(f, part), 2))


def _partials(f: Polynomial, modulus=None):
    """The partials' term lists over Q, or over Z/N for a modulus N: each
    partial, as a row over its packed exponents (all below 2^(16(n+1)),
    see pack), reduced mod N in its own term order, terms that vanish
    mod N left out.  A nonzero partial that a factor of N kills raises
    _NonUnitPivot (see _exact)."""
    terms = _partial_terms(f)
    if modulus is None:
        return terms
    rows = SparseMatrix._from_rows(1 << 16 * (f.n + 1), [dict(t) for t in terms])
    out = []
    for t, row in zip(terms, reduce_mod(rows, modulus).data):
        if t and gcd(modulus, *row.values()) > 1:
            raise _NonUnitPivot(f"a factor of {modulus} kills a partial")
        out.append(list(row.items()))
    return out


def _jacobian_block(gens, deg: int, n: int, k: int, p=None, below=None):
    """Degree-k piece of the ideal of generators g_i of degree ``deg`` in
    x_0..x_n, each given as a list of (packed exponents, coefficient)
    terms, over Z/p when a modulus p is given: rows = generators m*g_i over
    the degree-k monomial columns (decreasing order), generator by
    generator; the key of m*e is the sum of their keys (see pack).  Returns
    the matrix and ``starts``, the index of each generator's first row.

    ``below`` is the record (Pivots.lead, starts) of the block of the same
    generators over the same field, ``deg`` degrees down.  The row m*g_i
    is left out when the pivot at m's column came from a row before g_i's
    first, s, the F5 criterion: the pivots of the first s rows are the
    leading monomials of <g_0, ..., g_(i-1)> in degree k - deg, so m leads
    some g = m + lower there, and m*g_i = g*g_i - lower*g_i lies in the
    span of the rows of earlier generators and of rows t*g_i with t < m.
    By induction the row space, and so every rank and every reduced
    echelon form, is that of the full block.
    """
    col_of = grevlex_columns(n, k)
    data, starts = [], [0] * len(gens)
    if k >= deg:
        lead, first = below or ({}, [0] * len(gens))  # no row is left out
        for i, terms in enumerate(gens):
            starts[i], s = len(data), first[i]
            for m, mc in grevlex_columns(n, k - deg).items():
                if lead.get(mc, s) < s:
                    continue
                row = {}
                for e, c in terms:
                    row[col_of[e + m]] = c
                data.append(row)
    return SparseMatrix._from_rows(len(col_of), data, p), starts


def _pruned_blocks(gens, deg: int, n: int, modulus, rank):
    """block(k): the Pivots ``rank`` gives the degree-k block of ``gens``
    over Z/modulus, or over Q for no modulus (see _jacobian_block), pruned
    by the record the block ``deg`` degrees down left, if it left one.
    Every pruned block of both sides is built here: the full ring's, and
    each section ring's of the certificate.  A block keeps its own record
    until the block ``deg`` degrees up reads it; a block that raises leaves
    none, and the record it read stays.

    Over Z/modulus each generator whose grevlex-leading coefficient is a
    unit is made monic first, so every row m*g_i leads with 1 and a row
    that makes a pivot needs no inverse.  A unit multiple spans the same
    rows over each prime field, and reducing u*r gives u times the reduced
    r, so the records, ranks, rref pieces and splits are those of the
    generators as given."""
    if modulus is not None:
        col = grevlex_columns(n, deg)
        monic = []
        for terms in gens:
            lc = min(terms, key=lambda t: col[t[0]])[1] if terms else 1
            if lc != 1 and gcd(lc, modulus) == 1:
                inv = pow(lc, -1, modulus)
                terms = [(e, c * inv % modulus) for e, c in terms]
            monic.append(terms)
        gens = monic
    records = {}  # degree -> (Pivots.lead, starts)

    def block(k):
        matrix, starts = _jacobian_block(gens, deg, n, k, modulus, records.get(k - deg))
        pivots = rank(matrix)
        records.pop(k - deg, None)
        records[k] = pivots.lead, starts
        return pivots

    return block


def _jacobian_matrix(f: Polynomial, k: int) -> SparseMatrix:
    """The full degree-k block of F's partials (see _partial_terms) over
    Q, every generator m*F_i: the reference the pruned blocks are tested
    against."""
    return _jacobian_block(_partial_terms(f), f.degree - 1, f.n, k)[0]


def _rank(matrix: SparseMatrix, modulus):
    """The Pivots of a matrix mod the modulus, or over Q for no modulus.
    The kernels are looked up at each call: perfbench rebinds them."""
    return rank_rational(matrix) if modulus is None else rank_mod_p(matrix, modulus)


def milnor_dimension(f: Polynomial, k: int, primes=None, *, chain=None) -> int:
    """dim of the degree-k piece of the Jacobian algebra S/J_f.

    Pinned primes are used as given; primes derived from the input are
    the Hilbert side's own (part 1 of the digest, see default_primes).

    The block is ranked once, mod the product N of the working primes or,
    after a split, over Q (see _exact).
    ``chain`` is a Hilbert pass's _pruned_blocks, which prunes each degree
    by the one d-1 below; a split there raises to the pass.  Without it
    the block is full."""
    n, d = _validate(f)
    if k < 0:
        raise ValueError("degree must be non-negative")
    if k < d - 1:
        return dim_degree_piece(n, k)
    if chain is not None:
        return dim_degree_piece(n, k) - chain(k).rank

    def rank(modulus):
        return _rank(_jacobian_block(_partials(f, modulus), d - 1, n, k, modulus)[0], modulus).rank

    return dim_degree_piece(n, k) - _exact(rank, _working_primes(f, primes, 1))


# -- Hilbert function fit -----------------------------------------------


# over Q the forms stay small: drawn from [1, N), they make Fractions grow
_RATIONAL_FORMS_BELOW = 100


def _section_forms(f: Polynomial, modulus) -> list[list[int]]:
    """The coefficients a_t of h_i = x_(n-i+1) - sum_(t <= n-i) a_t x_t
    for i = 1..n, each drawn from [1, modulus), or over Q from
    [1, _RATIONAL_FORMS_BELOW), by the stream seeded with part 2 of the
    input digest."""
    rng, top = random.Random(_seed_of(f, 2)), modulus or _RATIONAL_FORMS_BELOW
    return [[rng.randrange(1, top) for _ in range(f.n - i + 1)] for i in range(1, f.n + 1)]


def _restrict(gens, a, modulus):
    """Term lists in x_0..x_r, r = len(a), on the hyperplane
    x_r = sum_t a_t x_t: term lists in x_0..x_(r-1), reduced mod the
    modulus unless it is None."""
    shift = 16 * len(a)  # e >> shift is the exponent of x_r (see pack)
    powers = [{0: 1}]  # powers of sum_t a_t x_t
    out = []
    for terms in gens:
        acc = defaultdict(int)
        for e, c in terms:
            while len(powers) <= e >> shift:
                nxt = defaultdict(int)
                for u, b in powers[-1].items():
                    for t, at in enumerate(a):
                        nxt[u + (1 << 16 * t)] += b * at
                powers.append({u: v % modulus for u, v in nxt.items()} if modulus else nxt)
            low = e & ((1 << shift) - 1)
            for u, b in powers[e >> shift].items():
                acc[low + u] += c * b
        out.append([(e, x) for e, v in acc.items() if (x := v % modulus if modulus else v)])
    return out


def _section_dimensions(f: Polynomial, modulus, vals: list, forms, partials):
    """HF_i(k) = dim (S/(J_f, h_1..h_i))_k as a cached function of (i, k),
    the h_i given by ``forms`` (see _section_forms).  HF_0 reads the full
    ring's values ``vals``.  S/(h_1..h_i) is the polynomial ring in
    x_0..x_(n-i), so HF_i is that of the ``partials`` over the pass's
    field (see _partials) with x_n, .., x_(n-i+1) substituted in turn.
    Each ring's blocks are its own _pruned_blocks.  Only their ranks and
    records are read, so the kernel's semi-echelon form (linalg._echelon)
    ranks them, on both sides; a split raises _NonUnitPivot.

    A block's pruning record is made on demand, through this same
    function.  S/(J_f, h_1..h_i) is a standard graded algebra, and adding
    a form only shrinks it, so once a block reads HF_i(k) = 0,
    HF_i'(k') = 0 for every i' >= i and k' >= k; those values are returned
    without a block."""
    deg = f.degree - 1
    vanished = []  # (i, k) where a block read HF_i(k) = 0

    @cache
    def gens(i):
        return partials if i == 0 else _restrict(gens(i - 1), forms[i - 1], modulus)

    @cache
    def blocks(i):
        return _pruned_blocks(gens(i), deg, f.n - i, modulus, lambda m: _echelon(m.data, modulus))

    @cache
    def hf(i, k):
        if i == 0:
            return vals[k]
        # hf(i, k - deg) makes the record that prunes this block, or is 0
        if any(a <= i and b <= k for a, b in vanished) or (k >= 2 * deg and not hf(i, k - deg)):
            return 0
        value = dim_degree_piece(f.n - i, k) - blocks(i)(k).rank
        if not value:
            vanished.append((i, k))
        return value

    return hf


def _certified_forms(hf, n: int, m: int):
    """The number j of forms that prove J_f m-regular, or None.

    Bayer and Stillman, Invent. Math. 87 (1987), Thm 1.10: an ideal
    generated in degrees <= m is m-regular if, for linear forms
    h_1..h_j, multiplication by h_(i+1) is injective on (S/(J, h_<=i))_m
    for every i < j and (S/(J, h_1..h_j))_m = 0.  In Hilbert functions
    (see _section_dimensions) the first condition reads
    HF_(i+1)(m+1) = HF_i(m+1) - HF_i(m).  Forms that pass prove it;
    unlucky forms can only fail.  The criterion holds for any homogeneous
    ideal, so j runs up to n, and a non-reduced f, whose singular locus
    has dimension n-1, is proven too.  The section blocks are ranked by
    the kernel alone, the same on both sides; a split in their ranks (see
    linalg) proves nothing either."""
    try:
        for i in range(n):
            low, high = hf(i, m), hf(i, m + 1)
            if low == 0:
                return i
            if high < low or hf(i + 1, m + 1) != high - low:
                return None
        return n if hf(n, m) == 0 else None
    except _NonUnitPivot:
        return None


def _complete_intersection(n: int, d: int, k: int) -> int:
    """dim (S/J_f)_k when the n+1 partials are a regular sequence: the
    coefficient of t^k in ((1 - t^(d-1)) / (1 - t))^(n+1), 0 from
    K = (n+1)(d-2)+1 on."""
    return sum((-1) ** i * comb(n + 1, i) * dim_degree_piece(n, k - i * (d - 1)) for i in range(n + 2))


def _smooth_stop(n: int, d: int, top: int, value):
    """K = (n+1)(d-2)+1 if value(k), a side's dim (S/J_f)_k over its field,
    is 0 at K, else None; None too when K is past ``top``.

    Each pruned block reads only the record of the block d-1 degrees
    below it (see _pruned_blocks), so the degrees k = K mod d-1 from d-1
    up to K are a chain of their own: they are asked in ascending order,
    up to the first value off the complete-intersection series.  A value
    0 at K means S/J_f is Artinian over the field, so over Q too, as a
    rank mod p is at most the rank over Q: the partials are a regular
    sequence and every value is the series'.  The caller keeps the values
    it got, so a walk that stops early costs at most one block it would
    not have built."""
    K = (n + 1) * (d - 2) + 1
    if K <= top and all(value(k) == _complete_intersection(n, d, k) for k in reversed(range(K, d - 2, 1 - d))):
        return K
    return None


def _prove_regularity(f: Polynomial, modulus, partials, top: int, value):
    """The values value(k) for k = 0..top, a side's dim (S/J_f)_k over its
    field (its HF_0, see _section_dimensions), and the proof (m, j) that
    ends them, or None when none comes by ``top``.

    Once a value has left the series of a complete intersection, where
    the values of f stay in every degree exactly when the partials are a
    regular sequence, each new value k >= d tries to prove J_f
    (k-1)-regular (see _certified_forms) over the pass's field, with
    forms drawn from the input digest and the side's ``partials``; the
    first j forms that prove it end the values at k = m+1.  A split in
    their ranks proves nothing."""
    n, d = f.n, f.degree
    vals, hf, left = [], None, False  # left: a value is off the series
    for k in range(top + 1):
        vals.append(value(k))
        left = left or vals[k] != _complete_intersection(n, d, k)
        if left and k >= d:  # J_f is generated in degree d-1 <= m = k-1
            hf = hf or _section_dimensions(f, modulus, vals, _section_forms(f, modulus), partials)
            if (j := _certified_forms(hf, n, k - 1)) is not None:
                return vals, (k - 1, j)
    return vals, None


def _hilbert_over_field(f: Polynomial, w: int, plist, modulus):
    """The values dim M(f)_k for k = 0..w over Z/modulus, or over Q for no
    modulus, and the proof that ended them: (K, 0) for a smooth input,
    the (m, j) of _prove_regularity, or None when every degree of the
    window was computed (see hilbert_fit).  A split raises _NonUnitPivot."""
    n, d = f.n, f.degree
    partials = _partials(f, modulus)
    chain = _pruned_blocks(partials, d - 1, n, modulus, lambda m: _rank(m, modulus))
    value = cache(lambda k: milnor_dimension(f, k, chain=chain))
    if (K := _smooth_stop(n, d, w, value)) is not None:
        return [_complete_intersection(n, d, k) for k in range(w + 1)], (K, 0)

    def checked(k):
        v = value(k)
        if k == d - 1 and v != dim_degree_piece(n, k) - n - 1:
            # the n+1 partials are dependent mod N; only over Q may they be
            expected = dim_degree_piece(n, k) - _rank(_jacobian_matrix(f, k), None).rank
            if v != expected:
                raise BadPrimeError(
                    f"degree {k} of the Jacobian algebra has dimension {expected}, "
                    f"got {v}; the working primes {plist} are bad for this polynomial"
                )
        return v

    vals, proof = _prove_regularity(f, modulus, partials, w, checked)
    if proof is None or sum(proof) - 1 > w:  # none, or K = m+j-1 past the window: all computed
        return vals + [value(k) for k in range(len(vals), w + 1)], None
    m, j = proof
    vals += [value(k) for k in range(len(vals), m + j)]  # up to max(m+1, m+j-1)
    # the values from m on lie on a polynomial of degree < j
    for _ in range(w + 1 - len(vals)):
        vals.append(sum((-1) ** (i + 1) * comb(j, i) * vals[-i] for i in range(1, j + 1)))
    return vals, proof


def hilbert_fit(f: Polynomial, window=None, primes=None) -> HilbertData:
    """Compute dim M(f)_k over 0..window and fit the eventual polynomial.

    Each forward-difference row is taken once.  The fit uses the smallest r
    whose (r+1)-th row ends in at least three zeros, from index start:
    windows of r+2 consecutive values overlap in r+1 points, so every value
    from start on lies on one polynomial of degree <= r, and vals[start-1]
    does not.  So no verification pass is needed: the polynomial is the
    Newton expansion of the row heads at start, and k0 = start.

    The default window exceeds the isolated-singularity regularity bound by
    enough to leave three zeros even when stabilization happens at the
    bound itself.

    A smooth f is proven first, from the degrees k = K mod d-1 up to
    K = (n+1)(d-2)+1 alone (see _smooth_stop): a value 0 at K makes S/J_f
    Artinian, so the partials are a regular sequence, every value is that
    of the complete intersection and k0 = stop = K.  A zero needs no
    rational check, because a rank mod p is at most the rank over Q.
    Where a value of that chain leaves the series, or K is past the
    window, the degrees are computed in ascending order, the chain's
    values reused.  No value there is 0: a 0 in degree k would make S/J_f
    Artinian, with every value on the series up to its first 0 at K <= k,
    which the chain has already proven.

    The values come from one pass, mod N or, after a split, over Q,
    certificate and all (see _exact).  At degree d-1 the value is that of
    n+1 independent partials unless they are dependent over Q, as for a
    cone: a value that is neither means the working primes agreed on a
    wrong rank, and raises BadPrimeError.  Only on a mismatch is the block
    of the partials ranked over Q.

    A proven stop ends it earlier on singular inputs (see
    _prove_regularity): if J_f is m-regular with j forms, the values
    from m on lie on a polynomial of degree < j, so they are computed up to
    K = max(m+1, m+j-1) and the rest of the window is filled from the last
    j, whose j-th difference is 0.  ``stop`` is then m.  When nothing
    certifies, or K is past the window, every degree is computed and
    ``stop`` is None.  The fit is the same either way, on the same values.
    """
    n, d = _validate(f)
    w = window if window is not None else (n + 1) * (d - 2) + n + 2
    if w < d + 1:
        raise ValueError("window upper bound is too small to say anything")
    plist = _working_primes(f, primes, 1)
    vals, proof = _exact(lambda modulus: _hilbert_over_field(f, w, plist, modulus), plist)
    stop, j = proof or (None, None)
    if j == 0:  # the chain's 0 at K: f is smooth
        return HilbertData(n, d, dict(enumerate(vals)), (), stop, None, None, None, stop=stop)

    rows = [vals]  # rows[i] is the i-th forward difference
    for _ in range(n):
        row = [b - a for a, b in zip(rows[-1], rows[-1][1:])]
        start = len(row)
        while start > 0 and row[start - 1] == 0:
            start -= 1
        if len(row) - start >= 3:
            break
        rows.append(row)
    else:
        raise WindowTooSmallError(
            f"no stabilization detected up to degree {w}; tail {vals[-6:]}",
            tail=vals[-6:],
        )

    coeffs = _newton_fit([diffs[start] for diffs in rows], start)
    delta = len(coeffs) - 1
    if delta > n - 2:
        raise ValueError(
            f"Hilbert polynomial has degree {delta} > n-2 = {n - 2}; "
            "the input is not a reduced hypersurface"
        )
    # the delta-th forward difference of integers: an integer, and
    # positive unless the working primes agreed on a wrong rank
    lead = coeffs[-1] * factorial(delta)
    if lead <= 0:
        raise BadPrimeError(
            f"degree of the singular subscheme must be positive, got {lead}; "
            f"the working primes {plist} are bad for this polynomial"
        )
    tjurina = int(coeffs[0]) if delta == 0 else None
    return HilbertData(n, d, dict(enumerate(vals)), coeffs, start, delta, int(lead), tjurina, stop)


# -- graded Betti numbers via Koszul homology ----------------------------


def _koszul_rank(ncols: int, rows: list, leads: set, modulus):
    """The rank of a Koszul block and its pivot columns, in one kernel
    call.  ``leads`` are the distinct leading columns of the rows settled
    by them, each a pivot the kernel would store unreduced; ``rows`` go
    to the kernel: the empty rows of a settled block, or every row of a
    block where two rows share a lead.  So ``len(leads) + len(rows)`` is
    the block's row count."""
    pivots = _rank(SparseMatrix._from_rows(ncols, rows, modulus), modulus)
    return len(leads) + pivots.rank, leads.union(pivots)


def _betti_over_field(f: Polynomial, q_max: int, field):
    """Graded Betti numbers beta_{p,q} for p = 0..n+1 and the proof that
    ended the pass, the (m, j) of _prove_regularity or None; or None, with
    no Betti numbers, and (K, 0) when piece K is 0 over the field (see
    graded_betti).  The pieces of degree k = K mod d-1 up to
    K = (n+1)(d-2)+1 are built first (see _smooth_stop): piece K is 0
    exactly when the partials are a regular sequence, and then no other
    piece is built.  Otherwise the pieces are built in ascending order,
    those already built reused; none of them is empty, as an empty piece
    would make the partials a regular sequence.

    The pass proves its own stop (see _prove_regularity) at a piece
    k <= q_max - n.  Once J_f is proven m-regular at piece k = m+1,
    beta_{p,q} = 0 for q - p >= m: no later piece is built, and only the
    band q - p <= m is ranked, up to q = m+n+1.  A block in the band
    reads pieces up to m+1 and nothing more, and the Betti numbers on its
    edge, q - p = m, are provably 0 (graded_betti checks them).  Without
    a proof every q <= q_max is ranked: the same loop with no band.

    Piece k of M is the reduced echelon form (rref) of the degree-k
    Jacobian block over the field, from _pruned_blocks.  Its non-pivot
    columns are a monomial basis of the piece; each pivot row is minus
    the pivot's normal form.  The certificate's section blocks are only
    ranked, not reduced (see _section_dimensions).

    K_p = Lambda^p(C^{n+1}) tensor M shifted so the differential
    d(e_S tensor m) = sum_j (-1)^j e_{S \\ s_j} tensor x_{s_j} m preserves
    the internal degree q; beta_{p,q} = dim K_{p,q} - rank d_{p,q}
    - rank d_{p+1,q}.

    M is generated by 1, so S_1 M_k = M_(k+1) and d_1 into degree q >= 1
    has rank dim M_q: only positions p >= 2 eliminate.  d_p is ranked
    transposed, one row per e_S tensor b, b a basis column of piece k =
    q - p, at index index(S) * dim S_k + b.  x_s b is a monomial nu of
    degree k+1: a basis column, or a pivot column whose tail is minus its
    normal form.  Face T puts nu at column index(T) * dim S_(k+1) + nu;
    columns left empty change no rank.  Each row is scaled by the unit
    (-1)^(p-1), so the face S less its last index, which holds the row's
    leading column, enters with sign +1: a row whose leading column is a
    basis column leads with 1, which the kernel stores unscaled.

    Each degree q is ranked from p = min(q, n+1) down to max(2, q-m),
    and d_p's block leaves out the row at every pivot column c of
    d_(p+1)'s.  That pivot row, e_c plus later coordinates, lies in
    im d_(p+1), which d_p kills, so row c of d_p's block is a combination
    of later rows; by induction from the last row the kept rows span the
    same space.  Only beta_{p,q} kept rows then reduce to zero.

    Most blocks are ranked by their rows' leading columns alone.  The
    faces of e_S sit in disjoint column ranges, and index(T) grows as
    the index left out of S falls, so a row's leading column is in the
    face S less its last index if x_s b is nonzero there, else in the
    next: nu for a basis column, the first column of the tail for a
    pivot, nothing where x_s b lies in J_f.  If the kept rows' leading
    columns are all distinct, the kernel would store each nonzero row as
    a pivot at its lead with no subtraction: the rank is the count of
    nonzero rows and the pivot columns are the leads, and no row body is
    built.  The kernel still gets the block's empty rows, so rows less
    rank is beta_{p,q} in every call.  A block where two kept rows share
    a lead is built and ranked whole, and so is one where a kept row
    leads with a value that is not a unit mod N, where the kernel may
    split."""
    n, d = f.n, f.degree
    gens = _partials(f, field.modulus)

    # rref is looked up at each call: perfbench rebinds it
    block = cache(_pruned_blocks(gens, d - 1, n, field.modulus, lambda m: rref(m.data, field)))

    def value(k):
        return dim_degree_piece(n, k) - len(block(k))

    if (K := _smooth_stop(n, d, q_max, value)) is not None:
        return None, (K, 0)
    size, proof = _prove_regularity(f, field.modulus, gens, q_max - n, value)
    if proof is None:
        m = q_max  # every q - p <= q_max is ranked
        size += [value(k) for k in range(len(size), q_max + 1)]
    else:
        m, q_max = proof[0], proof[0] + n + 1  # beta_{p,q} = 0 for q - p >= m

    @cache
    def basis(k):
        """(column, key) of each basis column of piece k, its non-pivot
        columns in increasing order, with its monomial's packed key."""
        piece = block(k)
        return [(c, key) for key, c in reversed(grevlex_columns(n, k).items()) if c not in piece]

    @cache
    def images(s, k):
        """(nu, tail) for each basis column b of piece k: nu is the column
        of x_s b in degree k+1, tail its pivot tail there or None."""
        col_of, step, nxt = grevlex_columns(n, k + 1), 1 << 16 * s, block(k + 1)
        return [(nu, nxt.get(nu)) for nu in (col_of[key + step] for _, key in basis(k))]

    @cache
    def leads(s, k):
        """The leading column of the image of x_s b in degree k+1, for each
        basis column b of piece k: nu, the first column of nu's pivot tail,
        or None where x_s b lies in J_f.  -1 where a tail leads with a value
        that is not a unit mod N: only the kernel may settle a row that
        leads there."""
        out = []
        for nu, tail in images(s, k):
            if tail is None:
                out.append(nu)
            elif not tail:
                out.append(None)
            else:
                c = min(tail)
                out.append(c if field.modulus is None or gcd(tail[c], field.modulus) == 1 else -1)
        return out

    @cache
    def faces(p):
        """(index(S), [(index(T), odd sign, s) of each face T = S less s])
        for each p-subset S, index() its place among the subsets of its
        size."""
        t_index = {t: i for i, t in enumerate(combinations(range(n + 1), p - 1))}
        return [
            (si, [(t_index[s_set[:j] + s_set[j + 1 :]], (p - 1 - j) % 2, s) for j, s in enumerate(s_set)])
            for si, s_set in enumerate(combinations(range(n + 1), p))
        ]

    # N - v, not -v: a matrix tagged with N holds residues in [1, N)
    negate = neg if field.modulus is None else field.modulus.__sub__
    minus_one = negate(1)

    def settled_by_leads(p, k, own, width, skip):
        """The distinct leading columns of the kept rows of a block and its
        empty rows; None at the first column two rows share, or at a kept
        row whose lead only the kernel may settle (see leads)."""
        seen, empty, cols = set(), [], basis(k)
        for si, s_faces in faces(p):
            base = si * own
            # smallest shift first: S less its last index, then the others
            lead_lists = [(ti * width, leads(s, k)) for ti, _, s in reversed(s_faces)]
            for b, (c, _) in enumerate(cols):
                if base + c in skip:
                    continue
                for shift, lead in lead_lists:
                    x = lead[b]
                    if x is not None:
                        if x < 0:
                            return None
                        x += shift
                        if x in seen:
                            return None
                        seen.add(x)
                        break
                else:
                    empty.append({})
        return seen, empty

    def rank_of(p, q, skip):
        """The rank of d_p in degree q and the pivot columns of its block,
        less the rows at the columns in ``skip``.  Row e_S tensor b sits at
        index(S) * dim S_k + b, and face T's columns from
        index(T) * dim S_(k+1) on."""
        k = q - p
        own, width = dim_degree_piece(n, k), dim_degree_piece(n, k + 1)
        ncols, cols = comb(n + 1, p - 1) * width, basis(k)
        settled = settled_by_leads(p, k, own, width, skip)
        if settled is not None:
            pivots, empty = settled
            return _koszul_rank(ncols, empty, pivots, field.modulus)
        data = []
        for si, s_faces in faces(p):
            base = si * own
            s_faces = [(ti * width, odd, images(s, k)) for ti, odd, s in s_faces]
            for b, (c, _) in enumerate(cols):
                if base + c in skip:
                    continue
                row = {}
                for shift, odd, image in s_faces:
                    nu, tail = image[b]
                    if tail is None:
                        row[shift + nu] = minus_one if odd else 1
                    else:
                        for cc, v in tail.items():
                            row[shift + cc] = v if odd else negate(v)
                data.append(row)
        return _koszul_rank(ncols, data, set(), field.modulus)

    betas = {}
    for q in range(q_max + 1):
        low, p_max = max(0, q - m), min(q, n + 1)  # the band: q - p <= m
        rank = [0] * (n + 3)  # rank[p] = rank d_{p,q}
        if q and low <= 1:
            rank[1] = size[q]
        skip = set()
        for p in range(p_max, max(low, 2) - 1, -1):
            rank[p], skip = rank_of(p, q, skip)
        for p in range(low, p_max + 1):
            b = comb(n + 1, p) * size[q - p] - rank[p] - rank[p + 1]
            if b:
                betas[(p, q)] = b
    return betas, proof


def cone_check(f: Polynomial):
    """Refuse polynomials whose partials are linearly dependent.

    The fixed resolution shape puts all n+1 partials as independent
    generators; a dependent family (a cone, up to coordinates) has a
    strictly smaller minimal first step, which this pipeline does not
    reconcile."""
    n = f.n
    # the degree-(d-1) Jacobian block has the partials as its rows
    rank = rank_rational(_jacobian_matrix(f, f.degree - 1)).rank
    if rank < n + 1:
        raise ConeError(
            f"the {n + 1} partial derivatives span only a {rank}-dimensional "
            "space; f is a cone (or has a vanishing partial)"
        )


def graded_betti(f: Polynomial, max_degree=None, primes=None) -> BettiTable:
    """Graded Betti table of the Jacobian algebra of f.

    A quotient piece that is 0 over the working field is 0 over Q, as a
    rank mod p is never above the rank over Q.  Then M(f) is Artinian,
    the partials are a regular sequence and the table is
    koszul_smooth_table(n, d), whatever the bound.  A smooth f is found
    from the pieces of degree k = K mod d-1 alone, up to the one of
    degree K = (n+1)(d-2)+1, where a regular sequence leaves 0 (see
    _smooth_stop), so long as K is within the bound.  Otherwise position
    p = k+1 in degree q lands in column k with shift q - (d-1).  A Betti
    number on the degree bound, in any position, or a sigma_0 other than
    n (the alternating count of a complete resolution of the torsion
    module S/J is 0) raises an incomplete-table error instead of silently
    truncating.  The bound checked is the one ranked: ``max_degree`` or
    (n+1)(d-1) at every position.  Once J_f is proven m-regular (see
    _betti_over_field), it is the edge of the band instead, degree m+p at
    position p, where every Betti number is provably 0: a nonzero one
    there contradicts the proof, so the working primes agreed on a wrong
    rank, and raises BadPrimeError.
    """
    n, d = _validate(f)
    q_max = max_degree if max_degree is not None else (n + 1) * (d - 1)
    if q_max < d:
        raise ValueError("max_degree must be at least d")
    cone_check(f)

    plist = _working_primes(f, primes, 0)
    betas, proof = _exact(lambda modulus: _betti_over_field(f, q_max, Field(modulus)), plist)
    if betas is None:
        return koszul_smooth_table(n, d)

    # cone_check has shown over Q that the partials are independent, so
    # only primes that agree on a wrong answer can break position 1
    beta1 = {q: b for (p, q), b in betas.items() if p == 1}
    if beta1 != {d - 1: n + 1}:
        raise BadPrimeError(
            f"position 1 must be {n + 1} generators in degree {d - 1}, got {beta1}; "
            f"the working primes {plist} are bad for this polynomial"
        )

    if proof:  # the pass ranked the band q - p <= m up to q = m+n+1
        m, q_max = proof[0], proof[0] + n + 1
        if edge := sorted(p for p, q in betas if q - p == m):
            raise BadPrimeError(
                f"J_f is proven {m}-regular, but positions {edge} have nonzero "
                f"Betti numbers at q - p = {m}; the working primes {plist} are bad for this polynomial"
            )
    boundary = {p: b for (p, q), b in betas.items() if q == q_max}
    if boundary:
        raise IncompleteTableError(
            f"nonzero Betti numbers at the degree bound {q_max} in positions "
            f"{sorted(boundary)}; raise max_degree and retry",
            boundary=boundary,
        )

    columns = {k: [] for k in range(1, n + 1)}
    for (p, q), b in sorted(betas.items()):
        if p < 2:
            continue
        columns[p - 1].extend([q - (d - 1)] * b)
    table = BettiTable.of(n, d, columns)
    if table.m(1) < n:
        raise IncompleteTableError(
            f"only {table.m(1)} first syzygies found below the degree bound "
            f"{q_max}, but at least {n} must exist; raise max_degree and retry"
        )
    if table.power_sums[0] != n:
        raise IncompleteTableError(
            f"the Betti numbers below the degree bound {q_max} have sigma_0 = "
            f"{table.power_sums[0]}, but a complete resolution has {n}; "
            "raise max_degree and retry"
        )
    return table


# -- cross validation ----------------------------------------------------


@dataclass
class CrossCheckReport:
    hilbert: HilbertData | None
    table: BettiTable | None
    rule_report: object
    deviations: list[str]


def cross_check(f: Polynomial, window=None, max_degree=None, primes=None) -> CrossCheckReport:
    """Run both pipelines and compare every quantity they share.

    Deviations are collected, not raised: a pipeline error (cone, window,
    incomplete bound, bad prime) becomes a deviation entry, and value
    disagreements name the degree or invariant where the two sides differ.
    """
    deviations: list[str] = []
    hilbert = None
    table = None
    rule_report = None

    try:
        hilbert = hilbert_fit(f, window=window, primes=primes)
    except (WindowTooSmallError, ValueError, BadPrimeError) as exc:
        deviations.append(f"hilbert_fit failed: {exc}")

    try:
        table = graded_betti(f, max_degree=max_degree, primes=primes)
    except (IncompleteTableError, ValueError, BadPrimeError) as exc:
        deviations.append(f"graded_betti failed: {exc}")

    if table is not None:
        rule_report = full_report(table)
        if rule_report.obstructions:
            deviations.append(
                "rule engine found obstructions on an oracle table: "
                + ", ".join(rule_report.obstructions)
            )

    if hilbert is not None and table is not None and rule_report is not None:
        smooth_h = hilbert.delta is None
        smooth_b = rule_report.verdict.kind == "smooth"
        if smooth_h != smooth_b:
            deviations.append(
                f"smoothness disagrees: hilbert says {'smooth' if smooth_h else 'singular'}, "
                f"table says {'smooth' if smooth_b else 'singular'}"
            )
        elif not smooth_h:
            if hilbert.delta != rule_report.delta:
                deviations.append(
                    f"dimension disagrees: hilbert delta={hilbert.delta}, "
                    f"table delta={rule_report.delta}"
                )
            elif hilbert.degree_sigma != rule_report.deg_sigma:
                deviations.append(
                    f"degree disagrees: hilbert {hilbert.degree_sigma}, "
                    f"table {rule_report.deg_sigma}"
                )
            if hilbert.delta == 0 and hilbert.tjurina != rule_report.tau:
                deviations.append(
                    f"Tjurina number disagrees: hilbert {hilbert.tjurina}, "
                    f"table {rule_report.tau}"
                )
        # J_f is (reg + 1)-regular and no less, so a proven stop below
        # reg + 1 means a bad prime or a bug; a stop above it proves nothing
        # wrong, as unlucky forms or a late first attempt give one
        reg = rule_report.reg
        if hilbert.stop is not None and reg is not None and reg + 1 > hilbert.stop:
            deviations.append(
                f"regularity disagrees: hilbert proves a stop at degree {hilbert.stop}, "
                f"below the table's reg + 1 = {reg + 1}"
            )
        for k, v in sorted(hilbert.values.items()):
            predicted = hilbert_function_from_table(table, k)
            if predicted != v:
                deviations.append(
                    f"Hilbert function disagrees at degree {k}: "
                    f"computed {v}, table predicts {predicted}"
                )
        table_poly = tuple(hilbert_polynomial_from_table(table))
        if table_poly != tuple(hilbert.poly):
            deviations.append(
                f"Hilbert polynomial disagrees: fitted {list(hilbert.poly)}, "
                f"table gives {list(table_poly)}"
            )

    return CrossCheckReport(hilbert, table, rule_report, deviations)
