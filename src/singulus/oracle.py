"""Ground-truth invariants computed from an explicit defining polynomial.

Two independent pipelines live here.  The Hilbert side computes the graded
dimensions of the quotient by the partial-derivative ideal degree by degree
and fits the eventual polynomial, which carries the dimension and degree of
the singular subscheme.  The Betti side computes graded Betti numbers as the
homology of the quotient tensored with the Koszul complex on the variables,
which needs nothing beyond exact kernel/rank computations on
multiplication-by-variable block matrices.

Each pipeline computes modulo its own two word-size primes, in one
elimination mod their product N; ranks over a prime field can only drop,
so a pass that finishes certifies the answer for practical purposes.
Where the two prime fields would part ways the pass mod N splits (see
linalg), and the same sparse elimination kernel reruns over the
rationals: the one degree on the Hilbert side, the whole Betti side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from math import comb, factorial, prod
from operator import add

from .errors import (
    BadPrimeError,
    ConeError,
    IncompleteTableError,
    NonHomogeneousError,
    WindowTooSmallError,
)
from .linalg import (
    QQ,
    PrimeField,
    SparseMatrix,
    _NonUnitPivot,
    deterministic_primes,
    is_probable_prime,
    rank_mod_p,
    rank_rational,
    reduce_mod,
    rref,
)
from .polynomials import (
    Polynomial,
    _seed_of,
    dim_degree_piece,
    grevlex_columns,
    grevlex_exponents,
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
    delta == 0.
    """

    n: int
    d: int
    values: dict[int, int]
    poly: tuple[Fraction, ...]  # low coefficient first; () is the zero polynomial
    k0: int
    delta: int | None
    degree_sigma: int | None
    tjurina: int | None


def _validate(f: Polynomial):
    if f.is_zero():
        raise ValueError("the zero polynomial has no Jacobian algebra here")
    if not f.is_homogeneous():
        raise NonHomogeneousError("f must be homogeneous")
    if f.n < 2:
        raise ValueError("need at least three variables (n >= 2)")
    if f.degree < 3:
        raise ValueError("need degree d >= 3")
    return f.n, f.degree


def _working_primes(f: Polynomial, primes, part: int) -> list[int]:
    """The distinct pinned primes in first-seen order, each
    Miller-Rabin-tested, or else the pair derived from part ``part`` of
    the input digest (see default_primes).  Distinct, because the
    pipelines work mod their product, which must be squarefree.  Pinned
    primes are never replaced: a bad one raises BadPrimeError at the first
    block reduced mod the product (see reduce_mod)."""
    if not primes:
        return list(default_primes(f, part))
    for p in primes:
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
    return list(dict.fromkeys(primes))


# -- Jacobian graded pieces ---------------------------------------------


@lru_cache(maxsize=64)
def _partial_terms(f: Polynomial):
    """Each partial derivative as (exponents, coefficient) pairs; integral
    coefficients become plain ints.  Every degree of both pipelines asks
    for them, so they are cached; callers must not change the lists."""
    return [
        [(e, c.numerator if c.denominator == 1 else c) for e, c in f.partial(i).terms.items()]
        for i in range(f.n + 1)
    ]


def _partial_terms_mod(f: Polynomial, p: int):
    """The partials' terms over Z/p, leaving out terms that vanish mod p.
    The images come from reduce_mod on the degree-(d-1) block, whose rows
    are the partials themselves."""
    monos = grevlex_exponents(f.n, f.degree - 1)
    top = len(monos) - 1
    block = reduce_mod(_jacobian_matrix(f, f.degree - 1), p)
    return [[(monos[top - c], v) for c, v in row.items()] for row in block.data]


def _kills_a_partial(f: Polynomial, p: int) -> bool:
    """Whether p divides every coefficient of some nonzero partial, so that
    ranks mod p say nothing about ranks over Q."""
    return any(
        terms and all(c.numerator % p == 0 for _, c in terms)
        for terms in _partial_terms(f)
    )


def _divides_a_denominator(f: Polynomial, p: int) -> bool:
    """Whether p divides the denominator of some coefficient of a partial,
    the one thing that stops the partials from being reduced mod p."""
    return any(c.denominator % p == 0 for terms in _partial_terms(f) for _, c in terms)


@lru_cache(maxsize=64)
def default_primes(f: Polynomial, part: int = 0) -> tuple[int, int]:
    """Working primes derived deterministically from the input digest: the
    first two of the stream seeded by its ``part`` that divide no
    denominator of a partial, so a derived prime is never bad.

    The Betti side uses part 0 and the Hilbert side part 1, so the two
    sides compare four primes, not one pair twice.  Cached per polynomial;
    the tuple is shared by every caller."""
    seed, count, good = _seed_of(f, part), 2, []
    while len(good) < 2:
        good = [p for p in deterministic_primes(seed, count) if not _divides_a_denominator(f, p)]
        count += 2 - len(good)
    return tuple(good)


def _jacobian_block(f: Polynomial, k: int, p=None, lead=None):
    """Degree-k piece of the gradient map, rows = generators m*f_i over the
    degree-k monomial columns (decreasing order), over Z/p when a modulus
    p is given; returns the matrix and the index i of each row's partial.
    The Hilbert side ranks these rows; the Betti side echelons them into
    the quotient piece.

    ``lead`` is the Pivots.lead of the degree-(k-d+1) block over the same
    field, its rows fed in this order.  The row m*f_i is left out when the
    pivot at m's column came from a row of a partial before f_i, the F5
    criterion: then m is the leading monomial of some g = m + lower in
    <f_0, ..., f_(i-1)>, and m*f_i = g*f_i - lower*f_i
    lies in the span of the rows of earlier partials and of rows t*f_i
    with t < m.  By induction the row space, and so every rank and every
    reduced echelon form, is that of the full block.
    """
    n, d = f.n, f.degree
    col_of = grevlex_columns(n, k)
    data = []
    owners = []
    if k - (d - 1) >= 0:
        mults = grevlex_exponents(n, k - d + 1)
        mcol = grevlex_columns(n, k - d + 1)
        for i, terms in enumerate(_partial_terms(f) if p is None else _partial_terms_mod(f, p)):
            for m in mults:
                if lead is not None and lead.get(mcol[m], i) < i:
                    continue
                row = {}
                for e, c in terms:
                    row[col_of[tuple(map(add, e, m))]] = c
                data.append(row)
                owners.append(i)
    return SparseMatrix._from_rows(len(col_of), data, p), owners


def _jacobian_matrix(f: Polynomial, k: int, p=None) -> SparseMatrix:
    """The full degree-k block, every generator m*f_i: the reference the
    pruned blocks are tested against."""
    return _jacobian_block(f, k, p)[0]


def milnor_dimension(f: Polynomial, k: int, primes=None, *, leads=None) -> int:
    """dim of the degree-k piece of the Jacobian algebra S/J_f.

    Pinned primes are used as given; primes derived from the input are
    the Hilbert side's own (part 1 of the digest, see default_primes).

    The block is ranked once, mod the product N of the working primes, and
    over Q when that pass splits (see linalg) or a prime wipes out a partial.

    ``leads`` maps earlier degrees to the lead maps (Pivots.lead) of their
    blocks mod N.  When it is given, the degree-(k-d+1) map prunes the
    block (see _jacobian_block) and this degree's map is added, if the
    pass finished.  Without ``leads`` every block is full."""
    n, d = _validate(f)
    if k < 0:
        raise ValueError("degree must be non-negative")
    if k < d - 1:
        return dim_degree_piece(n, k)
    plist = _working_primes(f, primes, 1)
    modulus = prod(plist)
    leads = {} if leads is None else leads
    block, owners = _jacobian_block(f, k, modulus, leads.get(k - d + 1))
    try:
        pivots = rank_mod_p(block, modulus, owners=owners)
        leads[k] = pivots.lead
        rank = pivots.rank
    except _NonUnitPivot:
        rank = None
    if rank is None or any(_kills_a_partial(f, p) for p in plist):
        rank = rank_rational(_jacobian_matrix(f, k)).rank
    return dim_degree_piece(n, k) - rank


# -- Hilbert function fit -----------------------------------------------


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

    The first zero value ends the computation, even at the last degree of
    the window: if S_k lies in J_f, so does S_{k+1} = S_1 S_k, and every
    later value is 0, so f is smooth with k0 = k.  A zero needs no
    rational check, because a rank mod p is at most the rank over Q.
    The working primes are resolved once, for every degree.
    """
    n, d = _validate(f)
    w = window if window is not None else (n + 1) * (d - 2) + n + 2
    if w < d + 1:
        raise ValueError("window upper bound is too small to say anything")
    plist = _working_primes(f, primes, 1)
    vals = []
    leads = {}  # degree -> lead map; degree k reads degree k-d+1
    for k in range(w + 1):
        vals.append(milnor_dimension(f, k, primes=plist, leads=leads))
        leads.pop(k - d + 1, None)
        if vals[-1] == 0:
            values = dict(enumerate(vals + [0] * (w - k)))
            return HilbertData(n, d, values, (), k, None, None, None)

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
    return HilbertData(n, d, dict(enumerate(vals)), coeffs, start, delta, int(lead), tjurina)


# -- graded Betti numbers via Koszul homology ----------------------------


def _quotient_piece(f, k, field, *, lead=None):
    """The degree-k piece of M(f) over the field, as the reduced echelon
    form of the degree-k Jacobian block in its own grevlex columns (see
    _jacobian_block), pruned by ``lead``, the degree-(k-d+1) piece's map
    over the same field; without it the block is full.

    The non-pivot columns are a monomial basis of the piece.  Each pivot
    row is its tail, as rref stores it: minus the normal form of the pivot
    monomial.  ``lead`` is the block's Pivots.lead, which prunes the block
    d-1 degrees up."""
    block, owners = _jacobian_block(f, k, field.modulus, lead)
    return rref(block.data, field, owners=owners)


def _betti_over_field(f: Polynomial, q_max: int, field):
    """Graded Betti numbers beta_{p,q} for p = 0..n+1, q = 0..q_max, or
    None, with no Betti numbers, at the first quotient piece that is 0
    over the field (see graded_betti).

    K_p = Lambda^p(C^{n+1}) tensor M shifted so the differential
    d(e_S tensor m) = sum_j (-1)^j e_{S \\ s_j} tensor x_{s_j} m preserves
    the internal degree q; beta_{p,q} = dim K_{p,q} - rank d_{p,q}
    - rank d_{p+1,q}.

    M is generated by 1, so S_1 M_k = M_(k+1) and d_1 into degree q >= 1
    has rank dim M_q: only positions p >= 2 eliminate.  d_p is ranked
    transposed, one row per e_S tensor b, b a basis column of piece k.
    x_s b is a monomial nu of degree k+1: a basis column, or a pivot
    column whose tail is minus its normal form.  Face T puts nu at column
    index(T) * dim S_(k+1) + nu; columns left empty change no rank.  Each
    piece's block is pruned by the lead map of the piece d-1 degrees down
    (see _jacobian_block)."""
    n, d = f.n, f.degree
    pieces, size = [], []
    for k in range(q_max + 1):
        lead = pieces[k - d + 1].lead if k >= d - 1 else None
        pieces.append(_quotient_piece(f, k, field, lead=lead))
        size.append(dim_degree_piece(n, k) - len(pieces[k]))
        if not size[k]:
            return None

    @cache
    def images(s, k):
        """(nu, tail) for each basis column b of piece k: nu is the column
        of x_s b in degree k+1, tail its pivot tail there or None."""
        col_of = grevlex_columns(n, k + 1)
        nxt = pieces[k + 1]
        out = []
        for c, e in enumerate(reversed(grevlex_exponents(n, k))):
            if c not in pieces[k]:
                nu = col_of[e[:s] + (e[s] + 1,) + e[s + 1 :]]
                out.append((nu, nxt.get(nu)))
        return out

    subset_cache = {p: list(combinations(range(n + 1), p)) for p in range(n + 2)}
    minus_one = field.neg(1)

    @cache
    def rank_of(p, q):
        k = q - p
        if not 1 <= p <= n + 1 or k < 0:
            return 0
        if p == 1:
            return size[q]
        width = dim_degree_piece(n, k + 1)
        t_index = {t: i for i, t in enumerate(subset_cache[p - 1])}
        data = []
        for s_set in subset_cache[p]:
            faces = [
                (t_index[s_set[:j] + s_set[j + 1 :]] * width, j % 2, images(s, k))
                for j, s in enumerate(s_set)
            ]
            for b in range(size[k]):
                row = {}
                for shift, odd, image in faces:
                    nu, tail = image[b]
                    if tail is None:
                        row[shift + nu] = minus_one if odd else 1
                    else:
                        for c, v in tail.items():
                            row[shift + c] = v if odd else field.neg(v)
                data.append(row)
        matrix = SparseMatrix._from_rows(len(t_index) * width, data, field.modulus)
        if field.modulus is None:
            return rank_rational(matrix).rank
        return rank_mod_p(matrix, field.modulus).rank

    betas = {}
    for q in range(q_max + 1):
        for p in range(0, min(q, n + 1) + 1):
            b = comb(n + 1, p) * size[q - p] - rank_of(p, q) - rank_of(p + 1, q)
            if b:
                betas[(p, q)] = b
    return betas


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
    koszul_smooth_table(n, d), whatever the bound.  Otherwise position
    p = k+1 in degree q lands in column k with shift q - (d-1).  A Betti
    number on the degree bound, in any position, or a sigma_0 other than
    n (the alternating count of a complete resolution of the torsion
    module S/J is 0) raises an incomplete-table error instead of silently
    truncating.
    """
    n, d = _validate(f)
    q_max = max_degree if max_degree is not None else (n + 1) * (d - 1)
    if q_max < d:
        raise ValueError("max_degree must be at least d")
    cone_check(f)

    plist = _working_primes(f, primes, 0)
    try:
        betas = _betti_over_field(f, q_max, PrimeField(prod(plist)))
    except _NonUnitPivot:
        betas = _betti_over_field(f, q_max, QQ)
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
