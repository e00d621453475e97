"""Ground-truth invariants computed from an explicit defining polynomial.

Two independent pipelines live here.  The Hilbert side computes the graded
dimensions of the quotient by the partial-derivative ideal degree by degree
and fits the eventual polynomial, which carries the dimension and degree of
the singular subscheme.  The Betti side computes graded Betti numbers as the
homology of the quotient tensored with the Koszul complex on the variables,
which needs nothing beyond exact kernel/rank computations on
multiplication-by-variable block matrices.

Each pipeline computes modulo its own two word-size primes; ranks over a
prime field can only drop, so agreement certifies the answer for practical
purposes and any disagreement reruns the same sparse elimination kernel
over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from math import comb, factorial
from operator import add
from typing import NamedTuple

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
    deterministic_primes,
    is_probable_prime,
    rank_mod_p,
    rank_rational,
    reduce_mod,
    rref,
)
from .polynomials import Polynomial, _seed_of, dim_degree_piece, grevlex_exponents
from .rules import (
    full_report,
    hilbert_function_from_table,
    hilbert_polynomial_from_table,
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


@lru_cache(maxsize=64)
def default_primes(f: Polynomial, count: int = 2, part: int = 0) -> tuple[int, ...]:
    """Working primes derived deterministically from the input digest.

    ``part`` picks the 64 bits of the digest that seed them: the Betti side
    uses part 0 and the Hilbert side part 1, so the two sides compare four
    primes, not one pair twice.  Every degree asks again, so the primes are
    cached per polynomial; the tuple is shared by every caller."""
    return tuple(deterministic_primes(_seed_of(f, part), count))


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


def _over_primes(f: Polynomial, primes, compute, part: int = 0):
    """Run compute on the working primes; returns (its result, the primes).

    Pinned primes are used as given, and a bad one raises.  Primes derived
    from the input digest (its ``part``, see default_primes) are not: one
    that compute reports bad (``BadPrimeError.prime``) is replaced by a
    fresh prime drawn from the same part, and compute runs again.  Both
    pipelines draw replacements here.
    """
    if primes:
        plist = list(primes)
        for p in plist:
            if not is_probable_prime(p):
                raise ValueError(f"{p} is not prime")
        return compute(plist), plist
    plist = list(default_primes(f, 2, part))
    drawn = list(plist)
    while True:
        try:
            return compute(plist), plist
        except BadPrimeError as exc:
            if exc.prime not in plist:
                raise
            stream = default_primes(f, len(drawn) + 9, part)
            fresh = next(p for p in stream if p not in drawn)
            drawn.append(fresh)
            plist = [fresh if p == exc.prime else p for p in plist]


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
    """The partials' terms over F_p, leaving out terms that vanish mod p.
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


def _jacobian_matrix(f: Polynomial, k: int, p=None) -> SparseMatrix:
    """Degree-k piece of the gradient map, rows = generators m*f_i over the
    degree-k monomial columns (decreasing order), over F_p when a prime p
    is given.  The Hilbert side ranks these rows; the Betti side echelons
    them into the quotient piece."""
    n, d = f.n, f.degree
    monos = grevlex_exponents(n, k)
    ncols = len(monos)
    col_of = {e: ncols - 1 - i for i, e in enumerate(monos)}
    data = []
    if k - (d - 1) >= 0:
        for terms in _partial_terms(f) if p is None else _partial_terms_mod(f, p):
            for m in grevlex_exponents(n, k - d + 1):
                row = {}
                for e, c in terms:
                    row[col_of[tuple(map(add, e, m))]] = c
                data.append(row)
    return SparseMatrix._from_rows(ncols, data, p)


def milnor_dimension(f: Polynomial, k: int, primes=None) -> int:
    """dim of the degree-k piece of the Jacobian algebra S/J_f.

    Pinned primes are used as given; primes derived from the input are
    the Hilbert side's own (part 1 of the digest), replaced when bad (see
    _over_primes)."""
    n, d = _validate(f)
    if k < 0:
        raise ValueError("degree must be non-negative")
    if k < d - 1:
        return dim_degree_piece(n, k)

    def ranks_mod(plist):
        return {p: rank_mod_p(_jacobian_matrix(f, k, p), p).rank for p in plist}

    ranks, _ = _over_primes(f, primes, ranks_mod, part=1)
    # trust the modular ranks when they agree and no prime wiped out a partial
    agreed = set(ranks.values())
    if len(agreed) == 1 and not any(_kills_a_partial(f, p) for p in ranks):
        rank = agreed.pop()
    else:
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
    """
    n, d = _validate(f)
    w = window if window is not None else (n + 1) * (d - 2) + n + 2
    if w < d + 1:
        raise ValueError("window upper bound is too small to say anything")
    vals = [milnor_dimension(f, k, primes=primes) for k in range(w + 1)]
    values = dict(enumerate(vals))

    if vals[-1] == 0 and vals[-2] == 0:
        k0 = w
        while k0 > 0 and vals[k0 - 1] == 0:
            k0 -= 1
        return HilbertData(n, d, values, (), k0, None, None, None)

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
            "the working primes are bad for this polynomial"
        )
    tjurina = int(coeffs[0]) if delta == 0 else None
    return HilbertData(n, d, values, coeffs, start, delta, int(lead), tjurina)


def _newton_fit(heads, base) -> tuple[Fraction, ...]:
    """sum_i heads[i] * C(k - base, i), the polynomial whose i-th forward
    difference at base is heads[i], as coefficients in k (low first)."""
    coeffs = [Fraction(0)] * len(heads)
    binom = [Fraction(1)]  # C(k - base, i), low coefficient first
    for i, head in enumerate(heads):
        coeffs[: i + 1] = [c + head * b for c, b in zip(coeffs, binom)]
        # C(k - base, i + 1) = C(k - base, i) * (k - base - i) / (i + 1)
        binom = [(a - (base + i) * b) / (i + 1) for a, b in zip([0] + binom, binom + [0])]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


# -- graded Betti numbers via Koszul homology ----------------------------


class _Piece(NamedTuple):
    """Monomial basis of one graded piece of the quotient plus the normal
    forms of the pivot monomials, over one field; monomials are exponent
    vectors."""

    basis: list
    index: dict
    normal: dict


def _quotient_piece(f, k, field) -> _Piece:
    """Echelon the rows of the degree-k Jacobian block over the field."""
    pivots = rref(_jacobian_matrix(f, k, field.modulus).data, field)
    monos = grevlex_exponents(f.n, k)
    ncols = len(monos)
    basis = []
    index = {}
    for ci in range(ncols - 1, -1, -1):  # descending column = increasing grevlex
        if ci not in pivots:
            e = monos[ncols - 1 - ci]
            index[e] = len(basis)
            basis.append(e)
    normal = {}
    for ci, row in pivots.items():
        normal[monos[ncols - 1 - ci]] = {
            index[monos[ncols - 1 - cc]]: field.neg(v)
            for cc, v in row.items()
            if cc != ci
        }
    return _Piece(basis, index, normal)


def _mult_matrix(pieces, i, k, field) -> SparseMatrix:
    """Multiplication by x_i from the degree-k piece to the next one."""
    src, dst = pieces[k], pieces[k + 1]
    data = [{} for _ in dst.basis]
    for j, mu in enumerate(src.basis):
        nu = mu[:i] + (mu[i] + 1,) + mu[i + 1 :]
        pos = dst.index.get(nu)
        if pos is not None:
            data[pos][j] = 1
        else:
            for r, v in dst.normal[nu].items():
                data[r][j] = v
    return SparseMatrix._from_rows(len(src.basis), data, field.modulus)


def _betti_over_field(f: Polynomial, q_max: int, field) -> dict:
    """Graded Betti numbers beta_{p,q} for p = 0..n+1, q = 0..q_max.

    K_p = Lambda^p(C^{n+1}) tensor M shifted so the differential
    d(e_S tensor m) = sum_j (-1)^j e_{S \\ s_j} tensor x_{s_j} m preserves
    the internal degree q; beta_{p,q} = dim K_{p,q} - rank d_{p,q}
    - rank d_{p+1,q}."""
    n = f.n
    pieces = [_quotient_piece(f, k, field) for k in range(q_max + 1)]
    mult = {}
    for k in range(q_max):
        if pieces[k].basis:
            for i in range(n + 1):
                mult[(i, k)] = _mult_matrix(pieces, i, k, field)

    subset_cache = {p: list(combinations(range(n + 1), p)) for p in range(n + 2)}

    @cache
    def rank_of(p, q):
        if p < 1 or p > n + 1:
            return 0
        k = q - p
        if k < 0 or not pieces[k].basis:
            return 0
        dom = len(pieces[k].basis)
        cod = len(pieces[k + 1].basis)
        if cod == 0:
            return 0
        subsets = subset_cache[p]
        t_index = {t: i for i, t in enumerate(subset_cache[p - 1])}
        data = [{} for _ in range(len(t_index) * cod)]
        for si, s_set in enumerate(subsets):
            shift = si * dom
            for j, s in enumerate(s_set):
                ti = t_index[s_set[:j] + s_set[j + 1 :]]
                odd = j % 2
                for r, row in enumerate(mult[(s, k)].data, start=ti * cod):
                    if row:
                        out = data[r]
                        for c, v in row.items():
                            out[shift + c] = field.neg(v) if odd else v
        matrix = SparseMatrix._from_rows(len(subsets) * dom, data, field.modulus)
        if field.modulus is None:
            return rank_rational(matrix).rank
        return rank_mod_p(matrix, field.modulus).rank

    betas = {}
    for q in range(q_max + 1):
        for p in range(0, min(q, n + 1) + 1):
            dim_k = comb(n + 1, p) * len(pieces[q - p].basis)
            if dim_k == 0:
                continue
            b = dim_k - rank_of(p, q) - rank_of(p + 1, q)
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

    Homological position p = k+1 with internal degree q lands in column k
    with shift q - (d-1).  Nonzero homology at the degree bound in any
    position that could still continue raises an incomplete-table error
    instead of silently truncating; the top position n+1 is allowed to sit
    exactly on the bound, where the smooth table ends.
    """
    n, d = _validate(f)
    q_max = max_degree if max_degree is not None else (n + 1) * (d - 1)
    if q_max < d:
        raise ValueError("max_degree must be at least d")
    cone_check(f)

    results, plist = _over_primes(
        f, primes, lambda plist: [_betti_over_field(f, q_max, PrimeField(p)) for p in plist]
    )
    if all(r == results[0] for r in results[1:]):
        betas = results[0]
    else:
        betas = _betti_over_field(f, q_max, QQ)

    # cone_check has shown over Q that the partials are independent, so
    # only primes that agree on a wrong answer can break positions 0 and 1
    if betas.get((0, 0)) != 1 or any(p == 0 and q != 0 for p, q in betas):
        raise BadPrimeError(
            "position 0 must be exactly the ground field in degree 0; "
            f"the working primes {plist} are bad for this polynomial"
        )
    beta1 = {q: b for (p, q), b in betas.items() if p == 1}
    if beta1 != {d - 1: n + 1}:
        raise BadPrimeError(
            f"position 1 must be {n + 1} generators in degree {d - 1}, got {beta1}; "
            f"the working primes {plist} are bad for this polynomial"
        )

    boundary = {p: betas[(p, q_max)] for p in range(0, n + 1) if (p, q_max) in betas}
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
        shift = q - (d - 1)
        if shift < 0:
            raise BadPrimeError(
                f"position {p} has a Betti number in degree {q}, below the generators; "
                f"the working primes {plist} are bad for this polynomial"
            )
        columns[p - 1].extend([shift] * b)
    table = BettiTable.of(n, d, columns)
    if table.m(1) < n:
        raise IncompleteTableError(
            f"only {table.m(1)} first syzygies found below the degree bound "
            f"{q_max}, but at least {n} must exist; raise max_degree and retry"
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
