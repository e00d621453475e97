from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singulus.errors import (
    BadPrimeError,
    ConeError,
    IncompleteTableError,
    NonHomogeneousError,
    WindowTooSmallError,
)
from singulus import oracle
from singulus.linalg import PrimeField
from singulus.oracle import (
    _betti_over_field,
    _jacobian_matrix,
    _mult_matrix,
    _quotient_piece,
    cross_check,
    default_primes,
    graded_betti,
    hilbert_fit,
    milnor_dimension,
)
from singulus.polynomials import grevlex_exponents, infer_variable_count, parse
from singulus.rules import hilbert_function_from_table, koszul_smooth_table
from test_golden import CASES, REPO
from _helpers import (
    cusp_threefold_table,
    dense_rational_rank,
    entries,
    evaluate_polynomial,
    matmul,
    reference_hilbert_fit,
    residue,
    sorted_monomials,
)

CUSP_POLY = parse("x0*x1*x2 + x3^3", 3)
FERMAT = {(n, d): parse("+".join(f"x{i}^{d}" for i in range(n + 1)), n) for n, d in
          [(2, 3), (2, 4), (3, 3)]}
FERMAT_CUBICS = {n: parse("+".join(f"x{i}^3" for i in range(n + 1)), n) for n in range(2, 6)}


def brute_milnor_dimension(f, k):
    """Independent computation: dense rational rank of the literal span."""
    n, d = f.n, f.degree
    monos = sorted_monomials(n, k)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    if k - d + 1 >= 0:
        for i in range(n + 1):
            fi = f.partial(i)
            for m in sorted_monomials(n, k - d + 1):
                row = [Fraction(0)] * len(monos)
                for mm, c in fi.terms.items():
                    row[index[tuple(a + b for a, b in zip(mm, m))]] = c
                rows.append(row)
    return len(monos) - dense_rational_rank(rows)


def test_milnor_dimension_reference_values():
    assert milnor_dimension(CUSP_POLY, 2) == 6
    assert milnor_dimension(parse("x0^3+x1^3+x2^3", 2), 3) == 1
    assert milnor_dimension(CUSP_POLY, 10) == 6


def test_milnor_dimension_matches_brute_force():
    for f in [CUSP_POLY, FERMAT[(2, 3)], parse("x0*x1*x2 + x0^3 + x1^3", 2)]:
        for k in range(8):
            assert milnor_dimension(f, k) == brute_milnor_dimension(f, k)


def test_milnor_dimension_rejects_bad_input():
    with pytest.raises(NonHomogeneousError):
        milnor_dimension(parse("x0^3 + x1", 2), 2)
    with pytest.raises(ValueError):
        milnor_dimension(parse("x0^2+x1^2+x2^2", 2), 2)


def test_hilbert_fit_cusp_threefold():
    hd = hilbert_fit(CUSP_POLY)
    assert (hd.delta, hd.tjurina, hd.degree_sigma) == (0, 6, 6)
    assert hd.poly == (Fraction(6),)
    assert hd.k0 == 2
    assert [hd.values[k] for k in range(4)] == [1, 4, 6, 6]


def test_hilbert_fit_positive_dimensional_cone():
    hd = hilbert_fit(parse("x0*x1*x2", 3))
    assert hd.delta == 1
    assert hd.poly == (Fraction(1), Fraction(3))  # P(k) = 3k + 1
    assert hd.degree_sigma == 3
    assert hd.tjurina is None


def test_hilbert_fit_nodal_curve():
    hd = hilbert_fit(parse("x0*x1*x2 + x0^3 + x1^3", 2))
    assert (hd.delta, hd.tjurina) == (0, 1)


def test_hilbert_fit_smooth_marker():
    hd = hilbert_fit(FERMAT[(2, 3)])
    assert hd.delta is None
    assert hd.poly == ()
    assert hd.degree_sigma is None
    assert hd.values[hd.k0] == 0 and hd.values[hd.k0 - 1] != 0


def test_hilbert_fit_polynomial_matches_values_beyond_k0():
    for f in [CUSP_POLY, parse("x0*x1*x2", 3)]:
        hd = hilbert_fit(f)
        for k, v in hd.values.items():
            if k >= hd.k0:
                assert evaluate_polynomial(list(hd.poly), k) == v


def test_hilbert_fit_window_too_small():
    with pytest.raises(WindowTooSmallError):
        hilbert_fit(CUSP_POLY, window=4)


def test_hilbert_fit_flags_non_reduced_input():
    with pytest.raises(ValueError, match="not a reduced"):
        hilbert_fit(parse("x0^2*x1^2*x2^2", 2), window=16)


@st.composite
def hilbert_values(draw):
    """(n, values) with the values a polynomial from some k0 on, arbitrary
    before it, and up to two values then moved by one."""
    n = draw(st.integers(2, 5))
    w = draw(st.integers(4, 18))
    k0 = draw(st.integers(0, w))
    heads = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5))
    vals = draw(st.lists(st.integers(-3, 40), min_size=k0, max_size=k0)) + [
        sum(h * comb(k - k0, i) for i, h in enumerate(heads)) for k in range(k0, w + 1)
    ]
    for k in draw(st.lists(st.integers(0, w), max_size=2)):
        vals[k] += draw(st.sampled_from([-1, 1]))
    return n, vals


@settings(max_examples=300)
@given(hilbert_values())
@example((2, [1, 3, 3, 1, 0, 0]))  # smooth
@example((3, [1, 4, 6, 6, 6, 6, 6]))  # delta 0, tau 6
@example((2, [1, 2, 3, 4, 5, 6]))  # degree 1 > n-2
@example((3, [10, 9, 8, 7, 6, 5]))  # negative degree
@example((2, [0, 1, 4, 9, 16, 25]))  # no stabilization
def test_hilbert_fit_matches_the_reference_fit(case):
    n, vals = case
    f = FERMAT_CUBICS[n]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "milnor_dimension", lambda f, k, primes=None: vals[k])
        try:
            hd = hilbert_fit(f, window=len(vals) - 1)
        except (ValueError, BadPrimeError, WindowTooSmallError) as exc:
            got = (type(exc).__name__, str(exc), getattr(exc, "tail", None))
        else:
            assert hd.values == dict(enumerate(vals)) and (hd.n, hd.d) == (n, 3)
            assert all(type(c) is Fraction for c in hd.poly)
            got = (hd.poly, hd.k0, hd.delta, hd.degree_sigma, hd.tjurina)
    assert got == reference_hilbert_fit(n, vals)


def test_graded_betti_cusp_threefold():
    table = graded_betti(CUSP_POLY)
    assert table == cusp_threefold_table()


def test_graded_betti_fermat_matches_koszul():
    for (n, d), f in FERMAT.items():
        assert graded_betti(f) == koszul_smooth_table(n, d)


def test_graded_betti_rejects_cones():
    with pytest.raises(ConeError):
        graded_betti(parse("x0*x1*x2", 3))


def test_graded_betti_incomplete_at_tight_bound():
    with pytest.raises(IncompleteTableError) as err:
        graded_betti(CUSP_POLY, max_degree=3)
    assert 2 in err.value.boundary
    # nothing sits on the bound, but the n first syzygies are missing
    with pytest.raises(IncompleteTableError) as err:
        graded_betti(FERMAT[(2, 3)], max_degree=3)
    assert str(err.value) == (
        "only 0 first syzygies found below the degree bound 3, "
        "but at least 2 must exist; raise max_degree and retry"
    )
    assert err.value.boundary == {}


def test_graded_betti_deterministic_across_prime_choices():
    t1 = graded_betti(CUSP_POLY, primes=[1073741831, 1073741833])
    t2 = graded_betti(CUSP_POLY, primes=[2147483629, 2147483647])
    t3 = graded_betti(CUSP_POLY)
    assert t1 == t2 == t3


def test_graded_betti_rejects_non_prime_override():
    with pytest.raises(ValueError, match="not prime"):
        graded_betti(CUSP_POLY, primes=[1073741831, 1073741832])


def test_default_primes_are_input_derived_and_stable():
    a = default_primes(CUSP_POLY)
    assert a == default_primes(CUSP_POLY)
    assert a != default_primes(FERMAT[(2, 3)])
    # pinned values: the derivation must not drift from one release to the next
    assert a == (2039014667, 1179365717)
    assert default_primes(CUSP_POLY, 2, 1) == (1484718533, 2073177401)


def golden_polynomials():
    for argv in CASES.values():
        if argv[0] == "inspect-poly":
            if "--expr" in argv:
                text = argv[argv.index("--expr") + 1]
            else:
                text = (REPO / argv[1]).read_text(encoding="utf-8").strip()
            yield parse(text, infer_variable_count(text))


def test_each_pipeline_derives_its_own_stable_primes():
    for f in golden_polynomials():
        betti, hilbert = default_primes(f), default_primes(f, 2, 1)
        assert len(set(betti + hilbert)) == 4
        # a fresh derivation from a fresh parse gives the same primes
        g = parse(str(f), f.n)
        assert default_primes.__wrapped__(g) == betti
        assert default_primes.__wrapped__(g, 2, 1) == hilbert


def test_hilbert_side_catches_a_bad_derived_betti_pair(monkeypatch):
    # singular mod 5 and mod 37 (7^3 + 27 = 2*5*37), smooth over Q: a Betti
    # pair of these two primes agrees on a wrong table, which only primes
    # of the Hilbert side's own can expose
    f = parse("x0^3+x1^3+x2^3+7*x0*x1*x2", 2)
    real = oracle.default_primes
    monkeypatch.setattr(
        oracle, "default_primes", lambda f, count=2, part=0: real(f, count, part) if part else (5, 37)
    )
    report = cross_check(f)
    assert report.hilbert.delta is None
    assert report.table != koszul_smooth_table(2, 3)
    assert any(dev.startswith("smoothness disagrees") for dev in report.deviations)


def test_resolution_predicts_hilbert_function_in_every_degree():
    for f in [CUSP_POLY, FERMAT[(2, 3)], FERMAT[(3, 3)],
              parse("x0*x1*x2 + x0^3 + x1^3", 2)]:
        table = graded_betti(f)
        for k in range(0, (f.n + 1) * (f.degree - 2) + f.n + 3):
            assert hilbert_function_from_table(table, k) == milnor_dimension(f, k)


def test_multiplication_matrices_commute():
    # x_i x_j = x_j x_i on the quotient catches bad normal forms
    f = parse("x0*x1*x2 + x0^3 + x1^3", 2)
    field = PrimeField(1073741831)
    pieces = [_quotient_piece(f, k, field) for k in range(5)]
    for k in range(3):
        for i in range(f.n + 1):
            for j in range(i + 1, f.n + 1):
                xi_k = _mult_matrix(pieces, i, k, field)
                xj_k = _mult_matrix(pieces, j, k, field)
                xi_k1 = _mult_matrix(pieces, i, k + 1, field)
                xj_k1 = _mult_matrix(pieces, j, k + 1, field)
                assert entries(matmul(xj_k1, xi_k)) == entries(matmul(xi_k1, xj_k))


def test_betti_low_positions():
    f = CUSP_POLY
    betas = _betti_over_field(f, 8, PrimeField(1073741831))
    assert betas[(0, 0)] == 1
    assert betas[(1, f.degree - 1)] == f.n + 1
    assert not any(p == 1 and q != f.degree - 1 for p, q in betas)


def test_jacobian_matrix_shape():
    m = _jacobian_matrix(CUSP_POLY, 3)
    assert m.cols == len(grevlex_exponents(3, 3))
    assert m.rows == 4 * len(grevlex_exponents(3, 1))


def literal_jacobian_entries(f, k):
    """The degree-k gradient block built from monomial products, each a
    sum of exponent tuples."""
    n, d = f.n, f.degree
    monos = sorted_monomials(n, k)
    col_of = {m: len(monos) - 1 - i for i, m in enumerate(monos)}
    entries = {}
    row = 0
    if k >= d - 1:
        for i in range(n + 1):
            for m in sorted_monomials(n, k - d + 1):
                for mm, c in f.partial(i).terms.items():
                    entries[(row, col_of[tuple(a + b for a, b in zip(mm, m))])] = c
                row += 1
    return row, len(monos), entries


@pytest.mark.parametrize(
    "f",
    [
        FERMAT[(3, 3)],
        CUSP_POLY,
        parse("x0^3+x1^3+x2^3+7*x0*x1*x2", 2),
        parse("1/3*x0^4+2/5*x1^4+x2^4-x0*x1*x2^2", 2),
        FERMAT[(2, 3)],
        parse("x0^4-x1^4+x2^4-x3^4", 3),
    ],
)
def test_jacobian_matrix_matches_monomial_products(f):
    for k in range(f.degree + 3):
        m = _jacobian_matrix(f, k)
        rows, cols, literal = literal_jacobian_entries(f, k)
        assert (m.rows, m.cols, entries(m)) == (rows, cols, literal)
        # integral coefficients enter as plain ints
        assert all(type(v) is int or v.denominator != 1 for v in entries(m).values())
        # over F_p: every value mapped by the reference, zeros dropped
        for p in (3, 5, 2147483647):
            try:
                expected = {rc: x for rc, v in literal.items() if (x := residue(v, p))}
            except ZeroDivisionError:
                with pytest.raises(BadPrimeError) as err:
                    _jacobian_matrix(f, k, p)
                assert err.value.prime == p
                continue
            m = _jacobian_matrix(f, k, p)
            assert (m.rows, m.cols, m.modulus, entries(m)) == (rows, cols, p, expected)


def test_prime_killing_the_partials_is_not_trusted():
    # every partial of the Fermat cubic vanishes mod 3
    f = FERMAT[(2, 3)]
    for k in range(8):
        assert milnor_dimension(f, k, primes=[3]) == milnor_dimension(f, k)
    assert hilbert_fit(f, primes=[3]).delta is None


def test_prime_disagreement_runs_the_rational_fallback(monkeypatch):
    # singular mod 37 (7^3 + 27 = 10*37), smooth over Q and mod 41
    f = parse("x0^3+x1^3+x2^3+7*x0*x1*x2", 2)
    real_rank, real_rref = oracle.rank_rational, oracle.rref
    fallbacks = []

    def rank_rational(m):
        fallbacks.append("rank")
        return real_rank(m)

    def rref(rows, field):
        if field.modulus is None:
            fallbacks.append("rref")
        return real_rref(rows, field)

    monkeypatch.setattr(oracle, "rank_rational", rank_rational)
    monkeypatch.setattr(oracle, "rref", rref)
    assert hilbert_fit(f, primes=[37]).delta == 0
    assert fallbacks == []
    assert hilbert_fit(f, primes=[37, 41]).delta is None
    assert "rank" in fallbacks
    fallbacks.clear()
    assert graded_betti(f, primes=[37, 41]) == koszul_smooth_table(2, 3)
    assert "rref" in fallbacks


def test_bad_derived_prime_is_replaced_in_both_pipelines(monkeypatch):
    # 3 divides the denominator 9: a derived prime that bad must be redrawn
    f = parse("1/9*x0^3+x1^3+x2^3", 2)
    expected = hilbert_fit(f)
    assert expected.delta is None
    real = oracle.default_primes
    monkeypatch.setattr(
        oracle, "default_primes", lambda f, count=2, part=0: (3, *real(f, count, part)[1:])
    )
    assert oracle.default_primes(f)[0] == 3
    assert hilbert_fit(f) == expected
    assert graded_betti(f) == koszul_smooth_table(2, 3)


def test_cross_check_consistent_cases():
    report = cross_check(CUSP_POLY)
    assert not report.deviations
    assert report.hilbert.tjurina == 6
    assert report.rule_report.tau == 6

    smooth = cross_check(parse("x0^3+x1^3+x2^3+x3^3", 3))
    assert not smooth.deviations
    assert smooth.rule_report.verdict.kind == "smooth"
    assert smooth.hilbert.delta is None


def test_cross_check_surfaces_incomplete_bound_as_deviation():
    report = cross_check(CUSP_POLY, max_degree=3)
    assert report.deviations
    assert any("graded_betti failed" in dev for dev in report.deviations)
    assert report.hilbert is not None  # the other side still ran


def test_cross_check_cone_has_hilbert_side_only():
    report = cross_check(parse("x0*x1*x2", 3))
    assert report.table is None
    assert report.hilbert.delta == 1
    assert any("cone" in dev.lower() for dev in report.deviations)
