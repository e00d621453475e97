import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singulus.errors import PolynomialSyntaxError
from singulus.polynomials import (
    _MONOMIAL_BUDGET,
    Polynomial,
    _gcd_with_derivative_degree,
    grevlex_columns,
    infer_variable_count,
    pack,
    parse,
    squarefree_check,
)
from _helpers import grevlex_exponents, grevlex_less, sorted_monomials


def test_parse_fermat_cubic():
    f = parse("x0^3+x1^3+x2^3", 2)
    assert len(f.terms) == 3
    assert f.degree == 3
    assert f.is_homogeneous()


def test_parse_mixed_terms():
    f = parse("x0*x1*x2 + x3^3", 3)
    assert len(f.terms) == 2
    assert f.degree == 3


def test_parse_error_offset():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse("x0^", 2)
    assert err.value.offset == 3


def test_parse_variable_out_of_range():
    with pytest.raises(PolynomialSyntaxError, match="out of range"):
        parse("x5 + x0^2", 2)


def test_parse_non_numeric_exponent():
    with pytest.raises(PolynomialSyntaxError, match="exponent"):
        parse("x0^x1", 2)


def test_parse_rational_coefficients_and_signs():
    f = parse("-1/2*x0^2 + 3x1x2 - x2^2", 2)
    assert f.terms.get((2, 0, 0), 0) == Fraction(-1, 2)
    assert f.terms.get((0, 1, 1), 0) == 3
    assert f.terms.get((0, 0, 2), 0) == -1
    assert f.terms.get((1, 1, 0), 0) == 0


def test_parse_parentheses_expand():
    f = parse("(x0+x1)^2", 1)
    assert f == parse("x0^2 + 2*x0*x1 + x1^2", 1)


@pytest.mark.parametrize(
    "call, text, message, offset",
    [
        (parse, "x0 & x1", "unexpected character '&'", 3),
        (parse, "x0^0", "exponent must be >= 1", 3),
        (parse, "x1+x0^65536", "exponent must be below 2^16", 6),
        (parse, "1/x0", "expected denominator", 2),
        (parse, "1/0*x0", "zero denominator", 2),
        (parse, "(x0+x1", "expected ')'", 6),
        (parse, "x0+*x1", "expected a coefficient, variable or '('", 3),
        # the 101st open parenthesis, at offset 3 + 100
        (parse, "x0+" + "(" * 101 + "x1" + ")" * 101, "parentheses nest deeper than 100", 103),
        (lambda text, n: infer_variable_count(text), "1+2", "no variables found", 0),
    ],
)
def test_syntax_errors_name_the_fault_and_its_offset(call, text, message, offset):
    with pytest.raises(PolynomialSyntaxError) as err:
        call(text, 2)
    assert str(err.value) == f"{message} (offset {offset})"
    assert err.value.offset == offset


def test_parentheses_nest_up_to_the_limit():
    # a closed parenthesis no longer counts, so siblings may each nest 100 deep
    deep = "(" * 100 + "x0+x1" + ")" * 100
    assert parse(f"{deep}*{deep}", 1) == parse("(x0+x1)^2", 1)


def test_parse_rejects_stray_division():
    with pytest.raises(PolynomialSyntaxError):
        parse("x0/2", 2)


def test_zero_polynomial_prints_and_degree_marker():
    z = Polynomial(2)
    assert str(z) == "0"
    assert z.degree is None
    assert Polynomial.constant(2, 5).degree == 0


def test_partial_power_rule():
    f = parse("x0*x1*x2 + x3^3", 3)
    assert f.partial(3) == parse("3*x3^2", 3)
    assert parse("x0^3+x1^3+x2^3", 2).partial(0) == parse("3*x0^2", 2)


def test_partial_of_absent_variable_is_zero():
    f = parse("x0*x1*x2", 3)
    assert f.partial(3).is_zero()


def test_partial_index_range():
    with pytest.raises(ValueError):
        parse("x0^2", 2).partial(3)
    assert parse("x0^2", 2).partial(0) == parse("2*x0", 2)


def test_polynomial_rejects_bad_exponents():
    with pytest.raises(ValueError, match="ints"):
        Polynomial(2, {(1.5, 0, 1.9): 1})
    with pytest.raises(ValueError, match="non-negative"):
        Polynomial(2, {(2, -1, 2): 1})
    with pytest.raises(ValueError, match="arity"):
        Polynomial(2, {(1, 2): 1})
    # any int-like exponent is taken, and keyed as a plain int tuple
    f = Polynomial(2, {(True, 0, 2): 3})
    assert f.terms == {(1, 0, 2): 3} and type(next(iter(f.terms))[0]) is int


def test_polynomial_rejects_float_coefficients():
    # a float's binary value is not the decimal written: 0.1 would become
    # 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match="0.1 is a float"):
        Polynomial(2, {(3, 0, 0): 0.1, (0, 3, 0): 1})
    with pytest.raises(ValueError, match="float"):
        Polynomial.constant(2, 2.0)
    f = parse("x0^3 + x1^3 + x2^3", 2)
    for scaled in (lambda: f.scale(0.5), lambda: f * 0.5, lambda: 0.5 * f):
        with pytest.raises(ValueError, match="0.5 is a float"):
            scaled()
    # exact values are taken as they are
    assert f.scale(Fraction(1, 2)) == Polynomial(2, {e: Fraction(1, 2) for e in f.terms})
    assert 2 * f == f + f


def test_equal_polynomials_hash_equal_and_stably():
    parsed = parse("x0^3 + 7*x0*x1*x2 - 1/2*x2^3", 2)
    built = Polynomial(2, {(0, 0, 3): Fraction(-1, 2), (1, 1, 1): 7, (3, 0, 0): 1})
    summed = Polynomial.variable(2, 0) ** 3 + Polynomial(
        2, {(1, 1, 1): 7, (0, 0, 3): Fraction(-1, 2)}
    )
    assert parsed == built == summed
    assert len({hash(parsed), hash(built), hash(summed)}) == 1
    assert [hash(built) for _ in range(3)] == [hash(parsed)] * 3
    # the same terms in another variable count are another polynomial
    assert hash(parse("x0^3 + 7*x0*x1*x2 - 1/2*x2^3", 3)) != hash(parsed)


def test_monomial_basis_counts():
    assert len(grevlex_exponents(2, 2)) == 6
    basis = grevlex_exponents(3, 0)
    assert len(basis) == 1 and sum(basis[0]) == 0
    # independent count by brute enumeration
    brute = {
        (a, b, c, 4 - a - b - c)
        for a in range(5)
        for b in range(5 - a)
        for c in range(5 - a - b)
    }
    assert len(grevlex_exponents(3, 4)) == len(brute) == 35
    assert set(grevlex_exponents(3, 4)) == brute


def test_monomial_basis_sizes_grid():
    for n in range(2, 6):
        for k in range(13):
            assert len(grevlex_exponents(n, k)) == comb(k + n, n)


def test_monomial_basis_strictly_increasing():
    for n, k in [(2, 3), (3, 4), (4, 2)]:
        basis = grevlex_exponents(n, k)
        assert all(grevlex_less(a, b) for a, b in zip(basis, basis[1:]))


def test_grevlex_degree_two_order():
    # in three variables: x2^2 < x1*x2 < x0*x2 < x1^2 < x0*x1 < x0^2
    expected = [(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)]
    assert list(grevlex_exponents(2, 2)) == expected


def test_grevlex_exponents_match_sorted_monomials():
    # each basis is built from the cached smaller ones, so build them from
    # an empty cache in an order where the smaller ones come later, and in
    # a shuffled one
    grid = [(n, k) for n in range(6) for k in range(9)]
    brute = {nk: sorted_monomials(*nk) for nk in grid}
    shuffled = grid[:]
    random.Random(5).shuffle(shuffled)
    for order in (grid[::-1], shuffled):
        grevlex_exponents.cache_clear()
        for n, k in order:
            assert list(grevlex_exponents(n, k)) == brute[n, k], (n, k)


def test_grevlex_exponents_rejects_negative_degree():
    with pytest.raises(ValueError):
        grevlex_exponents(2, -1)


# two exponent vectors of one length, whose sum stays below 2^16
_exponent_pairs = st.integers(0, 5).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(0, (1 << 15) - 1), min_size=n + 1, max_size=n + 1)] * 2)
)


@given(_exponent_pairs)
def test_the_key_of_a_product_is_the_sum_of_the_keys(pair):
    a, b = pair
    assert pack(a) + pack(b) == pack([i + j for i, j in zip(a, b)])


def test_packed_keys_are_distinct_within_a_degree():
    for n in range(6):
        for k in range(8):
            monos = grevlex_exponents(n, k)
            assert len({pack(e) for e in monos}) == len(monos), (n, k)


def test_grevlex_columns_run_in_increasing_grevlex_from_the_last_column():
    # built from the cached smaller indexes, so build them from an empty
    # cache with the smaller ones asked for later, as grevlex_exponents is
    grid = [(n, k) for n in range(6) for k in range(9)]
    grevlex_columns.cache_clear()
    for n, k in grid[::-1]:
        monos = grevlex_exponents(n, k)
        top = len(monos) - 1
        assert list(grevlex_columns(n, k).items()) == [(pack(e), top - i) for i, e in enumerate(monos)]


def test_grevlex_columns_refuse_a_degree_whose_keys_would_overlap():
    before = grevlex_columns.cache_info().currsize
    for k in (-1, 1 << 16, 1 << 40):
        with pytest.raises(ValueError, match="degree must be in"):
            grevlex_columns(2, k)
    assert grevlex_columns.cache_info().currsize == before  # nothing was enumerated


def test_grevlex_columns_refuse_a_table_past_the_limit_before_building_it():
    before = grevlex_columns.cache_info().currsize
    for n, k in ((2, 1448), (183, 2), (69, 3), (10**6, 1)):
        assert comb(n + k + 1, k + 1) > _MONOMIAL_BUDGET
        with pytest.raises(ValueError, match=f"^degree {k} in x0..x{n} needs a monomial table of"):
            grevlex_columns(n, k)
    assert grevlex_columns.cache_info().currsize == before  # nothing was enumerated
    # the most variables the index of degree 1 may have, more than the
    # rings a recursion could nest: it is built without one
    n = max(n for n in range(2000) if comb(n + 2, 2) <= _MONOMIAL_BUDGET)
    assert n > sys.getrecursionlimit()
    assert list(grevlex_columns(n, 1).items())[-3:] == [(pack((0, 0, 1)), 2), (pack((0, 1)), 1), (pack((1,)), 0)]
    assert grevlex_columns(10**6, 0) == {0: 0}


def _random_poly(draw, n, max_degree=4, max_terms=5):
    monos = [
        m for k in range(max_degree + 1) for m in grevlex_exponents(n, k)
    ]
    picks = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=max_terms))
    coeffs = draw(
        st.lists(
            st.integers(min_value=-9, max_value=9).filter(bool),
            min_size=len(picks),
            max_size=len(picks),
        )
    )
    return Polynomial(n, dict(zip(picks, map(Fraction, coeffs))))


@st.composite
def polynomials(draw, n=2):
    return _random_poly(draw, n)


@st.composite
def homogeneous_polynomials(draw, n=2):
    k = draw(st.integers(min_value=1, max_value=4))
    monos = grevlex_exponents(n, k)
    picks = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=5))
    coeffs = draw(
        st.lists(
            st.integers(min_value=-9, max_value=9).filter(bool),
            min_size=len(picks),
            max_size=len(picks),
        )
    )
    return Polynomial(n, dict(zip(picks, map(Fraction, coeffs))))


@given(polynomials())
def test_print_parse_roundtrip(f):
    assert parse(str(f), f.n) == f


@given(homogeneous_polynomials())
def test_euler_relation(f):
    if f.is_zero():
        return
    d = f.degree
    total = Polynomial(f.n)
    for i in range(f.n + 1):
        total = total + Polynomial.variable(f.n, i) * f.partial(i)
    assert total == f.scale(d)


@given(polynomials(), polynomials())
def test_partial_is_additive(f, g):
    for i in range(3):
        assert (f + g).partial(i) == f.partial(i) + g.partial(i)


@settings(max_examples=30)
@given(polynomials(), polynomials())
def test_partial_product_rule(f, g):
    for i in range(3):
        assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def test_squarefree_detects_square_factor():
    assert squarefree_check(parse("x0^2*x1", 2)) is False


def test_squarefree_accepts_reduced_inputs():
    assert squarefree_check(parse("x0*x1*x2 + x3^3", 3)) is True
    assert squarefree_check(parse("x0*x1*(x0+x1)", 2)) is True


def test_squarefree_deterministic_given_seed():
    # the line is drawn from the input digest, so two calls draw the same
    f = parse("x0^3 + x1^3 + x2^3", 2)
    assert squarefree_check(f) is squarefree_check(f) is True


def test_squarefree_decides_from_one_line(monkeypatch):
    # a repeated factor shows on every transverse line, so one trivial gcd
    # proves f squarefree and no second line is drawn
    calls = []

    def gcd_degree(coeffs):
        calls.append(coeffs)
        return _gcd_with_derivative_degree(coeffs)

    monkeypatch.setattr("singulus.polynomials._gcd_with_derivative_degree", gcd_degree)
    assert squarefree_check(parse("x0*x1*x2 + x3^3", 3)) is True
    assert len(calls) == 1
    assert squarefree_check(parse("x0^2*x1", 2)) is False
    assert len(calls) == 2


def test_squarefree_scales_to_the_primitive_multiple():
    # every coefficient is P = 2^61 - 1, so f is 0 mod P once its
    # denominators are cleared; its primitive multiple x0^3+x1^3+x2^3 is not
    assert squarefree_check(parse("2305843009213693951*x0^3+2305843009213693951*x1^3+2305843009213693951*x2^3", 2)) is True
    assert squarefree_check(parse("(1/3*x0+x1)^2*x2", 2)) is False
    assert squarefree_check(parse("1/2*x0^3+x1^3+x2^3", 2)) is True


@st.composite
def rational_forms(draw, min_degree):
    k = draw(st.integers(min_value=min_degree, max_value=3))
    picks = draw(st.lists(st.sampled_from(grevlex_exponents(2, k)), min_size=1, max_size=4, unique=True))
    coeffs = [
        Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.sampled_from([1, 2, 3, 7])))
        for _ in picks
    ]
    return Polynomial(2, dict(zip(picks, coeffs)))


@settings(max_examples=60)
@given(rational_forms(1), rational_forms(0))
def test_squarefree_finds_every_square_factor(g, h):
    assert squarefree_check(g * g * h) is False


def test_squarefree_rejects_bad_input():
    with pytest.raises(ValueError):
        squarefree_check(Polynomial.constant(2, 3))
    with pytest.raises(ValueError):
        squarefree_check(parse("x0^2 + x1", 2))
