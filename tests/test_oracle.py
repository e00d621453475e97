import dataclasses
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, prod
from types import SimpleNamespace

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
from singulus import cli, oracle
from singulus.linalg import (
    QQ,
    Field,
    Pivots,
    SparseMatrix,
    _NonUnitPivot,
    _echelon,
    is_probable_prime,
    rank_mod_p,
    rank_rational,
    reduce_mod,
    rref,
)
from singulus.oracle import (
    HilbertData,
    _betti_over_field,
    _certified_forms,
    _jacobian_block,
    _jacobian_matrix,
    _partials,
    _pruned_blocks,
    _section_dimensions,
    _section_forms,
    cross_check,
    default_primes,
    graded_betti,
    hilbert_fit,
    milnor_dimension,
)
from singulus.polynomials import (
    Polynomial,
    dim_degree_piece,
    grevlex_columns,
    infer_variable_count,
    pack,
    parse,
    squarefree_check,
)
from singulus.rules import full_report, hilbert_function_from_table, koszul_smooth_table
from singulus.tables import BettiTable
from test_golden import CASES, REPO, THEOREM_CASES
from _helpers import (
    cusp_threefold_table,
    dense_rational_rank,
    entries,
    evaluate_polynomial,
    grevlex_exponents,
    matmul,
    reference_hilbert_fit,
    residue,
    sorted_monomials,
)

CUSP_POLY = parse("x0*x1*x2 + x3^3", 3)
# the hspog surface: delta 1, degree 5
HSPOG = parse("x0^2*x1*x2+x2^4+2*x0^3*x3", 3)
# the quintic surface: delta 0, tau 4
QUINTIC = parse(
    "-4*x0^4*x1+7*x0^3*x1^2-2*x1^4*x2+x0*x1*x2^3+x0^2*x1^2*x3+x0*x1^3*x3+3*x0^2*x2*x3^2"
    "-9*x1^2*x2*x3^2+x0*x2^2*x3^2-2*x2^3*x3^2+5*x0^2*x3^3+3*x0*x2*x3^3+6*x1*x2*x3^3+6*x2*x3^4-7*x3^5",
    3,
)
# the delta = 2 threefold, degree 4, whose J_f is proven 8-regular
DELTA_TWO = parse("-x0^3*x2*x3-x1*x2*x3^2*x4+x0*x1*x2^2*x4+x2^2*x3^3+2*x0^3*x1*x2+x1^2*x2^2*x4", 4)
# singular mod 37 (7^3 + 27 = 10*37), smooth over Q and mod 41
CURVE_37 = "x0^3+x1^3+x2^3+7*x0*x1*x2"
FERMAT = {(n, d): parse("+".join(f"x{i}^{d}" for i in range(n + 1)), n) for n, d in
          [(2, 3), (2, 4), (3, 3)]}
FERMAT_CUBICS = {n: parse("+".join(f"x{i}^3" for i in range(n + 1)), n) for n in range(2, 6)}


def jacobian_mod(f, k, p):
    """The full degree-k block of the partials, over Q when p is None and
    reduced mod p otherwise."""
    m = _jacobian_matrix(f, k)
    return m if p is None else reduce_mod(m, p)


def echelon(field):
    """The Betti side's rank for _pruned_blocks: rref over the field."""
    return lambda m: rref(m.data, field)


def kills_a_partial(f, p) -> bool:
    """Whether p divides every coefficient of some nonzero partial, read
    off the rational coefficients."""
    return any(
        terms and all(c.numerator % p == 0 for c in terms.values())
        for terms in (f.partial(i).terms for i in range(f.n + 1))
    )


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


def complete_intersection_series(n, d, top):
    """The coefficients of (1 + t + .. + t^(d-2))^(n+1) up to t^top: the
    values of S/J_f when the n+1 partials are a regular sequence."""
    series = [1] + [0] * top
    for _ in range(n + 1):
        series = [sum(series[k - i] for i in range(min(k, d - 2) + 1)) for k in range(top + 1)]
    return series


def walked_degrees(n, d, value):
    """The degrees k = K mod d-1 from d-1 up to K = (n+1)(d-2)+1, where a
    regular sequence of partials leaves S/J_f = 0, up to the first whose
    value(k) is off the complete-intersection series: those a side asks
    before any other."""
    K = (n + 1) * (d - 2) + 1
    series = complete_intersection_series(n, d, K)
    walk = []
    for k in range(d - 1 + (K - d + 1) % (d - 1), K + 1, d - 1):
        walk.append(k)
        if value(k) != series[k]:
            break
    return walk


def test_the_smooth_series_is_the_hilbert_function_of_the_koszul_table():
    # both sides prove a smooth input from _complete_intersection, and the
    # rule engine reads the smooth table's values off its shifts: up to two
    # degrees past K = (n+1)(d-2)+1 the three agree
    for n in range(2, 6):
        for d in range(3, 7):
            table, top = koszul_smooth_table(n, d), (n + 1) * (d - 2) + 3
            series = complete_intersection_series(n, d, top)
            for k in range(top + 1):
                got = oracle._complete_intersection(n, d, k), hilbert_function_from_table(table, k)
                assert got == (series[k], series[k]), (n, d, k)


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


def test_milnor_dimension_refuses_a_degree_past_the_packed_keys():
    # the block's columns are packed exponents, 16 bits each: degree 2^16
    # is refused before any of its 2*10^9 monomials is enumerated
    with pytest.raises(ValueError, match="degree must be in"):
        milnor_dimension(parse("x0^3+x1^3+x2^3", 2), 1 << 16)


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
    with pytest.raises(WindowTooSmallError) as err:
        hilbert_fit(CUSP_POLY, window=4)
    assert err.value.tail == [1, 4, 6, 6, 6]
    # the tail is the last six values of the window
    with pytest.raises(WindowTooSmallError) as err:
        hilbert_fit(HSPOG, window=6)
    assert err.value.tail == [4, 10, 16, 21, 26, 31]
    assert str(err.value) == "no stabilization detected up to degree 6; tail [4, 10, 16, 21, 26, 31]"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: hilbert_fit(parse("x0-x0", 2)),
            "the zero polynomial has no Jacobian algebra here",
            id="zero-polynomial",
        ),
        pytest.param(
            lambda: milnor_dimension(CUSP_POLY, -1), "degree must be non-negative", id="negative-degree"
        ),
        pytest.param(
            lambda: hilbert_fit(CUSP_POLY, window=3),
            "window upper bound is too small to say anything",
            id="window-at-d",
        ),
        pytest.param(
            lambda: graded_betti(CUSP_POLY, max_degree=2),
            "max_degree must be at least d",
            id="bound-below-d",
        ),
        pytest.param(
            # built from its terms: the parser refuses such an exponent
            lambda: milnor_dimension(Polynomial(2, {(1 << 16, 0, 0): 1, (0, 1 << 16, 0): 1, (0, 0, 1 << 16): 1}), 0),
            "degree must be below 2^16, got 65536",
            id="degree-past-the-packed-keys",
        ),
        pytest.param(
            lambda: hilbert_fit(parse("x0^3000+x1^3000+x2^3000", 2)),
            "degree 2999 in x0..x2 needs a monomial table of 4504501 entries, over the limit of 1048576",
            id="monomial-table-of-a-high-degree",
        ),
        pytest.param(
            lambda: hilbert_fit(parse("x0^3+x1^3+x2^3", 400)),
            "degree 2 in x0..x400 needs a monomial table of 10827401 entries, over the limit of 1048576",
            id="monomial-table-of-many-variables",
        ),
        pytest.param(
            lambda: hilbert_fit(CUSP_POLY, primes=[3317044064679887385961981, 5]),
            "3317044064679887385961981 is too large: pinned primes must be below 3317044064679887385961981",
            id="pinned-prime-at-the-ceiling",
        ),
    ],
)
def test_out_of_range_arguments_are_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == message


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
    if k0 > 2 and draw(st.booleans()):
        # degree 2 as for n+1 independent partials of a cubic, so that the
        # position-1 check passes and the fit is reached
        vals[2] = comb(n + 2, 2) - n - 1
    for k in draw(st.lists(st.integers(0, w), max_size=2)):
        vals[k] += draw(st.sampled_from([-1, 1]))
    return n, vals


@settings(max_examples=300)
# a 0 in degree k makes S/J_f Artinian, so every value is on the series
# and the walk proves the stop; no ideal has a 0 the walk does not reach
@given(hilbert_values().filter(lambda case: 0 not in case[1]))
@example((2, [1, 3, 3, 1, 0, 0]))  # smooth
@example((2, [1, 3, 3, 1, 0]))  # smooth, the first zero at the last degree
@example((2, [1, 3, 3, 7, 0, 0]))  # smooth by the walk, which never asks degree 3
@example((3, [1, 4, 6, 5, 1, 1]))  # degree 3 of the walk is off the series
@example((3, [1, 4, 6, 6, 6, 6, 6]))  # delta 0, tau 6
@example((2, [1, 2, 3, 4, 5, 6]))  # degree 1 > n-2
@example((3, [10, 9, 6, 9, 8, 7, 6, 5]))  # negative degree
@example((3, [10, 9, 8, 7, 6, 5]))  # a dependent position 1
@example((2, [1, 1, 3, 9, 16, 25]))  # no stabilization
def test_hilbert_fit_matches_the_reference_fit(case):
    n, vals = case
    f = FERMAT_CUBICS[n]
    w = len(vals) - 1
    # the degrees of K = n+2 mod 2 are asked first, up to K when it is in
    # the window; values on the series down to 0 at K are a smooth cubic's
    walk = walked_degrees(n, 3, vals.__getitem__) if n + 2 <= w else []
    smooth = walk[-1:] == [n + 2] and vals[n + 2] == 0
    assert smooth or 0 not in vals
    # otherwise every degree is asked in order, the walk's values reused
    expected = complete_intersection_series(n, 3, w) if smooth else vals
    asked = []

    def fake_milnor_dimension(f, k, primes=None, **kwargs):
        asked.append(k)
        return vals[k]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "milnor_dimension", fake_milnor_dimension)
        # the faked values belong to no ideal, so no stop may be proven
        mp.setattr(oracle, "_certified_forms", lambda hf, n, m: None)
        try:
            hd = hilbert_fit(f, window=len(vals) - 1)
        except (ValueError, BadPrimeError, WindowTooSmallError) as exc:
            got = (type(exc).__name__, str(exc), getattr(exc, "tail", None))
        else:
            assert hd.values == dict(enumerate(expected)) and (hd.n, hd.d) == (n, 3)
            assert all(type(c) is Fraction for c in hd.poly)
            got = (hd.poly, hd.k0, hd.delta, hd.degree_sigma, hd.tjurina)
    primes = default_primes(f, 1)
    # the n+1 partials of the Fermat cubic are independent over Q, so a
    # degree-2 value other than theirs refuses the working primes
    position_one = comb(n + 2, 2) - n - 1
    if smooth:
        assert asked == walk
        assert got == reference_hilbert_fit(n, expected, primes) == ((), n + 2, None, None, None)
        return
    if vals[2] != position_one:
        assert asked == walk + [k for k in range(3) if k not in walk]
        assert got == (
            "BadPrimeError",
            f"degree 2 of the Jacobian algebra has dimension {position_one}, got {vals[2]}; "
            f"the working primes {list(primes)} are bad for this polynomial",
            None,
        )
        return
    assert asked == walk + [k for k in range(w + 1) if k not in walk]
    assert got == reference_hilbert_fit(n, expected, primes)


# -- the proven stop of the Hilbert side ----------------------------------


def _no_certificate(monkeypatch):
    monkeypatch.setattr(oracle, "_certified_forms", lambda hf, n, m: None)


def _fake_proof(monkeypatch, part):
    """Make one side's certificate prove J_f (k-1)-regular with one form
    at its first attempt k, whatever its section values: the side whose
    section values (see _section_dimensions) are mod the product of the
    primes derived from part ``part`` of the input digest, 0 for the Betti
    side and 1 for the Hilbert side (see default_primes).  The other
    side's attempts are left as they are."""
    real_sections, real_certified = oracle._section_dimensions, oracle._certified_forms
    faked = []  # the HF_i of that side's attempts

    def sections(f, modulus, *args):
        hf = real_sections(f, modulus, *args)
        if modulus == prod(default_primes(f, part)):
            faked.append(hf)
        return hf

    def certified(hf, n, m):
        return 1 if hf in faked else real_certified(hf, n, m)

    monkeypatch.setattr(oracle, "_section_dimensions", sections)
    monkeypatch.setattr(oracle, "_certified_forms", certified)


def test_the_proven_stop_is_the_table_regularity_plus_one():
    # J_f is (reg + 1)-regular and no less, and generic forms prove the
    # least such degree; a smooth input stops at its first zero value, reg + 1
    compared = 0
    for f, primes in [*golden_inputs(), (HSPOG, None), *((f, None) for f in seeded_forms())]:
        try:
            hd = hilbert_fit(f, primes=primes)
            table = graded_betti(f, primes=primes)
        except ValueError:
            continue  # the cone golden and three seeded forms have no table
        assert hd.stop == full_report(table).reg + 1, f
        compared += 1
    assert compared == 13 + 47


def test_the_proven_stop_changes_no_other_field(monkeypatch):
    # the goldens and 120 seeded sparse curves and surfaces of degree 3..5
    rng = random.Random(2026)
    inputs = list(golden_inputs())
    for _ in range(120):
        n, d = rng.choice((2, 3)), rng.choice((3, 4, 5))
        monos = rng.sample(grevlex_exponents(n, d), rng.randint(3, 6))
        inputs.append((Polynomial(n, {m: rng.choice((1, -1, 2)) for m in monos}), None))

    def outcomes():
        """Each fit less its stop, or its error by type and message, and the stop."""
        out = []
        for f, primes in inputs:
            try:
                hd = hilbert_fit(f, primes=primes)
            except (ValueError, BadPrimeError, WindowTooSmallError) as exc:
                out.append(((type(exc).__name__, str(exc)), None))
            else:
                out.append((dataclasses.replace(hd, stop=None), hd.stop))
        return out

    proven = outcomes()
    _no_certificate(monkeypatch)
    plain = outcomes()
    assert [fit for fit, _ in proven] == [fit for fit, _ in plain]
    singular = [
        i for i, (fit, _) in enumerate(plain) if isinstance(fit, HilbertData) and fit.delta is not None
    ]
    assert len(singular) > 50
    # every singular fit stops at a proven degree, and only with the certificate
    assert all(proven[i][1] is not None and plain[i][1] is None for i in singular)
    assert any(isinstance(fit, tuple) for fit, _ in plain)  # some errors are compared


def test_a_window_below_the_proven_degrees_computes_every_degree(monkeypatch):
    # a double cone over a surface with isolated singular points: delta 2,
    # and j = 3 forms prove J_f 6-regular, so the proven stop needs the
    # values up to K = 8; the window 7 is too small for it, not for the fit
    f = parse("x1^2*x2^2+2*x0^3*x3-x1*x3^3", 5)
    attempts = []
    real = oracle._certified_forms

    def record(hf, n, m):
        attempts.append((m, real(hf, n, m)))
        return attempts[-1][1]

    monkeypatch.setattr(oracle, "_certified_forms", record)
    assert hilbert_fit(f, window=8).stop == 6
    attempts.clear()
    fit = hilbert_fit(f, window=7)
    assert attempts[-1] == (6, 3) and fit.stop is None
    _no_certificate(monkeypatch)
    assert fit == hilbert_fit(f, window=7)
    assert fit.delta == 2 and max(fit.values) == 7


def test_a_proven_stop_fills_the_window_past_its_last_computed_degree(monkeypatch):
    # the delta = 2 threefold: j = 3 forms prove J_f 8-regular, so degrees
    # up to K = 10 are ranked and 11..21 are filled from the values at 8..10
    f = DELTA_TWO
    asked = []
    real = oracle.milnor_dimension

    def record(f, k, *args, **kwargs):
        asked.append(k)
        return real(f, k, *args, **kwargs)

    monkeypatch.setattr(oracle, "milnor_dimension", record)
    hd = hilbert_fit(f)
    assert (hd.stop, hd.k0, hd.delta, hd.degree_sigma, max(hd.values)) == (8, 8, 2, 4, 21)
    # each once: degree 4 of the walk to K = 16 is off the series
    assert sorted(asked) == list(range(11))
    assert hd.values[11] == real(f, 11) == 323


def test_coordinate_forms_do_not_prove_the_cusp_regular():
    # on the hyperplane x3 = 0 the partials of x0*x1*x2 + x3^3 cut out the
    # three coordinate points, so multiplication by x3 is not injective
    f = CUSP_POLY
    modulus = prod(default_primes(f, 1))
    vals = [hilbert_fit(f).values[k] for k in range(5)]
    partials = _partials(f, modulus)
    coordinate = [[0] * (f.n - i + 1) for i in range(1, f.n + 1)]
    hf = _section_dimensions(f, modulus, vals, coordinate, partials)
    assert _certified_forms(hf, f.n, 3) is None
    hf = _section_dimensions(f, modulus, vals, _section_forms(f, modulus), partials)
    assert _certified_forms(hf, f.n, 3) == 1


@pytest.mark.parametrize(
    "f, primes",
    [*((f, None) for f in FERMAT.values()), (parse(CURVE_37, 2), [37, 41]),
     (parse("x0^3+x1^3+x2^3+x3^3+7*x0*x1*x2", 3), [37, 41])],
    ids=str,
)
def test_a_smooth_input_attempts_no_certificate(monkeypatch, f, primes):
    # the values of a smooth input stay on the complete-intersection series
    for name in ("_section_dimensions", "_certified_forms"):
        monkeypatch.setattr(oracle, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    hd = hilbert_fit(f, primes=primes)
    assert hd.delta is None and hd.stop == hd.k0 == (f.n + 1) * (f.degree - 2) + 1


def test_cross_check_flags_a_stop_below_the_table_regularity(monkeypatch):
    # a Hilbert-side certificate that passes at its first attempt proves
    # the cusp 2-regular, below its reg + 1 = 3: the values are still
    # right there, and the Betti side proves its own stop
    _fake_proof(monkeypatch, 1)
    report = cross_check(CUSP_POLY)
    assert report.hilbert.stop == 2
    assert report.deviations == [
        "regularity disagrees: hilbert proves a stop at degree 2, below the table's reg + 1 = 3"
    ]


def test_a_betti_proof_below_the_table_regularity_is_a_bad_prime_error(monkeypatch, capsys):
    # a Betti-side certificate that passes at its first attempt proves the
    # cusp 2-regular, below its reg + 1 = 3: the edge q - p = 2 of the band
    # then holds the table's Betti numbers there, and no larger bound helps
    _fake_proof(monkeypatch, 0)
    message = (
        "J_f is proven 2-regular, but positions [2, 3] have nonzero Betti numbers at "
        f"q - p = 2; the working primes {list(default_primes(CUSP_POLY))} are bad for this polynomial"
    )
    with pytest.raises(BadPrimeError) as exc:
        graded_betti(CUSP_POLY)
    assert str(exc.value) == message
    report = cross_check(CUSP_POLY)
    assert report.hilbert == hilbert_fit(CUSP_POLY) and report.table is None
    assert report.deviations == [f"graded_betti failed: {message}"]
    path = str(REPO / "fixtures" / "triangle_cusp_threefold.poly")
    assert cli.main(["inspect-poly", path, "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["deviations"] == report.deviations
    assert err == f"error: graded_betti failed: {message}\n"


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


@pytest.mark.parametrize("max_degree", [4, 5, 6])
def test_a_bound_at_or_past_the_first_empty_piece_gives_the_whole_smooth_table(max_degree):
    # the Fermat cubic curve's quotient first vanishes in degree 4, below
    # the top Koszul syzygy in degree 6
    assert graded_betti(FERMAT[(2, 3)], max_degree=max_degree) == koszul_smooth_table(2, 3)


def test_every_position_on_the_bound_is_incomplete():
    # the top position n+1 as well: the singular_3 golden's table has its
    # last syzygy there, in degree 6
    f = parse("x0^2*x2+x1^2*x3", 3)
    with pytest.raises(IncompleteTableError) as err:
        graded_betti(f, max_degree=6)
    assert err.value.boundary == {4: 1}
    golden = json.loads((REPO / "fixtures" / "golden" / "singular_3.json").read_text())
    columns = {c["k"]: c["degrees"] for c in golden["betti_columns"]}
    assert graded_betti(f, max_degree=7) == BettiTable.of(3, 3, columns)


@pytest.mark.parametrize("max_degree", [7, 8])
def test_a_bound_inside_a_gap_of_the_resolution_is_incomplete(max_degree):
    # the smooth quartic surface's quotient first vanishes in degree 9;
    # below it the resolution has nothing in degrees 7 and 8, so nothing
    # sits on the bound, but the truncated table has sigma_0 = 6, not 3
    with pytest.raises(IncompleteTableError) as err:
        graded_betti(parse("x0^4+x1^4+x2^4+x3^4", 3), max_degree=max_degree)
    assert str(err.value) == (
        f"the Betti numbers below the degree bound {max_degree} have sigma_0 = 6, "
        "but a complete resolution has 3; raise max_degree and retry"
    )
    assert err.value.boundary == {}


@pytest.mark.parametrize(
    "f, primes",
    [
        # the Fermat goldens
        *((parse("+".join(f"x{i}^{d}" for i in range(n + 1)), n), None) for n, d in [(3, 4), (4, 4), (5, 3)]),
        # the pinned curve and surface: the pass mod 37*41 splits, and the
        # rational pass ends at an empty piece
        (parse(CURVE_37, 2), [37, 41]),
        (parse("x0^3+x1^3+x2^3+x3^3+7*x0*x1*x2", 3), [37, 41]),
    ],
    ids=str,
)
def test_a_smooth_input_runs_no_koszul_rank(monkeypatch, f, primes):
    calls = []
    for name in ("rank_mod_p", "rank_rational"):
        real = getattr(oracle, name)

        def record(*args, name=name, real=real, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, name, record)
    assert graded_betti(f, primes=primes) == koszul_smooth_table(f.n, f.degree)
    # the one rational rank is the cone check's
    assert calls == ["rank_rational"]


def test_every_koszul_block_holds_residues(monkeypatch):
    # a tagged matrix holds residues in [1, N); writing -v for N - v would
    # leave every rank the same, since the kernel reduces mod N
    blocks = []
    real = oracle.rank_mod_p

    def record(m, p):
        blocks.append((m.modulus, p, [v for row in m.data for v in row.values()]))
        return real(m, p)

    monkeypatch.setattr(oracle, "rank_mod_p", record)
    assert graded_betti(CUSP_POLY) == cusp_threefold_table()
    # the cusp's blocks are all settled by their leads, so the kernel gets
    # only their empty rows; the hspog surface has blocks built whole
    graded_betti(HSPOG)
    assert any(values for *_, values in blocks)
    for modulus, p, values in blocks:
        assert modulus == p and all(0 < v < p for v in values)


def test_graded_betti_deterministic_across_prime_choices():
    t1 = graded_betti(CUSP_POLY, primes=[1073741831, 1073741833])
    t2 = graded_betti(CUSP_POLY, primes=[2147483629, 2147483647])
    t3 = graded_betti(CUSP_POLY)
    assert t1 == t2 == t3


def test_graded_betti_rejects_non_prime_override():
    with pytest.raises(ValueError, match="not prime"):
        graded_betti(CUSP_POLY, primes=[1073741831, 1073741832])


def test_pinned_primes_are_tested_once_and_a_composite_fails_everywhere():
    for call in (hilbert_fit, graded_betti, lambda f, primes: milnor_dimension(f, 3, primes)):
        with pytest.raises(ValueError, match="^1073741832 is not prime$"):
            call(CUSP_POLY, primes=[1073741831, 1073741832])
    # one Miller-Rabin test per pinned prime, not one per degree
    is_probable_prime.cache_clear()
    hilbert_fit(CUSP_POLY, primes=[1073741831, 1073741833])
    graded_betti(CUSP_POLY, primes=[1073741831, 1073741833])
    assert is_probable_prime.cache_info().misses == 2


def test_default_primes_are_input_derived_and_stable():
    a = default_primes(CUSP_POLY)
    assert a == default_primes(CUSP_POLY)
    assert a != default_primes(FERMAT[(2, 3)])
    # pinned values: the derivation must not drift from one release to the next
    assert a == (2039014667, 1179365717)
    assert default_primes(CUSP_POLY, 1) == (1484718533, 2073177401)


def golden_inputs():
    """(polynomial, pinned primes or None) of each inspect-poly golden case
    of the benchmark corpus and the fixtures."""
    for name, argv in CASES.items():
        if argv[0] == "inspect-poly" and name not in THEOREM_CASES:
            if "--expr" in argv:
                text = argv[argv.index("--expr") + 1]
            else:
                text = (REPO / argv[1]).read_text(encoding="utf-8").strip()
            n = int(argv[argv.index("--n") + 1]) if "--n" in argv else infer_variable_count(text)
            primes = tuple(int(v) for flag, v in zip(argv, argv[1:]) if flag == "--prime")
            yield parse(text, n), primes or None


def test_each_pipeline_derives_its_own_stable_primes():
    for f, _ in golden_inputs():
        betti, hilbert = default_primes(f), default_primes(f, 1)
        assert len(set(betti + hilbert)) == 4
        # a fresh derivation from a fresh parse gives the same primes
        g = parse(str(f), f.n)
        assert default_primes.__wrapped__(g) == betti
        assert default_primes.__wrapped__(g, 1) == hilbert


def test_hilbert_side_catches_a_bad_derived_betti_pair(monkeypatch):
    # singular mod 5 and mod 37 (7^3 + 27 = 2*5*37), smooth over Q: a Betti
    # pair of these two primes agrees on a wrong table, which only primes
    # of the Hilbert side's own can expose
    f = parse("x0^3+x1^3+x2^3+7*x0*x1*x2", 2)
    real = oracle.default_primes
    monkeypatch.setattr(
        oracle, "default_primes", lambda f, part=0: real(f, part) if part else (5, 37)
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


def negate(field, v):
    return -v if field.modulus is None else -v % field.modulus


def mult_matrix(n, pieces, i, k, field) -> SparseMatrix:
    """Multiplication by x_i from piece k to piece k+1 in basis positions.
    A piece is a reduced echelon form in its block's grevlex columns, by
    full rows or by tails: the non-pivot columns are the basis, and a
    pivot row less its leading 1 is minus the pivot's normal form."""
    src, dst = pieces[k], pieces[k + 1]
    assert isinstance(src, Pivots) and isinstance(dst, Pivots)
    src_basis = [c for c in range(dim_degree_piece(n, k)) if c not in src]
    dst_index = {c: r for r, c in enumerate(c for c in range(dim_degree_piece(n, k + 1)) if c not in dst)}
    monos = grevlex_exponents(n, k)
    col_of = grevlex_columns(n, k + 1)
    data = [{} for _ in dst_index]
    for j, c in enumerate(src_basis):
        mu = monos[len(monos) - 1 - c]
        nu = col_of[pack(mu[:i] + (mu[i] + 1,) + mu[i + 1 :])]
        if nu in dst_index:
            data[dst_index[nu]][j] = 1
        else:
            for cc, v in dst[nu].items():
                if cc != nu:
                    data[dst_index[cc]][j] = negate(field, v)
    return SparseMatrix._from_rows(len(src_basis), data, field.modulus)


def test_multiplication_matrices_commute():
    # x_i x_j = x_j x_i on the quotient catches bad normal forms; the hspog
    # surface's have several terms, so a negated or scaled tail shows there
    field = Field(1073741831)
    for f in [parse("x0*x1*x2 + x0^3 + x1^3", 2), parse("x0^2*x1*x2+x2^4+2*x0^3*x3", 3)]:
        block = _pruned_blocks(_partials(f, field.modulus), f.degree - 1, f.n, field.modulus, echelon(field))
        pieces = [block(k) for k in range(5)]
        for k in range(3):
            for i in range(f.n + 1):
                for j in range(i + 1, f.n + 1):
                    xi_k = mult_matrix(f.n, pieces, i, k, field)
                    xj_k = mult_matrix(f.n, pieces, j, k, field)
                    xi_k1 = mult_matrix(f.n, pieces, i, k + 1, field)
                    xj_k1 = mult_matrix(f.n, pieces, j, k + 1, field)
                    assert entries(matmul(xj_k1, xi_k)) == entries(matmul(xi_k1, xj_k)), (f, k)


# a singular cubic curve (a node, tau = 1) whose pinned pair splits the
# Betti pass mod 37*41 at a Koszul rank, so its Koszul blocks are ranked
# over Q
SPLIT_NODE = "x0^3+x1^2*x2+7*x0*x1*x2+x1^3"

# the golden inputs, the pinned curve, an hspog surface (delta=1, degree 5)
# and the node whose pair splits
STOP_RULE_INPUTS = list(
    dict.fromkeys([
        *golden_inputs(),
        (parse("x0^3+x1^3+x2^3+7*x0*x1*x2", 2), (37, 41)),
        (parse("x0^2*x1*x2+x2^4+2*x0^3*x3", 3), None),
        (parse(SPLIT_NODE, 2), (37, 41)),
    ])
)


def koszul_block(n, pieces, p, q, field) -> SparseMatrix:
    """d_p into internal degree q, 1 <= p <= n+1, in the codomain layout:
    the full block, built from the multiplication maps between the pieces
    in basis positions."""
    k = q - p
    size = {j: dim_degree_piece(n, j) - len(pieces[j]) for j in (k, k + 1)}
    faces = {t: i for i, t in enumerate(combinations(range(n + 1), p - 1))}
    subsets = list(combinations(range(n + 1), p))
    block = {}
    for si, s_set in enumerate(subsets):
        for j, x in enumerate(s_set):
            ti = faces[s_set[:j] + s_set[j + 1 :]]
            for r, row in enumerate(mult_matrix(n, pieces, x, k, field).data):
                for c, v in row.items():
                    block[(ti * size[k + 1] + r, si * size[k] + c)] = negate(field, v) if j % 2 else v
    return SparseMatrix(len(faces) * size[k + 1], len(subsets) * size[k], block, field.modulus)


def rank_over(m, field) -> int:
    return rank_rational(m).rank if field.modulus is None else rank_mod_p(m, field.modulus).rank


def betti_echeloning_every_piece(f, q_max, field):
    """_betti_over_field by an independent build with no stop rule: every
    piece up to q_max is the reduced echelon form of its full Jacobian
    block, and every Koszul differential is built in the codomain layout
    from the multiplication maps, empty pieces included."""
    n = f.n
    pieces = [rref(jacobian_mod(f, k, field.modulus).data, field) for k in range(q_max + 1)]
    size = [dim_degree_piece(n, k) - len(piece) for k, piece in enumerate(pieces)]

    def rank(p, q):
        if not 1 <= p <= n + 1 or q < p:
            return 0
        return rank_over(koszul_block(n, pieces, p, q, field), field)

    betas = {}
    for q in range(q_max + 1):
        for p in range(min(q, n + 1) + 1):
            b = comb(n + 1, p) * size[q - p] - rank(p, q) - rank(p + 1, q)
            if b:
                betas[(p, q)] = b
    return betas


@pytest.mark.parametrize("f, primes", STOP_RULE_INPUTS, ids=str)
def test_stopping_at_the_first_empty_piece_is_exact(f, primes):
    hd = hilbert_fit(f, primes=primes)
    assert hd.values == {k: milnor_dimension(f, k, primes=primes) for k in range(max(hd.values) + 1)}
    fields = [Field(p) for p in primes or default_primes(f)]
    if f.n == 2:
        fields.append(QQ)
    q_max = (f.n + 1) * (f.degree - 1)
    for field in fields:
        # a proven stop below q_max leaves out only Betti numbers that are 0
        betas, _ = _betti_over_field(f, q_max, field)
        if betas is not None:
            # for k < d-1 the piece is all of S_k, whose Koszul complex is
            # exact from position 1 on: no Betti number below the strand
            # of the generators
            assert all(q > p + f.degree - 3 for p, q in betas if p >= 2)
        else:
            # a piece is 0 over the field: the homology is the Koszul table
            # of the partials, a regular sequence there
            betas = {(p, p * (f.degree - 1)): comb(f.n + 1, p) for p in range(f.n + 2)}
        assert betas == betti_echeloning_every_piece(f, q_max, field)


def monomial_layout(n, piece, k, copies) -> list[int]:
    """Where each basis position of ``copies`` copies of piece k sits in
    the layout of _betti_over_field: copy t's i-th non-pivot column c at
    t * dim S_k + c.  The map keeps the order of positions."""
    own = dim_degree_piece(n, k)
    basis = [c for c in range(own) if c not in piece]
    return [t * own + c for t in range(copies) for c in basis]


@pytest.mark.parametrize("f, primes", STOP_RULE_INPUTS, ids=str)
def test_pruned_koszul_blocks_keep_the_rank_of_the_full_block(monkeypatch, f, primes):
    n, d = f.n, f.degree
    q_max = (n + 1) * (d - 1)
    fields = [Field(prod(primes or default_primes(f)))]
    if n == 2:
        fields.append(QQ)
    built_whole = 0
    for field in fields:
        pieces, ranked, kernel_calls = {}, [], []  # pieces by degree, in no order
        real_blocks = oracle._pruned_blocks

        def blocks(gens, deg, r, modulus, rank):
            block = real_blocks(gens, deg, r, modulus, rank)
            if r < n:
                return block  # a section ring of the certificate

            def piece(k):
                pieces[k] = block(k)
                return pieces[k]

            return piece

        for name in ("rank_mod_p", "rank_rational"):
            real = getattr(oracle, name)

            def record(m, *args, real=real, **kwargs):
                kernel_calls.append(m.rows)
                return real(m, *args, **kwargs)

            monkeypatch.setattr(oracle, name, record)
        real_rank = oracle._koszul_rank

        def record_block(ncols, rows, leads, modulus):
            # the whole block: rows settled by their leads and rows for the
            # kernel; a block whose rows go to the kernel is built whole
            rank, pivots = real_rank(ncols, rows, leads, modulus)
            ranked.append((len(rows) + len(leads), rank, pivots, any(rows)))
            return rank, pivots

        monkeypatch.setattr(oracle, "_koszul_rank", record_block)
        monkeypatch.setattr(oracle, "_pruned_blocks", blocks)
        try:
            betas, proof = _betti_over_field(f, q_max, field)
        except _NonUnitPivot:
            assert primes and field.modulus is not None  # QQ then covers it
            continue
        finally:
            monkeypatch.undo()
        if betas is None:
            assert ranked == kernel_calls == []  # an empty piece ends the pass before any rank
            continue
        # every Koszul rank of the pass in its band q - p <= m, in its
        # order: each degree q up to m+n+1 from p = min(q, n+1) down to
        # max(2, q-m), where (m, j) is the proof; without one, every q up
        # to the bound, m = q_max
        m, top = (proof[0], proof[0] + n + 1) if proof else (q_max, q_max)
        order = [
            (p, q) for q in range(top + 1) for p in range(min(q, n + 1), max(2, q - m) - 1, -1)
        ]
        assert len(ranked) == len(kernel_calls) == len(order)  # one kernel call per block
        above = None  # (q, pivot columns) of d_(p+1) in the same degree
        for (p, q), (rows, rank, pivots, whole) in zip(order, ranked):
            k = q - p
            # the full transposed block: one row per e_S tensor b, none left out
            full = koszul_block(n, pieces, p, q, field)
            full_t = SparseMatrix(full.cols, full.rows, {(c, r): v for (r, c), v in entries(full).items()}, field.modulus)
            assert rank == rank_over(full_t, field), (p, q, field.modulus)
            # the kept block leaves out the rows at the pivot columns of d_(p+1)
            skip = above[1] if above and above[0] == q else set()
            row_at = monomial_layout(n, pieces[k], k, comb(n + 1, p))
            col_at = monomial_layout(n, pieces[k + 1], k + 1, comb(n + 1, p - 1))
            kept = [row for r, row in enumerate(full_t.data) if row_at[r] not in skip]
            assert rows == len(kept) == full_t.rows - len(skip), (p, q, field.modulus)
            kept_pivots = _echelon(kept, field.modulus)
            assert pivots == {col_at[c] for c in kept_pivots}, (p, q, field.modulus)
            # only the rows of the homology reduce to zero
            assert rows - rank == betas.get((p, q), 0), (p, q, field.modulus)
            above = q, pivots
            built_whole += whole
        assert not all(whole for *_, whole in ranked)  # some blocks are settled by their leads
    if f == HSPOG:
        assert built_whole  # and some share a lead, so are built and ranked whole


def test_a_singular_input_whose_pair_splits_ranks_its_koszul_blocks_over_q(monkeypatch):
    f = parse(SPLIT_NODE, 2)
    log = _record_splits(monkeypatch)
    table = graded_betti(f, primes=[37, 41])
    assert table == BettiTable.of(2, 3, {1: [2, 2, 2, 2], 2: [3, 3]})
    # the pass mod 37*41 splits once; the rerun over Q proves m = 3, so
    # after the cone check it ranks one rank_rational per (p, q) of the
    # band, 2 <= p <= min(q, 3) and q - p <= m, up to q = m + n + 1 = 6
    assert log["splits"] == [37 * 41]
    assert "rref" in log["rational"]
    band = [(p, q) for q in range(7) for p in range(2, min(q, 3) + 1) if q - p <= 3]
    assert log["rational"].count("rank_rational") == 1 + len(band) == 1 + 8
    report = cross_check(f, primes=[37, 41])
    assert report.deviations == []
    assert report.hilbert.tjurina == report.rule_report.tau == 1


# -- the proven stop of the Betti side ------------------------------------


def _record_pieces(monkeypatch):
    """Record (k, modulus) of every quotient piece the Betti side builds:
    each degree asked of the full ring's _pruned_blocks in a Betti pass,
    before it is built."""
    built, passes = [], []
    real_pass, real_blocks = oracle._betti_over_field, oracle._pruned_blocks

    def betti_pass(f, q_max, field):
        passes.append(f.n)
        try:
            return real_pass(f, q_max, field)
        finally:
            passes.pop()

    def blocks(gens, deg, n, modulus, rank):
        block = real_blocks(gens, deg, n, modulus, rank)
        if not passes or n < passes[-1]:
            return block  # the Hilbert side's, or a section ring's

        def piece(k):
            built.append((k, modulus))
            return block(k)

        return piece

    monkeypatch.setattr(oracle, "_betti_over_field", betti_pass)
    monkeypatch.setattr(oracle, "_pruned_blocks", blocks)
    return built


def _betti_outcome(f, **kwargs):
    """graded_betti's table, or its error by type and message."""
    try:
        return graded_betti(f, **kwargs)
    except (ValueError, BadPrimeError, IncompleteTableError) as exc:
        return type(exc).__name__, str(exc)


def test_the_betti_side_stops_at_the_table_regularity_plus_two(monkeypatch):
    # J_f is m-regular for m = reg + 1, proven at piece m+1, the last one
    # built in ascending order: beta_{p,q} = 0 for q - p >= m, and the band
    # q - p <= m reads no later piece.  The walk to K = (n+1)(d-2)+1 comes
    # first and adds at most one piece past m+1; a smooth input builds the
    # walk alone, and its last piece, K = reg + 1, is the first empty one
    built = _record_pieces(monkeypatch)
    singular = below_default = extra = 0
    for f, primes in dict.fromkeys([*golden_inputs(), (HSPOG, None)]):
        built.clear()
        try:
            table = graded_betti(f, primes=primes)
        except ConeError:
            continue  # the cone golden has no table
        reg = full_report(table).reg
        walk = walked_degrees(f.n, f.degree, lambda k: hilbert_function_from_table(table, k))
        degrees = [k for k, m in built if m == built[-1][1]]  # the last pass, after a split
        if table == koszul_smooth_table(f.n, f.degree):
            assert degrees == walk and max(degrees) == reg + 1, f
            continue
        last = reg + 2
        assert degrees == walk + [k for k in range(last + 1) if k not in walk], f
        assert max(degrees) == max(last, walk[-1]) <= last + f.degree - 2, f
        singular += 1
        extra += walk[-1] > last
        below_default += last + f.n < (f.n + 1) * (f.degree - 1)
    # the five singular corpus inputs, the cusp fixture among them, and
    # the hspog surface; only the nodal cubic curve's band reaches the
    # default bound, at m+n+1 = last+n
    assert (singular, below_default) == (6, 5)
    assert extra == 1  # the hspog surface's walk reads degree 6, past m+1 = 5


def seeded_forms():
    """40 seeded sparse curves and surfaces of degree 3 or 4, then ten
    cubic threefolds."""
    rng = random.Random(2026)
    forms = []
    for _ in range(40):
        n, d = rng.choice((2, 3)), rng.choice((3, 4))
        monos = rng.sample(grevlex_exponents(n, d), rng.randint(3, 6))
        forms.append(Polynomial(n, {m: rng.choice((1, -1, 2)) for m in monos}))
    for _ in range(10):
        monos = rng.sample(grevlex_exponents(4, 3), rng.randint(5, 8))
        forms.append(Polynomial(4, {m: rng.choice((1, -1, 2)) for m in monos}))
    return forms


def test_the_proven_stop_gives_the_table_of_the_default_bound(monkeypatch):
    # the goldens, the hspog surface and the seeded forms, whose cubic
    # threefolds are where the band leaves out the most, with the
    # certificate and without it
    inputs = list(dict.fromkeys([*golden_inputs(), (HSPOG, None)]))
    inputs += [(f, None) for f in seeded_forms()]
    proven = [_betti_outcome(f, primes=primes) for f, primes in inputs]
    _no_certificate(monkeypatch)
    assert proven == [_betti_outcome(f, primes=primes) for f, primes in inputs]
    assert sum(isinstance(t, BettiTable) and t != koszul_smooth_table(t.n, t.d) for t in proven) > 30
    assert all(isinstance(t, BettiTable) for t in proven[-10:])  # every threefold has a table


def test_a_bound_below_the_proven_stop_is_unchanged(monkeypatch):
    # every max_degree from d up to the default bound: below m+n+1 no
    # proof can end the pass, so each bound gives the table or the error
    # it gave without the certificate; from m+n+1 on the last piece is
    # the proof's, m+1
    cases = [
        (f, q, full_report(graded_betti(f)).reg + 1)
        for f in (CUSP_POLY, HSPOG, parse("x0*x1*x2*x3 + x4^4", 4))
        for q in range(f.degree, (f.n + 1) * (f.degree - 1) + 1)
    ]
    built = _record_pieces(monkeypatch)
    proven = []
    for f, q, m in cases:
        built.clear()
        proven.append(_betti_outcome(f, max_degree=q))
        assert built[-1][0] == (q if q < m + f.n + 1 else m + 1), (f, q)
    _no_certificate(monkeypatch)
    assert proven == [_betti_outcome(f, max_degree=q) for f, q, _ in cases]
    assert {type(t) for t in proven} == {BettiTable, tuple}  # errors are compared too


def test_a_pinned_pair_that_splits_returns_the_rational_table(monkeypatch):
    # mod 3*7 the hspog surface's pass splits: the rational rerun proves
    # its own stop, m = 4, and builds pieces 0..m+1 only, as the derived
    # primes do
    built = _record_pieces(monkeypatch)
    table = graded_betti(HSPOG, primes=[3, 7])
    assert {m for _, m in built} == {21, None}
    # the walk to K = 9 first: piece 3 is on the complete-intersection
    # series and piece 6 is not; then pieces 0..m+1, those built reused
    walk = walked_degrees(3, 4, lambda k: hilbert_function_from_table(table, k))
    assert walk == [3, 6]
    assert [k for k, m in built if m is None] == [3, 6, 0, 1, 2, 4, 5]
    built.clear()
    assert table == graded_betti(HSPOG)
    assert [k for k, _ in built] == [3, 6, 0, 1, 2, 4, 5]  # the derived primes prove m = 4 at piece m+1
    # a split in the certificate alone proves nothing: the pass mod N
    # goes on to the default bound and gives the same table
    real = oracle._section_dimensions

    def splitting(*args):
        hf = real(*args)

        def split(i, k):
            if i:
                raise _NonUnitPivot("forced split in a section block")
            return hf(i, k)

        return split

    monkeypatch.setattr(oracle, "_section_dimensions", splitting)
    built.clear()
    assert graded_betti(HSPOG) == table
    assert sorted(k for k, _ in built) == list(range(13)) and None not in {m for _, m in built}


def test_a_forced_split_on_a_threefold_reruns_each_side_to_its_proven_stop(monkeypatch):
    # mod 3*5 both passes split, and each side reruns whole over Q: the
    # rerun's own certificate proves the derived primes' stop, m = 8, so
    # the Betti side builds no rational piece past m+1
    fit, table = hilbert_fit(DELTA_TWO), graded_betti(DELTA_TWO)
    built = _record_pieces(monkeypatch)
    hilbert_fields = []
    real = oracle._hilbert_over_field

    def hilbert_pass(f, w, plist, modulus):
        hilbert_fields.append(modulus)
        return real(f, w, plist, modulus)

    monkeypatch.setattr(oracle, "_hilbert_over_field", hilbert_pass)
    assert hilbert_fit(DELTA_TWO, primes=[3, 5]) == fit
    assert hilbert_fields == [15, None] and fit.stop == 8
    assert graded_betti(DELTA_TWO, primes=[3, 5]) == table
    assert {m for _, m in built} == {15, None}
    assert max(k for k, m in built if m is None) == fit.stop + 1


def test_a_non_unit_lead_leaves_the_other_rows_of_its_block_settled(monkeypatch):
    # mod 3*7 some pivot tails of this quartic curve's pieces lead with a
    # value that is 0 mod 3 or 7 (found by a seeded search of curves and
    # surfaces with pinned pairs).  A block whose images reach such a
    # tail is still settled by its leads when no kept row leads there,
    # and the table is the derived primes'
    f, modulus = parse("-x0^4+2*x0^3*x1-x0^2*x1^2-x1^2*x2^2", 2), 21
    pieces, settled, moduli = {}, [], set()
    real_blocks, real_rank = oracle._pruned_blocks, oracle._koszul_rank

    def blocks(gens, deg, n, mod, rank):
        block = real_blocks(gens, deg, n, mod, rank)
        if n < f.n:
            return block  # a section ring's
        moduli.add(mod)

        def piece(k):
            pieces[k] = block(k)
            return pieces[k]

        return piece

    def koszul_rank(ncols, rows, leads, mod):
        if not any(rows):
            settled.append(sys._getframe(1).f_locals["k"])
        return real_rank(ncols, rows, leads, mod)

    monkeypatch.setattr(oracle, "_pruned_blocks", blocks)
    monkeypatch.setattr(oracle, "_koszul_rank", koszul_rank)
    table = graded_betti(f, primes=[3, 7])
    monkeypatch.undo()
    assert table == graded_betti(f)
    assert moduli == {modulus}  # the pass mod 21 did not split

    def reads_a_non_unit_lead(k):
        """Whether x_s b, for a basis column b of piece k, is a pivot of
        piece k+1 whose tail leads with a non-unit mod 21."""
        nxt = grevlex_columns(f.n, k + 1)
        tails = (
            pieces[k + 1].get(nxt[key + (1 << 16 * s)])
            for key, c in grevlex_columns(f.n, k).items()
            if c not in pieces[k]
            for s in range(f.n + 1)
        )
        return any(tail and gcd(tail[min(tail)], modulus) > 1 for tail in tails)

    assert any(reads_a_non_unit_lead(k) for k in settled)


@pytest.mark.parametrize(
    "expr, n, primes, k, columns",
    [
        ("x0*x1^2+2*x1^3+3*x0*x1*x2+3*x1*x2^2+x2^3", 2, [11, 13], 1, {1: [2, 2, 2, 2], 2: [3, 3]}),
        ("-x1^2*x2+2*x2^3+x0*x1*x3+x1^2*x3+2*x1*x2*x3", 3, [5, 7], 2, {1: [1, 2, 2, 2, 2, 2], 2: [3, 3, 4, 4], 3: [5]}),
    ],
)
def test_a_kept_row_that_leads_with_a_non_unit_sends_its_block_to_the_kernel(monkeypatch, expr, n, primes, k, columns):
    # some kept row of a Koszul block at piece k leads with a value that is
    # not a unit mod N, before any two rows share a lead: only the kernel
    # may settle it, so the block is built whole (found by a seeded search)
    f, refused = parse(expr, n), []
    real_rank = oracle._koszul_rank

    def koszul_rank(ncols, rows, leads, modulus):
        # the first built row that settled_by_leads could not take
        seen = set()
        for row in filter(None, rows):
            c = min(row)
            if modulus and gcd(row[c], modulus) > 1:
                refused.append(sys._getframe(1).f_locals["k"])
                break
            if c in seen:
                break
            seen.add(c)
        return real_rank(ncols, rows, leads, modulus)

    monkeypatch.setattr(oracle, "_koszul_rank", koszul_rank)
    table = graded_betti(f, primes=primes)
    monkeypatch.undo()
    assert k in refused
    assert table == graded_betti(f) == BettiTable.of(n, 3, columns)


@pytest.mark.parametrize("f, primes", STOP_RULE_INPUTS, ids=str)
def test_pruned_rows_span_the_full_block(f, primes):
    # each degree pruned by the pruned echelon d-1 degrees down, as the
    # pipelines chain them, over every working prime of both sides, on
    # the full ring and on the ring of the first section form
    n, d = f.n, f.degree
    fields = [Field(p) for p in primes or default_primes(f) + default_primes(f, 1)]
    if n == 2:
        fields.append(QQ)
    top = (n + 1) * (d - 2) + n + 3
    for field in fields:
        gens = _partials(f, field.modulus)
        block = _pruned_blocks(gens, d - 1, n, field.modulus, echelon(field))
        for k in range(top):
            assert block(k) == rref(jacobian_mod(f, k, field.modulus).data, field), k
        if field.modulus is None:
            continue
        # a degree asked before the one d-1 below it gets the full block's
        # Pivots, lead included, and so prunes the degree d-1 above it
        late = 3 * (d - 1)
        full = rref(_jacobian_block(gens, d - 1, n, late, field.modulus)[0].data, field)
        block = _pruned_blocks(gens, d - 1, n, field.modulus, echelon(field))
        pivots = block(late)
        assert pivots == full and pivots.lead == full.lead
        assert block(late + d - 1) == rref(jacobian_mod(f, late + d - 1, field.modulus).data, field)
        section = oracle._restrict(gens, _section_forms(f, field.modulus)[0], field.modulus)
        block = _pruned_blocks(section, d - 1, n - 1, field.modulus, echelon(field))
        for k in range(top):
            full = _jacobian_block(section, d - 1, n - 1, k, field.modulus)[0]
            assert block(k) == rref(full.data, field), k


def leading_coefficient(terms, n, deg):
    """The coefficient of the grevlex-leading term of a generator in
    x_0..x_n of degree ``deg``, given as (packed exponents, coefficient)
    terms: the term at the smallest column."""
    col = grevlex_columns(n, deg)
    return min(terms, key=lambda t: col[t[0]])[1]


@pytest.mark.parametrize(
    "f, sections",
    [
        # the fermat-smooth corpus, whose partials lead with d: smooth, so
        # no certificate is attempted
        *((parse("+".join(f"x{i}^{d}" for i in range(n + 1)), n), False) for n, d in [(3, 4), (4, 4), (5, 3)]),
        # singular, so both sides rank section blocks
        (parse("x0*x1*x2*x3+x4^4", 4), True),
    ],
    ids=str,
)
def test_every_jacobian_row_mod_n_leads_with_1(f, sections, monkeypatch):
    real_blocks, real_rank, real_rref = oracle._pruned_blocks, oracle.rank_mod_p, oracle.rref
    rings, rows = [], []

    def blocks(gens, deg, n, modulus, rank):
        rings.append(n)
        return real_blocks(gens, deg, n, modulus, rank)

    def rank_mod_p(m, p):
        rows.extend(m.data)
        return real_rank(m, p)

    def echelon(data, field):
        if field.modulus is not None:
            rows.extend(data)
        return real_rref(data, field)

    monkeypatch.setattr(oracle, "_pruned_blocks", blocks)
    for side, name, wrapper in [(hilbert_fit, "rank_mod_p", rank_mod_p), (graded_betti, "rref", echelon)]:
        rings.clear()
        rows.clear()
        with monkeypatch.context() as mp:
            mp.setattr(oracle, name, wrapper)
            side(f)
        assert rows and all(row[min(row)] == 1 for row in rows if row), side.__name__
        assert (min(rings) < f.n) == sections, side.__name__


@pytest.mark.parametrize("f, section", [(CUSP_POLY, False), (QUINTIC, False), (HSPOG, True)], ids=str)
def test_monic_generators_leave_every_record_as_it_was(f, section):
    # each degree's Pivots and lead from _pruned_blocks, which makes the
    # generators monic, against the same chain built by hand on the
    # generators as given, and against _pruned_blocks on the generators
    # times random units
    n, d = f.n, f.degree
    modulus = prod(default_primes(f, 1))
    gens = _partials(f, modulus)
    if section:
        gens, n = oracle._restrict(gens, _section_forms(f, modulus)[0], modulus), n - 1
    assert any(leading_coefficient(terms, n, d - 1) != 1 for terms in gens)
    rng = random.Random(7)
    units = [rng.randrange(1, modulus) for _ in gens]
    assert all(gcd(u, modulus) == 1 for u in units)
    scaled = [[(e, u * c % modulus) for e, c in terms] for u, terms in zip(units, gens)]

    def rank(m):
        return rank_mod_p(m, modulus)

    chains = [_pruned_blocks(gens, d - 1, n, modulus, rank), _pruned_blocks(scaled, d - 1, n, modulus, rank)]
    records = {}
    for k in range(3 * (d - 1) + 1):  # three generations of records
        matrix, starts = _jacobian_block(gens, d - 1, n, k, modulus, records.pop(k - d + 1, None))
        want = rank(matrix)
        records[k] = want.lead, starts
        for block in chains:
            got = block(k)
            assert got == want and got.lead == want.lead, k


def test_a_non_unit_leading_coefficient_leaves_its_generator_as_given(monkeypatch):
    # d_0 = 111*x0^2 + x1*x2 and 111 = 3*37 is no unit mod 37*41; each
    # pass mod 37*41 splits and reruns over Q
    f = parse("37*x0^3+x0*x1*x2+x1^3+x2^3", 2)
    primes = [37, 41]
    real = oracle._jacobian_block
    seen = []

    def build(gens, deg, n, k, p=None, below=None):
        if p is not None:
            seen.append(gens)
        return real(gens, deg, n, k, p, below)

    monkeypatch.setattr(oracle, "_jacobian_block", build)
    hd, table = hilbert_fit(f, primes=primes), graded_betti(f, primes=primes)
    assert seen
    for gens in seen:
        assert gens[0] == [(pack((2, 0, 0)), 111), (pack((0, 1, 1)), 1)]
        assert [leading_coefficient(terms, 2, 2) for terms in gens[1:]] == [1, 1]
    monkeypatch.undo()
    assert hd == hilbert_fit(f) and [hd.values[k] for k in range(5)] == [1, 3, 3, 1, 0]
    assert table == graded_betti(f) == BettiTable.of(2, 3, {1: [2, 2, 2], 2: [4]})


@pytest.mark.parametrize(
    "f",
    [
        # the Fermat goldens
        *(parse("+".join(f"x{i}^{d}" for i in range(n + 1)), n) for n, d in [(3, 4), (4, 4), (5, 3)]),
        parse("x0^3+x1^3+x2^3+7*x0*x1*x2", 2),
        parse("x0^3+x1^3+x2^3+x3^3+7*x0*x1*x2", 3),
    ],
    ids=str,
)
def test_no_kept_row_reduces_to_zero_on_a_regular_sequence(f):
    # the partials of a hypersurface smooth mod 41 are a regular sequence
    # there, so every row the F5 criterion keeps is a pivot
    p = 41
    n, d = f.n, f.degree
    kept = []
    real = oracle._jacobian_block

    def build(*args):
        out = real(*args)
        kept.append(out[0].rows)
        return out

    block = _pruned_blocks(_partials(f, p), d - 1, n, p, lambda m: rank_mod_p(m, p))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_jacobian_block", build)
        for k in range((n + 1) * (d - 2) + 1):
            assert block(k).rank == kept[-1], k


# -- the certificate's section blocks --------------------------------------

# a cubic fourfold whose first section vanishes from degree 5 on, so the
# attempt at m = 5 reads HF_1(6) = 0 without a block
FOURFOLD = parse("x0*x1*x2 + x3^3 + x4^3 + x5^3", 5)


def section_inputs():
    return [*STOP_RULE_INPUTS, (FOURFOLD, None), *((f, None) for f in seeded_forms())]


def _record_sections(monkeypatch, n, split=False):
    """Record what the certificates of an input in x_0..x_n do, each
    side's pass its own series 1, 2, ..: ``built``, in order, every
    section block as a namespace of its series, i, k, generators, block,
    starts and the Pivots its rank returned (None if it split); ``read``,
    every value HF_i(k) an attempt reads, as (series, i, k, value,
    modulus, forms).  With ``split`` every block built on demand, for the
    record that prunes the block of the value read, raises _NonUnitPivot
    instead, and ``forced`` lists those (series, i, k)."""
    log = {"built": [], "read": [], "forced": []}
    reading, series = [], []
    real_block, real_sections, real_echelon = oracle._jacobian_block, oracle._section_dimensions, oracle._echelon

    def block(gens, deg, r, k, p=None, below=None):
        out = real_block(gens, deg, r, k, p, below)
        if r < n:  # a section ring, in fewer variables than S
            if split and (n - r, k) != reading[-1]:
                log["forced"].append((len(series), n - r, k))
                raise _NonUnitPivot("forced split in a lower section block")
            log["built"].append(
                SimpleNamespace(series=len(series), i=n - r, k=k, gens=gens, block=out[0], starts=out[1], pivots=None)
            )
        return out

    def echelon(rows, p):  # the kernel call that ranks each section block
        log["built"][-1].pivots = pivots = real_echelon(rows, p)
        return pivots

    def sections(f, modulus, vals, forms, partials):
        series.append(modulus)
        this = len(series)
        hf = real_sections(f, modulus, vals, forms, partials)

        def value(i, k):
            reading.append((i, k))
            try:
                log["read"].append((this, i, k, hf(i, k), modulus, forms))
            finally:
                reading.pop()
            return log["read"][-1][3]

        return value

    monkeypatch.setattr(oracle, "_jacobian_block", block)
    monkeypatch.setattr(oracle, "_echelon", echelon)
    monkeypatch.setattr(oracle, "_section_dimensions", sections)
    return log


def _fit_outcome(f, **kwargs):
    """hilbert_fit's data, or its error by type and message."""
    try:
        return hilbert_fit(f, **kwargs)
    except (ValueError, BadPrimeError, WindowTooSmallError) as exc:
        return type(exc).__name__, str(exc)


def section_value(f, modulus, forms, i, k):
    """HF_i(k) from the full block of the partials mod the modulus, or over
    Q for none, the first i forms substituted."""
    gens = _partials(f, modulus)
    for a in forms[:i]:
        gens = oracle._restrict(gens, a, modulus)
    block = _jacobian_block(gens, f.degree - 1, f.n - i, k, modulus)[0]
    return block.cols - rank_over(block, Field(modulus))


def test_pruned_section_blocks_keep_the_values_of_the_full_blocks(monkeypatch):
    # both sides' certificates, each over its own field, mod its own N or
    # over Q after a split: every section block, on-demand lower ones
    # included, is pruned by the record of its own ring's block d-1
    # degrees down and has the rank of the full block of the same
    # generators, and every value an attempt reads, a zero deduced without
    # a block included, is the full block's
    pruned = deduced = 0
    rational = set()
    for f, primes in section_inputs():
        log = _record_sections(monkeypatch, f.n)
        _fit_outcome(f, primes=primes)
        _betti_outcome(f, primes=primes)
        monkeypatch.undo()
        deg, built = f.degree - 1, [b for b in log["built"] if b.pivots is not None]  # not split
        records = {(b.series, b.i, b.k): (b.pivots.lead, b.starts) for b in built}
        for b in built:
            modulus, r = b.block.modulus, f.n - b.i
            below = records.get((b.series, b.i, b.k - deg))
            assert b.block.data == _jacobian_block(b.gens, deg, r, b.k, modulus, below)[0].data, (f, b.i, b.k)
            full = _jacobian_block(b.gens, deg, r, b.k, modulus)[0]
            assert b.pivots.rank == rank_over(full, Field(modulus)), (f, b.i, b.k)
            pruned += full.rows - b.block.rows
            if modulus is None:
                rational.add(f)
        for series, i, k, value, modulus, forms in log["read"]:
            assert value == section_value(f, modulus, forms, i, k), (f, i, k)
            deduced += i > 0 and (series, i, k) not in records
    assert pruned > 0 and deduced > 0
    assert parse(SPLIT_NODE, 2) in rational  # its Betti pass splits, so its rerun proves over Q


def test_no_section_block_is_built_past_a_vanished_section(monkeypatch):
    # once a block reads HF_i(k) = 0, no block of that pass is built at any
    # i' >= i and k' >= k: S/(J_f, h_1..h_i') is 0 there
    vanished = 0
    for f, primes in section_inputs():
        log = _record_sections(monkeypatch, f.n)
        _fit_outcome(f, primes=primes)
        _betti_outcome(f, primes=primes)
        monkeypatch.undo()
        built = log["built"]
        for t, b in enumerate(built):
            if b.pivots is not None and b.pivots.rank == b.block.cols:
                vanished += 1
                later = [(c.i, c.k) for c in built[t + 1 :] if c.series == b.series and c.i >= b.i and c.k >= b.k]
                assert later == [], (f, b.i, b.k)
        if f == FOURFOLD:
            blocks = {(b.series, b.i, b.k) for b in built}
            for series in (1, 2):  # the Hilbert side, then the Betti side
                assert (series, 1, 5) in blocks and (series, 1, 6) not in blocks
                assert (series, 1, 6, 0) in {r[:4] for r in log["read"]}
    assert vanished > 0


def test_a_split_in_a_lower_section_block_proves_nothing(monkeypatch):
    # a split forced in every block built on demand fails each attempt it
    # meets, and the fits and tables are those of a run without the
    # certificate; the Betti pass mod N is never rerun over Q
    inputs = [FOURFOLD, *seeded_forms()]
    split = []
    for f in inputs:
        log = _record_sections(monkeypatch, f.n, split=True)
        real = oracle._certified_forms

        def certified(hf, n, m, log=log, real=real):
            before = len(log["forced"])
            j = real(hf, n, m)
            assert j is None or len(log["forced"]) == before, m
            return j

        monkeypatch.setattr(oracle, "_certified_forms", certified)
        pieces = _record_pieces(monkeypatch)
        fit, table = _fit_outcome(f), _betti_outcome(f)
        assert None not in {m for _, m in pieces}, f
        split.append((fit, table, len(log["forced"])))
        monkeypatch.undo()
    _no_certificate(monkeypatch)
    for f, (fit, table, forced) in zip(inputs, split):
        plain = _fit_outcome(f)
        if isinstance(fit, HilbertData) and fit.delta is not None:
            fit = dataclasses.replace(fit, stop=None)  # a later attempt may prove a stop
        assert fit == plain, f
        assert table == _betti_outcome(f), f
    assert sum(forced > 0 for *_, forced in split) > 10


def test_no_section_block_reaches_rref_or_the_rank_entries(monkeypatch):
    # the certificate reads only the ranks and records of its section
    # blocks, so on both sides, mod N and over Q after a split, they go to
    # the kernel's semi-echelon form alone: none is back-substituted by
    # rref or ranked by rank_mod_p or rank_rational
    sections, entered = [], []
    real_block = oracle._jacobian_block

    def block(gens, deg, r, k, p=None, below=None):
        out = real_block(gens, deg, r, k, p, below)
        if r < f.n:  # a section ring, in fewer variables than S
            sections.append(out[0])
        return out

    def entry(name):
        real = getattr(oracle, name)

        def traced(m, *args):
            entered.extend(name for s in sections if m is s or m is s.data)
            return real(m, *args)

        return traced

    monkeypatch.setattr(oracle, "_jacobian_block", block)
    for name in ("rref", "rank_mod_p", "rank_rational"):
        monkeypatch.setattr(oracle, name, entry(name))
    for f, primes in [(CUSP_POLY, None), (parse(SPLIT_NODE, 2), [37, 41])]:
        hilbert_fit(f, primes=primes)
        graded_betti(f, primes=primes)
    assert entered == []
    assert {s.modulus is None for s in sections} == {False, True}  # both fields are covered


@pytest.mark.parametrize(
    "text",
    ["2*x0^2*x1^3*x3-x1^2*x2^2*x3^2+x1^2*x2^2*x3*x4", "x0*x1^2*x2^2*x4-x1^2*x2^3*x4+2*x0*x1^2*x2*x3*x4"],
)
def test_n_forms_prove_a_non_reduced_input_regular(monkeypatch, text):
    # f lies in (x1^2), so its singular locus is a hyperplane, dimension
    # n-1: only j = n forms prove J_f 6-regular, on both sides, within a
    # window of 12 and a bound of 11 (the reaches m+n-1 = 9 and m+n+1 = 11),
    # and the refusal and the table are those of a run without a proof
    f = parse(text, 4)
    proofs = []
    real = oracle._certified_forms

    def record(hf, n, m):
        proofs.append((m, real(hf, n, m)))
        return proofs[-1][1]

    def outcomes():
        with pytest.raises(ValueError) as exc:
            hilbert_fit(f, window=12)
        return str(exc.value), graded_betti(f, max_degree=11)

    monkeypatch.setattr(oracle, "_certified_forms", record)
    proven = outcomes()
    assert [proof for proof in proofs if proof[1] is not None] == [(6, 4), (6, 4)]
    assert proven[0] == "Hilbert polynomial has degree 3 > n-2 = 2; the input is not a reduced hypersurface"
    # the default window and bound stop at the same proof
    assert outcomes() == proven == (_fit_outcome(f)[1], graded_betti(f))
    _no_certificate(monkeypatch)
    assert outcomes() == proven


def test_pipelines_stop_at_the_first_empty_piece(monkeypatch):
    f = FERMAT[(2, 3)]
    asked = []
    real = oracle.milnor_dimension

    def record(f, k, *args, **kwargs):
        asked.append(k)
        return real(f, k, *args, **kwargs)

    monkeypatch.setattr(oracle, "milnor_dimension", record)
    built = _record_pieces(monkeypatch)
    hd = hilbert_fit(f)
    assert hd.k0 == 4 and max(hd.values) == 7
    # a smooth input asks only the degrees k = K mod d-1 up to K = k0:
    # there S/J_f = 0, so it is Artinian and every value is the series'
    assert asked == [2, 4]
    assert graded_betti(f) == koszul_smooth_table(2, 3)
    # one pass over the same degrees, shared by both Betti primes
    assert [k for k, _ in built] == [2, 4]


def test_a_repeated_pinned_prime_is_one_pass(monkeypatch):
    f = parse(CURVE_37, 2)
    asked = _record_pieces(monkeypatch)
    table = graded_betti(f, primes=[37, 37])
    assert table == graded_betti(f, primes=[37])
    # each call is one pass mod 37, over every piece up to the proof's,
    # m+1 for m = reg + 1, three below the default bound (n+1)(d-1) = 6,
    # after the walk to K = 4, whose piece 4 is off the series
    top = full_report(table).reg + 2
    assert top == 3
    walk = walked_degrees(2, 3, lambda k: hilbert_function_from_table(table, k))
    assert walk == [2, 4]
    assert asked == [(k, 37) for k in [2, 4, 0, 1, 3]] * 2
    # 3 kills every partial of the Fermat cubic: the one pass splits and
    # the rational pass gives the table of the derived primes
    fermat = FERMAT[(2, 3)]
    assert graded_betti(fermat, primes=[3, 3]) == graded_betti(fermat)


def _record_degrees(monkeypatch):
    """Record, for each side, the degree of every block of the full ring's
    _pruned_blocks it asks for, in order: {"hilbert": [..], "betti": [..]}."""
    log = {"hilbert": [], "betti": []}
    real_pass, real_blocks = oracle._hilbert_over_field, oracle._pruned_blocks
    side = []

    def hilbert_pass(*args):
        side.append("hilbert")
        try:
            return real_pass(*args)
        finally:
            side.pop()

    def blocks(gens, deg, n, modulus, rank):
        block = real_blocks(gens, deg, n, modulus, rank)
        if len(gens) != n + 1:
            return block  # a section ring's, in fewer variables
        degrees = log[side[-1] if side else "betti"]

        def piece(k):
            degrees.append(k)
            return block(k)

        return piece

    monkeypatch.setattr(oracle, "_hilbert_over_field", hilbert_pass)
    monkeypatch.setattr(oracle, "_pruned_blocks", blocks)
    return log


def rational_milnor_dimension(f, k):
    """dim (S/J_f)_k from the rank over Q of the full degree-k block: no
    pruning, no walk and no modulus."""
    return dim_degree_piece(f.n, k) - rank_rational(_jacobian_matrix(f, k)).rank


def seeded_smooth_forms():
    """Two seeded smooth forms for each (n, d) in (2, 3) x (3, 4): a Fermat
    form plus three random terms, each coefficient in -3..3."""
    rng = random.Random(32)
    forms = []
    for n in (2, 3):
        for d in (3, 4):
            while sum(f.n == n and f.degree == d for f in forms) < 2:
                terms = {tuple(d * (i == j) for j in range(n + 1)): 1 for i in range(n + 1)}
                for e in rng.sample(grevlex_exponents(n, d), 3):
                    terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
                f = Polynomial(n, terms)
                if rational_milnor_dimension(f, (n + 1) * (d - 2) + 1) == 0:
                    forms.append(f)
    return forms


def test_the_walk_proves_a_smooth_input_from_its_class_alone(monkeypatch):
    # on smooth forms each side builds only the degrees K mod d-1 up to
    # K = (n+1)(d-2)+1; the values are those of the full rational blocks
    # and the table is that of the full Koszul blocks (the dense rational
    # rank of brute_milnor_dimension takes seconds per quartic surface)
    log = _record_degrees(monkeypatch)
    for f in seeded_smooth_forms():
        n, d = f.n, f.degree
        K = (n + 1) * (d - 2) + 1
        walk = walked_degrees(n, d, complete_intersection_series(n, d, K).__getitem__)  # the whole class
        for side in log.values():
            side.clear()
        hd, table = hilbert_fit(f), graded_betti(f)
        assert log == {"hilbert": walk, "betti": walk}, f
        assert hd.values == {k: rational_milnor_dimension(f, k) if k <= K else 0 for k in hd.values}, f
        assert (hd.delta, hd.k0, hd.stop) == (None, K, K), f
        assert table == koszul_smooth_table(n, d), f
        koszul = {(p, p * (d - 1)): comb(n + 1, p) for p in range(n + 2)}
        assert betti_echeloning_every_piece(f, (n + 1) * (d - 1), Field(default_primes(f)[0])) == koszul, f


def test_the_walk_adds_at_most_one_degree_on_a_singular_input(monkeypatch):
    # after the walk each side builds, in order, every degree of its
    # ascending pass the walk left, up to a last one at or past the first
    # value off the series; of the walk only its last degree, the first of
    # K's class at or past that value, may lie beyond
    log = _record_degrees(monkeypatch)
    singular = extra = 0
    for f in seeded_forms():
        for side in log.values():
            side.clear()
        fit = _fit_outcome(f)
        if not isinstance(fit, HilbertData) or fit.delta is None:
            continue
        table = _betti_outcome(f)
        n, d = f.n, f.degree
        series = complete_intersection_series(n, d, max(fit.values))
        off = min(k for k, v in fit.values.items() if v != series[k])
        walk = walked_degrees(n, d, fit.values.__getitem__)
        assert all(k < off for k in walk[:-1]) and off <= walk[-1], f
        sides = [(log["hilbert"], d - 1)]  # the Hilbert side builds no block below degree d-1
        if isinstance(table, BettiTable):  # a cone has none
            sides.append((log["betti"], 0))
        for degrees, low in sides:
            last = max([off, *degrees[len(walk) :]])  # the ascending pass reaches off
            assert degrees == walk + [k for k in range(low, last + 1) if k not in walk], f
            extra += walk[-1] > last
        singular += 1
    assert singular > 30 and extra > 0


@pytest.mark.parametrize("f", [FERMAT_CUBICS[3], parse("x0^4+x1^4+x2^4+x3^4", 3)], ids=str)
def test_a_window_or_bound_below_k_ranks_every_degree_in_order(monkeypatch, f):
    # with K past the window or the bound no degree is walked: the smooth
    # cubic and quartic surfaces (K = 5 and 9) give the error of the
    # reference fit on their first values, and an incomplete table
    n, d = f.n, f.degree
    K = (n + 1) * (d - 2) + 1
    log = _record_degrees(monkeypatch)
    vals = complete_intersection_series(n, d, K - 1)
    with pytest.raises(WindowTooSmallError) as err:
        hilbert_fit(f, window=K - 1)
    assert ("WindowTooSmallError", str(err.value), err.value.tail) == reference_hilbert_fit(n, vals, None)
    assert log["hilbert"] == list(range(d - 1, K))
    with pytest.raises(IncompleteTableError):
        graded_betti(f, max_degree=K - 1)
    assert log["betti"] == list(range(K))


def test_a_seeded_aimed_search_finds_only_dimension_n_minus_2():
    # sextic threefolds in (x0, x1)^2, three terms each, seed 7: every
    # one is singular along the plane x0 = x1 = 0, so a reduced one has
    # delta = n-2 = 2.  Each draw is refused as non-reduced or a cone, or
    # has delta 2, a proven stop and no cross_check deviation
    rng = random.Random(7)
    mons = [e for e in grevlex_exponents(4, 6) if e[0] + e[1] >= 2]
    counts = {"refused": 0, "reduced": 0, "hspog": 0}
    for _ in range(40):
        f = Polynomial(4, {m: rng.choice([1, -1, 2]) for m in rng.sample(mons, 3)})
        report = cross_check(f)
        if report.hilbert is None or report.table is None:
            assert any("not a reduced hypersurface" in dev or "f is a cone" in dev for dev in report.deviations), f
            counts["refused"] += 1
            continue
        assert report.deviations == [], f
        assert report.hilbert.delta == 2 and report.hilbert.stop is not None, f
        counts["reduced"] += 1
        counts["hspog"] += "HSPOG" in report.rule_report.flags
    assert counts == {"refused": 17, "reduced": 23, "hspog": 4}


@pytest.mark.parametrize("f, primes", STOP_RULE_INPUTS, ids=str)
def test_one_pass_mod_the_product_gives_the_per_prime_results(f, primes):
    n, d = f.n, f.degree
    # Betti side: the product's pass is each prime's pass, or it splits
    pair = primes or default_primes(f)
    q_max = (n + 1) * (d - 1)
    # (each field draws its own forms, so only the Betti numbers compare)
    alone = [_betti_over_field(f, q_max, Field(p))[0] for p in pair]
    try:
        joint = _betti_over_field(f, q_max, Field(prod(pair)))[0]
    except _NonUnitPivot:
        assert primes  # derived primes never split on these inputs
    else:
        assert alone == [joint] * len(pair)
    # Hilbert side: the rank of the pass mod the product, which is each
    # prime's rank, where it finishes; the rational rank where it splits
    # or a prime wipes out a partial
    pair = primes or default_primes(f, 1)
    fit = hilbert_fit(f, primes=pair)
    trusted = not any(kills_a_partial(f, p) for p in pair)
    for k in range(fit.k0 + 1):
        try:
            rank = rank_mod_p(jacobian_mod(f, k, prod(pair)), prod(pair)).rank
        except _NonUnitPivot:
            rank = None
        else:
            assert [rank_mod_p(jacobian_mod(f, k, p), p).rank for p in pair] == [rank] * len(pair)
        if not trusted or rank is None:
            rank = rank_rational(_jacobian_matrix(f, k)).rank
        expected = len(grevlex_exponents(n, k)) - rank
        assert milnor_dimension(f, k, primes=pair) == fit.values[k] == expected, k


def _record_splits(monkeypatch):
    """Record the modulus of every rank_mod_p or rref call of the oracle
    that raises _NonUnitPivot, and every rational fallback."""
    log = {"splits": [], "rational": []}
    for name in ("rank_mod_p", "rref", "rank_rational"):
        real = getattr(oracle, name)

        def record(m, *args, name=name, real=real, **kwargs):
            if name == "rank_rational" or (name == "rref" and args[0].modulus is None):
                log["rational"].append(name)
            try:
                return real(m, *args, **kwargs)
            except _NonUnitPivot:
                log["splits"].append(args[0] if name == "rank_mod_p" else args[0].modulus)
                raise

        monkeypatch.setattr(oracle, name, record)
    return log


def test_pinned_primes_that_disagree_split_and_reach_the_rational_fallback(monkeypatch):
    f = parse(CURVE_37, 2)
    log = _record_splits(monkeypatch)
    assert hilbert_fit(f, primes=[37, 41]).delta is None
    assert log["splits"] and set(log["splits"]) == {37 * 41}
    assert "rank_rational" in log["rational"]
    log["splits"].clear()
    log["rational"].clear()
    assert graded_betti(f, primes=[37, 41]) == koszul_smooth_table(2, 3)
    assert log["splits"] == [37 * 41]
    assert "rref" in log["rational"]


def test_no_pass_runs_over_a_single_prime_of_a_pair(monkeypatch):
    f = parse(CURVE_37, 2)
    moduli = set()
    for name in ("rank_mod_p", "rref"):
        real = getattr(oracle, name)

        def record(m, modulus, *args, real=real, **kwargs):
            moduli.add(modulus if isinstance(modulus, int) else modulus.modulus)
            return real(m, modulus, *args, **kwargs)

        monkeypatch.setattr(oracle, name, record)
    fit = hilbert_fit(f, primes=[37, 41])
    table = graded_betti(f, primes=[37, 41])
    # one pass mod 37*41 in each pipeline, and after a split the rational one
    assert moduli == {37 * 41, None}
    assert fit.values == {
        k: len(grevlex_exponents(f.n, k)) - rank_rational(_jacobian_matrix(f, k)).rank
        for k in fit.values
    }
    # the curve is smooth over Q, so its rational table is the Koszul one
    assert table == koszul_smooth_table(2, 3)


def test_a_split_never_leaves_the_oracle(monkeypatch):
    # force a split at every pass mod a product: the rational passes
    # must then give exactly the results of the unforced run
    cases = [(CUSP_POLY, None), (parse(CURVE_37, 2), [37, 41]), (FERMAT[(2, 3)], [41, 43])]
    expected = [
        (hilbert_fit(f, primes=primes), graded_betti(f, primes=primes),
         cross_check(f, primes=primes).deviations)
        for f, primes in cases
    ]
    for name in ("rank_mod_p", "rref"):
        real = getattr(oracle, name)

        def split(m, modulus, *args, real=real, **kwargs):
            p = modulus if isinstance(modulus, int) else modulus.modulus
            if p is not None and not is_probable_prime(p):
                raise _NonUnitPivot(f"forced split mod {p}")
            return real(m, modulus, *args, **kwargs)

        monkeypatch.setattr(oracle, name, split)
    for (f, primes), (fit, table, deviations) in zip(cases, expected):
        # each side reruns whole over Q, where its certificate proves the
        # same stop
        got = hilbert_fit(f, primes=primes)
        assert got == fit
        assert graded_betti(f, primes=primes) == table
        report = cross_check(f, primes=primes)
        assert (report.hilbert, report.table, report.deviations) == (got, table, deviations)


def test_betti_low_positions():
    f = CUSP_POLY
    betas, _ = _betti_over_field(f, 8, Field(1073741831))
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
    # the blocks are those of F, f times the lcm of its denominators
    F = f.scale(lcm(*(c.denominator for c in f.terms.values())))
    for k in range(f.degree + 3):
        m = _jacobian_matrix(f, k)
        rows, cols, literal = literal_jacobian_entries(F, k)
        assert (m.rows, m.cols, entries(m)) == (rows, cols, literal)
        # F's coefficients enter as plain ints
        assert all(type(v) is int for v in entries(m).values())
        # over F_p: every value mapped by the reference, zeros dropped
        for p in (3, 5, 2147483647):
            expected = {rc: x for rc, v in literal.items() if (x := residue(v, p))}
            m = jacobian_mod(f, k, p)
            assert (m.rows, m.cols, m.modulus, entries(m)) == (rows, cols, p, expected)


def test_prime_killing_the_partials_is_not_trusted():
    # every partial of the Fermat cubic vanishes mod 3
    f = FERMAT[(2, 3)]
    for k in range(8):
        assert milnor_dimension(f, k, primes=[3]) == milnor_dimension(f, k)
    assert hilbert_fit(f, primes=[3]).delta is None


@pytest.mark.parametrize("f", [FERMAT[(2, 3)], CUSP_POLY], ids=str)
def test_a_prime_killing_a_partial_splits_both_sides(f):
    # 3 kills a partial of each: x_i^3 and x3^3 differentiate to 3*x_i^2.
    # Under 3 alone, or 3 beside another prime, the pass mod N splits
    # before any rank, and both sides give their rational answers
    for modulus in (3, 15):
        with pytest.raises(_NonUnitPivot):
            _partials(f, modulus)
    table, fit = graded_betti(f), hilbert_fit(f)
    for primes in ([3], [3, 3], [3, 5]):
        assert graded_betti(f, primes=primes) == table, primes
        # the rerun over Q proves the derived primes' stop
        assert hilbert_fit(f, primes=primes) == fit, primes



# the pinned primes that tests/test_cli.py passes to inspect-poly, with the
# lone primes among them
_CLI_PINNED = [
    ("x0^3+x1^3+x2^3", [1073741831, 2147483629]),
    ("x0^3+x1^3+x2^3", [3, 5]),
    ("x0^3+x1^3+x2^3", [3]),
    ("1/3*x0^4+x1^4+x2^4", [3, 5]),
    ("x0^3+(x1+x2)^3+10*x2^3", [5]),
    ("x0*x1*x2+x3^3", [399165290221]),
    ("1/3*x0^4+1/5*x1^4+x2^4", [5, 3]),
    ("1/15*x0^4+x1^4+x2^4", [5, 3]),
    ("x0^3+(x1+x2)^3+5*x2^3", [5]),
    ("x0^3+x1^3+x2^3+7*x0*x1*x2", [37]),
    ("x0^3+x1^3+x2^3+7*x0*x1*x2", [37, 41]),
]


def _partials_by_matrix(f, modulus):
    """The partials mod N as the rows of the degree-(d-1) Jacobian block
    reduced mod N, with each column mapped back to its packed exponents:
    the reference for _partials.  Raises _NonUnitPivot where a factor of N
    kills a nonzero partial."""
    keys = list(reversed(grevlex_columns(f.n, f.degree - 1)))
    rows = reduce_mod(_jacobian_matrix(f, f.degree - 1), modulus).data
    for terms, row in zip((f.partial(i).terms for i in range(f.n + 1)), rows):
        if terms and gcd(modulus, *row.values()) > 1:
            raise _NonUnitPivot(modulus)
    return [[(keys[c], v) for c, v in row.items()] for row in rows]


def _partials_cases():
    for f, primes in golden_inputs():
        for plist in (default_primes(f), default_primes(f, 1), primes or ()):
            if plist:
                yield f, prod(set(plist))
    for text, primes in _CLI_PINNED:
        yield parse(text, infer_variable_count(text)), prod(set(primes))


def test_partial_terms_of_an_integral_f_are_its_partials():
    # on integer coefficients F = f: the terms are those of f.partial(i),
    # plain ints in the same order, on the goldens, which hold the bench
    # corpora, and on the theorem cases
    inputs = [f for f, _ in golden_inputs()]
    inputs += [parse(argv[2], infer_variable_count(argv[2])) for argv in THEOREM_CASES.values()]
    for f in inputs:
        assert all(c.denominator == 1 for c in f.terms.values())
        expected = [[(pack(e), c.numerator) for e, c in f.partial(i).terms.items()] for i in range(f.n + 1)]
        got = oracle._partial_terms(f)
        assert got == expected, f
        assert all(type(c) is int for terms in got for _, c in terms)


def _fit_and_table(f, primes):
    out = []
    for side in (hilbert_fit, graded_betti):
        try:
            out.append(side(f, primes=primes))
        except (ValueError, WindowTooSmallError) as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def test_a_constant_multiple_has_the_same_fit_and_table():
    # J_(c*f) = J_f, and the oracle works on the integral multiple F of
    # each: with the derived primes, which differ between f and c*f, and
    # with 3 and 5 pinned, which divide some of these denominators
    rng = random.Random(5)
    scales = [Fraction(1, 3), Fraction(2, 5), Fraction(-1, 6), 7]
    outcomes = set()
    for i in range(60):
        n, d = rng.choice((2, 3)), rng.choice((3, 4))
        monos = rng.sample(grevlex_exponents(n, d), rng.randint(3, 6))
        f = Polynomial(n, {m: rng.choice((1, -1, 2)) for m in monos})
        g = f.scale(scales[i % 4])
        for primes in (None, [3, 5]):
            expected = _fit_and_table(f, primes)
            assert _fit_and_table(g, primes) == expected, (f, g, primes)
            outcomes.update(type(x).__name__ for x in expected)
    assert outcomes == {"HilbertData", "BettiTable", "tuple"}


def test_partials_reduce_as_the_degree_d_minus_1_block_does():
    outcomes = set()
    for f, modulus in _partials_cases():
        try:
            expected = _partials_by_matrix(f, modulus)
        except _NonUnitPivot:
            with pytest.raises(_NonUnitPivot):
                _partials(f, modulus)
            outcomes.add("_NonUnitPivot")
        else:
            assert _partials(f, modulus) == expected, (f, modulus)
            outcomes.add("equal")
    assert outcomes == {"equal", "_NonUnitPivot"}

@pytest.mark.parametrize(
    "f, primes",
    # 3 kills the partial 3*x3^2; the second reaches its proven stop
    [(CUSP_POLY, [3, 5]), (parse("x0*x1*x2*x3 + x4^4", 4), None)],
    ids=str,
)
def test_the_hilbert_side_reduces_its_partials_once_per_pass(monkeypatch, f, primes):
    expected = hilbert_fit(f, primes=primes)
    reductions = []
    real = oracle.reduce_mod

    def record(m, p):
        if sys._getframe(1).f_code.co_name == "_partials":
            reductions.append(p)
        return real(m, p)

    monkeypatch.setattr(oracle, "reduce_mod", record)
    assert hilbert_fit(f, primes=primes) == expected
    assert reductions == [prod(primes or default_primes(f, 1))]
    # a killed partial reruns the whole pass over Q, so the data, stop
    # included, are those of the derived primes
    if primes:
        assert expected == hilbert_fit(f)


def test_a_lone_prime_with_dependent_partials_is_refused_by_both_sides():
    # 5 kills no partial of this curve, smooth over Q, but leaves them
    # dependent: degree 2 of the Jacobian algebra comes out 4, not 3
    g = parse("x0^3+(x1+x2)^3+5*x2^3", 2)
    assert all(_partials(g, 5))
    with pytest.raises(BadPrimeError, match=r"has dimension 3, got 4; .* primes \[5\] are bad"):
        hilbert_fit(g, primes=[5])
    with pytest.raises(BadPrimeError, match=r"position 1 .* primes \[5\] are bad"):
        graded_betti(g, primes=[5])
    # a second prime restores the Q answer on both sides
    assert hilbert_fit(g, primes=[5, 7]).delta is None
    assert graded_betti(g, primes=[5, 7]) == koszul_smooth_table(2, 3)
    # a cone's partials are dependent over Q as well, so it passes
    assert hilbert_fit(parse("x0*x1*x2", 3)).values[2] == 7


def test_a_prime_killing_a_partial_takes_no_modular_rank(monkeypatch):
    f = FERMAT[(2, 3)]
    expected = hilbert_fit(f).values
    calls = []
    real = oracle.rank_mod_p

    def rank_mod_p(m, p):
        calls.append(p)
        return real(m, p)

    monkeypatch.setattr(oracle, "rank_mod_p", rank_mod_p)
    assert hilbert_fit(f, primes=[3, 5]).values == expected
    assert calls == []
    # 3 divides a denominator here and kills every partial of
    # F = 27*x0^3 + 9*x1^3 + x2^3
    g = parse("3*x0^3 + x1^3 + 1/9*x2^3", 2)
    expected = hilbert_fit(g)
    calls.clear()
    assert hilbert_fit(g, primes=[3, 5]) == expected
    assert calls == []


@pytest.mark.parametrize(
    "expr, primes",
    [
        ("1/15*x0^4+x1^4+x2^4", [5, 3]),
        ("1/3*x0^4+1/5*x1^4+x2^4", [5, 3]),
        ("1/3*x0^4+1/5*x1^4+x2^4", [3, 5]),
    ],
)
def test_a_pinned_denominator_prime_is_used_on_F(expr, primes):
    # every pinned prime here divides a denominator of f, and none divides
    # one of F, f times the lcm of its denominators; the pair kills a
    # partial of F, so each side reruns over Q: the derived primes' answers
    f = parse(expr, 2)
    with pytest.raises(_NonUnitPivot):
        _partials(f, prod(primes))
    assert hilbert_fit(f, primes=primes) == hilbert_fit(f)
    assert graded_betti(f, primes=primes) == graded_betti(f)
    assert milnor_dimension(f, 3, primes=primes) == milnor_dimension(f, 3)


def test_a_prime_dividing_every_denominator_ranks_F_mod_N():
    # 5 divides every denominator of f but kills no partial of F = 5*f,
    # so the pass mod 35 does not split on the partials
    f = parse("1/5*x0^4+1/5*x1^4+1/5*x2^4+x0*x1*x2^2", 2)
    assert all(_partials(f, 35))
    assert hilbert_fit(f, primes=[5, 7]) == hilbert_fit(f)
    assert graded_betti(f, primes=[5, 7]) == graded_betti(f)


def test_prime_disagreement_runs_the_rational_fallback(monkeypatch):
    # singular mod 37 (7^3 + 27 = 10*37), smooth over Q and mod 41
    f = parse("x0^3+x1^3+x2^3+7*x0*x1*x2", 2)
    real_rank, real_rref = oracle.rank_rational, oracle.rref
    fallbacks = []

    def rank_rational(m):
        fallbacks.append("rank")
        return real_rank(m)

    def rref(rows, field, **kwargs):
        if field.modulus is None:
            fallbacks.append("rref")
        return real_rref(rows, field, **kwargs)

    monkeypatch.setattr(oracle, "rank_rational", rank_rational)
    monkeypatch.setattr(oracle, "rref", rref)
    assert hilbert_fit(f, primes=[37]).delta == 0
    assert fallbacks == []
    assert hilbert_fit(f, primes=[37, 41]).delta is None
    assert "rank" in fallbacks
    fallbacks.clear()
    assert graded_betti(f, primes=[37, 41]) == koszul_smooth_table(2, 3)
    assert "rref" in fallbacks


def test_derived_primes_are_the_first_two_of_their_stream(monkeypatch):
    # 3 divides the denominator 9 and kills every partial of
    # F = x0^3 + 9*x1^3 + 9*x2^3: with 3 leading both streams, each pair is
    # 3 and the stream's next prime, both passes rerun over Q, and the
    # answers stay exact
    f = parse("1/9*x0^3+x1^3+x2^3", 2)
    expected = hilbert_fit(f)
    assert expected.delta is None
    real = oracle.deterministic_primes
    monkeypatch.setattr(oracle, "deterministic_primes", lambda seed, count=2: [3, *real(seed, count)][:count])
    oracle.default_primes.cache_clear()
    try:
        pairs = [oracle.default_primes(f, part) for part in (0, 1)]
        assert pairs == [(3, real(oracle._seed_of(f, part), 1)[0]) for part in (0, 1)]
        assert hilbert_fit(f) == expected
        assert graded_betti(f) == koszul_smooth_table(2, 3)
    finally:
        oracle.default_primes.cache_clear()


def test_cross_check_consistent_cases():
    report = cross_check(CUSP_POLY)
    assert not report.deviations
    assert report.hilbert.tjurina == 6
    assert report.rule_report.tau == 6

    smooth = cross_check(parse("x0^3+x1^3+x2^3+x3^3", 3))
    assert not smooth.deviations
    assert smooth.rule_report.verdict.kind == "smooth"
    assert smooth.hilbert.delta is None


@pytest.mark.parametrize(
    "text",
    ["-x0*x1*x2^3*x4+x0^2*x1*x2*x4^2+x1^2*x2*x3*x4^2", "2*x0^5*x4+2*x1^4*x2*x4+x0^2*x1^2*x3*x4"],
)
def test_a_plus_one_generated_threefold_past_the_threshold_has_dimension_n_minus_2(text):
    # n = 4, d = 6 lies past 4(5 + sqrt 5)/5 ~ 5.79, the least degree where
    # the plus-one generated shape forces dim Sigma = n - 2 = 2; both sides
    # agree, and the rule engine's hspog check holds the guarantee
    report = cross_check(parse(text, 4))
    assert report.deviations == []
    assert report.table == BettiTable.of(4, 6, {1: [1, 1, 2, 2, 3], 2: [4]})
    hd = report.hilbert
    assert (hd.delta, hd.degree_sigma, hd.stop) == (2, 14, 7)
    assert "HSPOG" in report.rule_report.flags
    hspog = next(c for c in report.rule_report.checks if c.name == "hspog")
    assert hspog.status == "pass" and hspog.witness["dim_guaranteed"] is True


@pytest.mark.parametrize(
    "change, deviation",
    [
        ({"delta": 1}, "dimension disagrees: hilbert delta=1, table delta=0"),
        ({"degree_sigma": 7}, "degree disagrees: hilbert 7, table 6"),
        ({"tjurina": 5}, "Tjurina number disagrees: hilbert 5, table 6"),
    ],
)
def test_cross_check_names_each_invariant_the_sides_disagree_on(monkeypatch, change, deviation):
    real = oracle.hilbert_fit(CUSP_POLY)
    monkeypatch.setattr(oracle, "hilbert_fit", lambda f, **kwargs: dataclasses.replace(real, **change))
    assert cross_check(CUSP_POLY).deviations == [deviation]


def test_cross_check_reports_obstructions_on_an_oracle_table(monkeypatch, capsys):
    obstructed = BettiTable.of(3, 3, {1: [1, 2, 2, 3], 2: [4]})
    monkeypatch.setattr(oracle, "graded_betti", lambda f, **kwargs: obstructed)
    deviations = cross_check(CUSP_POLY).deviations
    assert deviations[0].startswith("rule engine found obstructions on an oracle table: euler")
    assert cli.main(["inspect-poly", "--expr", str(CUSP_POLY), "--format", "json"]) == 2
    capsys.readouterr()


def test_cross_check_surfaces_incomplete_bound_as_deviation():
    report = cross_check(CUSP_POLY, max_degree=3)
    assert report.deviations
    assert any("graded_betti failed" in dev for dev in report.deviations)
    assert report.hilbert is not None  # the other side still ran


def test_cross_check_on_seeded_random_forms():
    """100 sparse random plane curves and surfaces of degree 3 or 4: each
    one is clean, a cone with only the Betti side refused, or
    non-reduced, and the squarefree check agrees."""
    rng = random.Random(20261019)
    seen = set()
    for _ in range(100):
        n, d = rng.choice((2, 3)), rng.choice((3, 4))
        monos = rng.sample(grevlex_exponents(n, d), rng.randint(3, 6))
        f = Polynomial(n, {m: rng.choice((1, -1, 2)) for m in monos})
        report = cross_check(f)
        if not report.deviations:
            seen.add("clean")
            assert squarefree_check(f), f
        elif report.hilbert is None:
            seen.add("non-reduced")
            first, *rest = report.deviations
            assert "not a reduced hypersurface" in first and first.startswith("hilbert_fit failed"), f
            assert all(dev.startswith("rule engine found obstructions") for dev in rest), f
            assert not squarefree_check(f), f
        else:
            seen.add("cone")
            [deviation] = report.deviations
            assert deviation.startswith("graded_betti failed") and "f is a cone" in deviation, f
    assert seen == {"clean", "cone", "non-reduced"}


def test_cross_check_cone_has_hilbert_side_only():
    report = cross_check(parse("x0*x1*x2", 3))
    assert report.table is None
    assert report.hilbert.delta == 1
    assert any("cone" in dev.lower() for dev in report.deviations)
