from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singulus import rules
from singulus.rules import (
    SigmaProfile,
    degree_of_sigma,
    divisibility_N_t,
    duplessis_wall_check,
    euler_consistency,
    full_report,
    hilbert_function_from_table,
    hilbert_polynomial_from_table,
    hspog_detect,
    hspog_dim_guarantee,
    koszul_smooth_table,
    pd_codim_check,
    regularity_and_Ik,
    sigma,
    structural_checks,
)
from singulus.tables import BettiTable

from _helpers import (
    _int_det,
    _lagrange,
    cusp_threefold_table,
    generate_repaired_tables,
    threefold_table_bound_violation,
    threefold_table_negative_degree,
)

EX1 = threefold_table_negative_degree()
EX2 = threefold_table_bound_violation()
CUSP = cusp_threefold_table()
# plus-one generated, but sigma_1 = 8 - 4 = 4 is not d - 1 = 3
EULER_FAIL = BettiTable.of(3, 4, {1: [1, 2, 2, 3], 2: [4]})


def alternating_power_sum(table, j):
    # independent re-summation, used to cross-check sigma()
    return sum(
        (-1) ** (k + 1) * sum(e**j for e in table.column(k))
        for k in range(1, table.n + 1)
    )


def test_sigma_reference_values():
    assert sigma(EX2, 4) == 392
    assert sigma(EX1, 4) == alternating_power_sum(EX1, 4) == -208
    assert sigma(EX1, 0) == 4


def test_sigma_range_check():
    with pytest.raises(ValueError):
        sigma(EX1, 5)


def test_sigma_profile():
    profile = SigmaProfile.from_table(EX1)
    assert profile.sigma == (4, 2, -4, 8, -208)
    assert profile.expected == (4, 2, -4, 8, -16)
    assert profile.first_mismatch == 4


def test_euler_consistency():
    assert euler_consistency(EX1).passed
    k33 = koszul_smooth_table(2, 3)
    assert euler_consistency(k33).passed
    perturbed = BettiTable.of(
        4, 3, {1: EX1.column(1), 2: EX1.column(2), 3: EX1.column(3), 4: [8]}
    )
    check = euler_consistency(perturbed)
    assert not check.passed
    assert check.witness["sigma_1"] == 3


def test_singular_dimension_scan():
    assert full_report(EX1).delta == 0
    k33 = koszul_smooth_table(3, 3)
    assert full_report(k33).verdict.kind == "smooth"
    assert sigma(k33, 3) == 48 - 256 + 216 == 8
    assert full_report(CUSP).delta == 0
    assert sigma(CUSP, 3) == 26 - 54 == -28
    verdict = full_report(EULER_FAIL).verdict
    assert (verdict.kind, verdict.reason, verdict.delta) == ("inconsistent", "euler", None)


def test_degree_of_sigma_values():
    r1 = degree_of_sigma(EX1, 0)
    assert (r1.value, r1.exact) == (-8, True)
    assert "OBSTRUCTION_NEGATIVE" in r1.flags
    assert degree_of_sigma(EX2, 0).value == 17
    assert degree_of_sigma(CUSP, 0).value == 6


def test_koszul_smooth_tables():
    t23 = koszul_smooth_table(2, 3)
    assert t23.columns == ((2, 2, 2), (4,))
    t33 = koszul_smooth_table(3, 3)
    assert [t33.m(k) for k in (1, 2, 3)] == [6, 4, 1]
    assert [t33.column(k)[0] for k in (1, 2, 3)] == [2, 4, 6]
    for n in range(2, 5):
        for d in range(3, 6):
            t = koszul_smooth_table(n, d)
            for j in range(1, n + 1):
                assert sigma(t, j) == (-1) ** (j + 1) * (d - 1) ** j


def test_hilbert_function_from_table():
    assert hilbert_function_from_table(CUSP, 2) == 6
    assert hilbert_function_from_table(CUSP, 4) == 35 - 40 + (2 * 4 + 3 * 1) - 0 == 6
    assert hilbert_function_from_table(koszul_smooth_table(2, 3), 7) == 0


def test_hilbert_polynomial_from_table():
    assert hilbert_polynomial_from_table(CUSP) == [Fraction(6)]
    assert hilbert_polynomial_from_table(koszul_smooth_table(3, 3)) == []
    assert hilbert_polynomial_from_table(EX2) == [Fraction(17)]
    assert hilbert_polynomial_from_table(EX1) == [Fraction(-8)]


def assert_hilbert_polynomial_fits_the_function(table):
    # past the largest shift every binomial of the function is its
    # polynomial in k, so the n+1 values from there fix the polynomial
    top = table.d + max((c[-1] for c in table.columns if c), default=0)
    points = [(k, hilbert_function_from_table(table, k)) for k in range(top, top + table.n + 1)]
    assert hilbert_polynomial_from_table(table) == _lagrange(points)


def test_hilbert_polynomial_agrees_with_function_at_large_degrees():
    tables = [CUSP, EX1, EX2, koszul_smooth_table(4, 4)]
    tables += [table for _, table in generate_repaired_tables(101, 300)]
    for table in tables:
        assert_hilbert_polynomial_fits_the_function(table)


@st.composite
def well_formed_tables(draw):
    n = draw(st.integers(2, 5))
    d = draw(st.integers(3, 8))
    columns = draw(st.lists(st.lists(st.integers(0, 12), max_size=6), min_size=n, max_size=n))
    return BettiTable.of(n, d, columns)


@settings(max_examples=200)
@given(well_formed_tables())
def test_hilbert_polynomial_agrees_with_function_on_any_table(table):
    assert_hilbert_polynomial_fits_the_function(table)


def test_regularity_and_Ik():
    reg, ineq = regularity_and_Ik(EX1)
    assert reg == 6
    assert [e["k"] for e in ineq if not e["ok"]] == [3, 4]
    _, ineq2 = regularity_and_Ik(EX2)
    assert [e["k"] for e in ineq2 if not e["ok"]] == [1, 2, 3, 4]
    reg_c, ineq_c = regularity_and_Ik(CUSP)
    assert reg_c == 2
    assert all(e["ok"] for e in ineq_c)


def test_duplessis_wall_intervals():
    c2 = duplessis_wall_check(EX2, 0)
    assert c2.status == "fail"
    assert c2.witness["sigma_interval"] == [-16, 368]
    assert c2.witness["signed_sigma_n"] == 392

    c_cusp = duplessis_wall_check(CUSP, 0)
    assert c_cusp.status == "pass"
    assert c_cusp.witness["tau_interval"] == [4, 6]
    assert c_cusp.witness["tau"] == 6  # upper bound attained

    c1 = duplessis_wall_check(EX1, 0)
    assert c1.status == "fail"
    assert c1.witness["signed_sigma_n"] == -208

    assert duplessis_wall_check(EX1, 1).status == "not-applicable"


def test_duplessis_wall_needs_a_first_column():
    # delta = 0, and the bounds read the smallest first-column shift
    report = full_report(BettiTable.of(3, 3, {2: [4], 3: [0, 2, 2, 2]}))
    assert report.delta == 0
    [check] = [c for c in report.checks if c.name == "duplessis_wall"]
    assert (check.status, check.witness) == ("not-applicable", {"note": "empty first column"})


def test_divisibility_N_t():
    n4, ok4 = divisibility_N_t(EX1, 4)
    assert (n4, ok4) == (-192, True)
    assert divisibility_N_t(EX2, 4) == (408, True)
    assert divisibility_N_t(EX1, 1) == (0, True)
    # premise violated: sigma_3 of the cusp table deviates, so t=4 on a
    # 3-variable table is out of range and t must stay within 1..n
    with pytest.raises(ValueError):
        divisibility_N_t(CUSP, 4)
    skewed = BettiTable.of(3, 4, {1: [1, 2, 5], 2: [4]})
    assert divisibility_N_t(skewed, 2) == (None, None)


def test_full_report_lists_divisibility_when_N_t_is_not_divisible(monkeypatch):
    # t! always divides N_t at the first mismatch; force it not to by
    # shifting sigma_n of the cusp table (first mismatch 3) by one
    real = rules.sigma
    monkeypatch.setattr(rules, "sigma", lambda table, j: real(table, j) - (j == table.n))
    report = full_report(CUSP)
    assert report.sigma_profile.first_mismatch == 3
    assert report.n_values[-1] == {"t": 3, "N": 37, "divisible": False}
    check = next(c for c in report.checks if c.name == "divisibility")
    assert check.status == "fail"
    assert "divisibility" in report.obstructions
    assert report.verdict.kind == "inconsistent"


def test_structural_checks():
    assert structural_checks(EX1).passed
    assert structural_checks(CUSP).passed
    bad = BettiTable.of(3, 3, {1: [2, 2, 4], 2: [4]})
    check = structural_checks(bad)
    assert not check.passed
    assert any("exceed" in f for f in check.witness["failures"])
    thin = BettiTable.of(3, 3, {1: [1, 2], 2: []})
    assert not structural_checks(thin).passed
    free = BettiTable.of(3, 3, {1: [1, 1, 2]})
    fc = structural_checks(free)
    assert fc.passed and "FREE" in fc.witness["flags"]
    cone = BettiTable.of(3, 3, {1: [0, 1, 1, 2], 2: [3, 3, 3]})
    assert "CONE" in structural_checks(cone).witness["flags"]


def test_pd_codim_check():
    assert pd_codim_check(CUSP, 0).passed  # pd 3 >= codim 3
    assert pd_codim_check(EX1, 0).passed  # pd 5 >= codim 4
    short = BettiTable.of(4, 3, {1: [2] * 5, 2: [4, 4, 4]})
    check = pd_codim_check(short, 0)
    assert check.status == "fail"
    assert check.witness == {"pd": 3, "codim": 4}
    assert pd_codim_check(CUSP, None).status == "not-applicable"


def test_hspog_detect():
    table = BettiTable.of(3, 4, {1: [1, 1, 2, 2], 2: [3]})
    found, witness = hspog_detect(table)
    assert found
    assert witness["matched_shift"] == 2
    assert witness["others_sum"] == 4 and witness["others_sum_equals_d"]
    assert hspog_detect(CUSP)[0] is False  # m_1 = 5, not n+1 = 4
    assert hspog_detect(EX1)[0] is False  # m_3 > 0


def test_hspog_dim_guarantee_reference_points():
    assert hspog_dim_guarantee(3, 4)[0] is True
    ok, g, threshold = hspog_dim_guarantee(4, 5)
    assert ok is False
    assert threshold["decimal"].startswith("5.78")
    assert hspog_dim_guarantee(5, 10)[0] is True
    with pytest.raises(ValueError):
        hspog_dim_guarantee(2, 4)


def test_hspog_dim_guarantee_matches_exact_radical_threshold():
    # d > n(n+1+sqrt(n^2-2n-3))/(n+1), decided via integer square comparison
    for n in range(3, 51):
        radicand = n * n - 2 * n - 3
        for d in range(3, 201):
            lhs = (n + 1) * d - n * (n + 1)
            above = lhs > 0 and lhs * lhs > n * n * radicand
            assert hspog_dim_guarantee(n, d)[0] == above, (n, d)


def test_full_report_reference_tables():
    r1 = full_report(EX1)
    assert r1.verdict.kind == "inconsistent"
    assert r1.obstructions == ["degree_nonpositive", "duplessis_wall", "regularity"]
    assert (r1.delta, r1.deg_sigma, r1.tau) == (0, -8, -8)
    assert r1.pd == 5 and r1.reg == 6

    r2 = full_report(EX2)
    assert r2.obstructions == ["duplessis_wall", "regularity"]
    assert r2.deg_sigma == 17

    r3 = full_report(koszul_smooth_table(3, 4))
    assert r3.verdict.kind == "smooth"
    assert r3.obstructions == []
    assert "KOSZUL_SHAPE" in r3.flags

    r4 = full_report(CUSP)
    assert r4.verdict.kind == "singular"
    assert (r4.delta, r4.tau) == (0, 6)
    assert r4.obstructions == []

    r5 = full_report(EULER_FAIL)
    assert (r5.verdict.kind, r5.verdict.reason) == ("inconsistent", "euler")
    assert r5.obstructions == ["euler"]
    status = {c.name: c.status for c in r5.checks}
    assert status["euler"] == "fail" and status["divisibility"] == "not-applicable"
    hspog = next(c for c in r5.checks if c.name == "hspog")
    assert hspog.status == "fail" and "HSPOG" in r5.flags
    assert hspog.witness["others_sum"] == 5 and not hspog.witness["others_sum_equals_d"]


def test_full_report_on_plus_one_generated_table():
    # HSPOG shape at n=3, d=4: the shape guarantee kicks in (d >= 4) and the
    # power-sum scan must agree with dimension n-2 = 1
    table = BettiTable.of(3, 4, {1: [1, 1, 2, 2], 2: [3]})
    report = full_report(table)
    assert "HSPOG" in report.flags
    assert report.verdict.kind == "singular"
    assert report.delta == 1
    assert report.deg_sigma == 5  # ((d-1)^2 + sigma_2) / 2! = (9 + 1) / 2
    hspog = next(c for c in report.checks if c.name == "hspog")
    assert hspog.status == "pass"
    assert hspog.witness["dim_guaranteed"] is True
    assert report.obstructions == []
    # the shape forces dim n-2 = 2 at n=4, d=6, but the sums give dim 1:
    # the hspog check fails, and that alone is not an obstruction
    clash = full_report(BettiTable.of(4, 6, {1: [1, 1, 2, 2, 17], 2: [18]}))
    hspog = next(c for c in clash.checks if c.name == "hspog")
    assert hspog.status == "fail" and clash.delta == 1
    assert clash.obstructions == [] and clash.verdict.kind == "singular"


@settings(max_examples=100)
@given(st.data())
def test_hspog_others_sum_check_restates_the_euler_check(data):
    # on the plus-one shape sigma_0 = (n+1) - 1 = n, and
    # sigma_1 = sum(d_1) - (d_{1,i} + 1) = others_sum - 1
    n = data.draw(st.integers(2, 5))
    d = data.draw(st.integers(3, 8))
    col1 = data.draw(st.lists(st.integers(0, 3 * d), min_size=n + 1, max_size=n + 1))
    table = BettiTable.of(n, d, {1: col1, 2: [data.draw(st.sampled_from(col1)) + 1]})
    found, witness = hspog_detect(table)
    assert found
    assert witness["others_sum_equals_d"] == euler_consistency(table).passed


def test_divisibility_check_is_a_theorem_not_an_accident():
    # x^2 == x mod 2, so sigma_1 = d-1 forces N_2 = (d-1)^2 + sigma_2 even:
    # the divisibility obstruction cannot fire once the premises hold, and
    # the reported values must reflect that on assorted consistent tables
    for table in (EX1, EX2, CUSP, koszul_smooth_table(4, 5)):
        report = full_report(table)
        assert all(entry["divisible"] for entry in report.n_values)
        assert "divisibility" not in report.obstructions


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_sigma_and_report_invariant_under_column_reordering(rng):
    columns = {k: list(EX1.column(k)) for k in range(1, 5)}
    for col in columns.values():
        rng.shuffle(col)
    shuffled = BettiTable.of(4, 3, columns)
    assert shuffled == EX1
    assert [sigma(shuffled, j) for j in range(5)] == [4, 2, -4, 8, -208]
    # and on a random table, against an independent resummation
    n = rng.randint(2, 5)
    cols = [[rng.randint(0, 20) for _ in range(rng.randint(0, 12))] for _ in range(n)]
    table = BettiTable.of(n, rng.randint(3, 6), cols)
    assert [sigma(table, j) for j in range(n + 1)] == [
        alternating_power_sum(table, j) for j in range(n + 1)
    ]
    # the cached sums take no part in equality or hashing
    twin = BettiTable.of(n, table.d, cols)
    assert twin == table and hash(twin) == hash(table)


def test_divisibility_property_on_repaired_tables():
    # N_t comes back exactly when sigma_1..sigma_(t-1) take their expected
    # values, and t! divides it then; the generator pins them below its t
    skewed = BettiTable.of(3, 4, {1: [1, 2, 5], 2: [4]})
    cases = list(generate_repaired_tables(97, 300, t_choices=(2, 3, 4, 5)))
    premises = set()
    for target, table in cases + [(1, skewed)]:
        n, d = table.n, table.d
        sums = [alternating_power_sum(table, j) for j in range(n + 1)]
        for t in range(1, n + 1):
            premise = all(sums[j] == (-1) ** (j + 1) * (d - 1) ** j for j in range(1, t))
            assert premise or t > target
            expected = ((d - 1) ** t + (-1) ** t * sums[t], True) if premise else (None, None)
            assert divisibility_N_t(table, t) == expected, (t, table)
            premises.add(premise)
    assert premises == {True, False}


def test_degree_of_sigma_divides_exactly_on_repaired_tables():
    # when the power sums match through n - delta - 1 the division is exact
    count = 0
    for t, table in generate_repaired_tables(1234, 200):
        profile = SigmaProfile.from_table(table)
        j = profile.first_mismatch
        if j is None:
            continue
        result = degree_of_sigma(table, table.n - j)
        assert result.exact, table
        count += 1
    assert count > 100


@given(
    st.integers(1, 4).flatmap(
        lambda t: st.lists(st.lists(st.integers(-4, 4), min_size=t, max_size=t), min_size=t, max_size=t)
    )
)
@example([[0, 1], [1, 0]])  # a zero pivot: one row swap
@example([[0, 2, 1], [0, 3, 4], [5, 1, 1]])
@example([[1, 2, 3], [2, 4, 6], [1, 0, 1]])  # singular
@example([[1, 1, 1], [5, 6, 7], [25, 36, 49]])  # the generator's Vandermonde shape
def test_int_det_matches_the_leibniz_formula(matrix):
    t = len(matrix)
    leibniz = sum(
        (-1) ** sum(a > b for a, b in combinations(perm, 2)) * prod(matrix[i][perm[i]] for i in range(t))
        for perm in permutations(range(t))
    )
    assert _int_det(matrix) == leibniz
