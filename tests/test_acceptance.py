"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to see them
all).  Exact integer arithmetic means equality everywhere; the only
tolerances are the stated runtime budgets.
"""

import json
import time
from fractions import Fraction

from singulus.errors import ConeError
from singulus.oracle import cross_check, graded_betti, hilbert_fit, milnor_dimension
from singulus.polynomials import parse
from singulus.rules import (
    divisibility_N_t,
    duplessis_wall_check,
    full_report,
    hilbert_function_from_table,
    hspog_dim_guarantee,
    koszul_smooth_table,
)

from _helpers import generate_repaired_tables
from test_cli import FIXTURES, run_cli


def _criterion(num, description, ok):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_01_negative_degree_table_reproduction():
    start = time.perf_counter()
    res = run_cli(
        "analyze-betti",
        str(FIXTURES / "betti_p4_d3_negative_degree.json"),
        "--format",
        "json",
    )
    elapsed = time.perf_counter() - start
    doc = json.loads(res.stdout)
    reg = next(c for c in doc["checks"] if c["name"] == "regularity")
    ok = (
        doc["sigma"][:4] == [4, 2, -4, 8]
        and doc["delta"] == 0
        and doc["degree_sigma"] == -8
        and doc["tau"] == -8
        and reg["witness"]["failed_k"] == [3, 4]
        and res.returncode == 2
        and elapsed < 1.0
    )
    _criterion(
        1,
        f"threefold table A: sigma=(4,2,-4,8,...), tau=-8, I_3/I_4 fail, "
        f"exit 2 ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_02_bound_violation_table_reproduction():
    from _helpers import threefold_table_bound_violation

    start = time.perf_counter()
    table = threefold_table_bound_violation()
    report = full_report(table)
    dw = next(c for c in report.checks if c.name == "duplessis_wall")
    reg = next(c for c in report.checks if c.name == "regularity")
    elapsed = time.perf_counter() - start
    ok = (
        report.sigma_profile.sigma[4] == 392
        and dw.witness["sigma_interval"] == [-16, 368]
        and dw.status == "fail"
        and reg.witness["failed_k"] == [1, 2, 3, 4]
        and elapsed < 1.0
    )
    _criterion(
        2,
        f"threefold table B: sigma_4=392 outside [-16, 368], all I_k fail "
        f"({elapsed:.2f}s)",
        ok,
    )


def test_criterion_03_smoothness_round_trip():
    start = time.perf_counter()
    smooth_ok = all(
        full_report(koszul_smooth_table(n, d)).verdict.kind == "smooth"
        for n in range(2, 5)
        for d in range(3, 6)
    )
    oracle_ok = True
    for n, d in [(2, 3), (2, 4), (3, 3)]:
        fermat = parse("+".join(f"x{i}^{d}" for i in range(n + 1)), n)
        oracle_ok = oracle_ok and graded_betti(fermat) == koszul_smooth_table(n, d)
    elapsed = time.perf_counter() - start
    ok = smooth_ok and oracle_ok and elapsed < 60.0
    _criterion(
        3,
        f"smooth tables verdict smooth for n=2..4, d=3..5; Fermat Betti "
        f"tables equal them for (2,3),(2,4),(3,3) ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_04_oracle_cross_check():
    start = time.perf_counter()
    f = parse("x0*x1*x2 + x3^3", 3)
    report = cross_check(f)
    table = report.table
    hf_ok = all(
        hilbert_function_from_table(table, k) == milnor_dimension(f, k)
        for k in sorted(report.hilbert.values)
    )
    elapsed = time.perf_counter() - start
    ok = (
        not report.deviations
        and report.hilbert.delta == 0
        and report.hilbert.tjurina == 6
        and table.column(1) == (1, 1, 2, 2, 2)
        and table.column(2) == (3, 3)
        and report.rule_report.deg_sigma == 6
        and [report.hilbert.values[k] for k in range(4)] == [1, 4, 6, 6]
        and hf_ok
        and elapsed < 5.0
    )
    _criterion(
        4,
        f"cusp threefold: delta=0, tau=6 both ways, table (1,1,2,2,2)/(3,3), "
        f"Hilbert function matches in every degree ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_05_positive_dimensional_case():
    start = time.perf_counter()
    f = parse("x0*x1*x2", 3)
    hd = hilbert_fit(f)
    try:
        graded_betti(f)
        cone_refused = False
    except ConeError:
        cone_refused = True
    elapsed = time.perf_counter() - start
    ok = (
        hd.delta == 1
        and hd.poly == (Fraction(1), Fraction(3))
        and hd.degree_sigma == 3
        and cone_refused
        and elapsed < 5.0
    )
    _criterion(
        5,
        f"triple-line cone: delta=1, P(k)=3k+1, degree 3; Betti side refuses "
        f"({elapsed:.2f}s)",
        ok,
    )


def test_criterion_06_nodal_curve():
    start = time.perf_counter()
    f = parse("x0*x1*x2 + x0^3 + x1^3", 2)
    hd = hilbert_fit(f)
    table = graded_betti(f)
    report = full_report(table)
    elapsed = time.perf_counter() - start
    ok = (
        hd.delta == 0
        and hd.tjurina == 1
        and report.delta == 0
        and report.deg_sigma == 1
        and elapsed < 5.0
    )
    _criterion(
        6,
        f"nodal cubic: delta=0, tau=1, Betti-side degree matches ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_07_divisibility_suite():
    start = time.perf_counter()
    count = 0
    failures = 0
    for t, table in generate_repaired_tables(20260809, 10_000):
        n_t, divisible = divisibility_N_t(table, t)
        count += 1
        if n_t is None or not divisible:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = count == 10_000 and failures == 0 and elapsed < 30.0
    _criterion(
        7,
        f"10000 power-sum-constrained tables, N_t divisible by t! with "
        f"{failures} exceptions ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_08_tjurina_bounds_sanity():
    f = parse("x0*x1*x2 + x3^3", 3)
    table = graded_betti(f)
    check = duplessis_wall_check(table, 0)
    ok = (
        check.status == "pass"
        and check.witness["r"] == 1
        and check.witness["tau_interval"] == [4, 6]
        and check.witness["tau"] == 6
    )
    _criterion(8, "tau=6 inside [4, 6] with r=1, upper bound attained", ok)


def test_criterion_09_dimension_guarantee_thresholds():
    start = time.perf_counter()
    ok_n3 = all(hspog_dim_guarantee(3, d)[0] == (d >= 4) for d in range(3, 61))
    ok_n4 = all(hspog_dim_guarantee(4, d)[0] == (d >= 6) for d in range(3, 61))
    ok_2n = all(hspog_dim_guarantee(n, 2 * n)[0] for n in range(5, 21))
    elapsed = time.perf_counter() - start
    ok = ok_n3 and ok_n4 and ok_2n and elapsed < 1.0
    _criterion(
        9,
        f"dimension guarantee exactly for d>=4 at n=3, d>=6 at n=4, and at "
        f"d=2n for 5<=n<=20 ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_10_deterministic_reports():
    runs = [
        run_cli(
            "inspect-poly",
            str(FIXTURES / "triangle_cusp_threefold.poly"),
            "--format",
            "json",
            hashseed=seed,
        )
        for seed in (0, 1, 42)
    ]
    runs += [
        run_cli(
            "analyze-betti",
            str(FIXTURES / "betti_p4_d3_bound_violation.json"),
            "--format",
            "json",
            hashseed=seed,
        )
        for seed in (0, 7)
    ]
    ok = (
        all(r.stdout == runs[0].stdout for r in runs[:3])
        and all(r.stdout == runs[3].stdout for r in runs[3:])
        and all(r.stdout for r in runs)
    )
    _criterion(
        10,
        "byte-identical reports across repeated runs under different hash seeds",
        ok,
    )
