"""Workload inputs and the checks their outputs must pass.

Every expected value here is either a fixed fact about a fixed input or is
recomputed by the benchmark itself (power sums, smooth tables, N_t); none
is read back from the package under test.
"""

from __future__ import annotations

import json
import os
import sys
from math import comb, factorial

WORKLOADS = ("fermat-smooth", "singular-pinned", "tables")

CUSP_PATH = "fixtures/triangle_cusp_threefold.poly"
FIXTURE_TABLES = {
    "fixtures/betti_p4_d3_negative_degree.json": "negative-degree",
    "fixtures/betti_p4_d3_bound_violation.json": "bound-violation",
    "fixtures/betti_smooth_3_3.json": "smooth",
}
# Repaired tables per tables pass; generation (about 1.2 ms a table) runs in
# the parent before any clock starts.
GENERATED_TABLES = 2000
# A tables pass repeats a small corpus (the Betti tables of a polynomial
# workload) until about this many calls, as many as the tables workload
# makes: shorter passes take too few speed samples to rescale steadily.
TABLE_CALLS_PER_PASS = 2000

FERMAT = ((3, 4), (4, 4), (5, 3))


def smooth_columns(n, d):
    """Column k of a smooth table holds C(n+1, k+1) copies of k(d-1)."""
    return {str(k): [k * (d - 1)] * comb(n + 1, k + 1) for k in range(1, n + 1)}


def power_sums(n, columns):
    """sigma_j = sum_k (-1)^(k+1) sum_i d_{k,i}^j for j = 0..n."""
    return [
        sum((-1) ** (int(k) + 1) * sum(e**j for e in col) for k, col in columns.items())
        for j in range(n + 1)
    ]


def _singular(expr, d, verdict, delta, degree, tau, columns, primes=None):
    expected = {"verdict": verdict, "delta": delta, "degree_sigma": degree, "tau": tau, "columns": columns}
    item = {"expr": expr, "d": d, "expected": expected}
    if primes:
        item["primes"] = primes
    return item


def _cols(*columns):
    return {str(k): list(col) for k, col in enumerate(columns, start=1)}


SINGULAR = (
    _singular("x0*x1*x2 + x3^3", 3, "singular", 0, 6, 6, _cols([1, 1, 2, 2, 2], [3, 3], [])),
    _singular("x0*x1*x2 + x0^3 + x1^3", 3, "singular", 0, 1, 1, _cols([2, 2, 2, 2], [3, 3])),
    _singular("x0^2*x2 + x1^2*x3", 3, "singular", 1, 1, None, _cols([1, 1, 2, 2, 2, 2], [3, 3, 3, 3], [4])),
    _singular(
        "x0*x1*x2*x3 + x4^4", 4, "singular", 1, 18, None,
        _cols([1, 1, 1, 3, 3, 3, 3], [4, 4, 4], [], []),
    ),
    _singular(
        "x0*x1*x2 + x3^3 + x4^3 + x5^3", 3, "singular", 0, 24, 24,
        _cols([1, 1] + [2] * 12, [3] * 6 + [4] * 10, [5] * 6 + [6] * 3, [7, 7], []),
    ),
    # singular mod 37 (7^3 + 27 = 10 * 37): the primes disagree, so the
    # rational fallback runs
    _singular(
        "x0^3+x1^3+x2^3+7*x0*x1*x2", 3, "smooth", None, None, None, _cols([2, 2, 2], [4]), [37, 41]
    ),
    _singular(
        "x0^3+x1^3+x2^3+x3^3+7*x0*x1*x2", 3, "smooth", None, None, None,
        _cols([2] * 6, [4] * 4, [6]), [37, 41],
    ),
)


def polynomials(workload):
    """The fixed polynomial corpus, in pass order, with expected results."""
    if workload == "fermat-smooth":
        return [
            {
                "expr": " + ".join(f"x{i}^{d}" for i in range(n + 1)),
                "d": d,
                "expected": {
                    "verdict": "smooth", "delta": None, "degree_sigma": None, "tau": None,
                    "columns": smooth_columns(n, d),
                },
            }
            for n, d in FERMAT
        ]
    if workload == "singular-pinned":
        return [dict(item) for item in SINGULAR]
    return [{"path": CUSP_PATH, "d": 3, "expected": SINGULAR[0]["expected"]}]


def tables(workload, seed, root, workdir):
    """Table documents for the analyze-betti passes, written under workdir.

    The polynomial workloads analyse the Betti tables of their own
    polynomials; the tables workload analyses the seeded repaired tables
    and the fixture tables.
    """
    items = []
    if workload == "tables":
        sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
        from _helpers import generate_repaired_tables

        for i, (t, table) in enumerate(generate_repaired_tables(seed, GENERATED_TABLES)):
            columns = {str(k): list(table.column(k)) for k in range(1, table.n + 1)}
            items.append(_write_table(workdir, i, table.n, table.d, columns, {"t": t}))
        for path, fixture in FIXTURE_TABLES.items():
            with open(os.path.join(root, path), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            columns = {str(c["k"]): c["degrees"] for c in doc["columns"]}
            items.append({"path": path, "n": doc["n"], "d": doc["d"], "columns": columns, "fixture": fixture})
        return items
    for i, poly in enumerate(polynomials(workload)):
        exp = poly["expected"]
        n = len(exp["columns"])
        items.append(_write_table(workdir, i, n, poly["d"], exp["columns"], {"report": exp}))
    return items


def _write_table(workdir, i, n, d, columns, extra):
    path = os.path.join(workdir, f"table_{i:05d}.json")
    doc = {"n": n, "d": d, "columns": [{"k": int(k), "degrees": v} for k, v in columns.items()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return {"path": path, "n": n, "d": d, "columns": columns, **extra}


# -- checks: each returns None when the output is right, else a reason --------


def _report_mismatch(got, exp):
    for key in ("verdict", "delta", "degree_sigma", "tau"):
        if got.get(key) != exp[key]:
            return f"{key}: got {got.get(key)!r}, expected {exp[key]!r}"
    return None


def check_inspect(item, got):
    if "error" in got:
        return got["error"]
    exp = item["expected"]
    if got["exit"] != 0:
        return f"exit {got['exit']}: {got['stderr']}"
    if got["deviations"] != []:
        return f"deviations {got['deviations']}"
    if got["hilbert_delta"] != exp["delta"]:
        return f"hilbert delta {got['hilbert_delta']!r}, expected {exp['delta']!r}"
    if got.get("columns") != exp["columns"]:
        return f"betti columns {got.get('columns')}, expected {exp['columns']}"
    return _report_mismatch(got, exp)


def check_hilbert(item, got):
    if "error" in got:
        return got["error"]
    exp = item["expected"]
    want = {"delta": exp["delta"], "degree_sigma": exp["degree_sigma"], "tjurina": exp["tau"]}
    return None if got == want else f"hilbert data {got}, expected {want}"


def check_betti(item, got):
    if "error" in got:
        return got["error"]
    exp = item["expected"]["columns"]
    return None if got["columns"] == exp else f"betti columns {got['columns']}, expected {exp}"


def check_table(item, got):
    if "error" in got:
        return got["error"]
    if got["exit"] not in (0, 2):
        return f"exit {got['exit']}: {got['stderr']}"
    if (got["exit"] == 2) != bool(got["obstructions"]):
        return f"exit {got['exit']} with obstructions {got['obstructions']}"
    n, d = item["n"], item["d"]
    sig = power_sums(n, item["columns"])
    if got["sigma"] != sig:
        return f"sigma {got['sigma']}, recomputed {sig}"
    if "t" in item:
        t = item["t"]
        n_t = (d - 1) ** t + (-1) ** t * sig[t]
        entry = next((e for e in got["n_values"] if e["t"] == t), None)
        if entry is None or entry["N"] != n_t or n_t % factorial(t) or not entry["divisible"]:
            return f"N_{t}: report {entry}, recomputed {n_t}, not divisible by {t}!"
    if "report" in item:
        if got["exit"] != 0:
            return f"exit {got['exit']} on the table of a reduced hypersurface"
        return _report_mismatch(got, item["report"])
    fixture = item.get("fixture")
    if fixture == "negative-degree":
        if sig[:4] != [4, 2, -4, 8] or got["tau"] != -8 or got["exit"] != 2:
            return f"criterion 1 values: tau {got['tau']}, exit {got['exit']}"
    elif fixture == "bound-violation":
        dw = got["duplessis_wall"] or {}
        interval = dw.get("witness", {}).get("sigma_interval")
        if sig[4] != 392 or interval != [-16, 368] or dw.get("status") != "fail":
            return f"criterion 2 values: sigma_4 {sig[4]}, interval {interval}"
    elif fixture == "smooth":
        if got["verdict"] != "smooth" or got["exit"] != 0:
            return f"smooth fixture: verdict {got['verdict']}, exit {got['exit']}"
    return None


CHECKS = {"inspect": check_inspect, "hilbert": check_hilbert, "betti": check_betti, "tables": check_table}
