"""Byte-for-byte golden reports: the CLI's stdout, stderr and exit code on
the benchmark corpus and the fixtures must not change by accident.

Each case runs ``singulus.cli.main`` in-process.  The expected stdout of
case NAME is ``fixtures/golden/NAME.json``, or ``NAME.txt`` for a case in
the text format; the expected exit code and stderr are listed in
``fixtures/golden/cases.json``.  The rule engine has a golden of its own:
``fixtures/golden/rule_engine.json`` holds the SHA-256 of the report
document of each of a few hundred tables.  After a change that
alters a report on purpose, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from singulus.cli import main
from singulus.documents import canonical_json, digest_of, report_to_document
from singulus.polynomials import infer_variable_count, parse
from singulus.rules import full_report, koszul_smooth_table

from _helpers import (
    cusp_threefold_table,
    generate_repaired_tables,
    threefold_table_bound_violation,
    threefold_table_negative_degree,
)

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "fixtures" / "golden"


def _inspect(expr, *primes):
    argv = ["inspect-poly", "--expr", expr, "--format", "json"]
    for p in primes:
        argv += ["--prime", str(p)]
    return argv


def _fermat(n, d):
    return _inspect(" + ".join(f"x{i}^{d}" for i in range(n + 1)))


# name -> argv; fixture paths are relative to the repository root
CASES = {
    "fermat_3_4": _fermat(3, 4),
    "fermat_4_4": _fermat(4, 4),
    "fermat_5_3": _fermat(5, 3),
    # the singular-pinned corpus, in its order
    "singular_1": _inspect("x0*x1*x2 + x3^3"),
    "singular_2": _inspect("x0*x1*x2 + x0^3 + x1^3"),
    "singular_3": _inspect("x0^2*x2 + x1^2*x3"),
    "singular_4": _inspect("x0*x1*x2*x3 + x4^4"),
    "singular_5": _inspect("x0*x1*x2 + x3^3 + x4^3 + x5^3"),
    "pinned_1": _inspect("x0^3+x1^3+x2^3+7*x0*x1*x2", 37, 41),
    "pinned_2": _inspect("x0^3+x1^3+x2^3+x3^3+7*x0*x1*x2", 37, 41),
    "cusp_fixture": ["inspect-poly", "fixtures/triangle_cusp_threefold.poly", "--format", "json"],
    "table_negative_degree": ["analyze-betti", "fixtures/betti_p4_d3_negative_degree.json", "--format", "json"],
    "table_bound_violation": ["analyze-betti", "fixtures/betti_p4_d3_bound_violation.json", "--format", "json"],
    "table_smooth_3_3": ["analyze-betti", "fixtures/betti_smooth_3_3.json", "--format", "json"],
    # a cone: the Betti side refuses it, so the report has no rule-engine part
    "cone": ["inspect-poly", "--expr", "x0*x1*x2", "--n", "3", "--format", "json"],
    # the text format
    "text_table_bound_violation": ["analyze-betti", "fixtures/betti_p4_d3_bound_violation.json"],
    "text_singular_1": ["inspect-poly", "--expr", "x0*x1*x2 + x3^3"],
    "text_cone": ["inspect-poly", "--expr", "x0*x1*x2", "--n", "3"],
}
# the paper's theorem where it first bites: an hspog surface (delta 1,
# degree 5), an irreducible hspog cubic surface (delta 1 = n-2, degree 1,
# though hspog_dim_guarantee(3, 3) is false), an hspog threefold past the
# threshold (delta 2, degree 14), whose expression starts with "-", two
# irreducible hspog threefolds (delta 2; degree 14 for the sextic, past
# the threshold, degree 4 for the quartic, below it), singular along
# x3 = x4 = 0 by construction, and a threefold of degree 80 with a proven
# stop 13; the oracle's tests leave these out of golden_inputs, as
# checking the hspog threefold against its full blocks alone takes minutes
THEOREM_CASES = {
    "hspog_surface": _inspect("x0^2*x1*x2+x2^4+2*x0^3*x3"),
    "hspog_cubic_surface": _inspect("-x2^3-x0*x2*x3+2*x1*x3^2"),
    "hspog_threefold": _inspect("-x0*x1*x2^3*x4+x0^2*x1*x2*x4^2+x1^2*x2*x3*x4^2"),
    "hspog_sextic_threefold": _inspect("x0*x3^5-x1*x3^2*x4^3-x2*x3^3*x4^2+x3^6+x4^6"),
    "hspog_quartic_threefold": _inspect("2*x0*x3^3-x1*x3*x4^2+x2*x3^2*x4-x4^4"),
    "threefold_degree_80": _inspect("x0^5*x4+x1^5*x3+x2^6"),
}
CASES.update(THEOREM_CASES)


RULE_ENGINE_GOLDEN = GOLDEN / "rule_engine.json"
RULE_ENGINE_SEED = 2026
RULE_ENGINE_INFO = {"kind": "betti-analysis", "digest": "rule-engine-golden"}


def rule_engine_tables():
    """(label, table) pairs in a fixed order: the reference tables, the
    smooth Koszul tables, then seeded repaired tables."""
    yield "cusp_threefold", cusp_threefold_table()
    yield "threefold_negative_degree", threefold_table_negative_degree()
    yield "threefold_bound_violation", threefold_table_bound_violation()
    for n in range(2, 6):
        for d in range(3, 7):
            yield f"koszul_smooth_{n}_{d}", koszul_smooth_table(n, d)
    repaired = generate_repaired_tables(RULE_ENGINE_SEED, 300, t_choices=(2, 3, 4, 5))
    for i, (t, table) in enumerate(repaired):
        yield f"repaired_{i}_t{t}", table


def rule_engine_digests() -> dict:
    """Table label -> SHA-256 of its report document, in table order."""
    return {
        label: digest_of(canonical_json(report_to_document(full_report(table), RULE_ENGINE_INFO)))
        for label, table in rule_engine_tables()
    }


def golden_file(name):
    return GOLDEN / (f"{name}.json" if "json" in CASES[name] else f"{name}.txt")


def run(argv):
    argv = [str(REPO / a) if a.startswith("fixtures/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def expected():
    return json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, expected):
    code, out, err = run(CASES[name])
    assert out == golden_file(name).read_text(encoding="utf-8")
    assert {"exit": code, "stderr": err} == expected[name]


@pytest.mark.parametrize("name", sorted(n for n in CASES if "json" not in CASES[n]))
def test_text_report_has_no_trailing_whitespace(name):
    _, out, _ = run(CASES[name])
    assert [line for line in out.splitlines() if line != line.rstrip()] == []


@pytest.mark.parametrize("name", ["hspog_sextic_threefold", "hspog_quartic_threefold"])
def test_the_irreducible_hspog_threefolds_are_irreducible(name):
    # f = x0*A + x1*B + x2*C + D with A, B, C, D forms in x3, x4 has degree
    # 1 in x0, x1, x2 together, so a factorization has a factor h in x3,
    # x4 alone, and h divides A, B, C and D.  With A = c*x3^a and a term
    # x4^e in D, h divides x3^a, and x3 does not divide D, so h is a
    # constant: f is irreducible
    expr = CASES[name][2]
    f = parse(expr, infer_variable_count(expr))
    assert f.n == 4
    assert all(e[0] + e[1] + e[2] <= 1 for e in f.terms)
    a_terms = [e for e in f.terms if e[0]]
    assert len(a_terms) == 1 and a_terms[0][4] == 0
    assert any(e[:4] == (0, 0, 0, 0) for e in f.terms)


def test_rule_engine_documents_are_byte_identical():
    expected = json.loads(RULE_ENGINE_GOLDEN.read_text(encoding="utf-8"))
    actual = rule_engine_digests()
    assert list(actual) == list(expected)
    changed = next((label for label in actual if actual[label] != expected[label]), None)
    assert changed is None, f"the report document of table {changed} changed"


def regenerate():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    cases = {}
    for name, argv in sorted(CASES.items()):
        code, out, err = run(argv)
        golden_file(name).write_text(out, encoding="utf-8")
        cases[name] = {"exit": code, "stderr": err}
    text = json.dumps(cases, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "cases.json").write_text(text, encoding="utf-8")
    text = json.dumps(rule_engine_digests(), indent=2) + "\n"
    RULE_ENGINE_GOLDEN.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    sys.exit(regenerate())
