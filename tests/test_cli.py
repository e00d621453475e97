import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from singulus import cli, oracle
from singulus.documents import (
    canonical_json,
    table_from_document,
    table_to_document,
)
from singulus.errors import DocumentError
from singulus.tables import BettiTable

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def run_cli(*args, hashseed=None):
    env = dict(os.environ)
    # the child imports singulus from this checkout, installed or not
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run(
        [sys.executable, "-m", "singulus", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )


# -- document layer ------------------------------------------------------


def test_table_document_roundtrip():
    table = BettiTable.of(3, 3, {1: [1, 1, 2, 2, 2], 2: [3, 3]})
    doc = table_to_document(table, {"label": "x"})
    loaded, metadata = table_from_document(json.loads(canonical_json(doc)))
    assert loaded == table
    assert metadata == {"label": "x"}
    # canonicalization is idempotent byte-for-byte
    again = canonical_json(table_to_document(loaded, metadata))
    assert again == canonical_json(doc)


def test_canonical_json_rejects_what_is_not_json():
    with pytest.raises(TypeError, match="Fraction"):
        canonical_json({"x": Fraction(1, 2)})


def test_table_document_accepts_unsorted_and_missing_columns():
    doc = {"n": 3, "d": 3, "columns": [{"k": 2, "degrees": [3, 3]}, {"k": 1, "degrees": [2, 1, 1, 2, 2]}]}
    table, _ = table_from_document(doc)
    assert table.column(1) == (1, 1, 2, 2, 2)
    assert table.column(3) == ()


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("d"), "d"),
        (lambda d: d.update(n=1), "n"),
        (lambda d: d["columns"][0].update(k=9), "columns[0].k"),
        pytest.param(lambda d: d["columns"][0].update(k=True), "columns[0].k", id="boolean-k"),
        pytest.param(lambda d: d.update(n=True), "n", id="boolean-n"),
        pytest.param(lambda d: d.update(d=True), "d", id="boolean-d"),
        (lambda d: d["columns"][0]["degrees"].append(-1), "columns[0].degrees[3]"),
        (lambda d: d.update(columns="nope"), "columns"),
        pytest.param(lambda d: d["columns"].insert(0, [1, 1, 2]), "columns[0]", id="column-not-object"),
        pytest.param(lambda d: d["columns"].append({"k": 1, "degrees": []}), "columns[1].k", id="duplicate-k"),
        pytest.param(lambda d: d["columns"][0].update(degrees=3), "columns[0].degrees", id="degrees-not-array"),
        *(
            pytest.param(lambda d, v=v: d.update(metadata=v), "metadata", id=f"metadata-{v!r}")
            for v in ([], False, 0, "", "x", [1])
        ),
    ],
)
def test_table_document_validation_names_fields(mutate, field):
    doc = {"n": 3, "d": 3, "columns": [{"k": 1, "degrees": [1, 1, 2]}]}
    mutate(doc)
    with pytest.raises(DocumentError) as err:
        table_from_document(doc)
    assert err.value.field == field


def test_table_document_must_be_an_object_and_null_metadata_is_empty():
    for doc in ([], "{}", None, 3):
        with pytest.raises(DocumentError, match="must be a JSON object"):
            table_from_document(doc)
    doc = {"n": 3, "d": 3, "columns": [], "metadata": None}
    assert table_from_document(doc)[1] == {}
    assert table_from_document(dict(doc, metadata={"a": 1}))[1] == {"a": 1}


# -- analyze-betti --------------------------------------------------------


def test_analyze_betti_obstructed_table_exits_2(tmp_path):
    res = run_cli(
        "analyze-betti", str(FIXTURES / "betti_p4_d3_negative_degree.json"), "--format", "json"
    )
    assert res.returncode == 2
    doc = json.loads(res.stdout)
    assert doc["sigma"] == [4, 2, -4, 8, -208]
    assert doc["degree_sigma"] == -8 and doc["tau"] == -8
    assert doc["delta"] == 0
    reg = next(c for c in doc["checks"] if c["name"] == "regularity")
    assert reg["witness"]["failed_k"] == [3, 4]
    assert "degree_nonpositive" in doc["obstructions"]

    # plus-one generated, but sigma_1 = 8 - 4 = 4 is not d - 1 = 3
    table = BettiTable.of(3, 4, {1: [1, 2, 2, 3], 2: [4]})
    path = tmp_path / "euler.json"
    path.write_text(canonical_json(table_to_document(table)))
    res = run_cli("analyze-betti", str(path), "--format", "json")
    assert res.returncode == 2
    doc = json.loads(res.stdout)
    assert doc["obstructions"] == ["euler"]
    assert doc["verdict"] == {"kind": "inconsistent", "reason": "euler"}


def test_analyze_betti_smooth_table_exits_0():
    res = run_cli("analyze-betti", str(FIXTURES / "betti_smooth_3_3.json"))
    assert res.returncode == 0
    assert "verdict: smooth" in res.stdout


def test_analyze_betti_missing_field_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "columns": []}')
    res = run_cli("analyze-betti", str(bad))
    assert res.returncode == 1
    assert "d" in res.stderr


def test_analyze_betti_boolean_column_index_exits_1(tmp_path):
    bad = tmp_path / "bool_k.json"
    bad.write_text(
        '{"n": 2, "d": 3, "columns": [{"k": true, "degrees": [2, 2, 2]}, {"k": 2, "degrees": [4]}]}'
    )
    res = run_cli("analyze-betti", str(bad))
    assert res.returncode == 1
    assert res.stderr == "error: columns[0].k: k must be an integer in 1..2\n"
    assert res.stdout == ""


def test_analyze_betti_missing_file_exits_1():
    res = run_cli("analyze-betti", "no-such-file.json")
    assert res.returncode == 1


# -- inspect-poly ----------------------------------------------------------


def test_inspect_poly_consistent_threefold():
    res = run_cli(
        "inspect-poly", "--expr", "x0*x1*x2 + x3^3", "--format", "json"
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["hilbert"]["tjurina"] == 6
    assert doc["tau"] == 6
    assert doc["deviations"] == []
    cols = {c["k"]: c["degrees"] for c in doc["betti_columns"]}
    assert cols[1] == [1, 1, 2, 2, 2] and cols[2] == [3, 3]
    assert doc["squarefree"] is True


def test_inspect_poly_cone_exits_1():
    res = run_cli("inspect-poly", "--expr", "x0*x1*x2", "--n", "3")
    assert res.returncode == 1
    assert "cone" in res.stderr.lower()


def test_inspect_poly_syntax_error_exits_1():
    res = run_cli("inspect-poly", "--expr", "x0^")
    assert res.returncode == 1
    assert "offset" in res.stderr


def test_inspect_poly_non_homogeneous_exits_1():
    res = run_cli("inspect-poly", "--expr", "x0^3 + x1^2")
    assert res.returncode == 1


def test_inspect_poly_has_no_sqfree_trials_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["inspect-poly", "--expr", "x0^3 + x1^3 + x2^3", "--sqfree-trials=3"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --sqfree-trials=3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expr, message",
    [
        ("x0^2 + x1^2 + x2^2", "need degree d >= 3"),
        ("x0^3 + x1^3", "need at least three variables (n >= 2)"),
    ],
)
def test_inspect_poly_rejects_what_the_oracle_rejects(expr, message):
    res = run_cli("inspect-poly", "--expr", expr)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == f"error: {message}\n"


def test_inspect_poly_reads_fixture_file():
    res = run_cli(
        "inspect-poly", str(FIXTURES / "triangle_cusp_threefold.poly"), "--format", "json"
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["tau"] == 6


def test_inspect_poly_prime_override_is_stable():
    base = run_cli("inspect-poly", "--expr", "x0^3+x1^3+x2^3", "--format", "json")
    override = run_cli(
        "inspect-poly",
        "--expr",
        "x0^3+x1^3+x2^3",
        "--prime",
        "1073741831",
        "--prime",
        "2147483629",
        "--format",
        "json",
    )
    assert base.returncode == override.returncode == 0
    a, b = json.loads(base.stdout), json.loads(override.stdout)
    assert a["sigma"] == b["sigma"]
    assert a["hilbert"] == b["hilbert"]


def test_inspect_poly_prime_dividing_every_coefficient_falls_back_to_rationals():
    # every partial vanishes mod 3, so the primes disagree and the rational
    # fallback settles the table
    res = run_cli(
        "inspect-poly", "--expr", "x0^3+x1^3+x2^3", "--prime", "3", "--prime", "5",
        "--format", "json",
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["verdict"]["kind"] == "smooth"
    assert doc["deviations"] == []
    cols = {c["k"]: c["degrees"] for c in doc["betti_columns"]}
    assert cols == {1: [2, 2, 2], 2: [4]}


@pytest.mark.parametrize(
    "expr, primes, reason",
    [
        # a denominator vanishes mod 3
        ("1/3*x0^4+x1^4+x2^4", ["3", "5"], "divisible by 3"),
        # one prime, under which position 1 comes out wrong
        ("x0^3+x1^3+x2^3", ["3"], "primes [3] are bad"),
    ],
)
def test_inspect_poly_bad_pinned_prime_exits_1(expr, primes, reason):
    args = [arg for p in primes for arg in ("--prime", p)]
    res = run_cli("inspect-poly", "--expr", expr, *args)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert lines and all(line.startswith("error: ") for line in lines)
    assert any(line.startswith("error: graded_betti failed") for line in lines)
    assert reason in res.stderr


def test_inspect_poly_prime_killing_the_partials_keeps_the_hilbert_side():
    # mod 3 every partial of the Fermat cubic vanishes: the Hilbert side
    # falls back to Q, the Betti side reports the bad prime
    res = run_cli(
        "inspect-poly", "--expr", "x0^3+x1^3+x2^3", "--prime", "3", "--format", "json"
    )
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: graded_betti failed")
    assert "primes [3] are bad" in lines[0]
    hilbert = json.loads(res.stdout)["hilbert"]
    assert hilbert["delta"] is None
    assert [hilbert["values"][str(k)] for k in range(6)] == [1, 3, 3, 1, 0, 0]


# singular mod 37 (7^3 + 27 = 10*37), smooth over Q
CURVE_37 = "x0^3+x1^3+x2^3+7*x0*x1*x2"
SINGLE_PRIME_WARNING = (
    "ranks mod the single prime 37 are not certified; "
    "pass two distinct primes to certify them"
)


def test_inspect_poly_single_prime_warns():
    res = run_cli("inspect-poly", "--expr", CURVE_37, "--prime", "37", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["verdict"]["kind"] == "singular"  # wrong, hence the warning
    assert doc["warnings"] == [SINGLE_PRIME_WARNING]
    text = run_cli("inspect-poly", "--expr", CURVE_37, "--prime", "37")
    assert text.returncode == 0
    assert f"warnings:\n  - {SINGLE_PRIME_WARNING}\ndeviations: none\n" in text.stdout


def test_inspect_poly_repeated_pinned_prime_is_used_once():
    for fmt in ("json", "text"):
        once = run_cli("inspect-poly", "--expr", CURVE_37, "--prime", "37", "--format", fmt)
        twice = run_cli(
            "inspect-poly", "--expr", CURVE_37, "--prime", "37", "--prime", "37", "--format", fmt
        )
        assert once.returncode == twice.returncode == 0
        assert SINGLE_PRIME_WARNING in once.stdout
        assert (twice.stdout, twice.stderr) == (once.stdout, once.stderr)


def test_inspect_poly_prime_disagreement_falls_back_to_rationals():
    res = run_cli(
        "inspect-poly", "--expr", CURVE_37, "--prime", "37", "--prime", "41",
        "--format", "json",
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["verdict"]["kind"] == "smooth"
    assert doc["deviations"] == []
    cols = {c["k"]: c["degrees"] for c in doc["betti_columns"]}
    assert cols == {1: [2, 2, 2], 2: [4]}
    assert "warnings" not in doc
    auto = run_cli("inspect-poly", "--expr", CURVE_37, "--format", "json")
    assert auto.returncode == 0
    assert "warnings" not in json.loads(auto.stdout)


def test_inspect_poly_text_lists_warnings():
    # a cone with a repeated factor: the Betti side fails, the text report
    # still carries the warning
    res = run_cli("inspect-poly", "--expr", "(x0+x1)^2*x2")
    assert res.returncode == 1
    warning = "the polynomial appears to have a repeated factor"
    assert f"warnings:\n  - {warning}\ndeviations:\n" in res.stdout
    doc = json.loads(run_cli("inspect-poly", "--expr", "(x0+x1)^2*x2", "--format", "json").stdout)
    assert doc["warnings"] == [warning]


def test_inspect_poly_bound_past_the_first_empty_piece_is_smooth():
    # the curve's quotient first vanishes in degree 4; its top syzygy sits
    # in degree 6, above the bound
    res = run_cli("inspect-poly", "--expr", "x0^3+x1^3+x2^3", "--max-degree", "5", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["verdict"]["kind"] == "smooth" and doc["deviations"] == []


@pytest.mark.parametrize("bound", ["7", "8"])
def test_inspect_poly_bound_inside_a_gap_of_the_resolution_exits_1(bound):
    # the quartic surface's quotient first vanishes in degree 9, and its
    # resolution has nothing in degrees 7 and 8: the truncated table must
    # not be reported as an obstruction
    res = run_cli("inspect-poly", "--expr", "x0^4+x1^4+x2^4+x3^4", "--max-degree", bound)
    assert res.returncode == 1
    assert res.stderr == (
        f"error: graded_betti failed: the Betti numbers below the degree bound {bound} "
        "have sigma_0 = 6, but a complete resolution has 3; raise max_degree and retry\n"
    )


def test_inspect_poly_window_too_small_exits_1():
    res = run_cli("inspect-poly", "--expr", "x0*x1*x2 + x3^3", "--window", "4")
    assert res.returncode == 1
    assert "stabilization" in res.stderr


def test_inspect_poly_first_zero_at_the_last_degree_of_the_window_is_smooth():
    # the values are [1, 3, 3, 1, 0]: a zero at the window's end already
    # proves every later value is 0
    res = run_cli("inspect-poly", "--expr", "x0^3+x1^3+x2^3", "--window", "4", "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["deviations"] == []
    assert doc["verdict"]["kind"] == "smooth"
    assert doc["hilbert"]["k0"] == 4 and doc["hilbert"]["delta"] is None


# Exact ranks cannot trip the pipelines' invariant checks; only primes that
# agree on a wrong rank can.  Fake such ranks to force each check.


def _inspect_in_process(capsys, expr):
    code = cli.main(["inspect-poly", "--expr", expr, "--format", "json"])
    out, err = capsys.readouterr()
    return code, json.loads(out), err


def test_inspect_poly_decreasing_hilbert_tail_is_a_bad_prime_error(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "milnor_dimension", lambda f, k, primes=None, **kwargs: 100 - k)
    code, doc, err = _inspect_in_process(capsys, "x0*x1*x2 + x3^3")
    assert code == 1
    assert "hilbert" not in doc and doc["verdict"]["kind"] == "singular"
    message = (
        "hilbert_fit failed: degree of the singular subscheme must be positive, "
        "got -1; the working primes [1484718533, 2073177401] are bad for this polynomial"
    )
    assert doc["deviations"] == [message]
    assert err == f"error: {message}\n"


# -- smooth-table and hspog -------------------------------------------------


def test_smooth_table_output():
    res = run_cli("smooth-table", "2", "3")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    cols = {c["k"]: c["degrees"] for c in doc["columns"]}
    assert cols == {1: [2, 2, 2], 2: [4]}


def test_smooth_table_33():
    res = run_cli("smooth-table", "3", "3")
    doc = json.loads(res.stdout)
    cols = {c["k"]: c["degrees"] for c in doc["columns"]}
    assert cols == {1: [2] * 6, 2: [4] * 4, 3: [6]}


def test_smooth_table_usage_error():
    for args in [("1", "3"), ("2", "2")]:
        res = run_cli("smooth-table", *args)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == "error: need n >= 2 and d >= 3\n"


def test_hspog_outputs():
    guaranteed = run_cli("hspog", "3", "4")
    assert guaranteed.returncode == 0
    assert ": guaranteed" in guaranteed.stdout

    also = run_cli("hspog", "4", "6")
    assert ": guaranteed" in also.stdout

    not_g = run_cli("hspog", "4", "5")
    assert not_g.returncode == 0
    assert "not guaranteed" in not_g.stdout
    assert "5.788853" in not_g.stdout
    assert "sqrt(5)" in not_g.stdout


def test_hspog_usage_error():
    for args in [("2", "4"), ("3", "2")]:
        res = run_cli("hspog", *args)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == "error: need n >= 3 and d >= 3\n"


def test_exit_code_contract_on_usage():
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("inspect-poly").returncode == 1
