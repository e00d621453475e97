import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singulus import cli, oracle, polynomials
from singulus.documents import (
    canonical_json,
    table_from_document,
    table_to_document,
)
from singulus.errors import DocumentError
from singulus.tables import BettiTable
from _helpers import generate_repaired_tables

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def run_cli(*args, hashseed=None):
    env = dict(os.environ)
    # the child imports singulus from this checkout, installed or not
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    # the child runs under the suite's warning policy: any warning fails
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "singulus", *args],
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


class _Int(int):
    def __repr__(self):
        return "_Int"


class _Float(float):
    def __repr__(self):
        return "_Float"


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN, +-inf and -0.0 included
    st.text(),  # non-ASCII and control characters included
    st.builds(_Int, st.integers()),
    st.builds(_Float, st.floats()),
    st.builds(_Str, st.text()),
)
# keys of one dict are all strings or all numbers, so that sorting them works
_str_keys = st.text() | st.builds(_Str, st.text())
_number_keys = st.integers() | st.booleans() | st.floats() | st.builds(_Int, st.integers())


def _dicts(values):
    return st.dictionaries(_str_keys, values) | st.dictionaries(_number_keys, values)


def _runs(entries):
    """Arrays of runs of equal entries, each run up to 40 long."""
    return st.lists(st.tuples(entries, st.integers(1, 40)), max_size=6).map(
        lambda runs: [v for v, length in runs for _ in range(length)]
    )


# int arrays are written run by run; a bool or an _Int beside ints equal
# to it must break the run
_int_runs = _runs(st.integers(-2, 2) | st.integers()) | _runs(
    st.integers(-1, 1) | st.booleans() | st.builds(_Int, st.integers(-1, 1))
)
_json_values = st.recursive(
    _scalars | st.lists(st.integers() | st.booleans()) | _int_runs,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(inner).map(_List),
        _dicts(inner),
        _dicts(inner).map(_Dict),
    ),
)


@given(_json_values)
def test_canonical_json_is_the_indented_json_dumps_bytes(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "array",
    [[], [-3], [0] * 50, [2] * 9 + [-1] * 4 + [2] * 3, [1, 1, True, 1, 1], [0, 0, _Int(0), 0]],
    ids=["empty", "one", "one-run", "negative-runs", "bool-in-run", "subclass-in-run"],
)
def test_canonical_json_writes_int_runs_as_json_does(array):
    for value in (array, tuple(array), {"a": array}, [{"b": [array, array]}]):
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_canonical_json_rejects_what_is_not_json():
    for bad in (Fraction(1, 2), set(), object()):
        name = type(bad).__name__
        for value in ([1, bad, "x"], {"x": bad}, {"x": [{"y": bad}]}):
            with pytest.raises(TypeError, match=f"Object of type {name} is not JSON serializable"):
                canonical_json(value)
        # a set is unhashable, so the key case takes a frozenset
        key = frozenset() if isinstance(bad, set) else bad
        with pytest.raises(TypeError, match=f"keys must be str, int, float, bool or None, not {type(key).__name__}"):
            canonical_json({key: 1})


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
        pytest.param(lambda d: d["columns"][0]["degrees"].insert(1, True), "columns[0].degrees[1]", id="boolean-degree"),
        pytest.param(lambda d: d["columns"][0]["degrees"].insert(2, 2.0), "columns[0].degrees[2]", id="float-degree"),
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


def test_analyze_betti_json_is_canonical_on_a_large_table(tmp_path):
    table = max(
        (table for _, table in generate_repaired_tables(7, 100)), key=lambda t: sum(map(len, t.columns))
    )
    path = tmp_path / "large.json"
    path.write_text(canonical_json(table_to_document(table)))
    res = run_cli("analyze-betti", str(path), "--format", "json")
    assert res.returncode in (0, 2), res.stderr
    assert res.stdout == json.dumps(json.loads(res.stdout), sort_keys=True, indent=2) + "\n"


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


@pytest.mark.parametrize("text", ["", '{"n": 3', "n: 3\n"])
def test_analyze_betti_file_that_is_not_json_exits_1(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert cli.main(["analyze-betti", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    # the decoder's own words follow, and they vary between Python versions
    assert err.startswith("error: not valid JSON: ") and err.count("\n") == 1


def test_analyze_betti_document_nested_too_deep_exits_1(tmp_path):
    # the decoder recurses per level and runs out of stack
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    res = run_cli("analyze-betti", str(deep))
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: not valid JSON: ") and res.stderr.count("\n") == 1


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


@pytest.mark.parametrize(
    "expr, message",
    [
        ("x0^1000000000+x1^3+x2^3", "exponent must be below 2^16 (offset 3)"),
        # each power is below 2^16, and the sum has degree 2^16
        ("(x0^256)^256+(x1^256)^256+(x2^256)^256", "degree must be below 2^16, got 65536"),
    ],
)
def test_inspect_poly_refuses_a_degree_of_2_to_the_16_before_expanding_it(capsys, expr, message):
    assert cli.main(["inspect-poly", "--expr", expr]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_inspect_poly_refuses_parentheses_nested_too_deep():
    res = run_cli("inspect-poly", "--expr", "(" * 3000 + "x0" + ")" * 3000)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr == "error: parentheses nest deeper than 100 (offset 100)\n"


def test_inspect_poly_refuses_a_monomial_table_past_the_limit():
    # 401 variables: the count of the degree-2 index, C(403, 3), is over the limit
    res = run_cli("inspect-poly", "--expr", "x0^3+x1^3+x2^3", "--n", "400", "--format", "json")
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    table = "degree 2 in x0..x400 needs a monomial table of 10827401 entries, over the limit of 1048576"
    assert res.stderr.splitlines() == [f"error: {side} failed: {table}" for side in ("hilbert_fit", "graded_betti")]
    assert json.loads(res.stdout)["deviations"] == [line.removeprefix("error: ") for line in res.stderr.splitlines()]


def test_inspect_poly_hashes_its_input_once(monkeypatch, capsys):
    # the report, both sides' primes, the section forms and the squarefree
    # check all read one cached digest of the input
    texts, digest_of = [], polynomials.digest_of
    monkeypatch.setattr(polynomials, "digest_of", lambda text: texts.append(text) or digest_of(text))
    polynomials._input_digest.cache_clear()
    oracle.default_primes.cache_clear()
    assert cli.main(["inspect-poly", "--expr", "x0*x1*x2 + x3^3", "--format", "json"]) == 0
    assert texts == ["3:x0*x1*x2+x3^3"]
    assert json.loads(capsys.readouterr().out)["deviations"] == []


def test_inspect_poly_has_no_sqfree_trials_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["inspect-poly", "--expr", "x0^3 + x1^3 + x2^3", "--sqfree-trials=3"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --sqfree-trials=3" in capsys.readouterr().err


def test_inspect_poly_expr_may_start_with_a_minus():
    # argparse alone reads "-x0^3..." as an option and exits 1
    joined = run_cli("inspect-poly", "--expr=-x0^3+x1^3+x2^3", "--format", "json")
    spaced = run_cli("inspect-poly", "--expr", "-x0^3+x1^3+x2^3", "--format", "json")
    assert joined.returncode == 0
    assert (spaced.returncode, spaced.stdout, spaced.stderr) == (0, joined.stdout, joined.stderr)
    assert json.loads(spaced.stdout)["input"]["expression"] == "-x0^3+x1^3+x2^3"


@pytest.mark.parametrize("flag", ["--e", "--ex", "--exp"])
def test_inspect_poly_expr_abbreviations_may_start_with_a_minus(flag):
    # argparse accepts each abbreviation of --expr, so each takes the value
    joined = run_cli("inspect-poly", "--expr=-x0^3+x1^3+x2^3", "--format", "json")
    spaced = run_cli("inspect-poly", flag, "-x0^3+x1^3+x2^3", "--format", "json")
    assert joined.returncode == 0
    assert (spaced.returncode, spaced.stdout, spaced.stderr) == (0, joined.stdout, joined.stderr)


def test_inspect_poly_expr_followed_by_an_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["inspect-poly", "--expr", "--format", "json"])
    assert exc.value.code == 1
    assert "argument --expr: expected one argument" in capsys.readouterr().err


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
        # 15 = 3*5 is a product, not a prime
        ("x0^3+x1^3+x2^3", ["15"], "15 is not prime"),
        # one prime, under which the partials are dependent but none
        # vanishes, so position 1 comes out wrong
        ("x0^3+(x1+x2)^3+10*x2^3", ["5"], "primes [5] are bad"),
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


@pytest.mark.parametrize(
    "pseudoprime, reason",
    [
        # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to
        # every base 2..37: base 41 finds it composite
        ("318665857834031151167461", "318665857834031151167461 is not prime"),
        # psi_13 = 1287836182261 * 2575672364521 passes every base 2..41
        ("3317044064679887385961981", "pinned primes must be below 3317044064679887385961981"),
    ],
    ids=["psi12", "psi13"],
)
def test_inspect_poly_refuses_a_strong_pseudoprime(pseudoprime, reason):
    res = run_cli("inspect-poly", "--expr", "x0*x1*x2+x3^3", "--prime", "399165290221", "--prime", pseudoprime)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert [line.split(":")[1] for line in lines] == [" hilbert_fit failed", " graded_betti failed"]
    assert all(line.endswith(reason) for line in lines)


@pytest.mark.parametrize(
    "expr, primes",
    [
        ("1/3*x0^4+x1^4+x2^4", ["3", "5"]),
        ("1/3*x0^4+1/5*x1^4+x2^4", ["5", "3"]),
        ("1/15*x0^4+x1^4+x2^4", ["5", "3"]),
    ],
)
def test_inspect_poly_answers_pinned_denominator_primes(expr, primes):
    # the oracle works on f times the lcm of its denominators, whose
    # partials are integral, so any prime reduces them.  Each pair here
    # kills a partial of that multiple, so both sides rerun over Q and the
    # report is the derived primes' one, byte for byte
    args = [arg for p in primes for arg in ("--prime", p)]
    pinned = run_cli("inspect-poly", "--expr", expr, *args, "--format", "json")
    derived = run_cli("inspect-poly", "--expr", expr, "--format", "json")
    assert (pinned.returncode, pinned.stderr) == (0, "")
    assert pinned.stdout == derived.stdout


def test_inspect_poly_lone_prime_with_dependent_partials_fails_both_sides():
    # smooth over Q; mod 5 the partials are dependent, so each side refuses
    # the prime: the Hilbert side at degree 2, the Betti side at position 1
    res = run_cli("inspect-poly", "--expr", "x0^3+(x1+x2)^3+5*x2^3", "--prime", "5", "--format", "json")
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert [line.split(":")[1] for line in lines] == [" hilbert_fit failed", " graded_betti failed"]
    assert all(line.endswith("the working primes [5] are bad for this polynomial") for line in lines)
    doc = json.loads(res.stdout)
    assert "hilbert" not in doc and "betti_columns" not in doc
    assert doc["deviations"] == [line.removeprefix("error: ") for line in lines]


def test_inspect_poly_prime_killing_the_partials_falls_back_on_both_sides():
    # mod 3 every partial of the Fermat cubic vanishes: both sides fall
    # back to Q and answer as the derived primes do
    expr = ("inspect-poly", "--expr", "x0^3+x1^3+x2^3", "--format", "json")
    derived = run_cli(*expr)
    assert derived.returncode == 0, derived.stderr
    ref = json.loads(derived.stdout)
    for args in (["--prime", "3"], ["--prime", "3", "--prime", "3"]):
        res = run_cli(*expr, *args)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        doc = json.loads(res.stdout)
        for key in ("hilbert", "betti_columns", "sigma", "verdict", "deviations"):
            assert doc[key] == ref[key], (args, key)
        assert doc["warnings"] == [
            "ranks mod the single prime 3 are not certified; "
            "pass two distinct primes to certify them"
        ]
    assert ref["verdict"]["kind"] == "smooth"
    assert [ref["hilbert"]["values"][str(k)] for k in range(6)] == [1, 3, 3, 1, 0, 0]


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
    # degree 2 keeps the value of four independent partials, which the
    # position-1 check compares, and every later value falls
    monkeypatch.setattr(
        oracle, "milnor_dimension", lambda f, k, primes=None, **kwargs: 6 if k == 2 else 100 - k
    )
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


def test_smooth_table_past_the_monomial_budget_is_refused():
    # 2^41 - 42 shifts: refused before any column is built
    res = run_cli("smooth-table", "40", "3")
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == "error: a smooth table for n = 40 holds 2199023255510 shifts, over the limit of 1048576\n"


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


def test_reused_parser_leaks_nothing_between_calls(capsys):
    calls = [
        ["analyze-betti", str(FIXTURES / "betti_p4_d3_negative_degree.json"), "--format", "json"],
        ["inspect-poly", str(FIXTURES / "triangle_cusp_threefold.poly"), "--expr", "x0^3"],
        ["inspect-poly", "--expr", "x0^3+x1^3+x2^3", "--format", "text"],
        ["analyze-betti", str(FIXTURES / "betti_p4_d3_negative_degree.json"), "--format", "json"],
    ]

    def call(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    cli._build_parser.cache_clear()
    reused = [call(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(call(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 1, 0, 2]
    assert "not allowed with argument" in reused[1][2]


def test_exit_code_contract_on_usage():
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("inspect-poly").returncode == 1
