"""Canonical document formats for tables and reports.

The machine format is canonical JSON (UTF-8, sorted keys, two-space indent,
trailing newline) so identical inputs always serialize to identical bytes;
the text format is a plain rendering of the same data for humans.  Report
documents are built from JSON values only, so nothing converts them on the
way out.
"""

from __future__ import annotations

import hashlib
import json
from itertools import groupby
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import DocumentError
from .tables import _INT, BettiTable, _plain_shifts

# an array of exactly these types, not all ints, goes to the C encoder
_FLAT = frozenset({int, str, float, bool, type(None)})
# the JSON type of each exact type; other values take json's isinstance tests
_EXACT = {t: t for t in _FLAT} | {list: list, tuple: list, dict: dict}


def canonical_json(obj) -> str:
    """The bytes of ``json.dumps(obj, sort_keys=True, indent=2)`` plus a
    newline.  Raises TypeError on anything that is not a JSON value.

    ``json`` falls back to its pure-Python encoder whenever ``indent`` is
    set, so the containers are laid out here, plain int arrays run by run,
    and other flat arrays are handed to the C encoder with the line break
    inside the item separator.
    """
    parts = []
    _encode(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _json_type(o):
    """The JSON type of a subclass, by the tests ``json`` runs in its
    order, so it serializes as its base value."""
    for base in (str, int, float, list, tuple, dict):
        if isinstance(o, base):
            return _EXACT[base]
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _encode(o, newline, emit):
    """Emit o as it sits on a line that ``newline`` starts (with its indent).

    Ints and floats are written through ``int.__repr__`` and ``json.dumps``
    as ``json`` writes them.
    """
    kind = _EXACT.get(type(o)) or _json_type(o)
    if kind is str:
        emit(encode_basestring_ascii(o))
    elif kind is int:
        emit(int.__repr__(o))
    elif kind is list:
        if not o:
            emit("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if _INT.issuperset(map(type, o)):
            # only plain ints: True == 1 and 0.0 == -0.0 would join runs
            # whose entries are written differently
            runs = "".join((int.__repr__(v) + sep) * len(list(g)) for v, g in groupby(o))
            emit("[" + inner + runs[: -len(sep)] + newline + "]")
            return
        if _FLAT.issuperset(map(type, o)):
            flat = json.dumps(o, separators=(sep, ": "))
            emit("[" + inner + flat[1:-1] + newline + "]")
            return
        lead = "[" + inner
        for value in o:
            emit(lead)
            _encode(value, inner, emit)
            lead = sep
        emit(newline + "]")
    elif kind is dict:
        if not o:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            emit(sep + encode_basestring_ascii(key if type(key) is str else _key(key)) + ": ")
            _encode(value, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif kind is float:
        emit(json.dumps(o))
    else:
        emit("null" if o is None else "true" if o else "false")


def _key(key) -> str:
    """A dict key as the string ``json`` writes for it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return json.dumps(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- Betti table documents ----------------------------------------------


def table_to_document(table: BettiTable, metadata=None) -> dict:
    doc = {
        "n": table.n,
        "d": table.d,
        "columns": [
            {"k": k, "degrees": list(table.column(k))} for k in range(1, table.n + 1)
        ],
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def table_from_document(doc) -> tuple[BettiTable, dict]:
    """Validate and load a table document; messages name the bad field."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    for key in ("n", "d", "columns"):
        if key not in doc:
            raise DocumentError("required field is missing", key)
    n, d = doc["n"], doc["d"]
    if not isinstance(n, int) or n < 2:
        raise DocumentError("must be an integer >= 2", "n")
    if not isinstance(d, int) or d < 3:
        raise DocumentError("must be an integer >= 3", "d")
    if not isinstance(doc["columns"], list):
        raise DocumentError("must be an array", "columns")
    columns: dict[int, list[int]] = {}
    for pos, entry in enumerate(doc["columns"]):
        where = f"columns[{pos}]"
        if not isinstance(entry, dict):
            raise DocumentError("must be an object", where)
        k = entry.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= n:
            raise DocumentError(f"k must be an integer in 1..{n}", f"{where}.k")
        if k in columns:
            raise DocumentError(f"column k={k} appears twice", f"{where}.k")
        degrees = entry.get("degrees")
        if not isinstance(degrees, list):
            raise DocumentError("must be an array", f"{where}.degrees")
        if not _plain_shifts(degrees):
            for i, e in enumerate(degrees):
                if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                    raise DocumentError(
                        "must be a non-negative integer", f"{where}.degrees[{i}]"
                    )
        columns[k] = degrees
    # only a missing key or null means empty; [], false, 0 and "" do not
    metadata = {} if doc.get("metadata") is None else doc["metadata"]
    if not isinstance(metadata, dict):
        raise DocumentError("must be an object", "metadata")
    return BettiTable.of(n, d, columns), metadata


def load_table_file(path: str) -> tuple[BettiTable, dict, str]:
    """Load a table document file; returns (table, metadata, input digest)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DocumentError(str(exc))
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses per level
        raise DocumentError(f"not valid JSON: {exc}")
    table, metadata = table_from_document(raw)
    digest = digest_of(canonical_json(table_to_document(table, metadata)))
    return table, metadata, digest


# -- report documents -----------------------------------------------------


def report_to_document(report, input_info: dict, extra=None) -> dict:
    """The report document of either command.

    ``report`` is the rule-engine report, or None for a polynomial
    inspection whose Betti side failed; that document holds only the
    header and ``extra``.
    """
    doc = {
        "tool": {"name": "singulus", "version": __version__},
        "kind": input_info["kind"],
        "input": input_info,
    }
    if report is not None:
        doc.update({
            "n": report.n,
            "d": report.d,
            "sigma": list(report.sigma_profile.sigma),
            "sigma_expected": list(report.sigma_profile.expected),
            "first_mismatch": report.sigma_profile.first_mismatch,
            "verdict": {"kind": report.verdict.kind, "reason": report.verdict.reason},
            "delta": report.delta,
            "degree_sigma": report.deg_sigma,
            "tau": report.tau,
            "pd": report.pd,
            "reg": report.reg,
            "n_values": report.n_values,
            "checks": [
                {"name": c.name, "status": c.status, "witness": c.witness}
                for c in report.checks
            ],
            "obstructions": report.obstructions,
            "flags": report.flags,
        })
    if extra:
        doc.update(extra)
    return doc


def hilbert_to_document(hilbert) -> dict:
    return {
        "values": {str(k): v for k, v in sorted(hilbert.values.items())},
        "polynomial": [str(c) for c in hilbert.poly],
        "k0": hilbert.k0,
        "delta": hilbert.delta,
        "degree_sigma": hilbert.degree_sigma,
        "tjurina": hilbert.tjurina,
    }


# -- text rendering --------------------------------------------------------


def render_report_text(doc: dict) -> str:
    """Plain rendering of a report document.

    A polynomial inspection whose Betti side failed has no rule-engine
    fields; it renders as its header, a one-line Hilbert summary when the
    Hilbert side ran, its warnings and its deviations.
    """
    lines = [
        f"singulus {doc['tool']['version']} — {doc['kind']}",
        f"input digest: sha256:{doc['input']['digest']}",
    ]
    if "expression" in doc["input"]:
        lines.append(f"polynomial: {doc['input']['expression']}")
    if "verdict" in doc:
        lines.extend(_rule_report_lines(doc))
    elif "hilbert" in doc:
        h = doc["hilbert"]
        lines.append(
            f"hilbert: delta={h['delta']} degree_sigma={h['degree_sigma']} "
            f"tjurina={h['tjurina']} k0={h['k0']}"
        )
    if doc.get("warnings"):
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in doc["warnings"])
    if "deviations" in doc:
        if doc["deviations"]:
            lines.append("deviations:")
            lines.extend(f"  - {dev}" for dev in doc["deviations"])
        else:
            lines.append("deviations: none")
    return "\n".join(lines) + "\n"


def _rule_report_lines(doc: dict) -> list[str]:
    lines = [f"n={doc['n']} d={doc['d']}"]
    if "hilbert" in doc:
        h = doc["hilbert"]
        vals = ", ".join(f"{k}:{v}" for k, v in sorted(h["values"].items(), key=lambda t: int(t[0])))
        lines.append("hilbert function: " + vals)
        poly = _poly_text(h["polynomial"])
        lines.append(
            f"hilbert polynomial: {poly}  (delta={h['delta']}, k0={h['k0']}, "
            f"degree_sigma={h['degree_sigma']}, tjurina={h['tjurina']})"
        )
    if "betti_columns" in doc:
        cols = "; ".join(
            f"d_{c['k']}={c['degrees']}" for c in doc["betti_columns"]
        )
        lines.append(f"betti table: {cols}")
    lines.append(f"sigma:    {doc['sigma']}")
    lines.append(f"expected: {doc['sigma_expected']}")
    verdict = doc["verdict"]
    reason = f" ({verdict['reason']})" if verdict.get("reason") else ""
    lines.append(f"verdict: {verdict['kind']}{reason}")
    lines.append(
        f"delta={doc['delta']} degree_sigma={doc['degree_sigma']} tau={doc['tau']} "
        f"pd={doc['pd']} reg={doc['reg']}"
    )
    if doc["n_values"]:
        nts = "; ".join(
            f"t={e['t']} N={e['N']} {'ok' if e['divisible'] else 'NOT divisible'}"
            for e in doc["n_values"]
        )
        lines.append(f"divisibility: {nts}")
    lines.append("checks:")
    for c in doc["checks"]:
        lines.append(f"  {c['name']:<15} {c['status']:<15} {_witness_text(c)}".rstrip())
    lines.append(f"flags: {doc['flags']}")
    lines.append(f"obstructions: {doc['obstructions']}")
    return lines


def _poly_text(coeffs: list[str]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == "0":
            continue
        term = c if i == 0 else (f"{c}*k" if i == 1 else f"{c}*k^{i}")
        parts.append(term)
    return " + ".join(parts) if parts else "0"


def _witness_text(check: dict) -> str:
    w = check["witness"]
    name = check["name"]
    if name == "euler":
        return f"sigma_0={w['sigma_0']} sigma_1={w['sigma_1']}"
    if name == "regularity":
        return f"reg={w['reg']} bound={w['reg_bound']} failed_k={w['failed_k']}"
    if name == "duplessis_wall" and "sigma_interval" in w:
        return (
            f"(-1)^n*sigma_n={w['signed_sigma_n']} in {w['sigma_interval']}; "
            f"tau={w['tau']} in {w['tau_interval']}"
        )
    if name == "structural":
        return "; ".join(w["failures"]) if w["failures"] else ""
    if name == "pd_codim" and "pd" in w:
        return f"pd={w['pd']} codim={w['codim']}"
    if name == "hspog" and w.get("shape"):
        return f"matched_shift={w['matched_shift']} others_sum={w['others_sum']}"
    return ""
