"""One measured pass in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

SPEC holds ``kind`` (inspect, hilbert, betti or tables), ``trace`` (bool),
``repeat`` (passes over the items) and ``items``.  Every call is timed on
its own; outputs are summarised after the clock stops, so neither parsing
nor checking is timed.  The last line of stdout is one JSON object with the
per-call seconds (raw and rescaled, see clock.py), the summaries, the peak
resident set and, for a traced pass, the per-layer metrics.
"""

from __future__ import annotations

import io
import json
import resource
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import singulus.cli
from singulus.oracle import graded_betti, hilbert_fit
from singulus.polynomials import infer_variable_count, parse

from clock import ScaledClock
from tracer import Tracer


def _cli_argv(kind, item):
    if kind == "tables":
        return ["analyze-betti", item["path"], "--format", "json"]
    source = [item["path"]] if "path" in item else ["--expr", item["expr"]]
    argv = ["inspect-poly", *source, "--format", "json"]
    for p in item.get("primes") or ():
        argv += ["--prime", str(p)]
    return argv


def _polynomial(item):
    if "path" in item:
        with open(item["path"], "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    else:
        text = item["expr"]
    return parse(text, infer_variable_count(text))


def _cli_call(argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        with tracer.span("cli.main") if tracer else nullcontext():
            code = singulus.cli.main(argv)
    return code, out, err


def _summary(kind, outcome):
    """The fields the checks look at, taken after the clock stopped; never raw bytes."""
    if kind == "hilbert":
        return {"delta": outcome.delta, "degree_sigma": outcome.degree_sigma, "tjurina": outcome.tjurina}
    if kind == "betti":
        return {"columns": {str(k): list(outcome.column(k)) for k in range(1, outcome.n + 1)}}
    code, out, err = outcome
    summary = {"exit": code, "stderr": err.getvalue()[-500:]}
    if code not in (0, 2):
        return summary
    doc = json.loads(out.getvalue())
    for key in ("sigma", "obstructions", "delta", "degree_sigma", "tau", "n_values", "deviations"):
        summary[key] = doc.get(key)
    summary["verdict"] = doc.get("verdict", {}).get("kind")
    summary["duplessis_wall"] = next((c for c in doc.get("checks", ()) if c["name"] == "duplessis_wall"), None)
    summary["hilbert_delta"] = doc.get("hilbert", {}).get("delta")
    if "betti_columns" in doc:
        summary["columns"] = {str(c["k"]): c["degrees"] for c in doc["betti_columns"]}
    return summary


def _result(kind, outcome):
    if isinstance(outcome, Exception):
        return {"error": f"{type(outcome).__name__}: {outcome}"}
    try:
        return _summary(kind, outcome)
    except (ValueError, KeyError, TypeError) as exc:
        return {"error": f"unreadable output: {exc}"}


def run_pass(spec, tracer=None) -> dict:
    """Run one pass; a failing call is recorded, never raised."""
    kind = spec["kind"]
    items = spec["items"]
    if kind in ("hilbert", "betti"):
        polys = [_polynomial(item) for item in items]
        fn = hilbert_fit if kind == "hilbert" else graded_betti
        calls = [lambda f=f, item=item: fn(f, primes=item.get("primes")) for f, item in zip(polys, items)]
    else:
        calls = [lambda argv=_cli_argv(kind, item): _cli_call(argv, tracer) for item in items]
    results = []
    with ScaledClock() as clock:
        for _ in range(spec.get("repeat", 1)):
            for call in calls:
                results.append(_result(kind, clock.time(call)))
    return {
        "seconds": clock.raw,
        "scaled": clock.scaled,
        "spins": clock.spins,
        "spun": clock.spun_in_calls,
        "results": results,
    }


def peak_rss_kb() -> int:
    """Peak resident set of this interpreter.

    getrusage's ru_maxrss survives exec, so in a child it can report the
    parent's size at spawn; VmHWM belongs to this process image alone.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    with open(argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec.get("trace"):
        tracer = Tracer()
        with tracer.installed():
            out = run_pass(spec, tracer)
        out["layers"] = tracer.metrics()
    else:
        out = run_pass(spec)
    out["rss_kb"] = peak_rss_kb()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
