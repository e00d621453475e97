"""Self-tests of the benchmark's tracer.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import importlib
import json
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

from child import run_pass  # noqa: E402
from tracer import REBINDINGS, Tracer  # noqa: E402

FIXTURES = os.path.join(ROOT, "fixtures")

# cheap inputs that still reach every traced layer: the pinned primes make
# the curve singular mod 37, so the rational fallback and rref over QQ run
INSPECT = {
    "kind": "inspect",
    "items": [
        {"path": os.path.join(FIXTURES, "triangle_cusp_threefold.poly")},
        {"expr": "x0*x1*x2 + x0^3 + x1^3"},
        {"expr": "x0^3+x1^3+x2^3+7*x0*x1*x2", "primes": [37, 41]},
    ],
}
TABLES = {
    "kind": "tables",
    "items": [
        {"path": os.path.join(FIXTURES, name)}
        for name in (
            "betti_p4_d3_negative_degree.json",
            "betti_p4_d3_bound_violation.json",
            "betti_smooth_3_3.json",
        )
    ],
}


def _bindings():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, names in REBINDINGS.items()
        for attr in names
    }


@pytest.mark.parametrize("spec", [INSPECT, TABLES], ids=["inspect", "tables"])
def test_traced_pass_gives_the_untraced_outputs(spec):
    plain = run_pass(spec)
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(spec, tracer)
    assert traced["results"] == plain["results"]
    assert all("error" not in r for r in plain["results"])
    assert tracer.spans


def test_self_times_and_unattributed_sum_to_the_enclosing_span():
    tracer = Tracer()
    with tracer.installed(), tracer.span("pass") as root:
        run_pass(INSPECT, tracer)
        run_pass(TABLES, tracer)
    own = tracer.self_seconds()
    assert min(own) >= -1e-9
    unattributed = own[0]
    assert tracer.spans[0] is root and unattributed > 0
    assert sum(own[1:]) + unattributed == pytest.approx(root.seconds, rel=1e-9, abs=1e-9)
    for i, span in enumerate(tracer.spans):
        children = [s.seconds for s in tracer.spans if s.parent == i]
        assert own[i] + sum(children) == pytest.approx(span.seconds, rel=1e-9, abs=1e-9)


def test_every_rebound_name_is_restored():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            during = _bindings()
            raise RuntimeError("leave the block early")
    assert all(during[key] is not fn for key, fn in before.items())
    after = _bindings()
    assert all(after[key] is fn for key, fn in before.items())


def test_every_per_layer_metric_is_produced():
    tracer = Tracer()
    with tracer.installed():
        run_pass(INSPECT, tracer)
        run_pass(TABLES, tracer)
    metrics = tracer.metrics()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    missing = [n for n in names if n not in metrics and n != "trace.overhead_s"]
    assert missing == []
    assert metrics["linalg.rank_rational.fallback.calls"] > 0
    assert metrics["linalg.rref.rational_s"] > 0
