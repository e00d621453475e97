"""Span recorder that times singulus layers from outside the package.

The package imports functions by name (``from .linalg import rref``), so a
layer is traced by rebinding the name in the module that calls it.  Every
wrapper records one span: a name, a start, an end and the index of the
enclosing span.  Spans stay in memory until the pass ends and are then
folded into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# module that calls the function -> names rebound there
REBINDINGS = {
    "singulus.oracle": (
        "hilbert_fit",
        "graded_betti",
        "milnor_dimension",
        "cone_check",
        "rref",
        "rank_mod_p",
        "reduce_mod",
        "rank_rational",
        "deterministic_primes",
        "full_report",
    ),
    "singulus.cli": (
        "parse",
        "squarefree_check",
        "cross_check",
        "full_report",
        "load_table_file",
        "report_to_document",
        "canonical_json",
    ),
    "singulus.rules": (
        "sigma",
        "divisibility_N_t",
        "regularity_and_Ik",
        "duplessis_wall_check",
        "structural_checks",
    ),
}


def _matrix_counts(args, kwargs, result):
    m = args[0]
    counts = {"rows": m.rows, "nnz": m.nnz()}
    if hasattr(result, "rank"):
        counts["rank"] = result.rank
    return counts


def _rref_counts(args, kwargs, result):
    rows, field = args
    return {"rows_in": len(rows), "pivots": len(result), "rational": field.modulus is None}


# span name -> counts taken from (args, kwargs, result) after the span ends
COUNTS = {
    "linalg.reduce_mod": _matrix_counts,
    "linalg.rank_mod_p": _matrix_counts,
    "linalg.rank_rational": _matrix_counts,
    "linalg.rref": _rref_counts,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Stack of open spans plus every span recorded so far."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        s = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(s)
        self._stack.append(index)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counts is not None:
                s.counts = counts(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every name in REBINDINGS for the duration of the block."""
        saved = []
        try:
            for module_name, names in REBINDINGS.items():
                module = importlib.import_module(module_name)
                for attr in names:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    home = fn.__module__.removeprefix("singulus.")
                    setattr(module, attr, self.wrap(f"{home}.{fn.__name__}", fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Spans nest strictly (one thread, one stack), so the children of a
        span never overlap and their durations add up to the covered part.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, covered)]

    def metrics(self) -> dict:
        """Fold the spans into flat per-layer metrics.

        For a span key K: ``K_s`` is inclusive time, ``K.self_s`` self time,
        ``K.calls`` the call count and ``K.<count>`` each summed count.
        ``linalg.rank_mod_p`` is keyed by its parent (``.hilbert`` under
        ``milnor_dimension``, ``.koszul`` under ``graded_betti``),
        ``linalg.rank_rational`` under ``milnor_dimension`` is keyed
        ``.fallback``, and ``linalg.rref`` calls over the rationals are also
        counted under ``linalg.rref.rational``.
        """
        out = defaultdict(float)
        for s, own in zip(self.spans, self.self_seconds()):
            for key in _keys(self.spans, s):
                out[f"{key}_s"] += s.seconds
                out[f"{key}.self_s"] += own
                out[f"{key}.calls"] += 1
                for name, value in (s.counts or {}).items():
                    if name != "rational":
                        out[f"{key}.{name}"] += value
        out["oracle.prime_draws"] = out["linalg.deterministic_primes.calls"]
        for key, num, den in (
            ("linalg.rank_mod_p.hilbert", "rank", "rows"),
            ("linalg.rref", "pivots", "rows_in"),
        ):
            if out[f"{key}.{den}"]:
                out[f"{key}.useful_ratio"] = out[f"{key}.{num}"] / out[f"{key}.{den}"]
        return dict(out)


_VARIANTS = {
    ("linalg.rank_mod_p", "oracle.milnor_dimension"): "linalg.rank_mod_p.hilbert",
    ("linalg.rank_mod_p", "oracle.graded_betti"): "linalg.rank_mod_p.koszul",
    ("linalg.rank_rational", "oracle.milnor_dimension"): "linalg.rank_rational.fallback",
}


def _keys(spans, s):
    parent = spans[s.parent].name if s.parent is not None else None
    keys = [_VARIANTS.get((s.name, parent), s.name)]
    if s.name == "linalg.rref" and s.counts and s.counts["rational"]:
        keys.append("linalg.rref.rational")
    return keys
