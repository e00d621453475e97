"""singulus benchmark: times the public entry points on one workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload fermat-smooth --seed 1 --seconds 30 --trace 0

Every measured pass runs in a fresh interpreter, one child at a time, so
each pass pays the cold caches a command-line user pays.  The parent
generates the inputs, schedules the passes until --seconds are used and
checks every output.  With --trace 0 the last stdout line reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it reports the
per-layer metrics of a traced run.  Times are rescaled to a fixed machine
speed (see clock.py).  Metric names and units come from BENCHMARK.json; the
lines before the last one print them for people, with sample counts, tail
percentiles, the raw times and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import corpus
from clock import speed, spin_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
IMPORT_SAMPLES = 15
# units of the detail lines printed next to the BENCHMARK.json metrics
DETAIL_UNITS = {"analyze_betti_call_s": "s", "spin_s": "s"}
CHILD_TIMEOUT_S = 170
CYCLE_SHARE_S = 1.0


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_import(root, env) -> tuple[float, float]:
    """Seconds from spawning an interpreter until ``import singulus`` returns,
    raw and rescaled by spins just before and just after.

    perf_counter reads CLOCK_MONOTONIC, which parent and child share.
    """
    code = "import singulus, sys, time; sys.stdout.write(repr(time.perf_counter()))"
    spins = [spin_seconds() for _ in range(5)]
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"import singulus failed: {proc.stderr.strip()[-2000:]}")
    raw = float(proc.stdout) - start
    spins += [spin_seconds() for _ in range(5)]
    return raw, raw * speed(spins)


def run_child(root, env, workdir, spec) -> dict:
    path = os.path.join(workdir, "spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.run(
        [sys.executable, CHILD, path], cwd=root, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{spec['kind']} pass failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            tail = {"p": p, "value": ordered[math.ceil(n * p / 100) - 1]}
            break
    return {"median": statistics.median(ordered), "n": n, "tail": tail}


def environment(root, args) -> dict:
    revision = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
            revision = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    src = os.path.join(root, "src", "singulus")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Run:
    """The passes of one benchmark run and the checks on their outputs."""

    def __init__(self, root, workdir, args):
        self.root, self.workdir = root, workdir
        self.env = child_env(root)
        self.items = {
            "inspect": corpus.polynomials(args.workload),
            "tables": corpus.tables(args.workload, args.seed, root, workdir),
        }
        self.items["hilbert"] = self.items["betti"] = self.items["inspect"]
        self.table_repeat = max(1, corpus.TABLE_CALLS_PER_PASS // len(self.items["tables"]))
        self.passes: dict[tuple[str, bool], list[dict]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, kind, traced):
        items = self.items[kind]
        spec = {
            "kind": kind,
            "trace": traced,
            "repeat": self.table_repeat if kind == "tables" else 1,
            "items": [{k: item[k] for k in ("expr", "path", "primes") if k in item} for item in items],
        }
        start = perf_counter()
        out = run_child(self.root, self.env, self.workdir, spec)
        out["wall"] = perf_counter() - start
        check = corpus.CHECKS[kind]
        for i, got in enumerate(out.pop("results")):
            item = items[i % len(items)]
            self.attempted += 1
            reason = check(item, got)
            if reason is not None:
                self.failures.append(f"{kind} {item.get('expr') or item['path']}: {reason}")
        self.passes.setdefault((kind, traced), []).append(out)

    def schedule(self, plan, seconds):
        """Cycle through plan until no pass fits before the deadline.

        Every entry runs at least once.  Within a cycle an entry repeats
        until it has used CYCLE_SHARE_S, so short passes collect more samples.
        """
        deadline = perf_counter() + seconds
        ran = True
        while ran:
            ran = False
            for key in plan:
                spent = 0.0
                while spent < CYCLE_SHARE_S:
                    done = self.passes.get(key)
                    if done and perf_counter() + done[-1]["wall"] > deadline:
                        break
                    self.run_pass(*key)
                    spent += self.passes[key][-1]["wall"]
                    ran = True

    def pass_seconds(self, kind, traced=False, clock="scaled"):
        return [sum(p[clock]) for p in self.passes[(kind, traced)]]

    def end_to_end(self, setup) -> dict:
        tables = self.passes[("tables", False)]
        rss = [
            statistics.median(p["rss_kb"] for p in self.passes[(kind, False)]) / 1024
            for kind in ("inspect", "hilbert", "betti", "tables")
        ]
        out = {
            "setup_s": summarize([scaled for _, scaled in setup]),
            "peak_rss_mb": {"median": max(rss), "n": sum(map(len, self.passes.values())), "tail": None},
        }
        for clock, suffix in (("scaled", ""), ("seconds", ".raw")):
            for kind in ("inspect", "hilbert", "betti"):
                out[f"{kind}_s{suffix}"] = summarize(self.pass_seconds(kind, clock=clock))
            out[f"tables_per_s{suffix}"] = summarize([len(p[clock]) / sum(p[clock]) for p in tables])
            out[f"analyze_betti_call_s{suffix}"] = summarize([s for p in tables for s in p[clock]])
        out["setup_s.raw"] = summarize([raw for raw, _ in setup])
        out["spin_s.raw"] = summarize([s for p in self.passes.values() for q in p for s in q["spins"]])
        return out

    def per_layer(self, names) -> dict:
        """Per pass: the median over the traced passes of each kind, summed
        over the kinds.  Times are rescaled by the pass's own clock factor."""
        out = dict.fromkeys(names, 0.0)
        for kind in ("inspect", "tables"):
            traced = self.passes[(kind, True)]
            for name in names:
                out[name] += statistics.median(
                    p["layers"].get(name, 0.0) * (_layer_factor(p) if name.endswith("_s") else 1)
                    for p in traced
                )
        out["trace.overhead_s"] = sum(
            statistics.median(self.pass_seconds(kind, True)) - statistics.median(self.pass_seconds(kind))
            for kind in ("inspect", "tables")
        )
        n = len(self.passes[("inspect", True)])
        return {name: {"median": value, "n": n, "tail": None} for name, value in out.items()}


def _layer_factor(p):
    """Rescales span times, which include the spins taken inside them."""
    return sum(p["scaled"]) / (sum(p["seconds"]) + p["spun"])


def measure(root, workdir, args, bench) -> dict:
    run = Run(root, workdir, args)
    if args.trace:
        metrics = bench["per_layer"]
        plan = [("inspect", True), ("inspect", False), ("tables", True), ("tables", False)]
        run.schedule(plan, args.seconds)
        detail = run.per_layer([m["name"] for m in metrics])
    else:
        metrics = bench["end_to_end"]
        time_import(root, run.env)  # the first import writes the bytecode cache; not a sample
        setup = [time_import(root, run.env) for _ in range(IMPORT_SAMPLES)]
        plan = [("inspect", False), ("hilbert", False), ("betti", False), ("tables", False)]
        run.schedule(plan, args.seconds)
        detail = run.end_to_end(setup)
    units = {**DETAIL_UNITS, **{m["name"]: m["unit"] for m in metrics}}
    return {
        "environment": environment(root, args),
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "error_rate": len(run.failures) / run.attempted,
        "failures": run.failures[:20],
        "metrics": {name: {**m, "unit": units[name.removesuffix(".raw")]} for name, m in detail.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    needed = ("src/singulus/__init__.py", "tests/_helpers.py", *corpus.FIXTURE_TABLES, corpus.CUSP_PATH, "BENCHMARK.json")
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        sys.stderr.write(f"error: run from the root of a singulus checkout; missing {missing}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        result = measure(root, workdir, args, bench)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in result["metrics"].items():
        tail = f"  p{m['tail']['p']:g}={m['tail']['value']:.6g}" if m["tail"] else ""
        print(f"{name:<44} {m['median']:>14.6g} {m['unit']:<8} n={m['n']}{tail}")
    print(f"{'error_rate':<44} {result['error_rate']:>14.6g} ratio    n={result['attempted']}")
    for failure in result["failures"]:
        sys.stderr.write(f"FAILED {failure}\n")
    print(json.dumps(result, sort_keys=True))
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name]["median"], "unit": result["metrics"][name]["unit"]}
            for name in (m["name"] for m in bench["per_layer" if args.trace else "end_to_end"])
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
