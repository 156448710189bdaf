"""Benchmark of the ktgw command line, driven in-process through ``cli.main``.

One run of one workload, printing a JSON result as its last line:

    python3 bench/run.py --workload closed-large --seed 1 --seconds 30 --trace 0

Every workload in turn, each in a fresh interpreter, as a table of metrics:

    python3 bench/run.py --all --seed 1 --seconds 30

A run is one closed loop with one client in one single-threaded process: the
next operation starts when the previous one has returned.  Operations come in
decks (see ``workloads.py``); the loop finishes the deck in progress when
``--seconds`` have passed, so every run covers whole decks.  Each call is timed
with stdout and stderr captured; its output is checked against the
generator's own answer after the clock stops.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
Their times are in units of a fixed reference computation timed around each
operation, because the speed a shared machine gives one process drifts by far
more than the bounds those metrics need.  ``--trace 1`` alternates untraced
and traced decks, reports the per-layer metrics from the traced decks (see
``spans.py``) and the ratio of traced to untraced throughput, and writes the
spans to ``bench/out/``.

The line before the result is a record of the run: machine, samples, error
rate, the plain wall-clock figures of an untraced run, and each layer's share
of the op time in a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import WORKLOADS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11

_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import ktgw.cli
ktgw.cli.build_parser()
print(time.perf_counter() - start, ktgw.cli.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC)


def import_cli():
    """Import ktgw.cli from this checkout's source tree, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ktgw.cli
    except ImportError as exc:
        raise BenchError(f"cannot import ktgw from {SRC}: {exc}") from exc
    if not _inside_src(ktgw.cli.__file__):
        raise BenchError(f"ktgw was imported from {ktgw.cli.__file__}, not {SRC}")
    return ktgw.cli


def setup_once() -> float:
    """Time a fresh interpreter takes to import ktgw.cli and build its parser."""
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", _SETUP_CHILD, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True)
    elapsed, path = proc.stdout.split(maxsplit=1)
    if not _inside_src(path.strip()):
        raise BenchError(f"set-up imported ktgw from {path.strip()}")
    return float(elapsed)


def machine_record() -> Dict[str, object]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ktgw").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def call(cli, op: Op):
    """Run one operation; return (seconds, failure message or None)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed op; the loop goes on
            rc, crash = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
    if crash is not None:
        return elapsed, f"crashed: {crash}"
    try:
        return elapsed, op.check(op.expect, rc, out.getvalue())
    except (ValueError, KeyError, TypeError) as exc:
        return elapsed, f"unreadable output: {exc!r}"


def reference() -> None:
    """A fixed computation that does not touch ktgw: Fraction sums and 2x2
    integer steps on 40-digit numbers, the kinds of work ktgw spends its
    time on."""
    x = Fraction(0)
    for i in range(1, 700):
        x += Fraction(i % 13, i % 97 + 1)
    u = (10 ** 40 + 7, 3 * 10 ** 39 + 1)
    for i in range(3000):
        u = (u[0] - u[1], u[1]) if i % 3 else (-u[1], u[0])


def time_reference() -> float:
    """Seconds the reference takes now.  The cyclic collector is off meanwhile,
    so the reference never pays for garbage an operation left behind."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Loop:
    """Per-deck timings and the failures of one closed-loop run, split into
    untraced (False) and traced (True) decks.

    The reference is timed before a deck and after every operation.  Each
    operation is kept as (seconds, reference seconds), the reference time
    being the mean of the two runs around it: the speed the shared machine
    gave this process at that moment.
    """

    def __init__(self) -> None:
        self.decks: Dict[bool, List[List[Tuple[float, float]]]] = {False: [], True: []}
        self.failures: List[str] = []
        self.attempted = 0

    def run(self, cli, decks, seconds: float, tracer=None, between=None) -> None:
        """Run whole decks until `seconds` have passed, calling `between()`
        after each deck, outside the timed region."""
        start = time.perf_counter()
        for index, deck in enumerate(decks):
            traced = tracer is not None and index % 2 == 1
            timings: List[Tuple[float, float]] = []
            before = time_reference()
            if traced:
                tracer.install()
            try:
                for op in deck:
                    elapsed, failure = call(cli, op)
                    after = time_reference()
                    timings.append((elapsed, (before + after) / 2))
                    before = after
                    self.attempted += 1
                    if failure is not None:
                        self.failures.append(f"{' '.join(op.argv)}: {failure}")
            finally:
                if traced:
                    tracer.uninstall()
            self.decks[traced].append(timings)
            if between is not None:
                between()
            done = time.perf_counter() - start >= seconds
            if done and (tracer is None or traced):
                break

    def timings(self, traced: bool) -> List[Tuple[float, float]]:
        return [t for deck in self.decks[traced] for t in deck]


def relative(timings: List[Tuple[float, float]]) -> List[float]:
    """Operation times in units of the reference time around them."""
    return [seconds / ref for seconds, ref in timings]


def ops_per_kref(timings: List[Tuple[float, float]]) -> float:
    return 1e3 * len(timings) / sum(relative(timings))


def end_to_end(loop: Loop, setup_s: float) -> Dict[str, float]:
    rel = relative(loop.timings(False))
    return {
        "ops_per_kref": ops_per_kref(loop.timings(False)),
        "latency_p50_ref": statistics.median(rel),
        "latency_p90_ref": statistics.quantiles(rel, n=10)[-1],
        "success_ratio": (loop.attempted - len(loop.failures)) / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def wall_clock(loop: Loop) -> Dict[str, float]:
    """The same figures in plain time, which the shared machine's speed moves."""
    timings = loop.timings(False)
    seconds = [t for t, _ in timings]
    return {
        "ops_per_s": len(seconds) / sum(seconds),
        "latency_p50_ms": statistics.median(seconds) * 1e3,
        "latency_p90_ms": statistics.quantiles(seconds, n=10)[-1] * 1e3,
        "reference_ms": statistics.median(ref for _, ref in timings) * 1e3,
    }


def per_layer(loop: Loop, tracer, self_s: Dict[str, float],
              calls: Dict[str, int]) -> Dict[str, float]:
    counts = tracer.counts
    ops = len(loop.timings(True))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {f"{layer}.self_s": self_s[layer] / ops for layer in tracer.spanned}
    hits, misses = counts["arith.divisors.cache_hits"], counts["arith.divisors.cache_misses"]
    metrics.update({
        "arith.divisors.calls": calls["arith.divisors"] / ops,
        "arith.divisors.cache_hit_ratio": ratio(hits, hits + misses),
        "homs.normalize_class.word_tokens": counts["homs.normalize_class.word_tokens"] / ops,
        "nilalg.h2_pushforward.us_per_token":
            ratio(self_s["nilalg.h2_pushforward"] * 1e6, counts["nilalg.h2_pushforward.tokens"]),
        "homs.enumerate_fully_reduced.components":
            counts["homs.enumerate_fully_reduced.components"] / ops,
        "gwcount.gw_enumerated.us_per_component":
            ratio(self_s["gwcount.gw_enumerated"] * 1e6, counts["gwcount.gw_enumerated.components"]),
        "gwcount.aut_size_formula.calls": counts["gwcount.aut_size_formula.calls"] / ops,
        "geometry.cr_residual.calls": calls["geometry.cr_residual"] / ops,
        "geometry.cr_residual.grid_points": counts["geometry.cr_residual.grid_points"] / ops,
        "geometry.cr_residual.ms_per_call":
            ratio(self_s["geometry.cr_residual"] * 1e3, calls["geometry.cr_residual"]),
        "geometry.cr_residual.max_value": tracer.residual_max,
        "trace.overhead": ops_per_kref(loop.timings(True)) / ops_per_kref(loop.timings(False)),
    })
    return metrics


def layer_shares(loop: Loop, self_s: Dict[str, float], layers: List[str]) -> Dict[str, float]:
    """Each layer's self time as a share of the traced op time."""
    busy = sum(t for t, _ in loop.timings(True))
    return {layer: round(self_s[layer] / busy, 4) for layer in layers}


def declared_units(section: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def run_one(args) -> int:
    units = declared_units("per_layer" if args.trace else "end_to_end")
    cli = import_cli()
    machine = machine_record()
    tracer = None
    setups: List[float] = []
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    else:
        setup_once()  # compiles the bytecode cache on a fresh checkout

    def between() -> None:
        # Set-up times are spread over the run so a slow spell of the
        # machine does not decide their median.
        if not args.trace and len(setups) < SETUP_REPEATS:
            setups.append(setup_once())

    loop = Loop()
    loop.run(cli, WORKLOADS[args.workload](random.Random(args.seed)), args.seconds,
             tracer, between)
    while not args.trace and len(setups) < SETUP_REPEATS:
        between()
    setup_s = statistics.median(setups) if setups else 0.0
    if not loop.decks[False] or (tracer is not None and not loop.decks[True]):
        raise BenchError("the run completed too few decks to measure")
    if tracer is None:
        values = end_to_end(loop, setup_s)
    else:
        self_s, calls = tracer.self_times()
        values = per_layer(loop, tracer, self_s, calls)
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} "
                         f"disagree with BENCHMARK.json")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "decks": len(loop.decks[bool(tracer)]),
        "samples": len(loop.timings(bool(tracer))),
        "error_rate": len(loop.failures) / loop.attempted,
        "failures": loop.failures[:5], "machine": machine,
    }
    if tracer is None:
        record["wall_clock"] = wall_clock(loop)
    else:
        record["self_share"] = layer_shares(loop, self_s, tracer.spanned)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    for failure in loop.failures[:5]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one table of every metric."""
    status, header = 0, False
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        record_line, result_line = proc.stdout.strip().splitlines()[-2:]
        record, result = json.loads(record_line)["record"], json.loads(result_line)
        if not header:
            header = True
            print("machine: " + json.dumps(record["machine"]))
            print(f"{'workload':<14} {'metric':<42} {'value':>14}  unit")
        rows = [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
        rows.append(("error_rate", record["error_rate"], "ratio"))
        rows.append(("samples", record["samples"], "ops"))
        units = {"ops_per_s": "1/s", "reference_ms": "ms"}
        for metric, value in record.get("wall_clock", {}).items():
            rows.append((metric, value, units.get(metric, "ms")))
        for metric, value, unit in rows:
            print(f"{name:<14} {metric:<42} {value:>14.6g}  {unit}")
        for layer, share in record.get("self_share", {}).items():
            print(f"{name:<14} {'share ' + layer:<42} {share:>14.4f}  of op time")
        if not result["correct"]:
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true",
                        help="run every workload in its own interpreter")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.all else run_one(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
