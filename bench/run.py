"""bellproc benchmark: one workload per run, every metric by name and unit.

    python3 bench/run.py --workload {verify,tables,draws,cli} --seed N --seconds S --trace {0,1}

The library is imported from the ``src`` directory next to this one.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run of the same rounds and reports the per-layer
metrics.  Standard output ends with two JSON lines: a record
of the machine, the inputs and the op counts, then the result.  Exit
status is 0 only when a result was printed.  README.md in this directory
defines every metric.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "draws_per_s": "1/s",
}
PER_LAYER = {
    "special.self_s": "s",
    "special.triangle_builds": "count",
    "special.triangle_cells": "cells",
    "special.bell_poly_calls": "count",
    "distribution.self_s": "s",
    "distribution.tables_built": "count",
    "distribution.table_rows": "rows",
    "distribution.validate_s": "s",
    "distribution.lookup_s": "s",
    "distribution.failed_calls": "count",
    "sampling.self_s": "s",
    "sampling.variates.inverse_cdf": "count",
    "sampling.variates.compound": "count",
    "sampling.variates.jump": "count",
    "sampling.ns_per_variate.inverse_cdf": "ns",
    "sampling.ns_per_variate.compound": "ns",
    "process.self_s": "s",
    "process.paths": "count",
    "process.events": "count",
    "process.us_per_path": "us",
    "process.count_at_calls": "count",
    "process.superpose_calls": "count",
    "verify.self_s": "s",
    "verify.checks_failed": "count",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

SETUP_REPEATS = 3  # fresh-interpreter set-ups per run; setup_s is their median
IMPORT_REPEATS = 3
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
TIME_LIMIT_FACTOR = 4  # a run stops after the round that passes 4 x --seconds

# Set-up of one workload in a fresh interpreter, timed from inside it so
# interpreter start-up is left out; imports are part of set-up.
SETUP_PROBE = """\
import sys, time
t = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import warnings; warnings.simplefilter("ignore", RuntimeWarning)
import workloads
w = workloads.make(sys.argv[3], int(sys.argv[4]), sys.argv[5])
w.setup()
print(time.perf_counter() - t)
w.close()
"""
IMPORT_PROBE = "import time; t = time.perf_counter(); import bellproc.cli; print(time.perf_counter() - t)"


@dataclass(frozen=True)
class Record:
    kind: str
    seconds: float
    status: str
    variates: int
    detail: str


def run_python(argv: list[str], timeout: float) -> str:
    """Standard output of a fresh interpreter started in the checkout."""
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=workloads.child_env(ROOT),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:2]} failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def probe(argv: list[str]) -> float:
    """Last stdout line of a fresh interpreter, as a float."""
    return float(run_python(argv, 120).strip().splitlines()[-1])


def run_rounds(wl, rounds_wanted: int, time_limit: float, tracer) -> tuple[list[Record], int]:
    """Whole rounds, one op at a time; stops early only past time_limit."""
    records: list[Record] = []
    rounds = 0
    start = perf_counter()
    for ops in wl.rounds():
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(records)
            t0 = perf_counter()
            raw = wl.execute(op)
            elapsed = perf_counter() - t0
            if raw is workloads.SKIP:
                continue
            outcome = wl.check(op, raw)
            records.append(Record(op.kind, elapsed, outcome.status, outcome.variates, outcome.detail))
        rounds += 1
        if rounds >= rounds_wanted or perf_counter() - start > time_limit:
            break
    if tracer is not None:
        tracer.op_id = -1
    return records, rounds


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def tail_percentile(n: int, target: float) -> float:
    """The workload's tail percentile, or the highest ladder step below it
    with at least TAIL_MIN_BEYOND of the n samples beyond it; the median
    when there are too few samples for any."""
    for pct in TAIL_LADDER:
        if pct <= target and n - math.ceil(pct / 100.0 * n) >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


def end_to_end(records: list[Record], setup_s: float, peak_rss_mb: float, target_pct: float):
    good = [r for r in records if r.status in workloads.SUCCESS]
    drawing = [r for r in good if r.variates] or good
    op_wall = sum(r.seconds for r in records)
    # Latencies are those of successful ops: a failed op meets no latency.
    latencies = sorted(r.seconds for r in good) or sorted(r.seconds for r in records)
    pct = tail_percentile(len(latencies), target_pct)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(good) / op_wall,
        "op_p50_ms": nearest_rank(latencies, 50.0) * 1e3,
        "op_tail_ms": nearest_rank(latencies, pct) * 1e3,
        "success_rate": len(good) / len(records),
        "peak_rss_mb": peak_rss_mb,
        # Over the ops that deliver variates, so unrelated ops do not dilute it.
        "draws_per_s": sum(r.variates for r in drawing) / sum(r.seconds for r in drawing),
    }
    tail = {"percentile": pct, "samples": len(latencies), "median_only": pct == 50.0}
    return metrics, tail


def machine_facts() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
    }


def replay_op_wall(args) -> float:
    """Op wall time of the same run untraced, in a fresh process."""
    argv = [str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--seconds", str(args.seconds), "--trace", "0"]
    return json.loads(run_python(argv, 900).strip().splitlines()[-2])["op_wall_s"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=("verify", "tables", "draws", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bellproc" / "__init__.py").is_file():
        print(f"bench: no bellproc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The library's own overflow warnings are not the benchmark's output.
    warnings.simplefilter("ignore", RuntimeWarning)
    wl = workloads.make(args.workload, args.seed, ROOT)
    # A run is a fixed number of rounds, the number that lasts about
    # --seconds at the seed commit: every commit then times the same ops
    # for a seed, and no run ends inside a round.
    rounds_wanted = max(1, round(args.seconds / wl.nominal_round_s))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        wl.tracer = tracer
    else:
        setup_s = statistics.median(
            probe(["-c", SETUP_PROBE, str(BENCH), str(SRC), args.workload, str(args.seed), str(ROOT)])
            for _ in range(SETUP_REPEATS)
        )
    wl.setup()
    try:
        records, rounds = run_rounds(wl, rounds_wanted, TIME_LIMIT_FACTOR * args.seconds, tracer)
    finally:
        wl.close()
    op_wall = sum(r.seconds for r in records)

    kinds = sorted({r.kind for r in records})
    failures = [r for r in records if r.status not in workloads.SUCCESS]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "op_wall_s": op_wall,
        "machine": machine_facts(),
        "op_counts": {k: sum(r.kind == k for r in records) for k in kinds},
        "op_p50_ms_by_kind": {
            k: statistics.median(r.seconds for r in records if r.kind == k) * 1e3 for k in kinds
        },
        "outcomes": {s: sum(r.status == s for r in records) for s in ("ok", "rejected", "failed", "wrong")},
        "error_rate": len(failures) / len(records),
        "first_failures": [f"{r.kind} [{r.status}] {r.detail}" for r in failures[:5]],
        **wl.notes(),
    }

    if args.trace:
        metrics = tracer.layer_metrics(op_wall)
        imports = [probe(["-c", IMPORT_PROBE]) for _ in range(IMPORT_REPEATS)]
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["cli.output_bytes"] = float(wl.output_bytes)
        metrics["trace.overhead_s"] = op_wall - replay_op_wall(args)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}.npz"
        tracer.dump(spans_file)
        tracer.uninstall()
        context["spans_file"] = str(spans_file.relative_to(ROOT))
        context["spans"] = len(tracer)
        units = PER_LAYER
    else:
        metrics, context["op_tail"] = end_to_end(
            records, setup_s, wl.peak_rss_mb(), wl.tail_percentile
        )
        units = END_TO_END

    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps(context))
    result = {
        "correct": not any(r.status == workloads.WRONG for r in records),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
