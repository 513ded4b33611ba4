"""Smoke test of the benchmark harness at its smallest size.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload for one round, untraced and traced, and checks that
each metric named in BENCHMARK.json is printed with its unit; checks
that a corrupted output counts as a failed op; that traced counts repeat
for a seed; and that the benchmark refuses to run without the sources.
The one-round ``verify`` runs make this take about three minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def one_round(workload: str, trace: int, seed: int = 1) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    printed = {(p[0], p[2]) for p in (line.split() for line in lines) if len(p) == 3}
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert (m["name"], m["unit"]) in printed
    context = json.loads(lines[-2])
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "git_commit"} <= set(context["machine"])
    assert context["seed"] == seed and sum(context["op_counts"].values()) == result["attempted"]
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = one_round(workload, trace)
    if not trace:
        assert result["metrics"]["ops_per_s"]["value"] > 0
        assert result["metrics"]["setup_s"]["value"] > 0


def test_traced_counts_repeat_for_a_seed():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "rows", "cells")]
    first, second = (one_round("draws", 1, seed=5)["metrics"] for _ in range(2))
    assert [first[n]["value"] for n in counts] == [second[n]["value"] for n in counts]


def test_corrupted_table_counts_as_failed_op():
    wl = workloads.make("tables", 3, ROOT)
    wl.setup()
    distribution = sys.modules["bellproc.distribution"]
    original = distribution.build_pmf_table

    def corrupted(params, *args, **kwargs):
        table = original(params, *args, **kwargs)
        probs = np.array(table.probs)
        probs[0] *= 1.01
        return distribution.PmfTable(params=table.params, probs=probs, tail_mass=table.tail_mass)

    undo = spans.rebind(original, corrupted)
    try:
        records, _ = run.run_rounds(wl, 1, 600.0, None)
    finally:
        spans.restore(undo)
    wrong = [r for r in records if r.status == workloads.WRONG]
    assert wrong and all(r.kind == "build" for r in wrong)
    metrics, _ = run.end_to_end(records, 1.0, 1.0, 95.0)
    assert metrics["success_rate"] <= 1 - len(wrong) / len(records)


def test_corrupted_cli_outputs_fail_their_gates():
    triple = workloads.Triple(1.0, 1.0, 0.5, True)
    good = "k,pmf,cdf\n0,0.25,0.25\n1,0.75,1.0\ntail_mass,0.0,\n"
    assert workloads.CliWorkload._gate_table(good, triple, "csv", 0, ()) is not None  # wrong law
    wl = workloads.make("draws", 1, ROOT)
    wl.setup()
    table, _ = wl.laws[1]
    rows = [f"{k},{float(p)!r},0.0" for k, p in enumerate(table.probs)]
    text = "\n".join(["k,pmf,cdf", *rows, f"tail_mass,{table.tail_mass!r},"]) + "\n"
    assert workloads.CliWorkload._gate_table(text, triple, "csv", 0, ()) is None
    assert workloads.CliWorkload._gate_table(text.replace("k,pmf", "k,p"), triple, "csv", 0, ())
    sample = "value\n" + "\n".join(["-1"] * 3) + "\n# empirical_mean=0\n# empirical_variance=0\n"
    assert workloads.CliWorkload._gate_sample(sample, triple, "csv", 3, ())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "draws", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
