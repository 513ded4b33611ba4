"""Command-line tests: output formats, determinism, exit codes, and the
self-test hook of the verification battery."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import bellproc as bp
from bellproc.cli import SAMPLE_BUDGET, main

BASE = [sys.executable, "-m", "bellproc"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, timeout=600
    )


def run_main(capsys, *args):
    """``run_cli`` through ``main(argv)`` in this process: the same exit
    code and output streams, without launching an interpreter."""
    code = main(list(args))
    captured = capsys.readouterr()
    return subprocess.CompletedProcess(list(args), code, captured.out, captured.err)


# ----------------------------------------------------------------------
# table


def test_table_poisson_collapse(capsys):
    out = run_main(capsys, "table", "--alpha", "1", "--theta", "1", "--lambda", "1")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "k,pmf,cdf"
    *rows, tail = lines[1:]
    for row in rows:
        k, p, _ = row.split(",")
        assert abs(float(p) - stats.poisson.pmf(int(k), 1.0)) <= 1e-13
    label, tail_mass, _ = tail.split(",")
    assert label == "tail_mass"
    total = math.fsum(float(r.split(",")[1]) for r in rows) + float(tail_mass)
    assert abs(total - 1.0) <= 1e-12


def test_table_zero_row_value(capsys):
    out = run_main(capsys, "table", "--alpha", "2", "--theta", "0.5", "--lambda", "0.25")
    row0 = out.stdout.strip().splitlines()[1].split(",")
    rate = 2 * ((1 + 0.25 * 0.5) ** 4 - 1)
    assert float(row0[1]) == pytest.approx(math.exp(-rate), rel=1e-13)


def test_table_json_format(capsys, tmp_path):
    target = tmp_path / "table.json"
    out = run_main(
        capsys,
        "table", "--alpha", "1", "--theta", "1", "--lambda", "0.5",
        "--format", "json", "--out", str(target),
    )
    assert out.returncode == 0
    payload = json.loads(target.read_text())
    assert payload["lambda"] == 0.5
    assert abs(sum(payload["probs"]) + payload["tail_mass"] - 1.0) <= 1e-12
    assert payload["cdf"][-1] == pytest.approx(1.0, abs=1e-12)
    # the printed doubles parse back bit-equal to the table
    table = bp.build_pmf_table(bp.validate(1.0, 1.0, 0.5))
    assert payload["probs"] == table.probs.tolist()
    assert payload["cdf"] == table.cumulative.tolist()
    assert payload["tail_mass"] == table.tail_mass


def test_table_csv_parses_back_bit_equal(capsys):
    assert main(["table", "--alpha", "1.5", "--theta", "0.75", "--lambda", "0.25"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,pmf,cdf"
    *rows, tail = lines[1:]
    table = bp.build_pmf_table(bp.validate(1.5, 0.75, 0.25))
    assert [int(r.split(",")[0]) for r in rows] == list(range(len(table.probs)))
    assert [float(r.split(",")[1]) for r in rows] == table.probs.tolist()
    assert [float(r.split(",")[2]) for r in rows] == table.cumulative.tolist()
    assert tail == f"tail_mass,{table.tail_mass!r},"


def test_table_time_scaling(capsys):
    # --t scales the rate parameter: table at t=2 equals table of 2*alpha
    direct = run_main(capsys, "table", "--alpha", "2", "--theta", "1", "--lambda", "0.5")
    scaled = run_main(
        capsys, "table", "--alpha", "1", "--theta", "1", "--lambda", "0.5", "--t", "2"
    )
    assert direct.stdout == scaled.stdout


# ----------------------------------------------------------------------
# moments


def test_moments_values(capsys):
    out = run_main(capsys, "moments", "--alpha", "2", "--theta", "0.5", "--lambda", "0.5")
    record = dict(line.split(",") for line in out.stdout.strip().splitlines()[1:])
    assert float(record["mean"]) == pytest.approx(1.25)
    assert float(record["burst_rate"]) == pytest.approx(2 * ((1.25) ** 2 - 1))
    assert float(record["jump_prob_1"]) + float(record["jump_prob_2"]) == pytest.approx(1.0)


def test_moments_poisson_dispersion(capsys):
    out = run_main(capsys, "moments", "--alpha", "1.5", "--theta", "1", "--lambda", "1")
    record = dict(line.split(",") for line in out.stdout.strip().splitlines()[1:])
    assert float(record["dispersion_ratio"]) == pytest.approx(1.0)


def test_moments_burst_rate_example(capsys):
    out = run_main(
        capsys, "moments", "--alpha", "1", "--theta", "1", "--lambda", "0.5", "--format", "json"
    )
    record = json.loads(out.stdout)
    assert record["burst_rate"] == pytest.approx(1.25)


def test_moments_past_the_double_range_is_a_parameter_error(capsys):
    # a strict law whose mean is past the largest double
    code = main(["moments", "--alpha", "1", "--theta", "1e10", "--lambda", "0.01"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("bellproc: error:") and "largest double" in err


def test_moments_dispersion_when_the_mean_underflows(capsys):
    # mean and variance are 0.0; the ratio is the closed form 1 + theta*(1-lam)/(1+lam*theta)
    assert main(["moments", "--alpha", "5e-324", "--theta", "1e-10", "--lambda", "1"]) == 0
    record = dict(line.split(",") for line in capsys.readouterr().out.splitlines()[1:])
    assert record["dispersion_ratio"] == "1.0"


# ----------------------------------------------------------------------
# sample


def test_sample_deterministic_given_seed(capsys):
    args = ("sample", "--alpha", "1", "--theta", "1", "--lambda", "0.5",
            "--n", "500", "--seed", "77")
    assert run_main(capsys, *args).stdout == run_main(capsys, *args).stdout


def test_sample_env_seed_fallback():
    args = ("sample", "--alpha", "1", "--theta", "1", "--lambda", "0.5", "--n", "50")
    with_env = run_cli(*args, env_extra={"BELLPROC_SEED": "31337"})
    with_flag = run_cli(*args, "--seed", "31337")
    assert with_env.stdout == with_flag.stdout


def test_sample_methods_both_run(capsys):
    for method in ("inverse-cdf", "compound"):
        out = run_main(
            capsys, "sample", "--alpha", "1", "--theta", "1", "--lambda", "0.5",
            "--n", "100", "--seed", "5", "--method", method,
        )
        assert out.returncode == 0
        values = [int(v) for v in out.stdout.strip().splitlines()[1:-2]]
        assert len(values) == 100
        assert all(v >= 0 for v in values)


def test_sample_footer_mean(capsys):
    out = run_main(
        capsys, "sample", "--alpha", "1", "--theta", "1", "--lambda", "1",
        "--n", "1000000", "--seed", "11",
    )
    footer = [l for l in out.stdout.strip().splitlines() if l.startswith("#")]
    mean_line = [l for l in footer if "empirical_mean" in l][0]
    mean = float(mean_line.split("=")[1])
    assert abs(mean - 1.0) <= 0.004


def test_sample_compound_rejects_general_order():
    out = run_cli(
        "sample", "--alpha", "1", "--theta", "1", "--lambda", "0.013",
        "--n", "10", "--method", "compound",
    )
    assert out.returncode == 2


def test_sample_rejects_bad_n():
    out = run_cli("sample", "--alpha", "1", "--theta", "1", "--lambda", "0.5", "--n", "0")
    assert out.returncode == 2


@pytest.mark.parametrize("n", [SAMPLE_BUDGET + 1, 10**30])
def test_sample_refuses_n_past_budget(capsys, n):
    code = main(["sample", "--alpha", "1", "--theta", "1", "--lambda", "0.5", "--n", str(n)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("bellproc: error:") and "budget" in err


@pytest.mark.parametrize("alpha, n", [("1e5", "1000"), ("1e4", str(SAMPLE_BUDGET))])
def test_sample_compound_refuses_jumps_past_budget(capsys, alpha, n):
    # 1e8 and 1e11 expected jumps: refused before any is drawn
    args = ["sample", "--alpha", alpha, "--theta", "1", "--lambda", "1", "--method", "compound"]
    code = main([*args, "--n", n])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("bellproc: error:") and "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--alpha", "1.5e308", "--theta", "1", "--lambda", "0.5", "--horizon", "1"],
        ["sample", "--alpha", "1e308", "--theta", "10", "--lambda", "1", "--method", "compound",
         "--n", "3"],
        # e_lam(theta) past the largest double, over a series longer than a jump law may be
        ["moments", "--alpha", "1e-300", "--theta", "750", "--lambda", "1e-6"],
    ],
)
def test_burst_rate_past_the_largest_double_is_a_parameter_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("bellproc: error:") and "overflows" in err


# ----------------------------------------------------------------------
# simulate


def test_simulate_single_path_sorted(capsys):
    out = run_main(
        capsys, "simulate", "--alpha", "2", "--theta", "1", "--lambda", "0.5",
        "--horizon", "5", "--seed", "13",
    )
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "time,size,cumulative_count"
    times = [float(l.split(",")[0]) for l in lines[1:]]
    assert times == sorted(times)
    assert all(0 < t <= 5 for t in times)


def test_simulate_order_one_unit_sizes(capsys):
    out = run_main(
        capsys, "simulate", "--alpha", "1", "--theta", "1", "--lambda", "1",
        "--horizon", "20", "--seed", "17",
    )
    sizes = [int(l.split(",")[1]) for l in out.stdout.strip().splitlines()[1:]]
    assert sizes and all(s == 1 for s in sizes)


def test_simulate_deterministic(capsys):
    args = ("simulate", "--alpha", "1", "--theta", "1", "--lambda", "0.5",
            "--horizon", "2", "--paths", "10", "--seed", "19")
    assert run_main(capsys, *args).stdout == run_main(capsys, *args).stdout


def test_simulate_tiny_horizon_mostly_empty(capsys):
    out = run_main(
        capsys, "simulate", "--alpha", "1", "--theta", "1", "--lambda", "0.5",
        "--horizon", "0.001", "--paths", "10000", "--seed", "23",
        "--marginal", "0.001", "--format", "json",
    )
    payload = json.loads(out.stdout)
    hist = payload["marginal"]["histogram"]
    empty_fraction = hist.get("0", 0) / 10000
    assert empty_fraction == pytest.approx(math.exp(-0.00125), abs=4e-3)


def test_simulate_marginal_histogram_csv(capsys):
    out = run_main(
        capsys, "simulate", "--alpha", "1", "--theta", "1", "--lambda", "0.5",
        "--horizon", "1", "--paths", "200", "--seed", "29", "--marginal", "1",
    )
    text = out.stdout
    assert "path,time,size,cumulative_count" in text
    marginal = text.split("\n\n")[1]
    assert marginal.splitlines()[0] == "k,count"
    total = sum(int(l.split(",")[1]) for l in marginal.strip().splitlines()[1:])
    assert total == 200


def test_simulate_rejects_bad_horizon():
    out = run_cli("simulate", "--alpha", "1", "--theta", "1", "--lambda", "0.5",
                  "--horizon", "-1")
    assert out.returncode == 2


@pytest.mark.parametrize("horizon", ["inf", "1e300"])
def test_simulate_refuses_huge_horizon_promptly(horizon):
    out = subprocess.run(
        BASE + ["simulate", "--alpha", "1", "--theta", "1", "--lambda", "0.5",
                "--horizon", horizon],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stderr.startswith("bellproc: error:") and "budget" in out.stderr


def _simulate_one_path_at_a_time(seed, horizon, n_paths, marginal, fmt):
    """The simulate output rendered from one-path ensembles, one path at a time."""
    params = bp.validate(1.0, 1.0, 0.5)
    paths = list(bp.simulate_paths(params, horizon, n_paths, bp.RngStream(seed)))
    hist = None
    if marginal is not None:
        hist = np.bincount([bp.count_at(p, marginal) for p in paths])
    if fmt == "json":
        head = {"alpha": 1.0, "theta": 1.0, "lambda": 0.5, "horizon": horizon}
        payload = {
            "seed": seed,
            "paths": [
                {**head, "times": [float(t) for t in p.times], "sizes": [int(s) for s in p.sizes]}
                for p in paths
            ],
        }
        if hist is not None:
            payload["marginal"] = {
                "t": marginal,
                "histogram": {str(k): int(c) for k, c in enumerate(hist) if c},
            }
        return json.dumps(payload, indent=2) + "\n"
    lines = ["time,size,cumulative_count"] if n_paths == 1 else ["path,time,size,cumulative_count"]
    for i, p in enumerate(paths):
        prefix = "" if n_paths == 1 else f"{i},"
        for t, size, cum in zip(p.times, p.sizes, p.cumulative):
            lines.append(f"{prefix}{float(t)!r},{int(size)},{int(cum)}")
    if hist is not None:
        lines += ["", "k,count"] + [f"{k},{int(c)}" for k, c in enumerate(hist) if c]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_paths, marginal", [(1, None), (1, 0.3), (60, None), (60, 0.3)])
def test_simulate_bytes_match_per_path_rendering(tmp_path, fmt, n_paths, marginal):
    # a short horizon leaves many paths empty
    target = tmp_path / "out"
    argv = ["simulate", "--alpha", "1", "--theta", "1", "--lambda", "0.5",
            "--horizon", "0.6", "--paths", str(n_paths), "--seed", "37",
            "--format", fmt, "--out", str(target)]
    if marginal is not None:
        argv += ["--marginal", str(marginal)]
    assert main(argv) == 0
    expected = _simulate_one_path_at_a_time(37, 0.6, n_paths, marginal, fmt)
    assert target.read_bytes() == expected.encode()


# ----------------------------------------------------------------------
# verify


@pytest.fixture(scope="module")
def verify_result(tmp_path_factory):
    # capsys serves one test only, so the report goes to a file
    target = tmp_path_factory.mktemp("verify") / "report.json"
    argv = ["verify", "--seed", "12345", "--out", str(target)]
    out = subprocess.CompletedProcess(argv, main(argv))
    return out, json.loads(target.read_text())


def test_verify_passes_default_grid(verify_result):
    out, report = verify_result
    assert out.returncode == 0
    assert report["overall"] is True
    assert all(c["passed"] for c in report["checks"])


def test_verify_report_round_trips(verify_result):
    _, report = verify_result
    again = json.loads(json.dumps(report))
    assert again == report
    assert {"overall", "seed", "wall_time", "checks"} <= set(report)
    for check in report["checks"]:
        assert {"name", "statistic", "threshold", "comparison", "passed"} <= set(check)


def test_verify_deterministic_modulo_wall_time(capsys, verify_result):
    _, report = verify_result
    again_out = run_main(capsys, "verify", "--seed", "12345")
    again = json.loads(again_out.stdout)
    a = {k: v for k, v in report.items() if k != "wall_time"}
    b = {k: v for k, v in again.items() if k != "wall_time"}
    assert a == b


def test_verify_perturbation_fails(capsys):
    out = run_main(capsys, "verify", "--seed", "12345", "--perturb", "variance", "1.05")
    assert out.returncode == 1
    report = json.loads(out.stdout)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["dist.variance"]


def test_verify_unknown_perturbation_is_usage_error():
    out = run_cli("verify", "--perturb", "skewness", "1.05")
    assert out.returncode == 2


# ----------------------------------------------------------------------
# usage errors


LAW = ("--alpha", "1", "--theta", "1", "--lambda", "0.5")

# (argv, the parameter its refusal names); None marks a syntax error,
# which argparse reports with its usage text.
USAGE_ERRORS = [
    (("table", "--alpha", "-1", "--theta", "1", "--lambda", "1"), "alpha"),
    (("table", "--alpha", "1", "--theta", "0", "--lambda", "1"), "theta"),
    (("table", "--alpha", "1", "--theta", "1", "--lambda", "2"), "lam"),
    (("table", "--alpha", "1", "--theta", "1", "--lambda", "0"), "lam"),
    (("table", "--alpha", "x", "--theta", "1", "--lambda", "1"), None),
    (("sample", "--alpha", "1", "--theta", "1", "--lambda", "0.6", "--n", "5"), "lam"),
    (("moments",), None),
    (("table", "--alpha", "0", "--theta", "1", "--lambda", "1"), "alpha"),
    (("moments", "--alpha", "nan", "--theta", "1", "--lambda", "1"), "alpha"),
    (("table", "--alpha", "1", "--theta", "-1", "--lambda", "1"), "theta"),
    (("sample", "--alpha", "1", "--theta", "nan", "--lambda", "1", "--n", "5"), "theta"),
    (("table", "--alpha", "1", "--theta", "1", "--lambda", "-1"), "lam"),
    (("simulate", "--alpha", "1", "--theta", "1", "--lambda", "nan", "--horizon", "1"), "lam"),
    (("table", *LAW, "--t", "0"), "--t"),
    (("table", *LAW, "--t", "nan"), "--t"),
    (("moments", *LAW, "--t", "-1"), "--t"),
    (("moments", *LAW, "--t", "inf"), "--t"),
    (("sample", *LAW, "--n", "0"), "--n"),
    (("sample", *LAW, "--n", "-5"), "--n"),
    (("simulate", *LAW, "--horizon", "0"), "horizon"),
    (("simulate", *LAW, "--horizon", "-1"), "horizon"),
    (("simulate", *LAW, "--horizon", "nan"), "horizon"),
    (("simulate", *LAW, "--horizon", "1", "--paths", "0"), "n_paths"),
    (("simulate", *LAW, "--horizon", "1", "--marginal", "-0.1"), "times"),
    (("simulate", *LAW, "--horizon", "1", "--marginal", "nan"), "times"),
    (("simulate", *LAW, "--horizon", "1", "--marginal", "2"), "times"),
    (("table", *LAW, "--tail-tol", "0"), "tail_tol"),
    (("table", *LAW, "--tail-tol", "1"), "tail_tol"),
    (("table", *LAW, "--tail-tol", "nan"), "tail_tol"),
    (("sample", *LAW, "--n", "5", "--tail-tol", "0"), "tail_tol"),
    (("sample", *LAW, "--n", "5", "--tail-tol", "1"), "tail_tol"),
    (("sample", *LAW, "--n", "5", "--tail-tol", "nan"), "tail_tol"),
    (("sample", *LAW, "--n", "5", "--method", "compound", "--tail-tol", "0"), "tail_tol"),
    (("sample", *LAW, "--n", "5", "--method", "compound", "--tail-tol", "1"), "tail_tol"),
    (("sample", *LAW, "--n", "5", "--method", "compound", "--tail-tol", "nan"), "tail_tol"),
    (("verify", "--perturb", "skewness", "1.05"), "perturbation"),
    (("verify", "--perturb", "variance", "x"), None),
    (("sample", *LAW, "--n", "3", "--seed", "-1"), "seed"),
    (("simulate", *LAW, "--horizon", "1", "--seed", "-3"), "seed"),
    (("verify", "--seed", "-1"), "seed"),
]


@pytest.mark.parametrize(
    "args, named", USAGE_ERRORS, ids=[f"args{i}" for i in range(len(USAGE_ERRORS))]
)
def test_usage_errors_exit_2(capsys, args, named):
    if named is None:
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        return
    assert main(list(args)) == 2
    out, err = capsys.readouterr()
    # refused before anything is written, in one line that names the parameter
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("bellproc: error:") and named in err


def test_negative_env_seed_is_a_parameter_error(capsys, monkeypatch):
    monkeypatch.setenv("BELLPROC_SEED", "-1")
    assert main(["sample", *LAW, "--n", "3"]) == 2
    assert capsys.readouterr().err.startswith("bellproc: error: seed")
