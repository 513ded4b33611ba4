"""Command-line front end.

Subcommands: ``table`` (PMF/CDF tabulation), ``moments`` (closed-form
summary plus the jump law), ``sample`` (variate stream), ``simulate``
(trajectories), ``verify`` (the full battery).  All output is
deterministic for a fixed seed; CSV for tabular data, JSON for
reports.  Exit codes: 0 success, 1 verification failure, 2 usage or
parameter error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import distribution as dist
from . import process as proc
from .errors import BellprocError, ParameterError
from .sampling import RngStream, sample_compound, sample_inverse_cdf
from .verify import DEFAULT_SEED, PERTURBABLE, run_verification

SEED_ENV_VAR = "BELLPROC_SEED"

# `sample --n` past this many variates is refused before anything is
# drawn, as process.SIMULATION_BUDGET refuses paths; rendering the
# values as text peaks at about 130 bytes per variate.
SAMPLE_BUDGET = 10_000_000


@dataclass
class RunConfig:
    command: str
    alpha: float = 1.0
    theta: float = 1.0
    lam: float = 1.0
    t: float = 1.0
    horizon: float = 1.0
    n_samples: int = 1
    n_paths: int = 1
    seed: int = DEFAULT_SEED
    method: str = "inverse-cdf"
    tail_tol: float = dist.DEFAULT_TAIL_TOL
    output_format: str = "csv"
    output_path: str | None = None
    marginal: float | None = None
    perturb: dict[str, float] = field(default_factory=dict)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellproc",
        description="Degenerate Bell counting law and process: tables, moments, "
        "samples, trajectories, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--alpha", type=_float, required=True, help="rate-like parameter (> 0)")
        p.add_argument("--theta", type=_float, required=True, help="scale-like parameter (> 0)")
        p.add_argument(
            "--lambda",
            dest="lam",
            type=_float,
            required=True,
            help="degeneracy order in (0, 1]; 1 or 1/m for the strict regime",
        )

    def add_io(p: argparse.ArgumentParser, default_format: str) -> None:
        p.add_argument(
            "--format",
            dest="output_format",
            choices=("csv", "json"),
            default=default_format,
        )
        p.add_argument("--out", dest="output_path", default=None, help="output path (default stdout)")

    def add_seed(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help=f"64-bit seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})",
        )

    p_table = sub.add_parser("table", help="tabulate k, pmf, cdf with the certified tail")
    add_params(p_table)
    p_table.add_argument("--t", type=_float, default=1.0, help="process time (scales the rate)")
    p_table.add_argument("--tail-tol", dest="tail_tol", type=_float, default=dist.DEFAULT_TAIL_TOL)
    add_io(p_table, "csv")

    p_mom = sub.add_parser("moments", help="closed-form moments and the jump law")
    add_params(p_mom)
    p_mom.add_argument("--t", type=_float, default=1.0, help="process time (scales the rate)")
    add_io(p_mom, "csv")

    p_sample = sub.add_parser("sample", help="draw variates")
    add_params(p_sample)
    p_sample.add_argument("--n", dest="n_samples", type=int, required=True)
    p_sample.add_argument("--method", choices=("inverse-cdf", "compound"), default="inverse-cdf")
    p_sample.add_argument("--tail-tol", dest="tail_tol", type=_float, default=dist.DEFAULT_TAIL_TOL)
    add_seed(p_sample)
    add_io(p_sample, "csv")

    p_sim = sub.add_parser("simulate", help="simulate trajectories")
    add_params(p_sim)
    p_sim.add_argument("--horizon", type=_float, required=True)
    p_sim.add_argument("--paths", dest="n_paths", type=int, default=1)
    p_sim.add_argument(
        "--marginal",
        type=_float,
        default=None,
        metavar="T",
        help="also emit the histogram of the count at time T across paths",
    )
    add_seed(p_sim)
    add_io(p_sim, "csv")

    p_verify = sub.add_parser("verify", help="run the verification battery")
    add_seed(p_verify)
    p_verify.add_argument(
        "--perturb",
        nargs=2,
        action="append",
        default=[],
        metavar=("NAME", "FACTOR"),
        help=f"multiply a reference value to prove the harness bites; names: {', '.join(PERTURBABLE)}",
    )
    add_io(p_verify, "json")
    return parser


def _resolve_seed(parser: argparse.ArgumentParser, value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            parser.error(f"${SEED_ENV_VAR} is not an integer: {env!r}")
    return DEFAULT_SEED


def _make_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in (
        "alpha",
        "theta",
        "lam",
        "t",
        "horizon",
        "n_samples",
        "n_paths",
        "method",
        "tail_tol",
        "output_format",
        "output_path",
        "marginal",
    ):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "seed"):
        cfg.seed = _resolve_seed(parser, args.seed)
    if getattr(args, "perturb", None):
        for name, factor in args.perturb:
            if name not in PERTURBABLE:
                parser.error(f"unknown perturbation target {name!r}; choose from {PERTURBABLE}")
            try:
                cfg.perturb[name] = float(factor)
            except ValueError:
                parser.error(f"perturbation factor must be a decimal number, got {factor!r}")
    # Reject out-of-domain numerics before any computation runs.
    if cfg.command in ("table", "moments", "sample", "simulate"):
        if not cfg.alpha > 0:
            parser.error(f"--alpha must be > 0, got {cfg.alpha}")
        if not cfg.theta > 0:
            parser.error(f"--theta must be > 0, got {cfg.theta}")
        if not 0 < cfg.lam <= 1:
            parser.error(f"--lambda must lie in (0, 1], got {cfg.lam}")
    if cfg.command in ("table", "moments") and not cfg.t > 0:
        parser.error(f"--t must be > 0, got {cfg.t}")
    if cfg.command == "sample" and cfg.n_samples < 1:
        parser.error(f"--n must be >= 1, got {cfg.n_samples}")
    if cfg.command == "simulate":
        if not cfg.horizon > 0:
            parser.error(f"--horizon must be > 0, got {cfg.horizon}")
        if cfg.n_paths < 1:
            parser.error(f"--paths must be >= 1, got {cfg.n_paths}")
        if cfg.marginal is not None and not 0 <= cfg.marginal <= cfg.horizon:
            parser.error(f"--marginal must lie in [0, horizon], got {cfg.marginal}")
    if not 0 < cfg.tail_tol < 1:
        parser.error(f"--tail-tol must lie in (0, 1), got {cfg.tail_tol}")
    return cfg


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_table(cfg: RunConfig) -> int:
    params = dist.validate(cfg.alpha * cfg.t, cfg.theta, cfg.lam)
    table = dist.build_pmf_table(params, cfg.tail_tol)
    if cfg.output_format == "json":
        payload = json.loads(table.to_json())
        payload["cdf"] = [float(c) for c in table.cumulative]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["k,pmf,cdf"]
        cum = table.cumulative
        for k, p in enumerate(table.probs):
            lines.append(f"{k},{float(p)!r},{float(cum[k])!r}")
        lines.append(f"tail_mass,{table.tail_mass!r},")
        text = "\n".join(lines) + "\n"
    _emit(cfg, text)
    return 0


def _cmd_moments(cfg: RunConfig) -> int:
    params = dist.validate(cfg.alpha * cfg.t, cfg.theta, cfg.lam)
    mu = dist.mean(params)
    var = dist.variance(params)
    record: dict[str, object] = {
        "mean": mu,
        "variance": var,
        "dispersion_ratio": var / mu,
        "burst_rate": dist.burst_rate(params.alpha, params.theta, params.lam),
        "validity": params.validity.value,
    }
    jump_probs: list[float] = []
    if params.validity is dist.Validity.STRICT:
        law = dist.decompose(params)
        jump_probs = [float(p) for p in law.jump_probs]
    if cfg.output_format == "json":
        record["jump_probs"] = jump_probs
        text = json.dumps(record, indent=2) + "\n"
    else:
        lines = ["quantity,value"]
        for key in ("mean", "variance", "dispersion_ratio", "burst_rate", "validity"):
            value = record[key]
            lines.append(f"{key},{value!r}" if isinstance(value, float) else f"{key},{value}")
        for k, p in enumerate(jump_probs, start=1):
            lines.append(f"jump_prob_{k},{p!r}")
        text = "\n".join(lines) + "\n"
    _emit(cfg, text)
    return 0


def _cmd_sample(cfg: RunConfig) -> int:
    if cfg.n_samples > SAMPLE_BUDGET:
        raise ParameterError(
            f"--n {cfg.n_samples} exceeds the sample budget of {SAMPLE_BUDGET} variates"
        )
    params = dist.validate(cfg.alpha, cfg.theta, cfg.lam)
    rng = RngStream(cfg.seed)
    if cfg.method == "compound":
        law = dist.decompose(params)  # rejects non-strict parameters
        draws = sample_compound(law, rng, cfg.n_samples)
    else:
        table = dist.build_pmf_table(params, cfg.tail_tol)
        draws = sample_inverse_cdf(table, rng, cfg.n_samples)
    emp_mean = float(draws.mean())
    emp_var = float(draws.var())
    if cfg.output_format == "json":
        text = (
            json.dumps(
                {
                    "seed": cfg.seed,
                    "method": cfg.method,
                    "samples": [int(v) for v in draws],
                    "empirical_mean": emp_mean,
                    "empirical_variance": emp_var,
                },
            )
            + "\n"
        )
    else:
        lines = ["value"]
        lines.extend(str(int(v)) for v in draws)
        lines.append(f"# empirical_mean={emp_mean!r}")
        lines.append(f"# empirical_variance={emp_var!r}")
        text = "\n".join(lines) + "\n"
    _emit(cfg, text)
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    params = dist.validate(cfg.alpha, cfg.theta, cfg.lam)
    paths = proc.simulate_paths(params, cfg.horizon, cfg.n_paths, RngStream(cfg.seed))
    hist = None
    if cfg.marginal is not None:
        hist = np.bincount(paths.counts_at([cfg.marginal])[:, 0]).tolist()
    times, sizes = paths.times.tolist(), paths.sizes.tolist()
    if cfg.output_format == "json":
        bounds = paths.offsets.tolist()
        head = {
            "alpha": params.alpha,
            "theta": params.theta,
            "lambda": params.lam,
            "horizon": cfg.horizon,
        }
        payload: dict[str, object] = {
            "seed": cfg.seed,
            "paths": [
                {**head, "times": times[a:b], "sizes": sizes[a:b]}
                for a, b in zip(bounds, bounds[1:])
            ],
        }
        if hist is not None:
            payload["marginal"] = {
                "t": cfg.marginal,
                "histogram": {str(k): c for k, c in enumerate(hist) if c},
            }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = zip(times, sizes, paths.cumulative.tolist())
        if cfg.n_paths == 1:
            lines = ["time,size,cumulative_count"]
            lines.extend(f"{t!r},{s},{c}" for t, s, c in rows)
        else:
            lines = ["path,time,size,cumulative_count"]
            lines.extend(
                f"{i},{t!r},{s},{c}" for i, (t, s, c) in zip(paths.owners.tolist(), rows)
            )
        if hist is not None:
            lines.append("")
            lines.append("k,count")
            lines.extend(f"{k},{c}" for k, c in enumerate(hist) if c)
        text = "\n".join(lines) + "\n"
    _emit(cfg, text)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    report = run_verification(seed=cfg.seed, perturb=cfg.perturb)
    text = report.to_json() + "\n" if cfg.output_format == "json" else report.to_csv()
    _emit(cfg, text)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status} {check.name}: {check.statistic:.6g} {check.comparison} "
            f"{check.threshold:g}",
            file=sys.stderr,
        )
    return 0 if report.overall else 1


_COMMANDS = {
    "table": _cmd_table,
    "moments": _cmd_moments,
    "sample": _cmd_sample,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _make_config(parser, args)
    try:
        return _COMMANDS[cfg.command](cfg)
    except BellprocError as exc:
        print(f"bellproc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
