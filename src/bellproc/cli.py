"""Command-line front end.

Subcommands: ``table`` (PMF/CDF tabulation), ``moments`` (closed-form
summary plus the jump law), ``sample`` (variate stream), ``simulate``
(trajectories), ``verify`` (the full battery).  All output is
deterministic for a fixed seed; CSV for tabular data, JSON for
reports.  Exit codes: 0 success, 1 verification failure, 2 usage or
parameter error.  A usage error (an unparseable number, a missing flag,
a bad choice) prints argparse's usage text; a parameter error is one
``bellproc: error: ...`` line on stderr, raised by the library call
that owns the rule.  ``sample --n`` must lie in [1, SAMPLE_BUDGET], and
``--seed`` (or ``$BELLPROC_SEED``) must be non-negative.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

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
            help=f"non-negative seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})",
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


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output_path is None:
        sys.stdout.write(text)
    else:
        with open(args.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _law_at_t(args: argparse.Namespace) -> dist.DegenParams:
    """The marginal law at process time --t: rate parameter alpha * t."""
    if not (args.t > 0.0 and math.isfinite(args.t)):
        raise ParameterError(f"--t must be positive and finite, got {args.t}")
    return dist.validate(args.alpha * args.t, args.theta, args.lam)


def _cmd_table(args: argparse.Namespace) -> int:
    table = dist.build_pmf_table(_law_at_t(args), args.tail_tol)
    if args.output_format == "json":
        payload = {
            "alpha": table.params.alpha,
            "theta": table.params.theta,
            "lambda": table.params.lam,
            "validity": table.params.validity.value,
            "probs": table.probs.tolist(),
            "tail_mass": table.tail_mass,
            "cdf": table.cumulative.tolist(),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["k,pmf,cdf"]
        cum = table.cumulative
        for k, p in enumerate(table.probs):
            lines.append(f"{k},{float(p)!r},{float(cum[k])!r}")
        lines.append(f"tail_mass,{table.tail_mass!r},")
        text = "\n".join(lines) + "\n"
    _emit(args, text)
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    params = _law_at_t(args)
    record: dict[str, object] = {
        "mean": dist.mean(params),
        "variance": dist.variance(params),
        "dispersion_ratio": 1.0 + dist._excess_dispersion(params),
        "burst_rate": dist._rate_record(params)[1],
        "validity": params.validity.value,
    }
    jump_probs: list[float] = []
    if params.validity is dist.Validity.STRICT:
        law = dist.decompose(params)
        jump_probs = [float(p) for p in law.jump_probs]
    if args.output_format == "json":
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
    _emit(args, text)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if not 1 <= args.n_samples <= SAMPLE_BUDGET:
        raise ParameterError(
            f"--n must lie in [1, {SAMPLE_BUDGET}] (the sample budget), got {args.n_samples}"
        )
    params = dist.validate(args.alpha, args.theta, args.lam)
    rng = RngStream(args.seed)
    if args.method == "compound":
        dist._check_tail_tol(args.tail_tol)  # no table is built to check it
        law = dist.decompose(params)  # rejects non-strict parameters
        draws = sample_compound(law, rng, args.n_samples)
    else:
        table = dist.build_pmf_table(params, args.tail_tol)
        draws = sample_inverse_cdf(table, rng, args.n_samples)
    emp_mean = float(draws.mean())
    emp_var = float(draws.var())
    if args.output_format == "json":
        text = (
            json.dumps(
                {
                    "seed": args.seed,
                    "method": args.method,
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
    _emit(args, text)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = dist.validate(args.alpha, args.theta, args.lam)
    paths = proc.simulate_paths(params, args.horizon, args.n_paths, RngStream(args.seed))
    hist = None
    if args.marginal is not None:
        hist = np.bincount(paths.counts_at([args.marginal])[:, 0]).tolist()
    times, sizes = paths.times.tolist(), paths.sizes.tolist()
    if args.output_format == "json":
        bounds = paths.offsets.tolist()
        head = {
            "alpha": params.alpha,
            "theta": params.theta,
            "lambda": params.lam,
            "horizon": args.horizon,
        }
        payload: dict[str, object] = {
            "seed": args.seed,
            "paths": [
                {**head, "times": times[a:b], "sizes": sizes[a:b]}
                for a, b in zip(bounds, bounds[1:])
            ],
        }
        if hist is not None:
            payload["marginal"] = {
                "t": args.marginal,
                "histogram": {str(k): c for k, c in enumerate(hist) if c},
            }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = zip(times, sizes, paths.cumulative.tolist())
        if args.n_paths == 1:
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
    _emit(args, text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(seed=args.seed, perturb=args.perturb)
    if args.output_format == "json":
        record = {"overall": report.overall, "seed": report.seed, "wall_time": report.wall_time}
        record["checks"] = [dataclasses.asdict(c) for c in report.checks]
        text = json.dumps(record, indent=2) + "\n"
    else:
        lines = ["name,statistic,threshold,comparison,passed"]
        lines.extend(
            f"{c.name},{c.statistic!r},{c.threshold!r},{c.comparison},{c.passed}"
            for c in report.checks
        )
        lines.append(f"overall,,,,{report.overall}")
        text = "\n".join(lines) + "\n"
    _emit(args, text)
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
    if hasattr(args, "seed"):
        args.seed = _resolve_seed(parser, args.seed)
    if hasattr(args, "perturb"):
        try:
            args.perturb = {name: _float(factor) for name, factor in args.perturb}
        except argparse.ArgumentTypeError as exc:
            parser.error(f"--perturb FACTOR: {exc}")
    # Out-of-domain values are refused by the library calls that own each rule.
    try:
        return _COMMANDS[args.command](args)
    except BellprocError as exc:
        print(f"bellproc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
