"""The benchmark's workloads: inputs, ops and per-op correctness gates.

Each workload draws its inputs from the workload seed alone and hands the
library only those generated inputs.  Ops come in rounds.  A round is a
stratified batch whose mix (parameter cells, batch-size decades, command
kinds) is the same in every round; only the draws inside each stratum
change.  The op cost of this library spans three orders of magnitude
across the parameter space, so a run of whole rounds keeps the measured
mix, and with it every throughput, steady from seed to seed.

An op is split into ``execute`` (timed; an exception is returned, not
raised) and ``check`` (untimed), which grades the result:

* ``ok``: the output passed every gate;
* ``rejected``: a correct refusal, a ``BellprocError`` for a triple in
  the asymptotic regime, where the library may refuse;
* ``failed``: an exception (or CLI error) where none is allowed;
* ``wrong``: an output that contradicts a gate, i.e. a wrong answer.

``ok`` and ``rejected`` ops are successful; nothing is filtered out.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import rebind, restore, variates_in

OK, REJECTED, FAILED, WRONG = "ok", "rejected", "failed", "wrong"
SUCCESS = (OK, REJECTED)
SKIP = object()  # an op whose input does not exist in this run (lookup of a failed build)

DEFAULT_TAIL_TOL = 1e-12
MEAN_RTOL = 1e-9
VARIANCE_RTOL = 1e-8
Z_LIMIT = 6.0  # loose two-sided z-test on a sample mean
Z_MIN_N = 10_000


@dataclass(frozen=True)
class Triple:
    alpha: float
    theta: float
    lam: float
    strict: bool  # lam = 1/m by construction

    def argv(self) -> list[str]:
        return ["--alpha", repr(self.alpha), "--theta", repr(self.theta), "--lambda", repr(self.lam)]


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


@dataclass(frozen=True)
class Outcome:
    status: str
    variates: int = 0
    detail: str = ""


# ----------------------------------------------------------------------
# Closed forms, written out here so the gates do not trust the library.


def closed_mean(t: Triple) -> float:
    return t.theta * t.alpha * (1.0 + t.lam * t.theta) ** ((1.0 - t.lam) / t.lam)


def closed_variance(t: Triple) -> float:
    base = 1.0 + t.lam * t.theta
    return t.theta * t.alpha * (1.0 + t.theta * (1.0 - t.lam) / base) * base ** ((1.0 - t.lam) / t.lam)


def closed_burst_rate(t: Triple) -> float:
    return t.alpha * ((1.0 + t.lam * t.theta) ** (1.0 / t.lam) - 1.0)


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def table_gate(probs, tail_mass: float, triple: Triple) -> str | None:
    """Why a PMF table is wrong, or None when it passes."""
    probs = np.asarray(probs, dtype=float)
    if len(probs) == 0 or probs.min() < 0.0:
        return "negative or missing mass"
    if not 0.0 <= tail_mass <= DEFAULT_TAIL_TOL:
        return f"tail mass {tail_mass!r} outside [0, tail_tol]"
    total = math.fsum(probs) + tail_mass
    if abs(total - 1.0) > DEFAULT_TAIL_TOL:
        return f"mass plus tail is {total!r}"
    k = np.arange(len(probs))
    mean = float(np.dot(k, probs))
    variance = float(np.dot((k - mean) ** 2, probs))
    if not _close(mean, closed_mean(triple), MEAN_RTOL):
        return f"table mean {mean!r} vs closed form {closed_mean(triple)!r}"
    if not _close(variance, closed_variance(triple), VARIANCE_RTOL):
        return f"table variance {variance!r} vs closed form {closed_variance(triple)!r}"
    return None


def draws_gate(values, n: int, triple: Triple, top: int | None) -> str | None:
    """Why a batch of count-law variates is wrong, or None."""
    values = np.asarray(values)
    if values.shape != (n,) or not np.issubdtype(values.dtype, np.integer):
        return f"batch of shape {values.shape} and dtype {values.dtype}, wanted {n} integers"
    if values.min() < 0 or (top is not None and values.max() > top):
        return "value outside the support"
    if n >= Z_MIN_N:
        z = abs(float(values.mean()) - closed_mean(triple)) / math.sqrt(closed_variance(triple) / n)
        if z > Z_LIMIT:
            return f"sample mean off by z={z:.2f}"
    return None


def grade_exception(exc: BaseException, triple: Triple | None, bellproc_error: type) -> Outcome:
    """Strict triples may raise nothing; asymptotic ones may raise a
    BellprocError (a correct rejection) but no bare error."""
    detail = f"{type(exc).__name__}: {exc}"[:300]
    if triple is not None and not triple.strict and isinstance(exc, bellproc_error):
        return Outcome(REJECTED, detail=detail)
    return Outcome(FAILED, detail=detail)


# ----------------------------------------------------------------------
# Parameter cells shared by ``tables`` and ``cli``.

M_EDGES = (1, 4, 16, 64, 257)  # strict lam = 1/m, m log-uniform in each stratum, 1..256
ASYMPTOTIC_EDGES = ((0.05, 0.5), (0.5, 0.95))  # non-reciprocal lam
ALPHA_LOW, ALPHA_DECADES = 0.05, 4  # alpha log-uniform on [0.05, 500]
THETAS = (0.5, 1.0, 2.0)

CELLS = [(True, s, d, th) for s in range(len(M_EDGES) - 1) for d in range(ALPHA_DECADES) for th in THETAS] + [
    (False, s, d, th) for s in range(len(ASYMPTOTIC_EDGES)) for d in range(ALPHA_DECADES) for th in THETAS
]


def triple_in_cell(cell, u_alpha: float, u_lam: float) -> Triple:
    """The triple at relative position (u_alpha, u_lam) in [0, 1)^2 of a cell."""
    strict, stratum, decade, theta = cell
    u_alpha, u_lam = float(u_alpha), float(u_lam)
    alpha = ALPHA_LOW * 10.0 ** (decade + u_alpha)
    if strict:
        lo, hi = M_EDGES[stratum], M_EDGES[stratum + 1]
        m = int(math.exp(math.log(lo) + u_lam * math.log(hi / lo)))
        return Triple(alpha, theta, 1.0 / m, True)
    lo, hi = ASYMPTOTIC_EDGES[stratum]
    return Triple(alpha, theta, lo + (hi - lo) * u_lam, False)


def _fixed_triples() -> list[Triple]:
    """One point in each cell, the cells in a shuffled order; the same
    list in every run."""
    draw = np.random.default_rng(0)
    return [triple_in_cell(CELLS[c], *draw.random(2)) for c in draw.permutation(len(CELLS))]


FIXED_TRIPLES = _fixed_triples()


# Steps of a Kronecker sequence, one per coordinate: round r of a run puts
# its point at frac(shift + r * step), with a random shift from the seed,
# so the points of any number of rounds spread evenly over their range.
KRONECKER_STEPS = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0]) % 1.0


def kronecker(shifts: np.ndarray, r: int) -> np.ndarray:
    return (shifts + r * KRONECKER_STEPS[: shifts.shape[-1]]) % 1.0


def child_env(root: Path) -> dict[str, str]:
    """Environment of a child interpreter: the library from ``root/src``,
    and no ``BELLPROC_SEED`` to override a command's seed."""
    env = {k: v for k, v in os.environ.items() if k not in ("BELLPROC_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


@dataclass(frozen=True)
class Child:
    returncode: int
    stderr: str
    peak_rss_kib: int
    timed_out: bool


def run_child(cmd: list[str], cwd: Path, env: dict, timeout: float, stderr_path: Path) -> Child:
    """Run a process to completion and collect its own resource usage
    (``os.wait4``), which ``subprocess.run`` does not expose."""
    killed = threading.Event()
    with open(stderr_path, "w+b") as err:
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(timeout, lambda: (killed.set(), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    return Child(proc.returncode, text, usage.ru_maxrss, killed.is_set())


# ----------------------------------------------------------------------


class Workload:
    name = ""
    modules: tuple[str, ...] = ("bellproc",)
    nominal_round_s = 1.0  # length of one round at the seed commit; sizes runs
    # Fixed per workload, so that op_tail_ms means the same percentile on
    # every commit; the highest the workload reaches at the seed commit.
    tail_percentile = 50.0

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = Path(root)
        self.rng = np.random.default_rng(seed)
        self.tracer = None
        self.output_bytes = 0

    def setup(self) -> None:
        for module in self.modules:
            importlib.import_module(module)
        self.bp = sys.modules["bellproc"]
        expected = self.root / "src" / "bellproc"
        if Path(self.bp.__file__).resolve().parent != expected.resolve():
            raise RuntimeError(f"imported bellproc from {self.bp.__file__}, not from {expected}")

    def rounds(self):
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, raw) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    def notes(self) -> dict:
        """Workload facts for the record printed before the result."""
        return {}


class VerifyWorkload(Workload):
    """One op is one full ``run_verification(seed)``, the product's own
    end-to-end run; almost all of it is path simulation."""

    name = "verify"
    modules = ("bellproc", "bellproc.verify")
    nominal_round_s = 11.0

    EXPECTED_CHECKS = frozenset(
        "kernel.triangle_identity kernel.dobinski_agreement kernel.binomial_identity "
        "kernel.order_one_collapse dist.normalization dist.pgf_series dist.mean dist.variance "
        "dist.mgf_is_pgf_at_exp dist.mgf_derivative_vs_mean dist.compound_identity "
        "dist.poisson_collapse dist.classical_limit dist.convolution "
        "dist.linearization_ratio_min dist.linearization_ratio_max dist.mixed_theta_rejected "
        "sampler.agreement_chisq_min_p sampler.moment_recovery_mean_z "
        "sampler.moment_recovery_var_z sampler.determinism process.marginal_chisq_min_p "
        "process.stationarity_chisq_p process.disjoint_increment_corr process.laplace_max_z "
        "process.superposition_chisq_p process.mixed_theta_rejected "
        "process.order_one_unit_jumps process.order_one_gap_ks_p".split()
    )
    # Checks on random samples.  At the battery's own levels they raise a
    # false alarm for about one seed in 28 (the 24-way minimum p-value
    # alone, 1 - 0.999**24 = 2.4%), which would make success a coin toss
    # at the workload's random seeds.  The gate grades their statistics
    # at levels with a false-alarm rate near 1e-5 per op instead, and
    # counts the battery's own verdict in ``battery_false``.
    STATISTICAL_LEVELS = {
        "sampler.agreement_chisq_min_p": 1e-6,
        "process.marginal_chisq_min_p": 1e-6,
        "process.stationarity_chisq_p": 1e-6,
        "process.superposition_chisq_p": 1e-6,
        "process.order_one_gap_ks_p": 1e-6,
        "sampler.moment_recovery_mean_z": 6.0,
        "sampler.moment_recovery_var_z": 6.0,
        "process.laplace_max_z": 6.0,
        "process.disjoint_increment_corr": 0.02,  # 6.3 sigma at 1e5 paths
    }

    def setup(self) -> None:
        super().setup()
        self.variates = 0
        self.battery_false = 0
        self._undo = []
        # draws_per_s counts count-law variates the battery draws; only the
        # two samplers of the law are wrapped, with a bare counter.
        sampling = sys.modules["bellproc.sampling"]
        for fn in ("sample_inverse_cdf", "sample_compound"):
            current = getattr(sampling, fn)
            self._undo += rebind(current, self._counting(current))

    def _counting(self, func):
        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            self.variates += variates_in(result)
            return result

        return counted

    def close(self) -> None:
        restore(self._undo)

    def notes(self) -> dict:
        return {"battery_overall_false": self.battery_false}

    def rounds(self):
        while True:
            yield [Op("verify", (int(self.rng.integers(2**32)),))]

    def execute(self, op: Op):
        self.variates = 0
        try:
            return self.bp.verify.run_verification(op.args[0])
        except Exception as exc:
            return exc

    def check(self, op: Op, raw) -> Outcome:
        if isinstance(raw, Exception):
            return grade_exception(raw, None, self.bp.BellprocError)
        names = {c.name for c in raw.checks}
        missing = self.EXPECTED_CHECKS - names
        if missing:
            return Outcome(WRONG, detail=f"missing checks {sorted(missing)}")
        if not raw.overall:
            self.battery_false += 1
        wrong = []
        for c in raw.checks:
            level = self.STATISTICAL_LEVELS.get(c.name)
            if level is None:
                good = c.passed
            else:
                good = c.statistic >= level if c.comparison == ">=" else c.statistic <= level
            if not good:
                wrong.append(f"{c.name}={c.statistic!r}")
        if wrong:
            return Outcome(WRONG, detail=f"checks failed: {wrong}")
        return Outcome(OK, variates=self.variates)


class TablesWorkload(Workload):
    """Table construction and lookups over the parameter space.

    A round builds one table per parameter cell (48 strict cells: four
    m strata by four alpha decades by three theta; 24 asymptotic cells:
    two lam strata by four decades by three theta), then, table by table
    in random order, looks up each table it built by pmf, cdf and
    quantile (32 stratified uniforms): cdf fills the library's table
    cache, quantile reads it.  ``special`` and ``distribution`` do all
    the work.

    Inside its cell, a triple and its lookup points follow Kronecker
    sequences over the rounds.  The triples start from a fixed point, so
    every seed builds the same tables: build cost climbs steeply with
    alpha inside a cell, and seed-drawn triples moved the median and
    the tail by 15-25% from seed to seed.  The seed draws the lookup
    points and the orders."""

    name = "tables"
    nominal_round_s = 3.5
    tail_percentile = 95.0
    LOOKUPS = ("pmf", "cdf", "quantile")
    # A quantile op draws this many inverse-CDF variates, at stratified
    # uniforms: one call takes about 10 us, too short to time alone.
    QUANTILES_PER_OP = 32

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.triples: list[Triple] = []
        self.tables: dict[int, object] = {}

    def rounds(self):
        triple_start = np.random.default_rng(0).random((len(CELLS), 2))
        shifts = np.hstack([triple_start, self.rng.random((len(CELLS), len(self.LOOKUPS)))])
        for r in itertools.count():
            u = kronecker(shifts, r)
            order = self.rng.permutation(len(CELLS))
            first = len(self.triples)
            self.triples.extend(triple_in_cell(CELLS[c], *u[c, :2]) for c in order)
            builds = [Op("build", (first + j,)) for j in range(len(order))]
            lookups = [
                Op(kind, (first + j, float(u[order[j], 2 + k])))
                for j in self.rng.permutation(len(order))
                for k, kind in enumerate(self.LOOKUPS)
            ]
            yield builds + lookups

    def _uniforms(self, u: float) -> list[float]:
        return [(j + u) / self.QUANTILES_PER_OP for j in range(self.QUANTILES_PER_OP)]

    def execute(self, op: Op):
        bp = self.bp
        try:
            if op.kind == "build":
                t = self.triples[op.args[0]]
                return bp.build_pmf_table(bp.validate(t.alpha, t.theta, t.lam))
            i, u = op.args
            table = self.tables.get(i)
            if table is None:
                return SKIP
            if op.kind == "quantile":
                return [bp.quantile(v, table.params) for v in self._uniforms(u)]
            k = int(u * len(table.probs))
            return bp.pmf(k, table.params) if op.kind == "pmf" else bp.cdf(k, table.params)
        except Exception as exc:
            return exc

    def check(self, op: Op, raw) -> Outcome:
        i = op.args[0]
        triple = self.triples[i]
        if isinstance(raw, Exception):
            # A lookup follows a successful build, so it may not raise.
            return grade_exception(raw, triple if op.kind == "build" else None, self.bp.BellprocError)
        if op.kind == "build":
            why = table_gate(raw.probs, raw.tail_mass, triple)
            if why:
                return Outcome(WRONG, detail=f"{triple}: {why}")
            self.tables[i] = raw
            return Outcome(OK)
        table, u = self.tables[i], op.args[1]
        if op.kind == "quantile":
            expected = np.searchsorted(table.cumulative, self._uniforms(u), side="right").tolist()
            good = raw == expected
            variates = len(raw)  # the quantile of a uniform is one inverse-CDF variate
        else:
            k = int(u * len(table.probs))
            expected = float(table.probs[k] if op.kind == "pmf" else table.cumulative[k])
            good = math.isclose(raw, expected, rel_tol=1e-12, abs_tol=1e-300)
            variates = 0
        if not good:
            return Outcome(WRONG, detail=f"{op.kind} on {triple}: {raw!r}, table says {expected!r}")
        return Outcome(OK, variates=variates)


class DrawsWorkload(Workload):
    """Variate batches from both routes on fixed strict laws.

    Tables and jump laws are built in set-up.  A round draws, for each
    law and route, one batch from each decade of sizes 1..1e6 (inside
    the decade by a Kronecker sequence over the rounds), so small batches
    show per-call overhead and large ones per-variate cost."""

    name = "draws"
    nominal_round_s = 0.28
    tail_percentile = 99.0
    TRIPLES = (
        Triple(2.0, 1.0, 0.25, True),
        Triple(1.0, 1.0, 0.5, True),
        Triple(0.5, 2.0, 1.0 / 16, True),
        Triple(1.5, 1.0, 1.0, True),
    )
    ROUTES = ("inverse_cdf", "compound")
    DECADES = 6

    def setup(self) -> None:
        super().setup()
        bp = self.bp
        self.laws = []
        for t in self.TRIPLES:
            params = bp.validate(t.alpha, t.theta, t.lam)
            self.laws.append((bp.build_pmf_table(params), bp.decompose(params)))
        self.stream = bp.RngStream(self.seed)

    def rounds(self):
        strata = [
            (i, route, d)
            for i in range(len(self.TRIPLES))
            for route in self.ROUTES
            for d in range(self.DECADES)
        ]
        shifts = self.rng.random((len(strata), 1))
        for r in itertools.count():
            u = kronecker(shifts, r)[:, 0]
            ops = [
                Op(route, (i, min(10**self.DECADES, int(10.0 ** (d + u[j])))))
                for j, (i, route, d) in enumerate(strata)
            ]
            yield [ops[j] for j in self.rng.permutation(len(ops))]

    def execute(self, op: Op):
        i, n = op.args
        table, law = self.laws[i]
        try:
            if op.kind == "inverse_cdf":
                return self.bp.sample_inverse_cdf(table, self.stream, n)
            return self.bp.sample_compound(law, self.stream, n)
        except Exception as exc:
            return exc

    def check(self, op: Op, raw) -> Outcome:
        i, n = op.args
        triple = self.TRIPLES[i]
        if isinstance(raw, Exception):
            return grade_exception(raw, triple, self.bp.BellprocError)
        top = self.laws[i][0].support_max if op.kind == "inverse_cdf" else None
        why = draws_gate(raw, n, triple, top)
        if why:
            return Outcome(WRONG, detail=f"{op.kind} n={n} on {triple}: {why}")
        return Outcome(OK, variates=n)


class CliWorkload(Workload):
    """One op is one ``python -m bellproc`` process, run to completion
    before the next.  A round runs ``table``, ``moments``, ``sample``
    (2e4 inverse-CDF values) and ``simulate`` (2e3 paths) once each,
    then repeats the latest successful seeded command and compares the
    bytes.  The only workload that pays cold import and output
    formatting.

    At about 1.5 s an op, a run holds only 15 ops, too few for random
    triples to give a steady mix: whether a command fails depends on
    where its triple lies.  So the triples are a fixed list drawn once
    from the ``tables`` cells (a fixed shuffle of the cells, a fixed
    point in each), the same in every run; the seed draws the
    ``--seed`` of each seeded command."""

    name = "cli"
    modules = ("bellproc", "bellproc.cli")
    nominal_round_s = 5.0
    KINDS = ("table", "moments", "sample", "simulate")
    TRIPLES = FIXED_TRIPLES
    SAMPLES, PATHS = 20_000, 2_000
    MAX_BURSTS = 100_000  # simulate: shorten the horizon past this many expected bursts
    TIMEOUT_S = 150

    def setup(self) -> None:
        super().setup()
        self.out_dir = self.root / ".bench_out" / f"cli-{os.getpid()}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.env = child_env(self.root)
        self.digests: dict[Op, str] = {}  # successful seeded commands, in order, for repeats
        self.n_ops = 0
        self.slot = 0
        self.child_peaks_kib: list[int] = []

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _command(self, kind: str, fmt: str) -> Op:
        rng = self.rng
        triple = self.TRIPLES[self.slot % len(self.TRIPLES)]
        self.slot += 1
        argv = [kind, *triple.argv(), "--format", fmt]
        size = 0
        if kind == "sample":
            size = self.SAMPLES
            argv += ["--n", str(size)]
        elif kind == "simulate":
            size = self.PATHS
            horizon = min(1.0, self.MAX_BURSTS / (closed_burst_rate(triple) * size))
            argv += ["--horizon", repr(horizon), "--paths", str(size), "--marginal", repr(horizon / 2)]
        if kind in ("sample", "simulate"):
            argv += ["--seed", str(int(rng.integers(2**32)))]
        return Op(kind, (triple, fmt, size, tuple(argv)))

    def rounds(self):
        for r in itertools.count():
            formats = ("csv", "json") if r % 2 == 0 else ("json", "csv")
            ops = [self._command(kind, formats[j % 2]) for j, kind in enumerate(self.KINDS)]
            yield ops + [Op("repeat", ())]

    def execute(self, op: Op):
        if op.kind == "repeat":
            if not self.digests:
                return SKIP
            op = next(reversed(self.digests))
        self.n_ops += 1
        out = self.out_dir / f"op{self.n_ops}.out"
        spans = self.out_dir / f"op{self.n_ops}.npz"
        argv = [*op.args[3], "--out", str(out)]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "bellproc", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans), *argv]
        return (op, run_child(cmd, self.root, self.env, self.TIMEOUT_S, self.out_dir / "stderr"), out, spans)

    def check(self, op: Op, raw) -> Outcome:
        command, child, out, spans = raw
        try:
            if self.tracer is not None and spans.exists():
                self.tracer.merge(spans, self.tracer.op_id)
            self.child_peaks_kib.append(child.peak_rss_kib)
            if child.timed_out:
                return Outcome(FAILED, detail=f"timed out: {' '.join(command.args[3])}")
            return self._grade(op, command, child, out)
        finally:
            out.unlink(missing_ok=True)
            spans.unlink(missing_ok=True)

    def peak_rss_mb(self) -> float:
        """Mean over ops of each CLI process's own peak.  The peaks are
        bimodal (small and large outputs), so a median would jump."""
        return float(np.mean(self.child_peaks_kib)) / 1024.0

    def _grade(self, op: Op, command: Op, child: Child, out: Path) -> Outcome:
        triple, fmt, size, argv = command.args
        if child.returncode != 0:
            detail = f"exit {child.returncode} for {' '.join(argv)}: {child.stderr.strip()[-300:]}"
            last = child.stderr.strip().splitlines()[-1:] or [""]
            refused = child.returncode == 2 and last[0].startswith("bellproc: error:")
            return Outcome(REJECTED if refused and not triple.strict else FAILED, detail=detail)
        data = out.read_bytes()
        self.output_bytes += len(data)
        digest = hashlib.sha256(data).hexdigest()
        if op.kind == "repeat":
            if digest != self.digests[command]:
                return Outcome(WRONG, detail=f"repeat gave other bytes: {' '.join(argv)}")
            return Outcome(OK)
        try:
            why = getattr(self, f"_gate_{command.kind}")(data.decode(), *command.args)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            why = f"unparseable output ({type(exc).__name__}: {exc})"
        if why:
            return Outcome(WRONG, detail=f"{' '.join(argv)}: {why}")
        if command.kind in ("sample", "simulate"):
            self.digests[command] = digest
        return Outcome(OK, variates=size if command.kind == "sample" else 0)

    @staticmethod
    def _gate_table(text: str, triple: Triple, fmt: str, size: int, argv: tuple) -> str | None:
        if fmt == "json":
            obj = json.loads(text)
            probs, tail = obj["probs"], obj["tail_mass"]
            if len(obj["cdf"]) != len(probs):
                return "cdf and pmf lengths differ"
        else:
            lines = text.splitlines()
            if lines[0] != "k,pmf,cdf" or not lines[-1].startswith("tail_mass,"):
                return "bad CSV framing"
            rows = [line.split(",") for line in lines[1:-1]]
            if [int(r[0]) for r in rows] != list(range(len(rows))):
                return "k column is not 0..K"
            probs, tail = [float(r[1]) for r in rows], float(lines[-1].split(",")[1])
        return table_gate(probs, tail, triple)

    @staticmethod
    def _gate_moments(text: str, triple: Triple, fmt: str, size: int, argv: tuple) -> str | None:
        if fmt == "json":
            rec = json.loads(text)
            jumps = rec["jump_probs"]
        else:
            pairs = [line.split(",", 1) for line in text.splitlines()[1:]]
            rec = {k: v for k, v in pairs}
            jumps = [float(v) for k, v in pairs if k.startswith("jump_prob_")]
        if not _close(float(rec["mean"]), closed_mean(triple), MEAN_RTOL):
            return f"mean {rec['mean']} vs closed form {closed_mean(triple)!r}"
        if not _close(float(rec["variance"]), closed_variance(triple), MEAN_RTOL):
            return f"variance {rec['variance']} vs closed form {closed_variance(triple)!r}"
        if rec["validity"] != ("strict" if triple.strict else "asymptotic"):
            return f"validity {rec['validity']}"
        if triple.strict and (len(jumps) != round(1 / triple.lam) or abs(math.fsum(jumps) - 1.0) > 1e-9):
            return "jump law does not have support 1..m and mass 1"
        return None

    @staticmethod
    def _gate_sample(text: str, triple: Triple, fmt: str, size: int, argv: tuple) -> str | None:
        if fmt == "json":
            values = json.loads(text)["samples"]
        else:
            lines = text.splitlines()
            if lines[0] != "value" or not lines[-1].startswith("# empirical_variance="):
                return "bad CSV framing"
            values = [int(v) for v in lines[1:-2]]
        return draws_gate(np.asarray(values, dtype=np.int64), size, triple, None)

    @staticmethod
    def _gate_simulate(text: str, triple: Triple, fmt: str, size: int, argv: tuple) -> str | None:
        if fmt == "json":
            obj = json.loads(text)
            if len(obj["paths"]) != size:
                return f"{len(obj['paths'])} paths, wanted {size}"
            paths = [(p["times"], p["sizes"]) for p in obj["paths"]]
            hist = obj["marginal"]["histogram"].values()
        else:
            head, _, tail = text.partition("\n\nk,count\n")
            lines = head.splitlines()
            rows = [line.split(",") for line in lines[1:]]
            if size == 1:
                paths = [([float(r[0]) for r in rows], [int(r[1]) for r in rows])]
            else:
                by_path: dict[int, tuple[list, list]] = {}
                for r in rows:
                    times, sizes = by_path.setdefault(int(r[0]), ([], []))
                    times.append(float(r[1]))
                    sizes.append(int(r[2]))
                if any(not 0 <= i < size for i in by_path):
                    return "path index out of range"
                paths = list(by_path.values())
            hist = [int(line.split(",")[1]) for line in tail.splitlines()]
        horizon = float(argv[argv.index("--horizon") + 1])
        if sum(int(c) for c in hist) != size:
            return "marginal histogram does not count every path"
        for times, sizes in paths:
            t = np.asarray(times, dtype=float)
            if len(t) and (t[0] <= 0.0 or (np.diff(t) <= 0).any() or t[-1] > horizon):
                return "burst times not increasing inside (0, horizon]"
            if len(sizes) and min(sizes) < 1:
                return "burst size below 1"
        return None


WORKLOADS = {w.name: w for w in (VerifyWorkload, TablesWorkload, DrawsWorkload, CliWorkload)}


def make(name: str, seed: int, root) -> Workload:
    return WORKLOADS[name](seed, Path(root))
