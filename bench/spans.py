"""Span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each bellproc layer from the
outside: it rebinds each function's name in every loaded ``bellproc``
module that holds it, so calls between modules and calls inside a
module both go through the wrapper.  No file of the package is edited.
Each call becomes one span (name, layer, start, end, parent, op id, a
size, failed) kept in flat in-memory columns; the per-layer metrics are
derived from those columns when the run ends.

The scalar kernels ``falling_factorial`` and ``degenerate_exp`` stay
unwrapped, so their time counts in the self time of whoever calls them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

ENTRY_POINTS = {
    "special": ("build_stirling_table", "build_log_stirling_table", "bell_poly", "bell_poly_dobinski"),
    "distribution": (
        "validate",
        "build_pmf_table",
        "log_pmf",
        "pmf",
        "cdf",
        "quantile",
        "decompose",
        "convolve",
    ),
    "sampling": ("sample_poisson", "sample_jump", "sample_inverse_cdf", "sample_compound"),
    "process": ("simulate_paths", "simulate_path", "count_at", "superpose", "laplace_functional"),
    "verify": ("run_verification",),
    "cli": ("main",),
}
LAYERS = tuple(ENTRY_POINTS)
NAMES = tuple(f"{layer}.{fn}" for layer, fns in ENTRY_POINTS.items() for fn in fns)


def _triangle_cells(args, kwargs, result):
    max_n = args[1] if len(args) > 1 else kwargs["max_n"]
    return (max_n + 1) ** 2


def variates_in(result) -> int:
    """Variates a sampler returned: a scalar or an array of them."""
    return 1 if np.ndim(result) == 0 else len(result)


def _variates(args, kwargs, result):
    return variates_in(result)


# What the ``size`` column of a span holds, per entry point.
SIZERS = {
    "special.build_stirling_table": _triangle_cells,
    "special.build_log_stirling_table": _triangle_cells,
    "distribution.build_pmf_table": lambda a, k, r: len(r.probs),
    "sampling.sample_poisson": _variates,
    "sampling.sample_jump": _variates,
    "sampling.sample_inverse_cdf": _variates,
    "sampling.sample_compound": _variates,
    "process.simulate_path": lambda a, k, r: len(r.times),
    "verify.run_verification": lambda a, k, r: sum(not c.passed for c in r.checks),
}


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every ``bellproc`` module attribute bound to ``original`` at
    ``replacement``; return the undo list for :func:`restore`."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "bellproc" or mod_name.startswith("bellproc.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.failed = array("b")
        self.op_id = -1  # -1 marks set-up, outside any op
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording --

    def _wrap(self, name_id: int, func, sizer):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            i = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            tracer.size.append(0.0)
            tracer.failed.append(0)
            tracer._stack.append(i)
            tracer.start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.end[i] = perf_counter()
                tracer._stack.pop()
                tracer.failed[i] = 1
                raise
            tracer.end[i] = perf_counter()
            tracer._stack.pop()
            if sizer is not None:
                tracer.size[i] = sizer(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"bellproc.{layer}")
        for name_id, full in enumerate(NAMES):
            layer, fn = full.split(".")
            original = getattr(sys.modules[f"bellproc.{layer}"], fn)
            wrapper = self._wrap(name_id, original, SIZERS.get(full))
            self._undo.extend(rebind(original, wrapper))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- persistence: spans of a child process are merged into the parent's --

    def columns(self) -> dict[str, np.ndarray]:
        # Copies: a live buffer view would stop the arrays from growing.
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "size": np.array(self.size, dtype=np.float64),
            "failed": np.array(self.failed, dtype=np.int8),
        }

    def dump(self, path) -> None:
        np.savez(path, names=np.array(NAMES), **self.columns())

    def merge(self, path, op_id: int) -> None:
        with np.load(path) as data:
            if tuple(data["names"]) != NAMES:
                raise ValueError(f"span file {path} was written with other entry points")
            parent = data["parent"]
            parent = np.where(parent >= 0, parent + len(self), -1)
            self.name.frombytes(data["name"].astype(np.int32).tobytes())
            self.parent.frombytes(parent.astype(np.int64).tobytes())
            self.op.frombytes(np.full(len(parent), op_id, dtype=np.int64).tobytes())
            for column in ("start", "end", "size"):
                getattr(self, column).frombytes(data[column].astype(np.float64).tobytes())
            self.failed.frombytes(data["failed"].astype(np.int8).tobytes())

    # -- derived metrics --

    def layer_metrics(self, op_wall_s: float) -> dict[str, float]:
        """Per-layer metrics from the spans (set-up spans included, except
        in ``trace.coverage``, which is over op time only)."""
        c = self.columns()
        name, parent = c["name"], c["parent"]
        dur = c["end"] - c["start"]
        size, failed = c["size"], c["failed"].astype(bool)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        layer_ids = np.array([LAYERS.index(n.split(".")[0]) for n in NAMES])
        layer = layer_ids[name]
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        parent_layer = np.where(has_parent, layer_ids[np.maximum(parent_name, 0)], -1)

        def is_(*fulls):
            return np.isin(name, [NAMES.index(f) for f in fulls])

        def parent_is(*fulls):
            return np.isin(parent_name, [NAMES.index(f) for f in fulls])

        def total(values, mask):
            return float(values[mask].sum())

        def per(numer, denom, scale):
            return numer / denom * scale if denom else 0.0

        out: dict[str, float] = {}
        for i, lay in enumerate(LAYERS):
            out[f"{lay}.self_s"] = total(self_time, layer == i)

        triangles = is_("special.build_stirling_table", "special.build_log_stirling_table")
        out["special.triangle_builds"] = float(triangles.sum())
        out["special.triangle_cells"] = total(size, triangles)
        out["special.bell_poly_calls"] = float(is_("special.bell_poly", "special.bell_poly_dobinski").sum())

        builds = is_("distribution.build_pmf_table")
        out["distribution.tables_built"] = float((builds & ~failed).sum())
        out["distribution.table_rows"] = total(size, builds)
        out["distribution.validate_s"] = total(dur, is_("distribution.validate"))
        lookups = ("distribution.pmf", "distribution.cdf", "distribution.quantile")
        out["distribution.lookup_s"] = total(dur, is_(*lookups) & ~parent_is(*lookups))
        dist_id = LAYERS.index("distribution")
        out["distribution.failed_calls"] = float(
            ((layer == dist_id) & failed & (parent_layer != dist_id)).sum()
        )

        for route, fn in (("inverse_cdf", "sample_inverse_cdf"), ("compound", "sample_compound")):
            mask = is_(f"sampling.{fn}")
            out[f"sampling.variates.{route}"] = total(size, mask)
            out[f"sampling.ns_per_variate.{route}"] = per(total(dur, mask), total(size, mask), 1e9)
        out["sampling.variates.jump"] = total(size, is_("sampling.sample_jump"))

        paths = is_("process.simulate_path") & ~failed
        out["process.paths"] = float(paths.sum())
        out["process.events"] = total(size, paths)
        out["process.us_per_path"] = per(total(dur, paths), float(paths.sum()), 1e6)
        out["process.count_at_calls"] = float(is_("process.count_at").sum())
        out["process.superpose_calls"] = float(is_("process.superpose").sum())

        out["verify.checks_failed"] = total(size, is_("verify.run_verification"))
        in_ops = (c["op"] >= 0) & ~has_parent
        out["trace.coverage"] = per(total(dur, in_ops), op_wall_s, 1.0)
        return out
