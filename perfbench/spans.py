"""In-process spans around the calls into each llrgraph layer.

A span is recorded at the module attribute the caller looks up: the CLI calls
``llrgraph.cli.sweep_run``, the sweep calls ``llrgraph.runs.llr_graph_family``,
the spectral embedding calls ``llrgraph.spectral.sym_eig``, and so on. Wrapping
there leaves the program's own code untouched. A layer's self time is its span
time minus the time of the spans it encloses.
"""

from __future__ import annotations

import importlib
import os
import time
import tracemalloc
from collections import defaultdict
from typing import Any, Callable


def _rows(x, *args, **kwargs) -> int:
    return int(x.shape[0])


def _restarts(points, config, *args, **kwargs) -> int:
    return int(config.restarts)


def _file_bytes(path, *args, **kwargs) -> int:
    return os.path.getsize(path)


#: (module, attribute, time metric, count metric, count from the call arguments)
WRAPS: list[tuple[str, str, str, str | None, Callable[..., int] | None]] = [
    ("llrgraph.cli", "sweep_run", "runs.self_s", None, None),
    ("llrgraph.cli", "classify_run", "runs.self_s", None, None),
    ("llrgraph.cli", "cluster_graph", "runs.self_s", None, None),
    ("llrgraph.cli", "evaluate_clustering", "runs.self_s", None, None),
    ("llrgraph.runs", "cluster_graph", "runs.self_s", None, None),
    ("llrgraph.runs", "evaluate_clustering", "runs.self_s", None, None),
    ("llrgraph.cli", "load_csv", "data.load_csv_s", None, None),
    ("llrgraph.cli", "pca_fit", "data.pca_s", None, None),
    ("llrgraph.cli", "pca_transform", "data.pca_s", None, None),
    ("llrgraph.runs", "pca_fit", "data.pca_s", None, None),
    ("llrgraph.runs", "pca_transform", "data.pca_s", None, None),
    ("llrgraph.runs", "llr_graph_family", "llr.coefficients_s", "llr.points_solved", _rows),
    ("llrgraph.runs", "build_llr_coefficients", "llr.coefficients_s", "llr.points_solved", _rows),
    ("llrgraph.llr", "build_llr_coefficients", "llr.coefficients_s", "llr.points_solved", _rows),
    ("llrgraph.cli", "build_llr_graph", "llr.coefficients_s", None, None),
    ("llrgraph.baselines", "build_llr_graph", "llr.coefficients_s", None, None),
    ("llrgraph.runs", "sparsify", "llr.sparsify_s", None, None),
    ("llrgraph.llr", "sparsify", "llr.sparsify_s", None, None),
    ("llrgraph.runs", "symmetrize", "llr.symmetrize_s", None, None),
    ("llrgraph.llr", "symmetrize", "llr.symmetrize_s", None, None),
    ("llrgraph.embedding", "symmetrize", "llr.symmetrize_s", None, None),
    ("llrgraph.cli", "heat_kernel_graph", "baselines.heat_s", None, None),
    ("llrgraph.runs", "heat_kernel_graph", "baselines.heat_s", None, None),
    ("llrgraph.runs", "spectral_cluster", "spectral.embedding_s", None, None),
    ("llrgraph.spectral", "normalized_laplacian_embedding", "spectral.embedding_s", None, None),
    ("llrgraph.spectral", "sym_eig", "spectral.eigensolve_s", "spectral.eigensolve_rows", _rows),
    ("llrgraph.spectral", "kmeans", "spectral.kmeans_s", "spectral.kmeans_restarts", _restarts),
    ("llrgraph.runs", "npe_from_graph", "embedding.npe_s", None, None),
    ("llrgraph.runs", "lpp_embed", "embedding.lpp_s", None, None),
    ("llrgraph.embedding", "generalized_sym_eig", "embedding.geneig_s", None, None),
    ("llrgraph.runs", "nn_classify", "embedding.nn_classify_s", None, None),
    ("llrgraph.runs", "clustering_accuracy", "metrics.busy_s", None, None),
    ("llrgraph.runs", "nmi", "metrics.busy_s", None, None),
    ("llrgraph.runs", "intra_class_edge_mass", "metrics.busy_s", None, None),
    ("llrgraph.cli", "intra_class_edge_mass", "metrics.busy_s", None, None),
    ("llrgraph.cli", "read_graph", "graphio.read_s", "graphio.bytes_read", _file_bytes),
    ("llrgraph.cli", "read_labels", "graphio.read_s", "graphio.bytes_read", _file_bytes),
    ("llrgraph.cli", "write_graph", "graphio.write_s", None, None),
    ("llrgraph.cli", "write_labels", "graphio.write_s", None, None),
]

#: Layers whose peak allocation is recorded in a memory pass.
PEAK_LAYERS = ("llr", "spectral", "embedding")

TIME_METRICS = ["cli.self_s"] + sorted({w[2] for w in WRAPS} - {"cli.self_s"})
COUNT_METRICS = sorted({w[3] for w in WRAPS if w[3]})
COUNT_UNITS = {"graphio.bytes_read": "bytes"}
PEAK_METRICS = [f"{layer}.peak_alloc_mb" for layer in PEAK_LAYERS]


class Tracer:
    """Records spans, counts and (with ``memory``) per-layer peak allocation.

    Spans are kept in memory as (metric, start, end, parent index). With
    ``memory`` set, tracemalloc runs for the life of the tracer, which slows
    the program, so timings from a memory tracer are not reported.
    """

    def __init__(self, memory: bool = False, capture: tuple[str, ...] = ()):
        self.memory = memory
        self.capture = capture
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, float] = defaultdict(float)
        self.captured: dict[str, tuple[tuple, dict, Any]] = {}
        self._stack: list[int] = []
        self._peak_depth = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, metric, count_metric, count in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, metric, count_metric, count, f"{module_name}.{attr}"))
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.memory:
            tracemalloc.stop()
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def call(self, metric: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span named metric."""
        index = len(self.spans)
        self.spans.append((metric, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        peak_base = self._enter_peak(metric)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit_peak(metric, peak_base)
            self._stack.pop()
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def _wrap(self, original, metric, count_metric, count, qualname):
        def wrapper(*args, **kwargs):
            if count_metric:
                self.counts[count_metric] += count(*args, **kwargs)
            result = self.call(metric, original, *args, **kwargs)
            if qualname in self.capture and qualname not in self.captured:
                self.captured[qualname] = (args, kwargs, result)
            return result

        return wrapper

    def _enter_peak(self, metric: str) -> int | None:
        # Only the outermost span of a peak layer measures; a nested reset
        # would erase the enclosing span's peak.
        if not self.memory or metric.split(".")[0] not in PEAK_LAYERS:
            return None
        self._peak_depth += 1
        if self._peak_depth > 1:
            return None
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    def _exit_peak(self, metric: str, base: int | None) -> None:
        if not self.memory or metric.split(".")[0] not in PEAK_LAYERS:
            return
        self._peak_depth -= 1
        if base is not None:
            layer = metric.split(".")[0]
            peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            self.peaks[f"{layer}.peak_alloc_mb"] = max(self.peaks[f"{layer}.peak_alloc_mb"], peak_mb)

    def self_times(self) -> dict[str, float]:
        """Seconds per metric: each span's duration minus that of its direct children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for (metric, start, end, _), inner in zip(self.spans, child_time):
            out[metric] += end - start - inner
        return out
