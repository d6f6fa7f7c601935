"""Outside-in tracing of the library's public functions.

`Tracer` replaces each function in `TARGETS` by a timing wrapper on every
`mcftn_otfs` module that bound it (the sweep imports names with
`from .x import y`, so patching the defining module alone would miss its
calls) and restores the originals on exit. Each call becomes a span
`[name, parent, start, end]` held in memory; the parent is the innermost
traced call still open, so self time is a span's duration minus that of its
direct children. The library itself is not modified.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# layer (module) -> public functions wrapped; "Class.method" wraps a method
TARGETS = {
    "core": ("sfft_matrix", "rng_stream"),
    "pulse": ("build_gram", "GramMatrix.from_matrix", "ambiguity_table",
              "RrcPulse.ambiguity_batch"),
    "channel": ("sample_paths", "build_tf_channel", "build_dd_channel",
                "build_mimo_channel", "paths_digest"),
    "noise": ("make_noise_model", "draw_mimo_noise"),
    "precode_siso": ("build_effective_channel", "solve_siso", "waterfill"),
    "precode_mimo": ("build_mimo_effective", "sic_precode", "wf_baseline", "wf_structured"),
    "link": ("map_bits", "demap_symbols", "mmse_weights", "wilson_interval"),
    "montecarlo": ("run_sweep",),
}
# functions that make at least 100 calls in one sweep of some workload; only
# these get latency percentiles
PERCENTILE_TARGETS = ("pulse.ambiguity_table", "pulse.RrcPulse.ambiguity_batch",
                      "precode_siso.build_effective_channel", "precode_siso.solve_siso",
                      "precode_siso.waterfill")
ROOT_SPAN = "montecarlo.run_sweep"


def span_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in PERCENTILE_TARGETS:
            units[f"{name}.p50_ms"] = "ms"
            units[f"{name}.p90_ms"] = "ms"
    for mod in TARGETS:
        units[f"{mod}.share"] = "ratio"
    units["precode_siso.solve_siso.per_realization"] = "1/realization"
    units["pulse.ambiguity_batch.per_path_set"] = "1/path"
    units["core.sfft_matrix.per_realization"] = "1/realization"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Context manager that records a span for every call of a target."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        import mcftn_otfs  # noqa: F401  (loads every submodule)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "mcftn_otfs" or n.startswith("mcftn_otfs.")]
        for mod, fns in TARGETS.items():
            home = sys.modules[f"mcftn_otfs.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        self._set(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._set(cls, meth, self._wrap(name, raw))
                    continue
                original = getattr(home, fn)
                wrapped = self._wrap(name, original)
                for m in modules:
                    if m.__dict__.get(fn) is original:
                        self._set(m, fn, wrapped)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        return False


def layer_metrics(spans: list, n_sweeps: int, traced_s: float, realizations: int,
                  paths_per_set: int) -> dict:
    """Per-layer metrics from the spans of `n_sweeps` traced sweeps.

    `traced_s` is the wall time of those sweeps together and `realizations`
    the channel realizations one sweep draws. Counts and self times are per
    sweep; percentiles are of call durations (children included) over all
    spans.
    """
    names = span_names()
    child_s = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    durations = {name: [] for name in PERCENTILE_TARGETS}
    in_channel = [False] * len(spans)   # span sits below a channel.* call
    channel_batches = 0
    for i, (name, parent, t0, t1) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (t1 - t0) - child_s[i]
        if name in durations:
            durations[name].append(1e3 * (t1 - t0))
        if parent >= 0:
            in_channel[i] = in_channel[parent] or spans[parent][0].startswith("channel.")
        if name == "pulse.RrcPulse.ambiguity_batch" and in_channel[i]:
            channel_batches += 1

    out = {}
    for name in names:
        out[f"{name}.calls"] = calls[name] / n_sweeps
        out[f"{name}.self_s"] = self_s[name] / n_sweeps
        if name in durations:
            d = durations[name] or [0.0]
            out[f"{name}.p50_ms"] = statistics.median(d)
            out[f"{name}.p90_ms"] = statistics.quantiles(d, n=10)[-1] if len(d) > 1 else d[0]
    for mod, fns in TARGETS.items():
        out[f"{mod}.share"] = sum(self_s[f"{mod}.{fn}"] for fn in fns) / traced_s
    out["precode_siso.solve_siso.per_realization"] = (
        calls["precode_siso.solve_siso"] / (n_sweeps * realizations))
    paths = calls["channel.sample_paths"] * paths_per_set
    out["pulse.ambiguity_batch.per_path_set"] = channel_batches / paths if paths else 0.0
    # run_sweep builds one SFFT for its own use; the rest are rebuilt per realization
    rebuilt = calls["core.sfft_matrix"] - calls[ROOT_SPAN]
    out["core.sfft_matrix.per_realization"] = max(rebuilt, 0) / (n_sweeps * realizations)
    return out
