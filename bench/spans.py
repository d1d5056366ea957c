"""Span tracing from outside the program, and the per-layer metrics built
from the spans.

The tracer replaces public functions on the module attributes the program
calls through (for example ``dnastore.codebook.max_pairwise_intersection``,
which ``Codebook.max_intersection`` looks up at call time) with wrappers that
record one span per call: name, start, end, parent span and a few counts
taken from the arguments.  The ``dnastore`` package re-exports are left
alone.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from contextlib import contextmanager

# (module, attribute, span name); the cli command functions are looked up by
# build_parser() on every main() call, so wrapping the attribute takes effect
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "cmd_codebook", "cli.codebook"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "cmd_occupancy", "cli.occupancy"),
    ("cli", "cmd_exponent", "cli.exponent"),
    ("codebook", "greedy_index_codebook", "codebook.build"),
    ("codebook", "max_pairwise_intersection", "codebook.scan"),
    ("codebook", "save_codebook", "codebook.save"),
    ("codebook", "load_codebook", "codebook.load"),
    ("channel", "estimate_error_probability", "channel.estimate"),
    ("channel", "run_trial", "channel.run_trial"),
    ("balls_bins", "distinct_count_dp", "balls_bins.dp"),
    ("balls_bins", "p_via_identity", "balls_bins.identity"),
    ("balls_bins", "sample_distinct_count", "balls_bins.sample"),
    ("exponents", "exponent_multinomial", "exponents.exponent"),
)

# trials per sampling chunk in balls_bins.sample_distinct_count
SAMPLE_CHUNK = 1 << 14


def estimate_chunk(J: int) -> int:
    """Trials per kernel chunk, the rule of channel._chunk_size."""
    return max(256, min(1 << 14, (1 << 22) // max(J, 1)))


# spans that record counts read from the call's arguments
_COUNTED = ("codebook.scan", "channel.estimate", "balls_bins.dp", "balls_bins.sample")


def _attrs(name, args) -> dict:
    """Counts recorded with a span, read from the call's arguments (in the
    order the function declares them, however they were passed)."""
    if name == "codebook.scan":
        cb = args[0]
        J = len(cb.codewords)
        return {"cells": J * (J - 1) // 2 * cb.scaling.inner_size}
    if name == "channel.estimate":
        cb, model, dec, trials = args[:4]
        J, inner = len(cb.codewords), cb.scaling.inner_size
        return {
            "trials": trials,
            "model": model.kind,
            "decoder": dec.rule,
            "gemm_flops": 2 * trials * inner * J,
            "support_bytes": J * inner * 8,
            "chunk_bytes": estimate_chunk(J) * (inner + 1) * 8,
        }
    if name == "balls_bins.dp":
        M, N = args[:2]
        return {"cells": N * min(N, M)}
    if name == "balls_bins.sample":
        M, N, trials = args[:3]
        size = min(SAMPLE_CHUNK, trials)
        # draws and flat index (int64, size x N), bincount (int64) and
        # occupancy (bool), size x M
        return {"trials": trials, "chunk_bytes": size * (16 * N + 9 * M)}
    return {}


class Tracer:
    """Records spans of wrapped library calls inside named root spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self, package) -> None:
        for module_name, attr, name in TRACED:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _open(self, name: str, attrs: dict) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        bind = inspect.signature(fn).bind if name in _COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = _attrs(name, bind(*args, **kwargs).args) if bind else {}
            span = self._open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    @contextmanager
    def root(self, name: str):
        span = self._open(name, {})
        try:
            yield span
        finally:
            self._close(span)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover (calls run one
    at a time, so children never overlap)."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], root_id: int) -> dict[str, float]:
    """Per-layer totals over the descendants of one root span."""
    by_id = {s["id"]: s for s in spans}
    inside = []
    for s in spans:
        p = s["parent"]
        while p is not None and p != root_id:
            p = by_id[p]["parent"]
        if p == root_id:
            inside.append(s)
    own = _self_times(spans)
    m: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    root = by_id[root_id]
    m["trace.round_s"] = root["end"] - root["start"]
    m["trace.spans"] = len(inside)
    for s in inside:
        name, dur, a = s["name"], s["end"] - s["start"], s["attrs"]
        layer = name.split(".")[0]
        if layer == "cli":
            m["cli.self_s"] += own[s["id"]]
            if name != "cli.main":
                m[f"{name}_s"] += dur
        elif name == "codebook.build":
            m["codebook.build_s"] += dur
        elif name == "codebook.scan":
            m["codebook.scan_s"] += dur
            m["codebook.scan_calls"] += 1
            m["codebook.scan_cells"] += a["cells"]
        elif name in ("codebook.save", "codebook.load"):
            m["codebook.io_s"] += dur
            m["codebook.load_calls"] += name == "codebook.load"
        elif name == "channel.estimate":
            m["channel.estimate_s"] += dur
            m["channel.kernel_s"] += own[s["id"]]
            m["channel.trials"] += a["trials"]
            m[f"channel.decoder.{a['decoder']}_s"] += dur
            m[f"channel.model.{a['model']}_s"] += dur
            m["channel.gemm_flops"] += a["gemm_flops"]
            m["channel.support_bytes"] = max(m["channel.support_bytes"], a["support_bytes"])
            m["channel.chunk_bytes"] = max(m["channel.chunk_bytes"], a["chunk_bytes"])
        elif name == "channel.run_trial":
            m["channel.run_trial_s"] += dur
            m["channel.run_trial_calls"] += 1
        elif name == "balls_bins.dp":
            m["balls_bins.dp_s"] += dur
            m["balls_bins.dp_calls"] += 1
            m["balls_bins.dp_cells"] += a["cells"]
        elif name == "balls_bins.identity":
            m["balls_bins.identity_s"] += dur
        elif name == "balls_bins.sample":
            m["balls_bins.sample_s"] += dur
            m["balls_bins.sample_trials"] += a["trials"]
            m["balls_bins.sample_chunk_bytes"] = max(
                m["balls_bins.sample_chunk_bytes"], a["chunk_bytes"]
            )
        elif name == "exponents.exponent":
            m["exponents.exponent_s"] += dur
            m["exponents.calls"] += 1
    return m


def combine(setups: list[dict], rounds: list[dict]) -> dict[str, float]:
    """Per-layer values for one set-up plus one round: the median set-up
    value plus the median round value of every metric."""
    return {
        name: statistics.median(s[name] for s in setups)
        + statistics.median(r[name] for r in rounds)
        for name in PER_LAYER
    }


# per-layer metric -> (unit, better); BENCHMARK.json lists the same
PER_LAYER: dict[str, tuple[str, str]] = {
    "cli.codebook_s": ("s", "lower"),
    "cli.simulate_s": ("s", "lower"),
    "cli.sweep_s": ("s", "lower"),
    "cli.occupancy_s": ("s", "lower"),
    "cli.exponent_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "codebook.build_s": ("s", "lower"),
    "codebook.scan_s": ("s", "lower"),
    "codebook.scan_calls": ("count", "lower"),
    "codebook.scan_cells": ("count", "lower"),
    "codebook.io_s": ("s", "lower"),
    "codebook.load_calls": ("count", "lower"),
    "channel.estimate_s": ("s", "lower"),
    "channel.kernel_s": ("s", "lower"),
    "channel.trials": ("count", "higher"),
    "channel.decoder.distinct_intersection_s": ("s", "lower"),
    "channel.decoder.multiplicity_count_s": ("s", "lower"),
    "channel.decoder.unique_superset_s": ("s", "lower"),
    "channel.model.none_s": ("s", "lower"),
    "channel.model.erasure_s": ("s", "lower"),
    "channel.model.random_s": ("s", "lower"),
    "channel.model.adversarial_s": ("s", "lower"),
    "channel.run_trial_s": ("s", "lower"),
    "channel.run_trial_calls": ("count", "higher"),
    "channel.gemm_flops": ("flop", "lower"),
    "channel.support_bytes": ("bytes", "lower"),
    "channel.chunk_bytes": ("bytes", "lower"),
    "balls_bins.dp_s": ("s", "lower"),
    "balls_bins.dp_calls": ("count", "lower"),
    "balls_bins.dp_cells": ("count", "lower"),
    "balls_bins.identity_s": ("s", "lower"),
    "balls_bins.q_surjection_hits": ("count", "higher"),
    "balls_bins.q_surjection_misses": ("count", "lower"),
    "balls_bins.sample_s": ("s", "lower"),
    "balls_bins.sample_trials": ("count", "higher"),
    "balls_bins.sample_chunk_bytes": ("bytes", "lower"),
    "exponents.exponent_s": ("s", "lower"),
    "exponents.calls": ("count", "lower"),
    "trace.round_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}
