"""Spans around the library's layer functions, recorded from outside the library.

``Tracer`` replaces each function in ``TARGETS`` with a wrapper on its module
attribute, records (name, start, end, parent) for every call, and restores the
originals on exit.  A layer's self time is its spans' durations minus the time
their child spans cover.  Only calls made through the module attribute are
seen: a function another module bound with ``from .x import f`` stays
unwrapped there (``data_aided`` calls ``mmse_estimate_matrix`` that way).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("scenario", "phy", "estimators", "detectors", "ber_analytic",
          "data_aided", "downlink", "experiments")

# (layer, module that owns the attribute, function name).  The span is named
# "<layer>.<function>"; analytic_ber_vector lives in experiments but is the
# analytic-BER stage, so it counts towards ber_analytic.
TARGETS = (
    ("scenario", "scenario", "build_topology"),
    ("scenario", "scenario", "associate"),
    ("scenario", "scenario", "ue_classes"),
    ("phy", "phy", "stream"),
    ("phy", "phy", "draw_channels"),
    ("phy", "phy", "make_pilots"),
    ("phy", "phy", "observe"),
    ("phy", "phy", "joint_observation"),
    ("estimators", "estimators", "mmse_estimate_matrix"),
    ("estimators", "estimators", "ls_estimate_matrix"),
    ("detectors", "detectors", "random_bits"),
    ("detectors", "detectors", "modulate"),
    ("detectors", "detectors", "build_combiner"),
    ("detectors", "detectors", "detect_all"),
    ("detectors", "detectors", "detect"),
    ("ber_analytic", "experiments", "analytic_ber_vector"),
    ("ber_analytic", "ber_analytic", "analytic_bpsk_ber"),
    ("ber_analytic", "ber_analytic", "gamma_model_for_ue"),
    ("ber_analytic", "ber_analytic", "bpsk_detection_model"),
    ("ber_analytic", "ber_analytic", "ber_lower_bound"),
    ("data_aided", "data_aided", "da_estimate_matrix"),
    ("downlink", "downlink", "zf_precode"),
    ("downlink", "downlink", "dl_rate"),
)

ROOT = "experiments.run_sweep"

# one complex Gaussian draw is two float64 standard normals
_BYTES_PER_DRAW = 16


class Tracer:
    """Wraps the layer functions of hetnetsim while used as a context manager."""

    def __init__(self):
        # [name, start, end, parent index, seconds spent in the counting hook]
        self.spans = []
        self.missing = []          # span names whose function was not found
        self.draw_bytes = 0
        self.combiner_keys = set()
        self._stack = [-1]
        self._saved = []
        self._hooks = {
            "draw_channels": self._count_channel_draws,
            "observe": self._count_noise_draws,
            "build_combiner": self._record_combiner,
        }

    def __enter__(self):
        for layer, owner, attr in TARGETS:
            module = importlib.import_module(f"hetnetsim.{owner}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{layer}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{layer}.{attr}", fn, self._hooks.get(attr)))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook:
                hook(signature, args, kwargs, out)
                span[4] = clock() - span[2]
            return out

        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the root of a traced sweep)."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _count_channel_draws(self, signature, args, kwargs, channels):
        elements = channels.h_mbs.size + sum(g.size for g in channels.g_sbs)
        self.draw_bytes += _BYTES_PER_DRAW * elements

    def _count_noise_draws(self, signature, args, kwargs, obs):
        if obs.noise_power > 0:
            self.draw_bytes += _BYTES_PER_DRAW * obs.y.size

    def _record_combiner(self, signature, args, kwargs, combiner):
        # distinct (kind, BS, trial, column set) at one sweep point: the first
        # two estimate rows identify the BS and trial, since every realization
        # differs, and the scalar arguments identify the sweep point
        arguments = signature.bind(*args, **kwargs).arguments
        est = arguments["estimates"]
        scalars = tuple(arguments.get(k) for k in ("p_t", "tau_t", "p_d", "noise_power"))
        self.combiner_keys.add((str(arguments["kind"]), est.shape, combiner.ue_indices,
                                est[:2].tobytes(), scalars))

    def summary(self) -> dict:
        """Calls and self milliseconds per span name and per layer, and the
        counters recorded at the span boundaries.  Time spent in the counting
        hooks is nobody's self time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, hook_s in self.spans:
            if parent >= 0:
                child[parent] += end - start + hook_s
        calls = defaultdict(int)
        self_ms = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            calls[name] += 1
            self_ms[name] += (end - start - covered) * 1e3
        layer_calls = defaultdict(int)
        layer_ms = defaultdict(float)
        for name in calls:
            layer = name.split(".", 1)[0]
            if name != ROOT:
                layer_calls[layer] += calls[name]
            layer_ms[layer] += self_ms[name]
        return {
            "calls": dict(calls), "self_ms": dict(self_ms),
            "layer_calls": {k: layer_calls.get(k, 0) for k in LAYERS},
            "layer_self_ms": {k: layer_ms.get(k, 0.0) for k in LAYERS},
            "draw_bytes": self.draw_bytes,
            "unique_combiners": len(self.combiner_keys),
            "missing": list(self.missing),
        }
