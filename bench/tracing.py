"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, every public function of each
``spdsheaf`` layer module plus the ``SheafGraph`` and ``EuclidSheaf``
constructors. A wrapper is bound under every module attribute that held the
original, because callers such as ``cli`` import names like
``diffusion_run`` directly. ``numpy.linalg`` eigensolvers and SVD are
counted, not spanned, and each call is attributed to the layer of the
innermost open span. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "jsonio", "spd", "sheaf", "stream", "euclid", "verify", "covgraph")
COUNTED_LINALG = ("eigh", "eigvalsh", "svd")
SELF_TIME_LAYERS = ("cli", "jsonio", "spd", "sheaf", "stream", "euclid", "verify")

# per-layer metric -> the public function whose inclusive span time it sums
INCLUSIVE = {
    "stream.trace_s": ("stream.trace_row",),
    "stream.learner_s": ("stream.sheaf_learner",),
    "stream.node_features_s": ("stream.node_features",),
    "stream.lift_s": ("stream.lift_coordinates",),
    "stream.pool_s": ("stream.pooled_descriptor",),
    "stream.readout_s": ("stream.linear_probe",),
    "stream.cloud_gen_s": ("stream.planar_cloud",),
    "sheaf.diffusion_step_s": ("sheaf.diffusion_step",),
    "sheaf.graph_build_s": ("sheaf.SheafGraph",),
    "sheaf.coboundary_s": ("sheaf.coboundary",),
    "sheaf.adjoint_s": ("sheaf.adjoint",),
    "sheaf.pairing_s": ("sheaf.cochain_pairing",),
    "sheaf.operator_build_s": ("sheaf.coboundary_matrix",),
    "sheaf.holonomy_s": ("sheaf.holonomy_reps", "sheaf.holonomy_fixed_space"),
}
CALLS = {
    "stream.learner_calls": "stream.sheaf_learner",
    "sheaf.diffusion_step_calls": "sheaf.diffusion_step",
    "sheaf.graph_builds": "sheaf.SheafGraph",
    "sheaf.coboundary_calls": "sheaf.coboundary",
    "sheaf.adjoint_calls": "sheaf.adjoint",
    "sheaf.pairing_calls": "sheaf.cochain_pairing",
    "spd.cayley_calls": "spd.cayley",
}
# metrics accumulated by hooks, with their units
HOOKED = {
    "stream.trace_pairs": "count",
    "sheaf.operator_bytes": "bytes",
    "sheaf.svd_calls": "count",
    "sheaf.svd_s": "s",
    "sheaf.svd_input_elems": "count",
    "spd.eigh_calls": "count",
    "spd.eigh_matrices": "count",
    "jsonio.bytes_read": "bytes",
    "jsonio.write_s": "s",
    "jsonio.bytes_written": "bytes",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "s" for name in INCLUSIVE}
    units.update({name: "count" for name in CALLS})
    units.update(HOOKED)
    units["stream.layer_s"] = "s"
    units["jsonio.load_s"] = "s"
    units.update({f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS})
    return dict(sorted(units.items()))


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` plus hook counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def innermost_layer(self) -> str | None:
        return self.spans[self._stack[-1]][0].split(".", 1)[0] if self._stack else None

    def wrap(self, name: str, fn, hook=None):
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans  # read per call: reset() swaps the list
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, record[2] - record[1])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_linalg(self, name: str, fn):
        clock = time.perf_counter

        def counted(a, *args, **kwargs):
            layer = self.innermost_layer()
            if layer is None:
                return fn(a, *args, **kwargs)
            t0 = clock()
            result = fn(a, *args, **kwargs)
            dt = clock() - t0
            shape = np.shape(a)
            if name == "svd":
                self.counts[f"{layer}.svd_calls"] += 1
                self.counts[f"{layer}.svd_s"] += dt
                self.counts[f"{layer}.svd_input_elems"] += int(np.prod(shape))
            else:
                self.counts["spd.eigh_calls"] += 1
                self.counts["spd.eigh_matrices"] += int(np.prod(shape[:-2]))
            return result

        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer's public functions where their callers look them up."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"spdsheaf.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj, _HOOKS.get(f"{layer}.{name}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "spdsheaf" or mod_name.startswith("spdsheaf."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._set(mod, name, wrappers[obj])
        for layer, cls_name in (("sheaf", "SheafGraph"), ("euclid", "EuclidSheaf")):
            cls = getattr(modules[layer], cls_name)
            self._set(cls, "__init__", self.wrap(f"{layer}.{cls_name}", cls.__init__))
        for name in COUNTED_LINALG:
            self._set(np.linalg, name, self.wrap_linalg(name, getattr(np.linalg, name)))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- aggregation -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the spans and counters recorded since reset()."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, calls, self_name, self_layer = Counter(), Counter(), Counter(), Counter()
        load_s = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            inclusive[name] += dur
            calls[name] += 1
            self_name[name] += dur - child[i]
            self_layer[name.split(".", 1)[0]] += dur - child[i]
            if name.startswith("jsonio.load_") and not (
                    parent >= 0 and spans[parent][0].startswith("jsonio.load_")):
                load_s += dur
        out = {m: sum(inclusive[n] for n in names) for m, names in INCLUSIVE.items()}
        out.update({m: calls[n] for m, n in CALLS.items()})
        out.update({m: self.counts[m] for m in HOOKED})
        out["stream.layer_s"] = self_name["stream.spd_sheaf_layer"]
        out["jsonio.load_s"] = load_s
        out.update({f"{layer}.self_s": self_layer[layer] for layer in SELF_TIME_LAYERS})
        return out

    def write_spans(self, path: str, spans: list):
        """Write spans as JSON lines ``[name, start_s, end_s, parent index]``."""
        t0 = spans[0][1] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in spans:
                fh.write(f'["{name}",{start - t0:.6f},{end - t0:.6f},{parent}]\n')


# -- counting hooks -----------------------------------------------------------


def _trace_pairs(tracer, args, kwargs, result, dur):
    n = len(args[0] if args else kwargs["sigma"])
    tracer.counts["stream.trace_pairs"] += n * (n - 1) // 2


def _operator_bytes(tracer, args, kwargs, result, dur):
    tracer.counts["sheaf.operator_bytes"] += result.nbytes


def _bytes_read(tracer, args, kwargs, result, dur):
    tracer.counts["jsonio.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _writer(param_index: int):
    def hook(tracer, args, kwargs, result, dur):
        path = args[param_index] if len(args) > param_index else kwargs.get("path")
        if path is not None:
            tracer.counts["jsonio.write_s"] += dur
            tracer.counts["jsonio.bytes_written"] += len(result.encode("utf-8")) + 1
    return hook


_HOOKS = {
    "stream.trace_row": _trace_pairs,
    "sheaf.coboundary_matrix": _operator_bytes,
    "jsonio.load_json": _bytes_read,
    # position of the `path` parameter of each file writer
    "jsonio.sheaf_to_json": _writer(2),
    "jsonio.cochain0_to_json": _writer(2),
    "jsonio.cloud_to_json": _writer(1),
    "jsonio.segments_to_json": _writer(1),
    "jsonio.weights_to_json": _writer(2),
}
