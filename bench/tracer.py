"""Spans around calls into each heisgeo layer, recorded from the benchmark side.

`Tracer.install()` replaces every public function of a heisgeo module at
the name its callers use: the benchmark calls `balls.enumerate_ball`, and
`ergodic` calls its own imported `ball_label_counts` and `multiply`, so
each of those module attributes gets its own wrapper.  A span records its
name (`<layer>.<function>`), start, end and parent span.  Calls into
`core` are leaves that run millions of times, so they are only counted and
timed, and their time is charged to the enclosing span as child time.

Spans stay in memory until `dump` writes them out at the end of a pass.
Nothing here changes what the program computes: wrappers return the
wrapped function's result unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time

LAYERS = ("core", "balls", "spherequad", "covering", "separation", "ergodic", "cli")
BAND = 1.0 + 1e-9  # the acceptance band the certified minimizer uses


def _rows(result) -> int:
    coords = getattr(result, "coords", result)
    shape = getattr(coords, "shape", None)
    return int(shape[0]) if shape else 0


class Tracer:
    def __init__(self):
        self.active = True
        self.spans = []      # [name, start, end, parent, leaf_time]
        self.stack = []
        self.core_calls = 0
        self.core_s = 0.0
        self.counts = {}
        self.min_margin = math.inf
        self.label_keys = set()

    # --- installation -----------------------------------------------------

    def install(self, package: str = "heisgeo") -> None:
        """Wrap public heisgeo functions in every layer's namespace."""
        for mod_name in (package,) + tuple(f"{package}.{m}" for m in LAYERS):
            module = importlib.import_module(mod_name)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                origin = getattr(obj, "__module__", "") or ""
                if not origin.startswith(package + "."):
                    continue
                layer = origin.split(".")[1]
                if layer not in LAYERS:
                    continue
                if layer == "core":
                    if mod_name == f"{package}.core":
                        continue  # core's own internal calls are not crossings
                    setattr(module, name, self._leaf(obj))
                else:
                    setattr(module, name, self._span(f"{layer}.{name}", obj))

    def _leaf(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.core_calls += 1
                tracer.core_s += dt
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][4] += dt

        return traced

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, parent, 0.0]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            tracer._observe(name, args, result)
            return result

        return traced

    # --- counts read from results -----------------------------------------

    def count(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _margin(self, values):
        """Track the least |value - 1|; return how many values are accepted."""
        import numpy as np

        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if vals.size:
            self.min_margin = min(self.min_margin, float(np.min(np.abs(vals - 1.0))))
        return int(np.sum(vals <= BAND))

    def _observe(self, name, args, result):
        if name in ("balls.enumerate_ball", "balls.t_boundary_coords",
                    "balls.symmetric_difference_coords"):
            self.count("balls.rows_out", _rows(result))
        elif name == "balls.boundary_contains":
            self.count("balls.route." + result.route)
        elif name == "spherequad.gauge_min_batched":
            self.count("spherequad.batched_rows", len(result))
            self.count("spherequad.batched_accepted", self._margin(result))
        elif name == "spherequad.gauge_min":
            self._margin(result[0] if isinstance(result, tuple) else result)
        elif name == "covering.covering_net":
            self.count("covering.net_centers", result[0])
        elif name == "ergodic.ball_label_counts":
            key = (id(args[0]), args[1])
            if key in self.label_keys:
                self.count("ergodic.label_count_repeats")
            self.label_keys.add(key)
        elif name == "separation.intersection_search":
            longest = result["longest_chain_found"]
            self.count("separation.trials", result["trials"])
            self.count("separation.longest_trials", result["length_counts"].get(longest, 0))

    # --- output -----------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, leaf in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, leaf]) + "\n")

    def summary(self) -> dict:
        """Per-span-name self time, outermost time and call count, plus counts."""
        spans = self.spans
        child = [s[4] for s in spans]
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        names = {}
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            row = names.setdefault(name, {"calls": 0, "self_s": 0.0, "outer_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[i]
            if not self._inside(i, name):
                row["outer_s"] += t1 - t0
        return {
            "names": names,
            "counts": dict(self.counts),
            "core_calls": self.core_calls,
            "core_s": self.core_s,
            "min_margin": self.min_margin if self.min_margin < math.inf else None,
            "band_self_s": self._band_self(),
            "spans": len(spans),
        }

    def _inside(self, i, name) -> bool:
        """Is span i nested inside another span of the same name?"""
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def _band_self(self) -> float:
        """Outermost t_boundary_* time minus the spherequad spans below it."""
        total = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            if not name.startswith("balls.t_boundary_"):
                if name.startswith("spherequad.") and self._below_band(i):
                    total -= t1 - t0
                continue
            if not self._below_band(i):
                total += t1 - t0
        return total

    def _below_band(self, i) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            name = self.spans[p][0]
            if name.startswith("balls.t_boundary_"):
                return True
            if name.startswith("spherequad."):
                return False  # only the outermost spherequad span counts
            p = self.spans[p][3]
        return False
