"""Spans, profiles and counters for the traced run.

The traced run records a span around every public call the benchmark
makes (name, start, end, parent, operation id), profiles the operations
with cProfile, and counts solve inputs at the solver's public functions.
Self time is attributed to layers, the modules of src/renorm: a function
defined in renorm/<module>.py belongs to <module>; time in numpy, the
standard library or builtins goes to the renorm function that called it,
through chains of such calls in proportion to each caller's cumulative
time.  What reaches no renorm frame is harness time.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import pstats
import sys
import time
from pathlib import Path

HARNESS = "harness"


class NullRecorder:
    """Records nothing; the untraced runs use it."""

    @contextlib.contextmanager
    def op(self, op_id, name):
        yield

    def span(self, name):
        return contextlib.nullcontext()


class Recorder:
    """Spans kept in memory, and a profiler running only inside operations."""

    def __init__(self):
        self.spans = []
        self.profile = cProfile.Profile()
        self._stack = []
        self._next_id = 0
        self._op = None

    @contextlib.contextmanager
    def span(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {"id": span_id, "op": self._op, "parent": parent, "name": name,
                 "start": start, "end": end}
            )

    @contextlib.contextmanager
    def op(self, op_id, name):
        self._op = op_id
        with self.span(name):
            self.profile.enable()
            try:
                yield
            finally:
                self.profile.disable()

    def op_seconds(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)


class SolveInputs:
    """Counts solve calls and distinct (period, eps) inputs per operation.

    Wraps solver.solve_fixed_point and solver.solve_fixed_point_eps in
    every renorm module that holds them, for the traced run only.
    """

    def __init__(self):
        self.calls = 0
        self.distinct = 0
        self._keys = set()
        self._patched = []

    def new_op(self):
        self.distinct += len(self._keys)
        self._keys = set()

    def _wrap(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls += 1
            self._keys.add(key(*args, **kwargs))
            return fn(*args, **kwargs)

        return wrapper

    def install(self, solver):
        def plain_key(period, *args, **kwargs):
            return (period.value, 1.0)

        def eps_key(eps, *args, **kwargs):
            return (3, float(eps))

        for name, key in (("solve_fixed_point", plain_key), ("solve_fixed_point_eps", eps_key)):
            original = getattr(solver, name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, key)
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if (mod_name == "renorm" or mod_name.startswith("renorm.")) and \
                        getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
                    self._patched.append((module, name, original))

    def uninstall(self):
        for module, name, original in self._patched:
            setattr(module, name, original)
        self._patched = []

    @property
    def unique_ratio(self) -> float:
        return (self.distinct + len(self._keys)) / self.calls if self.calls else 1.0


class InversePoints:
    """Points passed through horseshoe._invert_branch, summed from array sizes."""

    def __init__(self):
        self.points = 0
        self._patched = None

    def install(self, hs):
        original = getattr(hs, "_invert_branch", None)
        if original is None:
            return
        import numpy as np

        @functools.wraps(original)
        def wrapper(b, i, ys):
            self.points += int(np.size(ys))
            return original(b, i, ys)

        hs._invert_branch = wrapper
        self._patched = (hs, original)

    def uninstall(self):
        if self._patched:
            hs, original = self._patched
            hs._invert_branch = original
            self._patched = None


class LayerProfile:
    """Self time per layer and named-function totals from one cProfile run."""

    def __init__(self, profile: cProfile.Profile, renorm_dir: Path, harness_dir: Path):
        self.stats = pstats.Stats(profile).stats
        self._renorm = str(renorm_dir) + "/"
        self._harness = str(harness_dir) + "/"
        self._shares = {}

    def layer_of(self, func):
        filename = func[0]
        if filename.startswith(self._renorm):
            return Path(filename).stem
        if filename.startswith(self._harness):
            return HARNESS
        return None

    def _owners(self, func, seen=frozenset()):
        """{layer: share} of the time of an external function, by caller."""
        layer = self.layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in self._shares:
            return self._shares[func]
        callers = self.stats[func][4] if func in self.stats else {}
        total = sum(edge[3] for edge in callers.values())
        if func in seen or total <= 0.0:
            return {HARNESS: 1.0}
        shares = {}
        for caller, edge in callers.items():
            for layer, share in self._owners(caller, seen | {func}).items():
                shares[layer] = shares.get(layer, 0.0) + share * edge[3] / total
        self._shares[func] = shares
        return shares

    def self_times(self) -> dict:
        out = {}
        for func, (_, _, tottime, _, callers) in self.stats.items():
            if self.layer_of(func) is not None or not callers:
                owners = [(self._owners(func), tottime)]
            else:
                # the direct caller's share of an external function is exact
                owners = [(self._owners(caller), edge[2]) for caller, edge in callers.items()]
            for shares, seconds in owners:
                for layer, share in shares.items():
                    out[layer] = out.get(layer, 0.0) + share * seconds
        return out

    def _named(self, layer, name, field):
        return sum(
            stat[field] for func, stat in self.stats.items()
            if func[2] == name and self.layer_of(func) == layer
        )

    def cumulative(self, layer, *names) -> float:
        return sum(self._named(layer, n, 3) for n in names)

    def calls(self, layer, *names) -> int:
        return sum(self._named(layer, n, 1) for n in names)

    def calls_from(self, layer, name, caller_layer) -> int:
        """Calls of layer.name whose direct caller belongs to caller_layer."""
        return sum(
            edge[0]
            for func, stat in self.stats.items()
            if func[2] == name and self.layer_of(func) == layer
            for caller, edge in stat[4].items()
            if self.layer_of(caller) == caller_layer
        )


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of numpy and jsonschema and renorm's own self time."""
    out = {"numpy": 0.0, "jsonschema": 0.0, "renorm": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[2].strip()
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        if name in ("numpy", "jsonschema"):
            out[name] = cumulative_us / 1e6
        elif name == "renorm" or name.startswith("renorm."):
            out["renorm"] += self_us / 1e6
    return out
