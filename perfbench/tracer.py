"""Outside-in tracing: spans around dtscatter's public functions.

The traced child process calls ``Tracer.install()`` after importing
``dtscatter.cli``.  Each target function is replaced, by module-attribute
patching, in every loaded ``dtscatter`` module that binds it: the defining
module (so that ``born_series_thirring -> gamma_matrix`` and
``evolve -> step`` resolve to the wrapper through module globals) and every
importer, ``dtscatter.cli`` included.  A target that no longer exists
raises ``TraceTargetMissing``; the benchmark run then fails.

Spans are kept in memory as ``[name_id, start, end, parent]`` lists (parent
is the index of the enclosing span within the same invocation, -1 for the
root) and written once, when the traced invocation ends.  ``summarize``
turns the spans of one invocation into per-name and per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

# (module, function) pairs wrapped in traced runs.  Every per-layer metric
# in BENCHMARK.json is computed from these spans.
TARGETS = (
    ("config", "parse_config"),
    ("cli", "run"),
    ("tables", "emit"),
    ("spectral", "make_dispersion"),
    ("thirring", "amplitude_pp"),
    ("thirring", "born_series_thirring"),
    ("thirring", "gamma_matrix"),
    ("dyson", "first_order_amplitude"),
    ("dyson", "second_order_amplitude"),
    ("wavepacket", "step"),
    ("wavepacket", "evolve"),
    ("wavepacket", "free_evolve"),
    ("wavepacket", "extract_smatrix"),
    ("wavepacket", "snapshot_rows"),
    ("trotter", "hopping_ring_model"),
    ("trotter", "tau_threshold"),
    ("trotter", "convergence_sweep"),
    ("trotter", "t_discrete_operator"),
)
ROOT = "cli.main"
LAYERS = ("config", "cli", "thirring", "spectral", "dyson", "trotter",
          "wavepacket", "tables")


class TraceTargetMissing(RuntimeError):
    """A function the benchmark wraps is gone from its module."""


def _roots(result, call) -> int:
    return len(result.roots)


def _converged(result, call) -> int:
    return int(bool(result.converged))


def _emitted_bytes(result, call) -> int:
    return os.path.getsize(call.arguments["path"])


# name -> (counter, function of (result, bound call arguments)) evaluated
# after a call returns, outside its span.
COUNTERS = {
    "thirring.gamma_matrix": ("roots", _roots),
    "thirring.born_series_thirring": ("converged", _converged),
    "tables.emit": ("bytes", _emitted_bytes),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                key = f"{name}.{counter[0]}"
                call = signature.bind(*args, **kwargs)
                counters[key] = counters.get(key, 0) + counter[1](result, call)
            return result

        return traced

    def install(self) -> None:
        loaded = [m for key, m in sys.modules.items()
                  if key == "dtscatter" or key.startswith("dtscatter.")]
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"dtscatter.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                raise TraceTargetMissing(
                    f"dtscatter.{module_name}.{attr} no longer exists; "
                    f"update perfbench/tracer.py TARGETS"
                )
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def call_root(self, fn, *args):
        """Run ``fn(*args)`` as the root span of the invocation."""
        return self._wrap(ROOT, fn)(*args)

    def record(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": self.counters}


def summarize(record: dict) -> dict:
    """Per-name calls/busy and per-layer self time for one invocation.

    busy is the wall time inside a name's outermost spans (a span nested in
    one of the same name is not counted twice); self is a span's duration
    minus the durations of its direct child spans.
    """
    names, spans = record["names"], record["spans"]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    for i, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        calls[name] = calls.get(name, 0) + 1
        duration = end - start
        self_by_name[name] = (self_by_name.get(name, 0.0)
                              + duration - child_time[i])
        nested = False
        while parent >= 0:
            if names[spans[parent][0]] == name:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            busy[name] = busy.get(name, 0.0) + duration
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_by_name.items():
        layer_self[name.split(".", 1)[0]] += value
    return {"calls": calls, "busy": busy, "self": self_by_name,
            "layer_self": layer_self, "counters": dict(record["counters"])}
