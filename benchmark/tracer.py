"""In-memory spans around ehwf's public functions, for the traced run only.

Tracing works from outside the package: each traced function is replaced,
for the duration of a `traced` block, by a wrapper that records a span
(name, start, end, parent).  The wrapper is installed under every name a
caller looks the function up by -- the defining module, every ehwf module
that imported it (`ehwf.mac.solve_reduced`, `ehwf.bench.solve_mac`, ...),
the package namespace, and module-level dispatch tables such as the
baselines' policy map -- and the originals are put back on exit.  A name
that no longer exists is reported as missing instead of failing, so a
refactor that renames or removes a layer stays measurable.

Only calls made inside an open root span (one benchmark op) are recorded,
so the benchmark's own correctness checks never show up as solver work.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

# Layers as `module: functions`, named after the module that defines them.
# Private helpers (the scan filters, the backward search) are not wrapped.
LAYERS = {
    "model": ("sum_rate",),
    "single_user": ("optimal_wastage", "water_fill_segment", "solve_reduced"),
    "mac": ("effective_gain", "iterate_best_response", "solve_mac"),
    "baselines": ("staircase_wf", "modified_staircase",
                  "iterative_modified_staircase", "non_iterative_multiuser"),
    "verify": ("kkt_certificate", "first_order_certificate"),
    "bench": ("gen_scenario", "run_experiment"),
}


class Tracer:
    """Span recorder.  spans[i] = [name, start_s, end_s, parent_index]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """Open a root span; layer spans are recorded only inside one."""
        idx = self._enter("op")
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name, fn):
        def traced_call(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return traced_call

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus its direct children's; spans
        of one thread nest, so children never overlap each other.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            dur = end - start
            out[name] = (calls + 1, incl + dur, self_s + dur - child_time[i])
        return out

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)


def _package_modules(package):
    # only modules already loaded: importing e.g. ehwf.__main__ would run it
    prefix = package.__name__ + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))]


@contextmanager
def traced(tracer, package, layers=LAYERS):
    """Install tracing wrappers over `package`; yields the missing names."""
    wrappers = {}          # id(original) -> (original, wrapper)
    missing = []
    for mod_name, names in layers.items():
        try:
            module = importlib.import_module(f"{package.__name__}.{mod_name}")
        except ImportError:
            missing.extend(f"{mod_name}.{name}" for name in names)
            continue
        for name in names:
            fn = getattr(module, name, None)
            if not callable(fn):
                missing.append(f"{mod_name}.{name}")
                continue
            wrappers[id(fn)] = (fn, tracer.wrap(f"{mod_name}.{name}", fn))

    def replacement(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    undo = []              # (container, key, original); dicts and modules
    for module in _package_modules(package):
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if key.startswith("__"):
                continue
            new = replacement(value)
            if new is not None:
                undo.append((namespace, key, value))
                namespace[key] = new
            elif isinstance(value, dict):
                for k2, v2 in list(value.items()):
                    new = replacement(v2)
                    if new is not None:
                        undo.append((value, k2, v2))
                        value[k2] = new
    try:
        yield missing
    finally:
        for container, key, original in reversed(undo):
            container[key] = original
