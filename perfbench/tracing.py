"""In-memory spans around the public functions of ``hw_staffing``.

The tracer wraps every public function of the layers named in LAYERS and
installs the wrapper wherever a module of the package holds a reference to
the original, which is where its callers look it up: ``erlang`` calls
``bisect_monotone`` and ``upper_gamma_regularized`` through its own
namespace, ``halfin_whitt`` calls ``erlang_c_real`` through its own, and
``cli`` goes through module attributes. Nothing inside the package changes;
private helpers such as the quadrature core count as self time of their
public caller.

A span is (name, parent, request, start, end, failed, work). ``work`` is a
machine-independent count taken from the arguments: ``n`` for the Erlang
recurrence, warm-up plus measured arrivals for a simulation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("numerics", "erlang", "halfin_whitt", "proof_kit", "mmn_oracle", "svg", "cli")

_WORK = {
    "erlang.erlang_c_integer": lambda n, *_args, **_kw: int(n),
    "mmn_oracle.simulate_mmn": lambda cfg, *_a, **_kw: cfg.warmup_arrivals + cfg.measured_arrivals,
}

_NAME, _PARENT, _REQUEST, _START, _END, _FAILED, _WORKED = range(7)


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, self._request, perf_counter(), 0.0, False, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[_END] = perf_counter()
        self._stack.pop()

    def request(self, index: int, run):
        """Run one benchmark request under a root span."""
        self._request = index
        span = self._open("request")
        try:
            return run()
        finally:
            self._close(span)

    def wrap(self, name: str, fn, typed_error):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            if work is not None:
                span[_WORKED] = work(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except typed_error:
                span[_FAILED] = True
                raise
            finally:
                self._close(span)

        return traced

    def install(self, package: str):
        """Wrap the public functions of each layer; returns an undo callable."""
        typed_error = importlib.import_module(f"{package}.errors").StaffingError
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
        patches = []
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            names = getattr(module, "__all__", None) or [
                k for k in vars(module) if not k.startswith("_")
            ]
            for attr in names:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn, typed_error)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            patches.append((holder, key, fn))
                            setattr(holder, key, traced)

        def undo():
            for holder, key, fn in reversed(patches):
                setattr(holder, key, fn)

        return undo

    def summary(self, scale) -> dict:
        """Per-name calls, failures, total, self and failed time, and work.

        ``scale[r]`` multiplies every duration inside request r, as the
        benchmark scales that request's latency.
        """

        def duration(span):
            return (span[_END] - span[_START]) * scale[span[_REQUEST]]

        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += duration(span)
        stats = defaultdict(lambda: {"calls": 0, "fail": 0, "ms": 0.0, "self_ms": 0.0, "fail_ms": 0.0, "work": 0})
        for span, inner in zip(self.spans, child_time):
            took = duration(span)
            entry = stats[span[_NAME]]
            entry["calls"] += 1
            entry["ms"] += took * 1e3
            # Calls are sequential, so children never overlap one another.
            entry["self_ms"] += (took - inner) * 1e3
            entry["work"] += span[_WORKED]
            if span[_FAILED]:
                entry["fail"] += 1
                entry["fail_ms"] += took * 1e3
        return dict(stats)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls to ``name`` made, directly or not, inside an ``ancestor`` call."""
        count = 0
        for span in self.spans:
            if span[_NAME] != name:
                continue
            parent = span[_PARENT]
            while parent >= 0:
                if self.spans[parent][_NAME] == ancestor:
                    count += 1
                    break
                parent = self.spans[parent][_PARENT]
        return count

    def write(self, path):
        """Write the spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[_NAME],
                            "parent": s[_PARENT],
                            "request": s[_REQUEST],
                            "start": s[_START] - origin,
                            "end": s[_END] - origin,
                            "failed": s[_FAILED],
                            "work": s[_WORKED],
                        }
                    )
                    + "\n"
                )
