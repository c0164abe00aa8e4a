"""Layer spans and per-package self time for the traced run.

:class:`SpanRecorder` wraps the public functions each layer exposes
(``build_workload``, ``GPUSimulator(...)``, ``GPUSimulator.run``, the
result store, ...) so every call into a layer becomes a span with a
parent and a request id.  Nothing in ``repro`` is edited: the wrappers
are installed from here for the traced run only and removed after it.

Self time per package comes from stdlib ``cProfile``: each function's
``tottime`` is billed to the ``repro.*`` subpackage its file lives in.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import pstats
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable

#: (module, attribute path, span name) of every wrapped layer entry
#: point.  ``harness.point`` is the parent of one sweep point's spans.
LAYER_CALLS = (
    ("repro.harness.runner", "Runner.run", "harness.point"),
    ("repro.harness.runner", "build_workload", "workloads.gen"),
    ("repro.gpu.gpu", "GPUSimulator.__init__", "arch.build"),
    ("repro.gpu.gpu", "GPUSimulator.run", "sim.loop"),
    ("repro.gpu.gpu", "GPUSimulator.advance", "sim.loop"),
    ("repro.gpu.gpu", "SimulationResult.to_dict", "harness.serialize"),
    ("repro.gpu.gpu", "SimulationResult.from_dict", "harness.serialize"),
    ("repro.harness.store", "fingerprint_digest", "harness.fingerprint"),
    ("repro.service.server", "fingerprint_digest", "harness.fingerprint"),
    ("repro.harness.store", "ResultStore.store", "harness.store_write"),
    ("repro.harness.store", "ResultStore.load", "harness.store_read"),
)


@dataclass
class Span:
    name: str
    #: Wall-clock start in microseconds since the epoch (shared by every
    #: process, so spans of the client, the daemon and its job workers
    #: line up in one trace).
    ts_us: int
    dur_us: int
    id: int
    parent: int | None
    request: str | None
    pid: int
    process: str


class SpanRecorder:
    """Keeps spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: list[Span] = []
        self.request: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def reset(self, process: str) -> None:
        """Forget spans inherited across a fork."""
        self.process = process
        self.spans = []
        self._stack = []

    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        self._next_id += 1
        span_id = (os.getpid() << 32) | self._next_id
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        ts_us = time.time_ns() // 1000
        started = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur_us = (time.perf_counter_ns() - started) // 1000
            self._stack.pop()
            self.spans.append(
                Span(name, ts_us, dur_us, span_id, parent, self.request,
                     os.getpid(), self.process)
            )

    def _wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.span(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_point(self, fn: Callable, label: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(runner, config, benchmark, *args, **kwargs):
            recorder.request = label(config, benchmark, kwargs.get("seed"))
            try:
                return recorder.span(
                    "harness.point", fn, runner, config, benchmark, *args, **kwargs
                )
            finally:
                recorder.request = None

        return wrapper

    def install(self, label: Callable[[object, str, object], str]) -> None:
        """Wrap every :data:`LAYER_CALLS` entry.

        ``label(config, benchmark, seed)`` names the request of a sweep
        point's spans.
        """
        for module_name, path, name in LAYER_CALLS:
            *owner_path, attr = path.split(".")
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            elif name == "harness.point":
                wrapped = self._wrap_point(raw, label)
            else:
                wrapped = self._wrap(name, raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, label: Callable[[object, str, object], str]):
        """:meth:`install` for the ``with`` block only."""
        self.install(label)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(span) for span in self.spans]))


def load_spans(paths: Iterable[Path]) -> list[Span]:
    spans = []
    for path in paths:
        spans.extend(Span(**record) for record in json.loads(path.read_text()))
    return spans


def totals(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds per span name (inclusive of nested spans)."""
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.dur_us / 1e6
    return out


def write_chrome_trace(spans: list[Span], path: Path) -> None:
    """All spans as one Chrome trace, one lane per process."""
    from repro.obs.trace import TraceRecorder

    recorder = TraceRecorder(process_name="perfbench")
    origin = min((span.ts_us for span in spans), default=0)
    for span in sorted(spans, key=lambda s: s.ts_us):
        args = {"id": span.id, "parent": span.parent}
        if span.request is not None:
            args["request"] = span.request
        recorder.complete(
            f"{span.process} {span.pid}", span.name, span.ts_us - origin,
            span.dur_us, **args,
        )
    recorder.write_chrome(path)


# ----------------------------------------------------------------------
# cProfile self time by package
# ----------------------------------------------------------------------
def package_of(filename: str, root: str) -> str:
    """``repro`` subpackage (or top-level module) that owns ``filename``."""
    if not filename.startswith(root + os.sep):
        return "other"
    parts = filename[len(root) + 1:].split(os.sep)
    if len(parts) > 1:
        return parts[0]
    return "repro" if parts[0] == "__init__.py" else parts[0].removesuffix(".py")


def self_time_by_package(stats: pstats.Stats) -> dict[str, float]:
    import repro

    root = os.path.dirname(os.path.realpath(repro.__file__))
    out: dict[str, float] = {}
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in stats.stats.items():
        package = package_of(os.path.realpath(filename), root)
        out[package] = out.get(package, 0.0) + tottime
    return out


def profile_table(by_package: dict[str, float]) -> list[str]:
    total = sum(by_package.values()) or 1.0
    lines = [f"  {'package':<12} {'self_s':>9} {'share':>7}"]
    for package, seconds in sorted(by_package.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {package:<12} {seconds:9.3f} {seconds / total:7.1%}")
    return lines
