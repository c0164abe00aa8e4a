"""Trace serialisation: save and replay workload traces.

Synthetic traces are deterministic per benchmark name, but users porting
real application traces (e.g. from NVBit or a binary instrumenter) need
a stable on-disk format.  The format is JSON:

.. code-block:: json

    {
      "version": 1,
      "spec": { ...WorkloadSpec fields... },
      "page_size": 65536,
      "traces": [ [ [["c", 40], ["m", [1, 2, 513]]], ... ], ... ]
    }

``traces[sm][warp]`` is a list of instructions; memory instructions
carry virtual line indices (VA / 128).  :func:`load_trace` rebuilds a
fully premapped :class:`~repro.workloads.base.TraceWorkload` for any
GPU configuration whose page size divides the recorded one's line space
(traces are page-size independent by construction).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.config import GPUConfig
from repro.workloads.base import TraceWorkload, WorkloadSpec

FORMAT_VERSION = 1


def save_trace(workload: TraceWorkload, path: str | Path) -> Path:
    """Write a workload's spec and traces to ``path`` (JSON)."""
    path = Path(path)
    payload = {
        "version": FORMAT_VERSION,
        "spec": asdict(workload.spec),
        "page_size": workload.page_size,
        "footprint_lines": workload.footprint_lines,
        "traces": [
            [[list(_encode(inst)) for inst in warp] for warp in sm]
            for sm in workload.traces
        ],
    }
    path.write_text(json.dumps(payload))
    return path


def _encode(inst: tuple) -> tuple:
    kind, payload = inst
    if kind == "m":
        return kind, list(payload)
    return kind, payload


class ReplayWorkload(TraceWorkload):
    """A workload reconstructed from a saved trace file."""

    def __init__(self, spec: WorkloadSpec, config: GPUConfig, traces) -> None:
        self._loaded_traces = traces
        super().__init__(spec, config)

    def _generate(self):  # type: ignore[override]
        for sm in self._loaded_traces:
            yield [
                [
                    ("m", tuple(payload)) if kind == "m" else ("c", payload)
                    for kind, payload in warp
                ]
                for warp in sm
            ]


def load_trace(path: str | Path, config: GPUConfig) -> ReplayWorkload:
    """Rebuild a workload (with a fresh premapped address space)."""
    payload = json.loads(Path(path).read_text())
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {payload.get('version')}")
    spec = WorkloadSpec(**payload["spec"])
    traces = payload["traces"]
    if len(traces) != config.num_sms:
        raise ValueError(
            f"trace recorded for {len(traces)} SMs, config has {config.num_sms}"
        )
    return ReplayWorkload(spec, config, traces)
