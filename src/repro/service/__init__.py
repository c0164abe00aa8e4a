"""Simulation-as-a-service: daemon, scheduler, queue, wire protocol.

``repro serve`` runs :class:`~repro.service.server.ServiceServer` on a
unix socket (plus an optional ``--tcp`` listener for the fleet);
``repro submit`` / ``repro jobs`` talk to it through
:class:`~repro.service.client.ServiceClient`, and ``repro worker`` runs
a :class:`~repro.service.worker.WorkerHost` that pulls jobs under
crash-safe leases (:mod:`repro.service.lease`).  See docs/service.md.

Names resolve on first use (PEP 562), so a client process loads the
protocol and the client, not the scheduler or the simulator.
"""

import importlib

_PROTOCOL = "repro.service.protocol"

#: Public name -> defining module; doubles as ``__all__``.
_EXPORTS = {
    "ACCEPTED": _PROTOCOL,
    "AdmissionRefused": "repro.service.queue",
    "BAD_REQUEST": _PROTOCOL,
    "Backpressure": "repro.service.client",
    "CONFLICT": _PROTOCOL,
    "DRAINING": _PROTOCOL,
    "INTERNAL_ERROR": _PROTOCOL,
    "Job": "repro.service.queue",
    "JobQueue": "repro.service.queue",
    "JobSpec": _PROTOCOL,
    "Lease": "repro.service.lease",
    "LeaseHeld": "repro.service.lease",
    "LeaseManager": "repro.service.lease",
    "MAX_FRAME_BYTES": _PROTOCOL,
    "NOT_FOUND": _PROTOCOL,
    "OK": _PROTOCOL,
    "PRIORITIES": _PROTOCOL,
    "PROTOCOL_VERSION": _PROTOCOL,
    "ProtocolError": _PROTOCOL,
    "RetryPolicy": "repro.service.client",
    "Scheduler": "repro.service.scheduler",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "ServiceServer": "repro.service.server",
    "TOO_MANY_JOBS": _PROTOCOL,
    "WORKER_OPS": _PROTOCOL,
    "WorkerHost": "repro.service.worker",
    "decode_frame": _PROTOCOL,
    "encode_frame": _PROTOCOL,
    "error_frame": _PROTOCOL,
    "ok_frame": _PROTOCOL,
    "parse_tcp_address": _PROTOCOL,
    "run_server": "repro.service.server",
    "run_worker": "repro.service.worker",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
