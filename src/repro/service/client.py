"""Blocking client for the simulation service.

:class:`ServiceClient` is a thin synchronous wrapper over the NDJSON
socket protocol — it is what the ``repro submit`` / ``repro jobs`` CLI
commands use, and what tests drive the daemon with.  It deliberately
has no asyncio in it: a caller submits, optionally consumes the event
stream via a callback, and gets plain dicts back.

Error mapping: any reply with ``ok: false`` raises
:class:`ServiceError` carrying the status code; a 429 or 503 raises the
:class:`Backpressure` subclass, which also exposes the server's
``retry_after`` hint.

The client reaches a daemon over either transport: a unix socket path,
or a TCP address (``host:port`` or ``tcp://host:port``) when the daemon
runs with ``--tcp``.  Construct with a :class:`RetryPolicy` and
``submit``/``subscribe`` transparently retry transient refusals —
connection errors and 429/503 backpressure — with jittered exponential
backoff that honours the server's ``retry_after`` hint.  Retrying a
submit is safe by construction: the scheduler's dedupe attaches the
retry to the original job instead of running it twice.
"""

from __future__ import annotations

import os
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from repro.config import default_socket_path
from repro.service.protocol import (
    DRAINING,
    MAX_FRAME_BYTES,
    TOO_MANY_JOBS,
    JobSpec,
    ProtocolError,
    decode_frame,
    encode_frame,
    parse_tcp_address,
)


class ServiceError(RuntimeError):
    """The server answered with an error frame."""

    def __init__(self, code: int, error: str, frame: dict | None = None) -> None:
        super().__init__(f"[{code}] {error}")
        self.code = code
        self.error = error
        self.frame = frame or {}


class Backpressure(ServiceError):
    """A 429/503 refusal; ``retry_after`` says when to try again."""

    def __init__(self, code: int, error: str, frame: dict | None = None) -> None:
        super().__init__(code, error, frame)
        self.retry_after = float((frame or {}).get("retry_after", 1.0))


def _raise_for_frame(frame: dict) -> dict:
    if frame.get("ok"):
        return frame
    code = int(frame.get("code", 500))
    error = str(frame.get("error", "unknown error"))
    if code in (TOO_MANY_JOBS, DRAINING):
        raise Backpressure(code, error, frame)
    raise ServiceError(code, error, frame)


def is_tcp_address(address: str) -> bool:
    """True for ``host:port`` / ``tcp://host:port``, False for a path."""
    if address.startswith("tcp://"):
        return True
    if "/" in address or os.sep in address:
        return False
    _, sep, port = address.rpartition(":")
    return bool(sep) and port.isdigit()


def connect(address: str, timeout: float) -> socket.socket:
    """Open a stream to a daemon at a unix path or a TCP address."""
    if is_tcp_address(address):
        host, port = parse_tcp_address(address.removeprefix("tcp://"))
        return socket.create_connection((host, port), timeout=timeout)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(address)
    return sock


def read_frames(sock: socket.socket) -> Iterator[dict]:
    """Yield decoded frames from one connection until the peer closes."""
    buffer = b""
    while True:
        newline = buffer.find(b"\n")
        while newline < 0:
            chunk = sock.recv(65536)
            if not chunk:
                return
            buffer += chunk
            if len(buffer) > MAX_FRAME_BYTES:
                raise ProtocolError("reply frame too large")
            newline = buffer.find(b"\n")
        line, buffer = buffer[: newline + 1], buffer[newline + 1 :]
        yield decode_frame(line)


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for transient service refusals.

    ``attempts`` bounds the total tries (first call included).  The
    delay before retry *k* is ``base * 2**k`` capped at ``cap``, raised
    to the server's ``retry_after`` hint when one came back, then
    jittered by ``±jitter`` (a fraction) so a herd of retrying clients
    does not re-arrive in lockstep.
    """

    attempts: int = 4
    base: float = 0.25
    cap: float = 10.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("retry attempts must be >= 1")
        if self.base <= 0 or self.cap <= 0:
            raise ValueError("retry base and cap must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("retry jitter must be in [0, 1)")

    def delay(self, attempt: int, hint: float | None = None) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        delay = min(self.cap, self.base * (2**attempt))
        if hint is not None and hint > 0:
            delay = max(delay, min(self.cap, hint))
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * random.random() - 1.0)
        return max(0.0, delay)

    def call(self, fn: Callable[[], Any], *, sleep: Callable[[float], None] = time.sleep) -> Any:
        """Run ``fn``, retrying backpressure and connection failures."""
        failure: Exception | None = None
        for attempt in range(self.attempts):
            hint: float | None = None
            try:
                return fn()
            except Backpressure as refusal:
                failure = refusal
                hint = refusal.retry_after
            except ProtocolError:
                raise  # malformed traffic never gets better by retrying
            except OSError as defect:
                failure = defect
            if attempt + 1 < self.attempts:
                sleep(self.delay(attempt, hint))
        assert failure is not None
        raise failure


class ServiceClient:
    """One connection per request; safe to reuse across calls."""

    def __init__(
        self,
        socket_path: str | os.PathLike | None = None,
        *,
        timeout: float = 60.0,
        client_name: str | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.socket_path = str(socket_path) if socket_path else default_socket_path()
        self.timeout = timeout
        self.client_name = client_name or f"pid-{os.getpid()}"
        self.retry = retry

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _roundtrip(self, request: Mapping[str, Any]) -> dict:
        """Send one frame, return the single (checked) reply frame."""
        with connect(self.socket_path, self.timeout) as sock:
            sock.sendall(encode_frame(request))
            for frame in read_frames(sock):
                return _raise_for_frame(frame)
        raise ServiceError(500, "connection closed before reply")

    # ------------------------------------------------------------------
    # Simple operations
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self._roundtrip({"op": "ping"})

    def alive(self) -> bool:
        try:
            return bool(self.ping().get("ok"))
        except (OSError, ServiceError):
            return False

    def wait_until_up(self, timeout: float = 10.0, interval: float = 0.05) -> None:
        """Block until the daemon answers a ping (or raise TimeoutError)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.alive():
                return
            time.sleep(interval)
        raise TimeoutError(
            f"no service answered on {self.socket_path} within {timeout:.1f}s"
        )

    def stats(self) -> dict:
        return self._roundtrip({"op": "stats"})

    def jobs(self) -> list[dict]:
        return list(self._roundtrip({"op": "jobs"}).get("jobs", []))

    def status(self, job_id: str, *, result: bool = False) -> dict:
        request: dict[str, Any] = {"op": "status", "job": job_id}
        if result:
            request["result"] = True
        return self._roundtrip(request)

    def drain(self) -> dict:
        return self._roundtrip({"op": "drain"})

    # ------------------------------------------------------------------
    # Submission and streaming
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec | Mapping[str, Any],
        *,
        wait: bool = False,
        on_event: Callable[[dict], None] | None = None,
    ) -> dict:
        """Submit one job.

        Fire-and-forget by default: returns the 202 acceptance frame
        (``job``, ``state``, and ``deduped``/``cached`` markers).  With
        ``wait=True`` the call blocks until the job settles and returns
        the terminal frame (``state``, ``result``, ``digest``); pass
        ``on_event`` to also receive every progress frame's ``event``
        dict as it streams in.
        """
        if isinstance(spec, JobSpec):
            payload = spec.to_dict()
        else:
            payload = JobSpec.from_dict(spec).to_dict()
        if self.retry is not None:
            return self.retry.call(
                lambda: self._submit_once(payload, wait=wait, on_event=on_event)
            )
        return self._submit_once(payload, wait=wait, on_event=on_event)

    def _submit_once(
        self,
        payload: Mapping[str, Any],
        *,
        wait: bool,
        on_event: Callable[[dict], None] | None,
    ) -> dict:
        request: dict[str, Any] = {
            "op": "submit",
            "client": self.client_name,
            **payload,
        }
        stream = wait or on_event is not None
        if stream:
            request["stream" if on_event is not None else "wait"] = True
        with connect(self.socket_path, self.timeout) as sock:
            sock.sendall(encode_frame(request))
            frames = read_frames(sock)
            ack = _raise_for_frame(next(frames, {"ok": False, "code": 500,
                                                 "error": "no reply"}))
            if not stream:
                return ack
            for frame in frames:
                _raise_for_frame(frame)
                if frame.get("done"):
                    return frame
                event = frame.get("event")
                if event is not None and on_event is not None:
                    on_event(event)
        raise ServiceError(500, "stream closed before the job settled")

    def subscribe(
        self, job_id: str, *, on_event: Callable[[dict], None] | None = None
    ) -> dict:
        """Attach to an existing job's stream; returns its final frame."""
        if self.retry is not None:
            return self.retry.call(
                lambda: self._subscribe_once(job_id, on_event=on_event)
            )
        return self._subscribe_once(job_id, on_event=on_event)

    def _subscribe_once(
        self, job_id: str, *, on_event: Callable[[dict], None] | None = None
    ) -> dict:
        with connect(self.socket_path, self.timeout) as sock:
            sock.sendall(encode_frame({"op": "subscribe", "job": job_id}))
            frames = read_frames(sock)
            _raise_for_frame(next(frames, {"ok": False, "code": 500,
                                           "error": "no reply"}))
            for frame in frames:
                _raise_for_frame(frame)
                if frame.get("done"):
                    return frame
                event = frame.get("event")
                if event is not None and on_event is not None:
                    on_event(event)
        raise ServiceError(500, "stream closed before the job settled")


__all__ = [
    "Backpressure",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "connect",
    "is_tcp_address",
    "read_frames",
]
