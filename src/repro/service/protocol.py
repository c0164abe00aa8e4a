"""Wire protocol of the simulation service: newline-delimited JSON.

Every message on the socket — request or reply — is one JSON object on
one line (``\\n``-terminated, UTF-8).  Clients may send any number of
requests over one connection; the server answers each with one reply
frame, except streaming operations (``submit`` with ``wait``/``stream``
and ``subscribe``) which answer with a sequence of event frames ending
in one terminal frame.

Reply frames always carry ``ok`` (bool) and ``code`` (an HTTP-flavoured
int from :data:`CODES` — 200 ok, 202 accepted, 400 bad request, 404
unknown job, 409 lease conflict, 429 backpressure, 500 internal, 503
draining).  A 429/503 reply includes ``retry_after`` (seconds), the
admission controller's hint for when capacity is likely to free up.  A
409 tells a worker its lease token is stale — the job was requeued and
possibly re-leased — so it must abandon the attempt.

The full frame catalogue lives in docs/service.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.config import ConfigRegistry, DEFAULT_CONFIGS, GPUConfig, canonical_key

if TYPE_CHECKING:
    from repro.harness.pool import SweepPoint

#: Bump when frame shapes change incompatibly; servers reject mismatched
#: clients with a 400 instead of misparsing them.
PROTOCOL_VERSION = 1

#: Longest accepted line; anything bigger is a protocol error, not an
#: allocation. Results are a few hundred KB at worst.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Job priority classes, highest first (the queue drains in this order).
PRIORITIES = ("high", "normal", "low")

#: Reply status codes (HTTP-flavoured, carried in every reply frame).
OK = 200
ACCEPTED = 202
BAD_REQUEST = 400
NOT_FOUND = 404
CONFLICT = 409
TOO_MANY_JOBS = 429
INTERNAL_ERROR = 500
DRAINING = 503

#: Operations a worker host sends the scheduler (fleet dispatch).
WORKER_OPS = (
    "worker_register",
    "worker_poll",
    "worker_heartbeat",
    "worker_done",
)

#: Operations a request frame may name.
OPS = (
    "ping",
    "stats",
    "jobs",
    "status",
    "submit",
    "subscribe",
    "drain",
) + WORKER_OPS


class ProtocolError(ValueError):
    """A frame that cannot be parsed or violates the protocol."""


def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """One frame as a compact JSON line (the only wire encoding)."""
    return json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes | str) -> dict:
    """Parse one line into a frame dict; :class:`ProtocolError` on junk."""
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
        line = line.decode("utf-8", errors="replace")
    text = line.strip()
    if not text:
        raise ProtocolError("empty frame")
    try:
        frame = json.loads(text)
    except json.JSONDecodeError as defect:
        raise ProtocolError(f"frame is not valid JSON: {defect}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(frame).__name__}")
    return frame


def parse_tcp_address(text: str) -> tuple[str, int]:
    """Split ``host:port`` (host defaults to loopback when omitted)."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ProtocolError(f"bad TCP address {text!r}; expected host:port")
    return host or "127.0.0.1", int(port)


def ok_frame(code: int = OK, **fields: Any) -> dict:
    return {"ok": True, "code": code, **fields}


def error_frame(code: int, error: str, **fields: Any) -> dict:
    return {"ok": False, "code": code, "error": error, **fields}


@dataclass(frozen=True)
class JobSpec:
    """What one submitted job should simulate.

    Configurations travel either by *registry name* (small wire format,
    resolved against the server's :class:`~repro.config.ConfigRegistry`)
    or *inline* as a full config dict (deserialized into a
    :class:`~repro.config.GPUConfig` at the protocol boundary).  Either
    way the dedupe key is the sweep engine's
    :meth:`~repro.harness.pool.SweepPoint.store_key` — derived from the
    canonical config fingerprint, not the spelling — so a named variant
    and an equivalent inline spec collapse onto one run and one store
    entry.
    """

    benchmark: str
    config: str | GPUConfig = "baseline"
    scale: float = 1.0
    footprint_scale: float = 1.0
    seed: int | None = None
    priority: str = "normal"

    def __post_init__(self) -> None:
        if self.priority not in PRIORITIES:
            raise ProtocolError(
                f"unknown priority {self.priority!r}; expected one of {PRIORITIES}"
            )
        if self.scale <= 0 or self.footprint_scale <= 0:
            raise ProtocolError("scale and footprint_scale must be positive")

    def to_dict(self) -> dict:
        config = (
            self.config if isinstance(self.config, str) else self.config.to_dict()
        )
        out: dict[str, Any] = {"benchmark": self.benchmark, "config": config}
        if self.scale != 1.0:
            out["scale"] = self.scale
        if self.footprint_scale != 1.0:
            out["footprint_scale"] = self.footprint_scale
        if self.seed is not None:
            out["seed"] = self.seed
        if self.priority != "normal":
            out["priority"] = self.priority
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        try:
            benchmark = data["benchmark"]
        except KeyError:
            raise ProtocolError("job spec needs a 'benchmark'") from None
        config = data.get("config", "baseline")
        if isinstance(config, Mapping):
            try:
                config = GPUConfig.from_dict(config)
            except ValueError as defect:
                raise ProtocolError(f"bad inline config: {defect}") from None
        else:
            config = str(config)
        try:
            return cls(
                benchmark=str(benchmark),
                config=config,
                scale=float(data.get("scale", 1.0)),
                footprint_scale=float(data.get("footprint_scale", 1.0)),
                seed=None if data.get("seed") is None else int(data["seed"]),
                priority=str(data.get("priority", "normal")),
            )
        except (TypeError, ValueError) as defect:
            raise ProtocolError(f"malformed job spec: {defect}") from None

    def resolve_config(self, registry: ConfigRegistry = DEFAULT_CONFIGS) -> GPUConfig:
        """The concrete :class:`~repro.config.GPUConfig` to simulate
        (raises KeyError on an unknown configuration name)."""
        if isinstance(self.config, GPUConfig):
            return self.config
        return registry.get(self.config)

    def to_point(self, registry: ConfigRegistry = DEFAULT_CONFIGS) -> SweepPoint:
        """Resolve into a canonical sweep point (raises KeyError on an
        unknown configuration name, ValueError on an unknown benchmark).

        The sweep engine is imported here, not at module level, so a
        client process never loads the simulator."""
        from repro.harness.pool import make_point

        return make_point(
            self.resolve_config(registry),
            self.benchmark,
            scale=self.scale,
            footprint_scale=self.footprint_scale,
            seed=self.seed,
        )

    def key(self, registry: ConfigRegistry = DEFAULT_CONFIGS) -> str:
        """Dedupe/store key: the canonical JSON of the point's store key.

        Two specs with equal keys simulate bit-identically, so the
        scheduler runs one of them and hands both the same result — and
        the persistent :class:`~repro.harness.store.ResultStore` is
        keyed on exactly the same mapping.
        """
        return canonical_key(self.to_point(registry).store_key())

    def config_label(self) -> str:
        """Short display name: the registry name, or a fingerprint tag."""
        if isinstance(self.config, str):
            return self.config
        digest = hashlib.sha256(
            canonical_key(self.config.to_dict()).encode()
        ).hexdigest()
        return "inline-" + digest[:8]

    def label(self) -> str:
        return f"{self.config_label()}/{self.to_label_suffix()}"

    def to_label_suffix(self) -> str:
        parts = [self.benchmark, f"x{self.scale:g}"]
        if self.footprint_scale != 1.0:
            parts.append(f"fp{self.footprint_scale:g}")
        if self.seed is not None:
            parts.append(f"seed{self.seed}")
        return "/".join(parts)
