"""Simulation configuration (Table 3 of the paper).

Every architectural knob the evaluation sweeps lives here as a dataclass
field, with defaults matching the paper's RTX 3070-like configuration:
46 SMs at 1500 MHz, per-SM 32-entry fully-associative L1 TLBs, a shared
1024-entry 16-way L2 TLB with 128 MSHRs, a 4 MB L2 data cache, GDDR6
memory at 448 GB/s over 16 channels, a four-level radix page table with a
32-entry page walk cache, and 32 hardware page table walkers.
"""

from __future__ import annotations

import difflib
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, ClassVar, Iterator, Mapping

from repro.arch.registry import (
    DISTRIBUTOR_POLICIES,
    PAGE_TABLE_KINDS,
    PWB_POLICIES,
    WALK_BACKENDS,
    load_plugins,
)

KB = 1024
MB = 1024 * 1024

#: Base page size used throughout the paper's main evaluation.
PAGE_SIZE_64K = 64 * KB
#: Large page size used in the Section 6.3 sensitivity study.
PAGE_SIZE_2M = 2 * MB

#: Virtual/physical address widths (NVIDIA Pascal MMU format, ref [60]).
VIRTUAL_ADDRESS_BITS = 49
PHYSICAL_ADDRESS_BITS = 47


def _dataclass_from_dict(cls, data: Mapping) -> Any:
    """Build a config dataclass from a mapping, rejecting unknown keys.

    Inline config dicts arrive from files, CLI flags, and service
    sockets; a typoed knob must fail loudly here rather than silently
    simulate the default.
    """
    if not isinstance(data, Mapping):
        raise ValueError(
            f"{cls.__name__} expects a mapping, got {type(data).__name__}"
        )
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        hints = []
        for name in unknown:
            close = difflib.get_close_matches(name, known, n=1)
            hints.append(f"{name!r}" + (f" (did you mean {close[0]!r}?)" if close else ""))
        raise ValueError(f"unknown {cls.__name__} field(s): {', '.join(hints)}")
    return cls(**data)


class SerializableConfig:
    """Lossless ``to_dict``/``from_dict`` for flat config dataclasses."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> Any:
        return _dataclass_from_dict(cls, data)


@dataclass(frozen=True)
class TLBConfig(SerializableConfig):
    """One TLB level.  ``associativity=0`` means fully associative."""

    entries: int
    associativity: int
    latency: int
    mshr_entries: int
    mshr_merges: int

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError("TLB must have at least one entry")
        if self.associativity < 0:
            raise ValueError("associativity must be >= 0 (0 = fully associative)")
        if self.associativity and self.entries % self.associativity:
            raise ValueError("entries must be a multiple of associativity")

    @property
    def num_sets(self) -> int:
        if self.associativity == 0:
            return 1
        return self.entries // self.associativity


@dataclass(frozen=True)
class CacheConfig(SerializableConfig):
    """A data cache level (L1D folded into latency; L2D fully modelled)."""

    size_bytes: int
    line_bytes: int
    sector_bytes: int
    associativity: int
    latency: int
    mshr_entries: int

    def __post_init__(self) -> None:
        for name in ("size_bytes", "line_bytes", "sector_bytes", "associativity"):
            if getattr(self, name) < 1:
                raise ValueError(f"cache {name} must be positive")
        if self.line_bytes % self.sector_bytes:
            raise ValueError("line size must be a multiple of sector size")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError("cache size must divide evenly into sets")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class DRAMConfig(SerializableConfig):
    """GDDR6 channel model: fixed access latency plus per-channel bandwidth."""

    channels: int = 16
    latency: int = 250
    #: Service cycles a 32B sector occupies one channel; derived from
    #: 448 GB/s aggregate at a 1500 MHz core clock (~18.7 B/cycle/channel).
    cycles_per_access: int = 2

    def __post_init__(self) -> None:
        if self.channels <= 0:
            raise ValueError("need at least one DRAM channel")


@dataclass(frozen=True)
class PageTableConfig(SerializableConfig):
    """Radix page-table geometry."""

    page_size: int = PAGE_SIZE_64K
    levels: int = 4
    pte_bytes: int = 8

    def __post_init__(self) -> None:
        if self.page_size & (self.page_size - 1):
            raise ValueError("page size must be a power of two")
        if self.levels < 1:
            raise ValueError("page table needs at least one level")

    @property
    def offset_bits(self) -> int:
        return self.page_size.bit_length() - 1

    @property
    def vpn_bits(self) -> int:
        return VIRTUAL_ADDRESS_BITS - self.offset_bits

    @property
    def pfn_bits(self) -> int:
        return PHYSICAL_ADDRESS_BITS - self.offset_bits


@dataclass(frozen=True)
class PTWConfig(SerializableConfig):
    """Hardware page-walk subsystem: walkers, PWB, and page walk cache."""

    num_walkers: int = 32
    pwb_entries: int = 64
    pwb_ports: int = 1
    pwc_entries: int = 32
    #: Deepest page-table level whose node pointers the PWC caches.
    #: 2 = PDE-cache style (walks always read >= 2 PTEs); 1 = aggressive.
    pwc_min_level: int = 2
    #: Neighborhood-aware coalescing (NHA baseline): merge pending walks
    #: whose final-level PTEs share one cache sector.
    nha_coalescing: bool = False
    #: "radix" (default) or "hashed" (the FS-HPT baseline).
    page_table_kind: str = "radix"
    #: PWB dequeue order: "fcfs", or "sm_batch" — the warp-aware
    #: page-walk scheduling baseline (ref [85]) that drains walks of one
    #: requester together to shrink intra-warp completion spread.
    pwb_policy: str = "fcfs"

    def __post_init__(self) -> None:
        if self.num_walkers < 0:
            raise ValueError("number of walkers cannot be negative")
        if self.num_walkers and self.pwb_entries < 1:
            raise ValueError("PWB needs at least one entry")
        PAGE_TABLE_KINDS.validate(self.page_table_kind)
        PWB_POLICIES.validate(self.pwb_policy)


class DistributorPolicy:
    """Request Distributor policies evaluated in Figure 26.

    The built-in trio; the authoritative catalogue (including plugin
    policies) is :data:`repro.arch.registry.DISTRIBUTOR_POLICIES`.
    """

    ROUND_ROBIN = "round_robin"
    RANDOM = "random"
    STALL_AWARE = "stall_aware"

    ALL = (ROUND_ROBIN, RANDOM, STALL_AWARE)


@dataclass(frozen=True)
class SoftWalkerConfig(SerializableConfig):
    """SoftWalker: PW Warps, SoftPWB, Request Distributor, In-TLB MSHR."""

    enabled: bool = False
    #: 32 page-walk threads per SM (one PW Warp).
    pw_threads_per_sm: int = 32
    softpwb_entries: int = 32
    #: Maximum L2 TLB entries repurposable as MSHRs (0 disables In-TLB MSHR).
    in_tlb_mshr_entries: int = 1024
    #: Keep hardware walkers and overflow to software (Section 5.4).
    hybrid: bool = False
    distributor_policy: str = DistributorPolicy.ROUND_ROBIN
    #: Issue cost of one PW-warp instruction when the SM has free slots.
    instruction_cycles: int = 4
    #: Number of instructions per walk level (offset compute, LDPT, FPWC).
    instructions_per_level: int = 3
    #: Instructions outside the level loop (request decode, FL2T).
    instructions_fixed: int = 5
    #: Ablation: execute the PW warp in strict SIMT lockstep — all 32
    #: threads advance level-by-level together, each level waiting for
    #: the slowest LDPT (memory divergence).  The paper's design lets
    #: threads proceed independently; this knob quantifies why.
    simt_lockstep: bool = False

    def __post_init__(self) -> None:
        DISTRIBUTOR_POLICIES.validate(self.distributor_policy)
        if self.enabled and self.pw_threads_per_sm < 1:
            raise ValueError("PW warp needs at least one thread")
        if self.softpwb_entries < self.pw_threads_per_sm:
            raise ValueError("SoftPWB must hold at least one entry per PW thread")


#: Built-in walk backends that need hardware walkers, with the refusal
#: for a config that selects one and has none.
_WALKER_BACKENDS = {
    "hardware": "no walk backend: zero PTWs and SoftWalker disabled",
    "hybrid": "hybrid mode needs hardware walkers",
}


@dataclass(frozen=True)
class GPUConfig:
    """Top-level GPU configuration (Table 3 defaults)."""

    num_sms: int = 46
    max_warps_per_sm: int = 48
    warp_width: int = 32
    #: Warp instructions an SM can issue per cycle.
    issue_width: int = 1

    l1_tlb: TLBConfig = field(
        default_factory=lambda: TLBConfig(
            entries=32, associativity=0, latency=10, mshr_entries=32, mshr_merges=192
        )
    )
    l2_tlb: TLBConfig = field(
        default_factory=lambda: TLBConfig(
            entries=1024, associativity=16, latency=80, mshr_entries=128, mshr_merges=46
        )
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=128 * KB,
            line_bytes=128,
            sector_bytes=32,
            associativity=4,
            latency=40,
            mshr_entries=64,
        )
    )
    l2d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=4 * MB,
            line_bytes=128,
            sector_bytes=32,
            associativity=16,
            latency=180,
            mshr_entries=256,
        )
    )
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    page_table: PageTableConfig = field(default_factory=PageTableConfig)
    ptw: PTWConfig = field(default_factory=PTWConfig)
    softwalker: SoftWalkerConfig = field(default_factory=SoftWalkerConfig)

    #: Fixed per-level page-table access latency override; None means the
    #: latency is measured dynamically through the L2 cache / DRAM model
    #: (the paper's default).  Figure 23 sweeps this knob.
    fixed_pt_level_latency: int | None = None

    #: Attach In-TLB MSHRs to a hardware-walker configuration even when
    #: SoftWalker is disabled (the Figure 21 "128 PTWs + In-TLB" study).
    hw_in_tlb_mshr: bool = False

    #: CoLT-style L2 TLB coalescing span in pages (power of two; 1
    #: disables).  One entry covers an aligned block of contiguously
    #: mapped pages, extending TLB reach (refs [74, 6, 49]).
    tlb_coalescing_span: int = 1

    #: Avatar-style TLB speculation (ref [72]): guess physical addresses
    #: from contiguity on L1 TLB misses; correct guesses skip the L2 TLB
    #: and walk, wrong ones pay a squash penalty and walk normally.
    tlb_speculation: bool = False

    #: Explicit walk-backend registry name (``repro.arch.WALK_BACKENDS``),
    #: letting plugins swap the whole walk subsystem in.  None — the
    #: default — derives the backend from the SoftWalker knobs exactly as
    #: the historical assembly did, and is *dropped* from
    #: :meth:`to_dict`, so every pre-existing config fingerprint stays
    #: bit-identical.
    walk_backend: str | None = None

    def __post_init__(self) -> None:
        if self.walk_backend is not None:
            WALK_BACKENDS.validate(self.walk_backend)
            self.check_walkers()

    @property
    def backend_name(self) -> str:
        """The walk-backend registry name this config selects.

        An explicit ``walk_backend`` wins; otherwise the name is derived
        from the SoftWalker knobs.
        """
        if self.walk_backend is not None:
            return self.walk_backend
        if self.softwalker.enabled:
            return "hybrid" if self.softwalker.hybrid else "softwalker"
        return "hardware"

    def check_walkers(self) -> None:
        """Refuse a backend that needs hardware walkers when there are none.

        Runs at construction for an explicit ``walk_backend`` and in
        :meth:`from_dict` for every config.  A derived backend is not
        checked at construction, so builder chains such as
        ``.with_ptw(num_walkers=0).with_softwalker(enabled=True)`` may
        pass through a walkerless hardware state on the way.
        """
        if self.ptw.num_walkers == 0 and self.backend_name in _WALKER_BACKENDS:
            raise ValueError(_WALKER_BACKENDS[self.backend_name])

    def derive(self, **overrides: Any) -> "GPUConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **overrides)

    def with_ptw(self, **overrides: Any) -> "GPUConfig":
        return replace(self, ptw=replace(self.ptw, **overrides))

    def with_softwalker(self, **overrides: Any) -> "GPUConfig":
        return replace(self, softwalker=replace(self.softwalker, **overrides))

    def with_l2_tlb(self, **overrides: Any) -> "GPUConfig":
        return replace(self, l2_tlb=replace(self.l2_tlb, **overrides))

    def with_page_size(self, page_size: int) -> "GPUConfig":
        """Switch page size; 2MB pages use a three-level walk (Section 6.3)."""
        levels = 3 if page_size >= PAGE_SIZE_2M else 4
        return replace(
            self,
            page_table=replace(self.page_table, page_size=page_size, levels=levels),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    #: Nested config fields and the dataclass each deserializes into.
    _NESTED: ClassVar[dict[str, type]] = {}  # filled in below the class body

    def to_dict(self) -> dict:
        """Lossless JSON-safe dict; ``from_dict`` inverts it exactly.

        ``walk_backend`` is omitted when None (the default) so the
        serialized shape of every config that predates the field is
        unchanged — the golden-fingerprint tests pin this.
        """
        data = asdict(self)
        if self.walk_backend is None:
            del data["walk_backend"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "GPUConfig":
        """Rebuild a config from :meth:`to_dict` output (or any subset).

        Missing fields take their defaults; unknown fields raise with a
        did-you-mean hint; nested sections accept plain mappings.  A
        config whose walk backend needs hardware walkers it does not
        have is refused here, before anything is built or queued.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"GPUConfig expects a mapping, got {type(data).__name__}"
            )
        converted = dict(data)
        for key, sub_cls in cls._NESTED.items():
            value = converted.get(key)
            if isinstance(value, Mapping):
                converted[key] = sub_cls.from_dict(value)
        config = _dataclass_from_dict(cls, converted)
        config.check_walkers()
        return config


GPUConfig._NESTED = {
    "l1_tlb": TLBConfig,
    "l2_tlb": TLBConfig,
    "l1d": CacheConfig,
    "l2d": CacheConfig,
    "dram": DRAMConfig,
    "page_table": PageTableConfig,
    "ptw": PTWConfig,
    "softwalker": SoftWalkerConfig,
}


def baseline_config() -> GPUConfig:
    """The paper's baseline: 32 hardware PTWs, 128 L2 TLB MSHRs, 64KB pages."""
    return GPUConfig()


def softwalker_config(
    *,
    in_tlb_mshr_entries: int = 1024,
    hybrid: bool = False,
    distributor_policy: str = DistributorPolicy.ROUND_ROBIN,
) -> GPUConfig:
    """SoftWalker: software walkers (plus hardware ones when hybrid)."""
    base = baseline_config()
    return base.derive(
        ptw=replace(base.ptw, num_walkers=base.ptw.num_walkers if hybrid else 0),
        softwalker=replace(
            base.softwalker,
            enabled=True,
            in_tlb_mshr_entries=in_tlb_mshr_entries,
            hybrid=hybrid,
            distributor_policy=distributor_policy,
        ),
    )


def nha_config() -> GPUConfig:
    """Baseline plus Neighborhood-Aware page-walk coalescing (ref [86])."""
    return baseline_config().with_ptw(nha_coalescing=True)


def fshpt_config() -> GPUConfig:
    """Baseline with a Fixed-Size Hashed Page Table (ref [32])."""
    return baseline_config().with_ptw(page_table_kind="hashed")


def avatar_config() -> GPUConfig:
    """Baseline plus Avatar-style TLB speculation (ref [72])."""
    return baseline_config().derive(tlb_speculation=True)


def ideal_config() -> GPUConfig:
    """Ideal PTWs with ideal MSHRs: effectively unbounded concurrency."""
    base = baseline_config()
    return base.derive(
        ptw=replace(
            base.ptw, num_walkers=1 << 20, pwb_entries=1 << 20, pwb_ports=1 << 20
        ),
        l2_tlb=replace(base.l2_tlb, mshr_entries=1 << 20),
    )


def config_fingerprint(config: GPUConfig) -> dict:
    """JSON-safe nested dict of every knob, for stable cache keys.

    Two configs with equal fingerprints build identical machines, so
    the persistent result store keys simulations on this (plus the
    workload point) rather than on pickled objects.  Delegates to
    :meth:`GPUConfig.to_dict`, so a named variant and an equivalent
    inline config dict produce the *same* fingerprint (and therefore
    hit the same store entry).
    """
    return config.to_dict()


@dataclass(frozen=True)
class ConfigVariant:
    """One named entry of a :class:`ConfigRegistry`."""

    name: str
    factory: Callable[[], GPUConfig]
    description: str = ""

    def build(self) -> GPUConfig:
        return self.factory()


class ConfigRegistry:
    """Name -> configuration-factory mapping shared by every front end.

    The CLI, the experiment figures, and the sweep engine all resolve
    named configurations here, so a variant registered once (say from a
    user script) is immediately selectable everywhere.  Iteration and
    ``registry[name]`` mimic the plain dict the CLI historically used.
    """

    def __init__(self) -> None:
        self._variants: dict[str, ConfigVariant] = {}

    def register(
        self,
        name: str,
        factory: Callable[[], GPUConfig],
        *,
        description: str = "",
        replace_existing: bool = False,
    ) -> ConfigVariant:
        if not replace_existing and name in self._variants:
            raise ValueError(f"configuration {name!r} is already registered")
        variant = ConfigVariant(name=name, factory=factory, description=description)
        self._variants[name] = variant
        return variant

    def get(self, name: str) -> GPUConfig:
        """Build the named configuration (a fresh instance every call)."""
        return self.variant(name).build()

    def variant(self, name: str) -> ConfigVariant:
        try:
            return self._variants[name]
        except KeyError:
            pass
        # Plugins may register named variants; load and retry once.
        if load_plugins():
            try:
                return self._variants[name]
            except KeyError:
                pass
        known = ", ".join(sorted(self._variants)) or "(none)"
        message = f"unknown configuration {name!r}; registered: {known}"
        close = difflib.get_close_matches(name, self._variants, n=1)
        if close:
            message += f" — did you mean {close[0]!r}?"
        raise KeyError(message) from None

    def factory(self, name: str) -> Callable[[], GPUConfig]:
        return self.variant(name).factory

    def describe(self, name: str) -> str:
        return self.variant(name).description

    def variants(self) -> list[ConfigVariant]:
        """Every registered variant, in registration order."""
        return list(self._variants.values())

    def names(self) -> list[str]:
        return list(self._variants)

    def __contains__(self, name: object) -> bool:
        return name in self._variants

    def __iter__(self) -> Iterator[str]:
        return iter(self._variants)

    def __len__(self) -> int:
        return len(self._variants)

    def __getitem__(self, name: str) -> Callable[[], GPUConfig]:
        return self.factory(name)


#: Default daemon socket path; ``REPRO_SOCKET`` overrides it.
DEFAULT_SERVICE_SOCKET = ".repro/service.sock"

_SOCKET_ENV = "REPRO_SOCKET"
_WORKERS_ENV = "REPRO_WORKERS"


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for the simulation-as-a-service daemon (``repro serve``).

    Architectural knobs live in :class:`GPUConfig`; these are the
    *operational* ones — where the daemon listens, how much work it
    admits before pushing back, how many local worker hosts it forks,
    and how patiently it drains on shutdown.  See docs/service.md.
    """

    #: Unix-domain socket the daemon listens on.
    socket_path: str = DEFAULT_SERVICE_SOCKET
    #: Optional ``host:port`` TCP listener beside the unix socket (the
    #: fleet transport worker hosts and remote clients connect to).
    tcp: str | None = None
    #: Queue-state file written on drain; None derives
    #: ``<socket_path>.state.json``.
    state_path: str | None = None
    #: Queued jobs (all clients) before submits get a 429 reply.
    max_depth: int = 16
    #: Local worker hosts the daemon forks on its unix socket (each runs
    #: one job at a time); 0 disables local execution entirely — a pure
    #: scheduler whose jobs are all pulled by remote worker hosts.
    max_inflight: int = 2
    #: Queued jobs one client may hold before its submits get a 429.
    max_client_depth: int = 8
    #: Wall-clock seconds per job attempt (None = no watchdog); enforced
    #: inside the worker by the supervised runner, which then returns
    #: the partial result rather than retrying.
    job_timeout: float | None = None
    #: Engine events per supervised slice (the heartbeat cadence).
    slice_events: int = 20_000
    #: Cycles between gauge samples streamed to subscribers (0 = off).
    sample_interval: int = 1_000
    #: Seconds to let in-flight jobs finish during a drain before they
    #: are checkpointed back onto the persisted queue.
    drain_grace: float = 30.0

    # --- fleet execution (leases, worker hosts, tenant limits) --------
    #: Seconds a dispatch lease stays valid without a heartbeat refresh;
    #: a worker silent for longer is presumed dead and its job requeued.
    lease_ttl: float = 15.0
    #: Reaper cadence; None derives ``lease_ttl / 4`` (clamped to
    #: [0.05, lease_ttl]).
    lease_check_interval: float | None = None
    #: Crashed dispatches (worker death / lease expiry) a job may burn
    #: before it is dead-lettered instead of requeued.
    attempt_budget: int = 3
    #: First crash requeue waits this many seconds, doubling per crash.
    requeue_backoff: float = 0.5
    #: Seconds the scheduler holds an idle worker host's long poll when
    #: the host names no hold of its own (``repro worker --poll-interval``).
    worker_poll_interval: float = 0.5
    #: Result-store size budget in bytes (oldest entries evicted past
    #: it); None leaves the store unbounded.
    store_budget: int | None = None
    #: Per-client admission rate limit in submissions/second (token
    #: bucket with ``client_burst`` capacity); None disables it.
    client_rate: float | None = None
    #: Token-bucket burst capacity for ``client_rate``.
    client_burst: int = 8

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.max_inflight < 0:
            raise ValueError("max_inflight must be >= 0 (0 = no local workers)")
        if self.max_client_depth < 1:
            raise ValueError("max_client_depth must be >= 1")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None)")
        if self.slice_events < 1:
            raise ValueError("slice_events must be >= 1")
        if self.sample_interval < 0:
            raise ValueError("sample_interval must be >= 0 (0 = off)")
        if self.drain_grace < 0:
            raise ValueError("drain_grace must be >= 0")
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if self.lease_check_interval is not None and self.lease_check_interval <= 0:
            raise ValueError("lease_check_interval must be positive (or None)")
        if self.attempt_budget < 1:
            raise ValueError("attempt_budget must be >= 1")
        if self.requeue_backoff < 0:
            raise ValueError("requeue_backoff must be >= 0")
        if self.worker_poll_interval <= 0:
            raise ValueError("worker_poll_interval must be positive")
        if self.store_budget is not None and self.store_budget < 1:
            raise ValueError("store_budget must be >= 1 (or None)")
        if self.client_rate is not None and self.client_rate <= 0:
            raise ValueError("client_rate must be positive (or None)")
        if self.client_burst < 1:
            raise ValueError("client_burst must be >= 1")

    @property
    def effective_state_path(self) -> str:
        return (
            self.state_path
            if self.state_path is not None
            else self.socket_path + ".state.json"
        )

    @property
    def effective_lease_check_interval(self) -> float:
        if self.lease_check_interval is not None:
            return self.lease_check_interval
        return min(self.lease_ttl, max(0.05, self.lease_ttl / 4.0))

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServiceConfig":
        """Defaults with ``REPRO_SOCKET`` applied, then ``overrides``."""
        if "socket_path" not in overrides:
            socket = os.environ.get(_SOCKET_ENV)
            if socket:
                overrides["socket_path"] = socket
        return cls(**overrides)


def default_socket_path() -> str:
    """Socket path named by ``REPRO_SOCKET``, else the default."""
    return os.environ.get(_SOCKET_ENV) or DEFAULT_SERVICE_SOCKET


def default_worker_count() -> int:
    """Worker hosts ``repro worker`` starts: ``REPRO_WORKERS`` or 1."""
    raw = os.environ.get(_WORKERS_ENV)
    if not raw:
        return 1
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from None
    if count < 1:
        raise ValueError(f"REPRO_WORKERS must be >= 1, got {count}")
    return count


#: The default registry: every named configuration of the evaluation.
DEFAULT_CONFIGS = ConfigRegistry()
DEFAULT_CONFIGS.register(
    "baseline", baseline_config,
    description="32 hardware PTWs, 128 L2 TLB MSHRs, 64KB pages (Table 3)",
)
DEFAULT_CONFIGS.register(
    "nha", nha_config,
    description="baseline plus Neighborhood-Aware page-walk coalescing",
)
DEFAULT_CONFIGS.register(
    "fshpt", fshpt_config,
    description="baseline with a Fixed-Size Hashed Page Table",
)
DEFAULT_CONFIGS.register(
    "avatar", avatar_config,
    description="baseline plus Avatar-style TLB speculation",
)
DEFAULT_CONFIGS.register(
    "softwalker", softwalker_config,
    description="software page-table walk with In-TLB MSHR (the paper's design)",
)
DEFAULT_CONFIGS.register(
    "softwalker-no-intlb", lambda: softwalker_config(in_tlb_mshr_entries=0),
    description="SoftWalker with the In-TLB MSHR disabled",
)
DEFAULT_CONFIGS.register(
    "hybrid", lambda: softwalker_config(hybrid=True),
    description="hardware walkers kept, software walkers absorb the overflow",
)
DEFAULT_CONFIGS.register(
    "ideal", ideal_config,
    description="unbounded walkers and MSHRs (the upper-bound study)",
)
