"""Machine specification and builder: registry-driven assembly.

:class:`MachineSpec` is the serializable description of one simulated
machine — a :class:`~repro.config.GPUConfig` plus the component names
the config resolves to (walk backend, page-table kind, PWB policy,
distributor policy).  :class:`MachineBuilder` turns a spec plus a
workload into a fully wired :class:`Machine`;
:class:`~repro.gpu.gpu.GPUSimulator` is a thin façade over it.

The builder constructs components in a fixed, documented order (engine,
stats, memory, SMs, PWC, PTE port, backend, fault path, translation,
warps) — the same order the hand-wired assembly always used, so a
machine built here is event-for-event identical to one built by the
pre-registry code.  The golden-fingerprint tests pin that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.arch.registry import PAGE_TABLE_KINDS, WALK_BACKENDS
from repro.config import GPUConfig


@dataclass(frozen=True)
class TraversalPlan:
    """How hardware walkers traverse the configured page-table kind.

    ``traversal`` is a ``(vpn, start_level, begin) -> WalkOutcome``
    callable, or None for the built-in radix pointer chase; ``pwc`` is
    the page walk cache the walkers should consult (None when the kind
    has no cacheable interior nodes, e.g. a hashed table).
    """

    traversal: Callable[[int, int, int], Any] | None
    pwc: Any | None


@dataclass(frozen=True)
class MachineSpec:
    """Serializable description of one buildable machine."""

    config: GPUConfig

    # ------------------------------------------------------------------
    # Component resolution
    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        """The walk-backend registry name this spec selects.

        :attr:`GPUConfig.backend_name` derives it; a backend that needs
        hardware walkers the config lacks is refused here too, for
        configs built in code rather than through ``from_dict``.
        """
        self.config.check_walkers()
        return self.config.backend_name

    # ------------------------------------------------------------------
    # Serialization (lossless; mirrors GPUConfig.to_dict/from_dict)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"config": self.config.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MachineSpec":
        """Accepts ``{"config": {...}}`` or a bare config dict."""
        payload = data.get("config", data)
        if not isinstance(payload, Mapping):
            raise ValueError("machine spec 'config' must be a mapping")
        return cls(config=GPUConfig.from_dict(payload))


@dataclass
class BackendContext:
    """Everything a walk-backend factory may wire against.

    Passed to every :data:`~repro.arch.registry.WALK_BACKENDS` factory;
    plugins get the same view of the machine the built-in backends do.
    """

    engine: Any
    config: GPUConfig
    sms: list
    space: Any
    pte_port: Any
    pwc: Any
    stats: Any

    def traversal_plan(self) -> TraversalPlan:
        """Resolve the configured page-table kind into a traversal."""
        return PAGE_TABLE_KINDS.create(self.config.ptw.page_table_kind, self)


@dataclass
class Machine:
    """A fully wired machine: every component, ready to run."""

    spec: MachineSpec
    workload: Any
    engine: Any
    stats: Any
    space: Any
    memory: Any
    sms: list
    pwc: Any
    backend: Any
    fault_buffer: Any
    fault_handler: Any
    translation: Any
    warps: list = field(default_factory=list)

    @property
    def config(self) -> GPUConfig:
        return self.spec.config


class MachineBuilder:
    """Assembles a :class:`Machine` from a :class:`MachineSpec`.

    Construction order is part of the determinism contract — do not
    reorder steps without re-pinning the golden fingerprints.
    """

    def __init__(self, spec: MachineSpec | GPUConfig) -> None:
        if isinstance(spec, GPUConfig):
            spec = MachineSpec(config=spec)
        self.spec = spec

    def build(self, workload, *, obs=None) -> Machine:
        # Imports are local so this module stays importable from the
        # config layer without dragging the whole machine model in.
        from repro.gpu.faults import FaultBuffer, UVMFaultHandler
        from repro.gpu.sm import SM
        from repro.gpu.translation import TranslationService
        from repro.obs import NULL_OBS
        from repro.ptw.walker import PteMemoryPort
        from repro.sim.engine import Engine
        from repro.sim.stats import StatsRegistry
        from repro.tlb.pwc import PageWalkCache

        config = self.spec.config
        if workload.config.page_table != config.page_table:
            raise ValueError("workload was generated for a different page-table setup")
        obs = obs if obs is not None else NULL_OBS

        engine = Engine()
        stats = StatsRegistry(obs)
        space = workload.space
        memory = self._build_memory(config, stats)
        sms = [SM(i, stats) for i in range(config.num_sms)]
        pwc = PageWalkCache(
            config.ptw.pwc_entries,
            space.layout,
            space.radix.root_base,
            stats,
            min_level=config.ptw.pwc_min_level,
        )
        pte_port = PteMemoryPort(memory.l2, config.fixed_pt_level_latency)
        context = BackendContext(
            engine=engine,
            config=config,
            sms=sms,
            space=space,
            pte_port=pte_port,
            pwc=pwc,
            stats=stats,
        )
        backend = WALK_BACKENDS.create(self.spec.backend_name, context)
        fault_buffer = FaultBuffer(stats)
        fault_handler = UVMFaultHandler(engine, space, fault_buffer, backend.submit)
        translation = TranslationService(
            engine,
            config,
            space,
            pwc,
            backend,
            stats,
            fault_handler=fault_handler,
        )
        machine = Machine(
            spec=self.spec,
            workload=workload,
            engine=engine,
            stats=stats,
            space=space,
            memory=memory,
            sms=sms,
            pwc=pwc,
            backend=backend,
            fault_buffer=fault_buffer,
            fault_handler=fault_handler,
            translation=translation,
        )
        machine.warps = self._build_warps(machine)
        return machine

    def _build_memory(self, config: GPUConfig, stats):
        from repro.memory.hierarchy import MemorySystem

        return MemorySystem(config, stats)

    def _build_warps(self, machine: Machine) -> list:
        from repro.gpu.warp import Warp

        config = machine.config
        warps = []
        page_size = config.page_table.page_size
        warp_id = 0
        for sm_id, sm_programs in enumerate(machine.workload.programs):
            for program in sm_programs:
                warps.append(
                    Warp(
                        warp_id,
                        machine.sms[sm_id],
                        machine.engine,
                        machine.translation,
                        machine.memory.l1s[sm_id],
                        page_size,
                        program,
                    )
                )
                warp_id += 1
                machine.stats.counters.add(
                    "gpu.mem_instructions",
                    sum(1 for _compute, vpns, _offsets in program if vpns is not None),
                )
        return warps
