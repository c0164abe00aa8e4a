"""Trace construction for a workload specification.

A :class:`~repro.workloads.spec.WorkloadSpec` (re-exported here)
captures everything Table 4 records about a benchmark.
:class:`TraceWorkload` turns a spec into compiled per-warp programs
(see :func:`~repro.gpu.warp.compile_trace`) and a pre-populated address
space, deterministic per benchmark name so every configuration replays
the identical workload.  Compiled programs are read-only, so a sweep's
consecutive configurations share one compile of that workload.
"""

from __future__ import annotations

import zlib
from itertools import compress, repeat
from typing import Iterable, Iterator

import numpy as np

from repro.config import GPUConfig
from repro.gpu.warp import LINE_BYTES, LINE_SHIFT, Program, compile_trace
from repro.pagetable.space import AddressSpace
from repro.workloads.patterns import get_pattern
from repro.workloads.spec import IRREGULAR, REGULAR, WorkloadSpec  # noqa: F401

#: The last compiled pattern trace, ``(key, (programs, touched VPNs))``.
#: One slot: sweeps are benchmark-major, so the configs that replay one
#: benchmark follow each other.  The key holds every input of the
#: compile, so a hit equals a fresh compile; nothing mutates programs.
_last_compile: tuple | None = None


class TraceWorkload:
    """Compiled warp programs + address space for one (spec, config) pair.

    ``programs[sm][warp]`` is what each warp runs (see
    :func:`~repro.gpu.warp.compile_trace`).  Subclasses supply other
    line-space traces by overriding :meth:`_generate`; the line-space
    view :attr:`traces` is derived on demand.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        config: GPUConfig,
        *,
        scale: float = 1.0,
        footprint_scale: float = 1.0,
        seed: int | None = None,
        contiguous_frames: bool = False,
    ) -> None:
        self.spec = spec
        self.config = config
        self.page_size = config.page_table.page_size
        self._lines_per_page = self.page_size // LINE_BYTES
        base_seed = seed if seed is not None else zlib.crc32(spec.name.encode())
        #: The seed actually used, derived when ``seed=None`` — recorded
        #: in :class:`~repro.gpu.gpu.SimulationResult` so any run can be
        #: replayed exactly from its result metadata.
        self.effective_seed = base_seed
        self.footprint_lines = spec.footprint_lines(footprint_scale)

        self.mem_insts_per_warp = max(1, round(spec.mem_insts_per_warp * scale))
        self.warps_per_sm = min(spec.warps_per_sm, config.max_warps_per_sm)
        self.programs, self._touched_vpns = self._shared_compile()
        # The hashed mirror (FS-HPT) is fixed-size, dimensioned to the
        # workload like the original design: ~4 slots per mapped page.
        touched = len(self._touched_vpns)
        hashed_slots = max(1 << 10, 1 << (4 * max(1, touched)).bit_length())
        self.space = AddressSpace(
            config.page_table,
            with_hashed_table=True,
            hashed_slots=hashed_slots,
            # Contiguous allocation models an OS that preserves
            # virtual-to-physical contiguity (what TLB coalescing needs).
            shuffle_seed=None if contiguous_frames else 1234,
        )
        self._premap()

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------
    def _lane_arrays(self) -> Iterator[list[np.ndarray]]:
        """The pattern's ``(instructions, lanes)`` line array of every
        warp, one SM at a time, from a fresh seeded generator."""
        pattern = get_pattern(self.spec.pattern)
        rng = np.random.default_rng(self.effective_seed)
        num_warps_total = self.config.num_sms * self.warps_per_sm
        slot = 0
        for _sm in range(self.config.num_sms):
            sm_lanes = []
            for _warp in range(self.warps_per_sm):
                sm_lanes.append(
                    pattern(
                        rng,
                        slot,
                        num_warps_total,
                        self.mem_insts_per_warp,
                        self.footprint_lines,
                        **self.spec.pattern_params,
                    )
                )
                slot += 1
            yield sm_lanes

    def _generate(self) -> Iterable[list[list[tuple]]]:
        """Line-space traces, ``[warp][instruction]`` per SM, in SM order."""
        for sm_lanes in self._lane_arrays():
            yield [self._to_instructions(lanes) for lanes in sm_lanes]

    def _to_instructions(self, lane_lines: np.ndarray) -> list[tuple]:
        compute = self.spec.compute_per_mem
        lines, fresh = _sorted_unique(lane_lines)
        instructions: list[tuple] = []
        for row, keep in zip(lines.tolist(), fresh.tolist()):
            if compute:
                instructions.append(("c", compute))
            instructions.append(("m", tuple(compress(row, keep))))
        return instructions

    @property
    def traces(self) -> list[list[list[tuple]]]:
        """Line-space traces ``[sm][warp][instruction]`` (regenerated)."""
        return [list(sm_traces) for sm_traces in self._generate()]

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _shared_compile(self) -> tuple[list[list[Program]], list[int]]:
        """:meth:`_compile`, reused from the previous workload when every
        input it reads is equal.  A subclass may change what is compiled
        (the microbenchmark overrides :meth:`_generate`), so its traces
        are never shared."""
        global _last_compile
        if type(self) is not TraceWorkload:
            return self._compile()
        spec = self.spec
        key = (
            spec.pattern,
            dict(spec.pattern_params),
            spec.compute_per_mem,
            self.footprint_lines,
            self.mem_insts_per_warp,
            self.warps_per_sm,
            self.config.num_sms,
            self._lines_per_page,
            self.effective_seed,
        )
        held = _last_compile
        if held is not None and held[0] == key:
            return held[1]
        # Drop the held trace first, so at most one is alive at a time.
        _last_compile = None
        compiled = self._compile()
        _last_compile = (key, compiled)
        return compiled

    def _compile(self) -> tuple[list[list[Program]], list[int]]:
        """Every warp's program, and the sorted VPNs they touch.

        Pattern traces compile straight from their lane arrays; a
        subclass's own :meth:`_generate` goes through
        :func:`~repro.gpu.warp.compile_trace`.  Either way only one SM's
        traces exist at a time.
        """
        lines_per_page = self._lines_per_page
        programs: list[list[Program]] = []
        if type(self)._generate is not TraceWorkload._generate:
            pages: set[int] = set()
            for sm_traces in self._generate():
                sm_programs = [compile_trace(t, lines_per_page) for t in sm_traces]
                for program in sm_programs:
                    for _compute, vpns, _offsets in program:
                        if vpns:
                            pages.update(vpns)
                programs.append(sm_programs)
            return programs, sorted(pages)
        page_arrays = [np.empty(0, dtype=np.int64)]
        interned: dict = {}
        for sm_lanes in self._lane_arrays():
            if not sm_lanes:
                programs.append([])
                continue
            sm_programs, vpns = _compile_lanes(
                sm_lanes, self.spec.compute_per_mem, lines_per_page, interned
            )
            programs.append(sm_programs)
            page_arrays.append(vpns)
        # One sort over every lane's VPN; not np.unique, whose first call
        # imports numpy.ma (~1 MB of resident memory per process).
        pages, fresh = _sorted_unique(np.concatenate(page_arrays)[None, :])
        return programs, pages[fresh].tolist()

    def _page_set(self) -> set[int]:
        return set(self._touched_vpns)

    def _premap(self) -> None:
        """Driver-style prefill: map every page the trace touches."""
        self.space.map_fresh(self._touched_vpns)
        self.touched_pages = len(self._touched_vpns)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def touched_page_set(self) -> set[int]:
        """Every VPN the traces touch (fault injectors pick targets here)."""
        return self._page_set()

    @property
    def total_mem_instructions(self) -> int:
        return self.config.num_sms * self.warps_per_sm * self.mem_insts_per_warp

    def describe(self) -> str:
        return (
            f"{self.spec.abbr}: {self.spec.category}, "
            f"{self.spec.footprint_mb} MB footprint, "
            f"{self.touched_pages} pages touched, "
            f"{self.total_mem_instructions} memory instructions"
        )


def _sorted_unique(lane_lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row sorted, and the mask of first copies of each line."""
    lines = np.sort(lane_lines, axis=1)
    fresh = np.ones(lines.shape, dtype=bool)
    np.not_equal(lines[:, 1:], lines[:, :-1], out=fresh[:, 1:])
    return lines, fresh


def _compile_lanes(
    warp_lanes: list[np.ndarray],
    compute: int,
    lines_per_page: int,
    interned: dict,
) -> tuple[list[Program], np.ndarray]:
    """Programs of one SM's warps from their lane arrays, plus their VPNs.

    Equal to :func:`~repro.gpu.warp.compile_trace` of
    :meth:`TraceWorkload._to_instructions`: rows are sorted and
    de-duplicated, so each page's lines are contiguous and pages come
    in ascending order.  All warps of a pattern share one lane count.
    Equal ints and tuples are shared through ``interned`` (kept across
    SMs), which keeps programs smaller than the line-space traces.
    """
    intern = interned.setdefault
    lines, fresh = _sorted_unique(np.concatenate(warp_lanes))
    vpns = lines // lines_per_page
    # A page group opens at each row's first line and wherever the VPN
    # changes; a repeated line never opens one, so opens ⊆ fresh.
    opens = np.ones(lines.shape, dtype=bool)
    np.not_equal(vpns[:, 1:], vpns[:, :-1], out=opens[:, 1:])
    offsets = ((lines[fresh] & (lines_per_page - 1)) << LINE_SHIFT).tolist()
    offsets = tuple(map(intern, offsets, offsets))
    starts = np.flatnonzero(opens[fresh]).tolist()
    starts.append(len(offsets))
    page_offsets = _interned_slices(offsets, starts, intern)
    page_vpns = vpns[opens].tolist()
    page_vpns = tuple(map(intern, page_vpns, page_vpns))
    row_ends = np.cumsum(opens.sum(axis=1)).tolist()
    row_ends.insert(0, 0)
    steps = list(
        zip(
            repeat(compute),
            _interned_slices(page_vpns, row_ends, intern),
            _interned_slices(page_offsets, row_ends, intern),
        )
    )
    programs = []
    first = 0
    for lanes in warp_lanes:
        programs.append(steps[first : first + len(lanes)])
        first += len(lanes)
    return programs, vpns.ravel()


def _interned_slices(items: tuple, bounds: list[int], intern) -> tuple:
    """``items[bounds[i]:bounds[i + 1]]`` for each i, shared through ``intern``."""
    pieces = list(map(items.__getitem__, map(slice, bounds, bounds[1:])))
    return tuple(map(intern, pieces, pieces))
