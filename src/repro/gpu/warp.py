"""Warps: trace-driven instruction execution with memory coalescing.

A warp's trace alternates compute blocks and memory instructions.  A
memory instruction carries the warp's already-coalesced set of unique
virtual cache lines (up to 32 — one per lane under full divergence).
The warp requests one translation per unique page (this is what
generates translation pressure), then performs the data accesses and
blocks until every lane completes — the baseline GPU's behaviour that
page-walk scheduling work (ref [85]) tries to soften.

Warps do not run line-space traces directly.  :func:`compile_trace`
turns a trace, once, into a :data:`Program`: one step per memory
instruction carrying the compute cycles issued before it and the
instruction's page groups — the VPNs in the order
:func:`group_by_page` yields them, each with its lines' byte offsets
within the page — plus a final compute-only step for trailing compute.
The event loop then only issues and translates; it never regroups.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Sequence

#: Cache-line size in bytes and its log2 (virtual lines are VA // 128).
LINE_BYTES = 128
LINE_SHIFT = 7

#: Instruction kinds in a warp trace.
COMPUTE = "c"
MEMORY = "m"

Instruction = tuple  # ("c", cycles) | ("m", (vline, ...))

#: A compiled warp program: a list of ``(compute, vpns, offsets)`` steps.
#: ``compute`` cycles issue first; then one memory instruction touches
#: page ``vpns[i]`` at byte offsets ``offsets[i]``.  ``vpns`` is None
#: for trailing compute.
Program = list


def coalesce_lines(virtual_addresses: Iterable[int]) -> tuple[int, ...]:
    """Coalesce per-lane byte addresses into unique virtual lines."""
    return tuple(sorted({va >> LINE_SHIFT for va in virtual_addresses}))


def group_by_page(vlines: Sequence[int], lines_per_page: int) -> dict[int, list[int]]:
    """Split coalesced lines by virtual page; keys are VPNs."""
    groups: dict[int, list[int]] = {}
    for vline in vlines:
        groups.setdefault(vline // lines_per_page, []).append(vline)
    return groups


def compile_trace(trace: Iterable[Instruction], lines_per_page: int) -> Program:
    """Compile a line-space warp trace into the program a :class:`Warp` runs.

    Consecutive compute blocks fold into the next step (or the trailing
    step); each memory instruction keeps its pages, lines and
    duplicates exactly as :func:`group_by_page` splits them.
    """
    line_mask = lines_per_page - 1
    program: Program = []
    compute = 0
    for kind, payload in trace:
        if kind == COMPUTE:
            compute += payload
            continue
        groups = group_by_page(payload, lines_per_page)
        offsets = tuple(
            tuple((vline & line_mask) << LINE_SHIFT for vline in lines)
            for lines in groups.values()
        )
        program.append((compute, tuple(groups), offsets))
        compute = 0
    if compute:
        program.append((compute, None, None))
    return program


class Warp:
    """One warp executing a compiled program on an SM."""

    __slots__ = (
        "warp_id",
        "sm",
        "engine",
        "translation",
        "memory",
        "page_shift",
        "program",
        "on_done",
        "_ip",
        "_pending_pages",
        "_mem_done",
        "_mem_first",
        "_issue_time",
        "finished_at",
    )

    def __init__(
        self,
        warp_id: int,
        sm,
        engine,
        translation,
        memory,
        page_size: int,
        program: Program,
        on_done: Callable[["Warp"], None],
    ) -> None:
        self.warp_id = warp_id
        self.sm = sm
        self.engine = engine
        self.translation = translation
        self.memory = memory
        self.page_shift = page_size.bit_length() - 1
        self.program = program
        self.on_done = on_done
        self._ip = 0
        self._pending_pages = 0
        self._mem_done = 0
        self._mem_first: int | None = None
        self._issue_time = 0
        self.finished_at: int | None = None

    def start(self) -> None:
        self.sm.active_warps += 1
        self.engine.schedule(0, self._advance)

    # ------------------------------------------------------------------
    # Execution loop
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        if self._ip == len(self.program):
            self._finish(self.engine.now)
            return
        compute = self.program[self._ip][0]
        if compute:
            ready = self.sm.issue(compute, self.engine.now)
            self.engine.schedule_at(ready, self._execute_memory)
            return
        self._execute_memory()

    def _execute_memory(self) -> None:
        now = self.engine.now
        _compute, vpns, offsets = self.program[self._ip]
        self._ip += 1
        if vpns is None:
            self._finish(now)
            return
        issue_done = self.sm.issue(1, now)
        self._issue_time = issue_done
        self._mem_done = issue_done
        self._mem_first = None
        # Guard against synchronous callbacks (TLB hits) completing the
        # page count before every request is issued.
        self._pending_pages = len(vpns) + 1
        sm_id = self.sm.sm_id
        request = self.translation.request
        on_translated = self._on_translated
        for vpn, page_offsets in zip(vpns, offsets):
            # A partial (not a closure) so in-flight callbacks parked in
            # MSHR files and the event queue survive checkpoint copies.
            request(sm_id, vpn, issue_done, partial(on_translated, page_offsets))
        self._page_done(issue_done)

    def _on_translated(self, offsets: tuple[int, ...], time: int, pfn: int) -> None:
        self._page_done(
            self.memory.data_access_page(
                self.sm.sm_id, pfn << self.page_shift, offsets, time
            )
        )

    def _page_done(self, done: int) -> None:
        if done > self._mem_done:
            self._mem_done = done
        if done > self._issue_time and (
            self._mem_first is None or done < self._mem_first
        ):
            self._mem_first = done
        self._pending_pages -= 1
        if self._pending_pages == 0:
            sm = self.sm
            sm.record_memory_wait(self._mem_done - self._issue_time)
            if self._mem_first is not None:
                # Intra-warp completion spread: what page-walk scheduling
                # (ref [85]) tries to shrink — the warp waits for its
                # slowest lane regardless of how early the first returned.
                spread = sm.mem_spread
                if spread is None:
                    spread = sm.mem_spread = sm.stats.histogram("warp.mem_spread")
                spread.record(self._mem_done - self._mem_first)
            self.engine.schedule_at(max(self.engine.now, self._mem_done), self._advance)

    def _finish(self, now: int) -> None:
        self.finished_at = now
        self.sm.active_warps -= 1
        self.on_done(self)
