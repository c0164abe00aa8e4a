"""Unit tests for warp execution, coalescing, and SM issue accounting."""

import typing
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAGE_SIZE_2M, PAGE_SIZE_64K
from repro.gpu.sm import SM
from repro.gpu.warp import Warp, coalesce_lines, compile_trace, group_by_page
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry


class InstantTranslation:
    """Translation stub: fixed latency, identity mapping, logs requests.

    VPNs in ``hits`` hit the L1 TLB (``l1_hit`` answers them); every
    other VPN misses, and ``miss`` answers it through ``request``, so a
    subclass overriding ``request`` shapes the miss path.
    """

    l1_latency = 3

    def __init__(self, latency=10, hits=()):
        self.latency = latency
        self.hits = frozenset(hits)
        self.requests = []

    def l1_hit(self, sm_id, vpn, now):
        if vpn not in self.hits:
            return None
        self.requests.append((sm_id, vpn, now))
        return vpn + 1000

    def miss(self, sm_id, vpn, now, callback):
        self.request(sm_id, vpn, now, callback)

    def request(self, sm_id, vpn, now, callback):
        self.requests.append((sm_id, vpn, now))
        callback(now + self.latency, vpn + 1000)


class InstantMemory:
    def __init__(self, latency=40):
        self.latency = latency
        self.accesses = []

    def data_access(self, sm_id, address, now):
        self.accesses.append((sm_id, address, now))
        return now + self.latency

    def data_access_page(self, sm_id, frame_base, offsets, now):
        done = now
        for offset in offsets:
            done = max(done, self.data_access(sm_id, frame_base | offset, now))
        return done


class TestCoalescing:
    def test_coalesce_lines_dedups_lanes(self):
        addresses = [0, 4, 64, 127, 128, 200]
        assert coalesce_lines(addresses) == (0, 1)

    def test_group_by_page(self):
        # 512 lines per 64KB page.
        groups = group_by_page([0, 511, 512, 1024], 512)
        assert groups == {0: [0, 511], 1: [512], 2: [1024]}


def run_warp(instructions, translation=None, memory=None):
    engine = Engine()
    sm = SM(0, StatsRegistry())
    translation = translation or InstantTranslation()
    memory = memory or InstantMemory()
    program = compile_trace(instructions, PAGE_SIZE_64K // 128)
    warp = Warp(0, sm, engine, translation, memory, PAGE_SIZE_64K, program)
    warp.start()
    engine.run()
    assert warp.finished_at is not None, "warp must complete"
    assert sm.active_warps == 0
    return warp, sm, translation, memory, engine


class TestWarpExecution:
    def test_compute_only_trace(self):
        warp, sm, _, _, engine = run_warp([("c", 10), ("c", 5)])
        assert engine.now == 15  # issued back-to-back at 1 IPC
        assert sm.user_issued == 15

    def test_memory_instruction_translates_each_page(self):
        # Two lines in page 0, one line in page 1.
        warp, _, translation, memory, _ = run_warp([("m", (0, 1, 512))])
        assert sorted(vpn for _, vpn, _ in translation.requests) == [0, 1]
        assert len(memory.accesses) == 3

    def test_physical_addresses_use_translated_pfn(self):
        _, _, _, memory, _ = run_warp([("m", (513,))])
        # vpn 1 -> pfn 1001; line 513 is line 1 within the page.
        expected = (1001 << 16) | (1 << 7)
        assert memory.accesses[0][1] == expected

    def test_warp_blocks_until_all_lanes_complete(self):
        class SlowPage(InstantTranslation):
            def request(self, sm_id, vpn, now, callback):
                delay = 1000 if vpn == 1 else 10
                callback(now + delay, vpn + 1000)

        warp, sm, _, _, engine = run_warp(
            [("m", (0, 512)), ("c", 1)], translation=SlowPage()
        )
        # The compute instruction issues only after the slow page resolves.
        assert engine.now >= 1000
        assert sm.memory_wait >= 990

    def test_tlb_hit_reads_inline_and_the_miss_holds_the_warp(self):
        class HitAndSlowMiss(InstantTranslation):
            def request(self, sm_id, vpn, now, callback):
                self.requests.append((sm_id, vpn, now))
                self.engine.schedule_at(now + 500, callback, now + 500, vpn + 1000)

        engine = Engine()
        sm = SM(0, StatsRegistry())
        translation = HitAndSlowMiss(hits={0})
        translation.engine = engine
        memory = InstantMemory(latency=40)
        program = compile_trace([("m", (0, 512)), ("c", 1)], PAGE_SIZE_64K // 128)
        warp = Warp(0, sm, engine, translation, memory, PAGE_SIZE_64K, program)
        warp.start()
        engine.run(until=499)
        issue_done = 1  # the memory instruction issues at cycle 0
        # The hit page read its line at the L1 TLB lookup's end, and
        # nothing else happened before the miss returned.
        assert memory.accesses == [(0, 1000 << 16, issue_done + translation.l1_latency)]
        assert translation.requests == [(0, 0, issue_done), (0, 1, issue_done)]
        assert sm.user_issued == 1
        engine.run()
        assert memory.accesses[1] == (0, 1001 << 16, issue_done + 500)
        # The trailing compute issues only after the miss's data lands.
        assert engine.now == issue_done + 500 + 40 + 1
        assert sm.user_issued == 2
        assert sm.memory_wait == 500 + 40
        assert warp.finished_at == engine.now

    def test_consecutive_computes_fold(self):
        warp, sm, _, _, engine = run_warp([("c", 3), ("c", 4), ("m", (0,)), ("c", 2)])
        assert sm.user_issued == 3 + 4 + 1 + 2


class TestIntraWarpSpread:
    def test_spread_recorded_for_divergent_instruction(self):
        class UnevenPages(InstantTranslation):
            def request(self, sm_id, vpn, now, callback):
                delay = {0: 10, 1: 510}[vpn]
                callback(now + delay, vpn + 1000)

        warp, sm, _, _, _ = run_warp(
            [("m", (0, 512))], translation=UnevenPages(),
            memory=InstantMemory(latency=0),
        )
        spread = sm.stats.histogram("warp.mem_spread")
        assert spread.count == 1
        assert spread.mean == pytest.approx(500.0)

    def test_uniform_instruction_has_zero_spread(self):
        warp, sm, _, _, _ = run_warp(
            [("m", (0, 1))], memory=InstantMemory(latency=0)
        )
        assert sm.stats.histogram("warp.mem_spread").maximum == 0


class TestAnnotations:
    def test_warp_type_hints_resolve(self):
        hints = typing.get_type_hints(Warp.__init__)
        assert "program" in hints


class TestCompileTrace:
    def test_folds_compute_and_keeps_page_order(self):
        trace = [("c", 3), ("c", 4), ("m", (513, 1, 514, 1)), ("m", ()), ("c", 2)]
        assert compile_trace(trace, 512) == [
            (7, (1, 0), ((1 << 7, 2 << 7), (1 << 7, 1 << 7))),
            (0, (), ()),
            (2, None, None),
        ]

    def test_zero_compute_tail_is_dropped(self):
        assert compile_trace([("m", (0,)), ("c", 0)], 512) == [(0, (0,), ((0,),))]


# ----------------------------------------------------------------------
# Differential test: compiled programs against per-line execution
# ----------------------------------------------------------------------
class ReferenceWarp:
    """Line-space warp: regroups every memory instruction by page and
    makes one ``data_access`` per line (the pre-compilation model)."""

    def __init__(self, sm, engine, translation, memory, page_size, instructions):
        self.sm = sm
        self.engine = engine
        self.translation = translation
        self.memory = memory
        self.page_shift = page_size.bit_length() - 1
        self.lines_per_page = page_size // 128
        self.instructions = instructions
        self._ip = 0
        self.finished_at = None

    def start(self):
        self.sm.active_warps += 1
        self.engine.schedule(0, self._advance)

    def _advance(self):
        now = self.engine.now
        compute_cycles = 0
        while self._ip < len(self.instructions) and self.instructions[self._ip][0] == "c":
            compute_cycles += self.instructions[self._ip][1]
            self._ip += 1
        if compute_cycles:
            self.engine.schedule_at(self.sm.issue(compute_cycles, now), self._advance)
            return
        if self._ip >= len(self.instructions):
            self.finished_at = now
            self.sm.active_warps -= 1
            return
        vlines = self.instructions[self._ip][1]
        self._ip += 1
        issue_done = self.sm.issue(1, now)
        self._issue_time = self._mem_done = issue_done
        self._mem_first = None
        groups = group_by_page(vlines, self.lines_per_page)
        self._pending_pages = len(groups) + 1
        for vpn, lines in groups.items():
            self.translation.request(
                self.sm.sm_id, vpn, issue_done, partial(self._on_translated, tuple(lines))
            )
        self._page_done(issue_done)

    def _on_translated(self, lines, time, pfn):
        done = time
        frame_base = pfn << self.page_shift
        for vline in lines:
            address = frame_base | ((vline & (self.lines_per_page - 1)) << 7)
            done = max(done, self.memory.data_access(self.sm.sm_id, address, time))
        self._page_done(done)

    def _page_done(self, done):
        self._mem_done = max(self._mem_done, done)
        if done > self._issue_time and (self._mem_first is None or done < self._mem_first):
            self._mem_first = done
        self._pending_pages -= 1
        if self._pending_pages == 0:
            self.sm.record_memory_wait(self._mem_done - self._issue_time)
            if self._mem_first is not None:
                self.sm.stats.histogram("warp.mem_spread").record(
                    self._mem_done - self._mem_first
                )
            self.engine.schedule_at(max(self.engine.now, self._mem_done), self._advance)


class UnevenTranslation(InstantTranslation):
    """Per-VPN latency; every third VPN hits the L1 TLB, the rest answer
    through the event queue.  ``request`` composes the two halves, as
    the real service does."""

    l1_latency = 5

    def __init__(self, engine):
        super().__init__()
        self.engine = engine

    def l1_hit(self, sm_id, vpn, now):
        if vpn % 3:
            return None
        self.requests.append((sm_id, vpn, now))
        return vpn * 7 + 3

    def miss(self, sm_id, vpn, now, callback):
        self.requests.append((sm_id, vpn, now))
        done = now + 20 + (vpn * 37) % 200
        self.engine.schedule_at(done, callback, done, vpn * 7 + 3)

    def request(self, sm_id, vpn, now, callback):
        pfn = self.l1_hit(sm_id, vpn, now)
        if pfn is not None:
            callback(now + self.l1_latency, pfn)
            return
        self.miss(sm_id, vpn, now, callback)


class UnevenMemory(InstantMemory):
    def data_access(self, sm_id, address, now):
        self.accesses.append((sm_id, address, now))
        return now + 30 + (address >> 7) % 11 * 9


def line_traces(lines_per_page):
    """Line-space traces: unsorted lines with repeats, empty memory
    instructions, zero, consecutive and trailing compute blocks."""
    line = st.integers(min_value=0, max_value=4 * lines_per_page - 1)
    instruction = st.one_of(
        st.tuples(st.just("c"), st.integers(min_value=0, max_value=25)),
        st.tuples(st.just("m"), st.lists(line, max_size=10).map(tuple)),
    )
    return st.lists(instruction, max_size=12)


def _simulate(warp_factory, traces, page_size):
    engine = Engine()
    sm = SM(0, StatsRegistry())
    translation = UnevenTranslation(engine)
    memory = UnevenMemory()
    warps = [
        warp_factory(sm, engine, translation, memory, page_size, trace)
        for trace in traces
    ]
    for warp in warps:
        warp.start()
    engine.run()
    spread = sm.stats.histogram("warp.mem_spread")
    return {
        "requests": translation.requests,
        "accesses": memory.accesses,
        "finished": [w.finished_at for w in warps],
        "now": engine.now,
        "issued": (sm.user_issued, sm.memory_wait, sm.active_warps),
        "spread": (spread.count, spread.total, spread.maximum),
    }


class TestCompiledWarpMatchesReference:
    @given(data=st.data(), page_size=st.sampled_from([PAGE_SIZE_64K, PAGE_SIZE_2M]))
    @settings(max_examples=150, deadline=None)
    def test_same_requests_accesses_and_timing(self, data, page_size):
        lines_per_page = page_size // 128
        traces = data.draw(
            st.lists(line_traces(lines_per_page), min_size=1, max_size=3)
        )

        def compiled(sm, engine, translation, memory, size, trace):
            program = compile_trace(trace, lines_per_page)
            return Warp(0, sm, engine, translation, memory, size, program)

        assert _simulate(compiled, traces, page_size) == _simulate(
            ReferenceWarp, traces, page_size
        )


class TestSMIssueAccounting:
    def test_port_serialises_issue(self):
        sm = SM(0, StatsRegistry())
        assert sm.issue(10, when=0) == 10
        assert sm.issue(5, when=0) == 15  # port busy until 10
        assert sm.user_issued == 15

    def test_idle_gap_is_not_busy(self):
        sm = SM(0, StatsRegistry())
        sm.issue(10, when=0)
        assert sm.issue(1, when=100) == 101
        assert sm.issued_fraction(101) == 11 / 101

    def test_priority_issue_starts_immediately(self):
        sm = SM(0, StatsRegistry())
        sm.issue(100, when=0)  # user warps occupy the port
        done = sm.issue_priority(4, when=50)
        assert done == 54  # PW warp preempts
        # ... but its slots push user issue back.
        assert sm.port_busy_until() == 104
        assert sm.pw_issued == 4

    def test_memory_wait_accumulates(self):
        sm = SM(0, StatsRegistry())
        sm.record_memory_wait(10)
        sm.record_memory_wait(-5)  # ignored
        assert sm.memory_wait == 10
