"""Unit tests for the walk executor and the hardware walk subsystem."""

import pytest

from repro.config import PTWConfig, PageTableConfig
from repro.pagetable.address import AddressLayout
from repro.pagetable.allocator import FrameAllocator
from repro.pagetable.radix import RadixPageTable
from repro.ptw.request import WalkRequest
from repro.ptw.subsystem import NHA_SPAN_PTES, HardwareWalkBackend
from repro.ptw.walker import PteMemoryPort, WalkOutcome, execute_walk
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.tlb.pwc import PageWalkCache


class FixedMemory:
    """Memory stub: constant-latency PTE reads, records addresses."""

    def __init__(self, latency=100):
        self.latency = latency
        self.addresses = []

    def pte_access(self, address, now):
        self.addresses.append(address)
        return now + self.latency


def make_table(mappings):
    layout = AddressLayout.from_config(PageTableConfig())
    table = RadixPageTable(layout, FrameAllocator(0, 1 << 12))
    for vpn, pfn in mappings.items():
        table.map(vpn, pfn)
    return table, layout


class TestExecuteWalk:
    def test_full_walk_serialises_levels(self):
        table, _ = make_table({0x42: 7})
        memory = FixedMemory(latency=100)
        outcome = execute_walk(table, PteMemoryPort(memory), None, 0x42, 4, 1000)
        assert outcome.pfn == 7
        assert outcome.levels_accessed == 4
        assert outcome.finish_time == 1000 + 4 * 100  # dependent chain
        assert outcome.access_cycles == 400
        assert not outcome.faulted

    def test_pwc_start_level_shortens_walk(self):
        table, _ = make_table({0x42: 7})
        memory = FixedMemory(latency=100)
        node = table.node_base(0x42, 2)
        assert node is not None
        outcome = execute_walk(table, PteMemoryPort(memory), None, 0x42, 2, 0)
        assert outcome.levels_accessed == 2
        assert outcome.finish_time == 200

    def test_walk_fills_pwc_with_intermediate_nodes(self):
        table, layout = make_table({0x42: 7})
        stats = StatsRegistry()
        pwc = PageWalkCache(8, layout, table.root_base, stats, min_level=1)
        execute_walk(table, PteMemoryPort(FixedMemory()), pwc, 0x42, 4, 0)
        level, base = pwc.probe(0x42)
        assert level == 1
        assert base == table.node_base(0x42, 1)

    def test_fault_stops_walk_early(self):
        table, _ = make_table({0x42: 7})
        outcome = execute_walk(
            table, PteMemoryPort(FixedMemory()), None, 0x7FFFFFFF, 4, 0
        )
        assert outcome.faulted
        assert outcome.pfn is None
        assert outcome.levels_accessed <= 4

    def test_fixed_latency_override(self):
        table, _ = make_table({0x42: 7})
        port = PteMemoryPort(FixedMemory(latency=999), fixed_level_latency=50)
        outcome = execute_walk(table, port, None, 0x42, 4, 0)
        assert outcome.finish_time == 200  # 4 levels x 50, memory ignored

    def test_leaf_pte_address_reported(self):
        table, _ = make_table({0x42: 7})
        outcome = execute_walk(table, PteMemoryPort(FixedMemory()), None, 0x42, 4, 0)
        assert outcome.leaf_pte_address == table.walk_path(0x42)[-1].pte_address


def make_backend(num_walkers=2, mappings=None, nha=False, ports=1, pwb_entries=8):
    engine = Engine()
    stats = StatsRegistry()
    table, _layout = make_table(mappings or {v: v + 1 for v in range(64)})
    memory = FixedMemory(latency=100)
    config = PTWConfig(
        num_walkers=num_walkers,
        pwb_entries=pwb_entries,
        pwb_ports=ports,
        nha_coalescing=nha,
    )
    backend = HardwareWalkBackend(
        engine, config, table, PteMemoryPort(memory), None, stats
    )
    done = []
    backend.on_complete = lambda req, outcome: done.append((req, outcome))
    return engine, backend, done, stats


def walk_request(vpn, t=0):
    return WalkRequest(vpn=vpn, enqueue_time=t, start_level=4, node_base=0)


class TestHardwareWalkBackend:
    def test_single_walk_completes(self):
        engine, backend, done, _ = make_backend()
        backend.submit(walk_request(3))
        engine.run()
        assert len(done) == 1
        req, outcome = done[0]
        assert outcome.pfn == 4
        assert req.queueing == 0
        assert req.access == 400

    def test_walker_pool_limits_concurrency(self):
        engine, backend, done, _ = make_backend(num_walkers=1)
        backend.submit(walk_request(1))
        backend.submit(walk_request(2))
        engine.run()
        first, second = done
        # Second walk queued until the first finished.
        assert second[0].queueing >= 400
        assert first[0].queueing == 0

    def test_queueing_recorded_from_enqueue_time(self):
        engine, backend, done, _ = make_backend(num_walkers=1)
        backend.submit(walk_request(1, t=0))
        backend.submit(walk_request(2, t=100))
        engine.run()
        assert done[1][0].queueing == 400 - 100

    def test_pwb_overflow_counted(self):
        engine, backend, _, stats = make_backend(num_walkers=1, pwb_entries=1)
        for vpn in range(4):
            backend.submit(walk_request(vpn))
        engine.run()
        assert stats.counters.get("ptw.pwb_overflow") >= 1

    def test_port_limit_staggers_starts(self):
        engine, backend, done, _ = make_backend(num_walkers=8, ports=1)
        for vpn in range(4):
            backend.submit(walk_request(vpn))
        engine.run()
        queueing = sorted(req.queueing for req, _ in done)
        assert queueing == [0, 1, 2, 3]  # one dequeue per cycle

    def test_many_ports_start_together(self):
        engine, backend, done, _ = make_backend(num_walkers=8, ports=8)
        for vpn in range(4):
            backend.submit(walk_request(vpn))
        engine.run()
        assert all(req.queueing == 0 for req, _ in done)

    def test_field_equal_walks_are_distinct_owners(self):
        # Two walks of one VPN started in the same cycle carry equal
        # fields.  When the second completes first, it must release
        # itself, not its twin, or the audit holds a finished walk.
        _engine, backend, _, _ = make_backend(num_walkers=2, ports=2)
        first, second = walk_request(5), walk_request(5)
        backend.submit(first)
        backend.submit(second)
        assert vars(first) == vars(second)
        outcome = WalkOutcome(
            pfn=6,
            finish_time=400,
            access_cycles=400,
            levels_accessed=4,
            faulted=False,
            fault_level=0,
            leaf_pte_address=None,
        )
        backend._finish(second, outcome)
        live = backend.live_requests()
        assert len(live) == 1
        assert live[0] is first


class TestNHACoalescing:
    def test_neighbours_merge_onto_queued_walk(self):
        engine, backend, done, stats = make_backend(num_walkers=1, nha=True)
        backend.submit(walk_request(8))   # starts immediately
        backend.submit(walk_request(16))  # queued
        backend.submit(walk_request(17))  # same sector as 16 -> merges
        engine.run()
        assert stats.counters.get("ptw.nha_merged") == 1
        merged_hosts = [req for req, _ in done if req.merged_vpns]
        assert len(merged_hosts) == 1
        assert merged_hosts[0].merged_vpns == [17]

    def test_merge_capped_at_sector_span(self):
        engine, backend, _, stats = make_backend(num_walkers=1, nha=True)
        backend.submit(walk_request(63))  # busy walker
        for vpn in [8, 9, 10, 11]:  # all in sector 2 (vpn // 4 == 2)
            backend.submit(walk_request(vpn))
        engine.run()
        assert stats.counters.get("ptw.nha_merged") == NHA_SPAN_PTES - 1

    def test_different_sectors_do_not_merge(self):
        engine, backend, _, stats = make_backend(num_walkers=1, nha=True)
        backend.submit(walk_request(40))
        backend.submit(walk_request(8))
        backend.submit(walk_request(12))  # adjacent sector
        engine.run()
        assert stats.counters.get("ptw.nha_merged") == 0

    def test_unwired_completion_raises(self):
        engine, backend, _, _ = make_backend()
        backend.on_complete = None
        backend.submit(walk_request(1))
        with pytest.raises(RuntimeError):
            engine.run()
