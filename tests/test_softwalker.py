"""Unit tests for the SoftWalker controller and backends."""

import pytest

from repro.config import GPUConfig, SoftWalkerConfig, baseline_config
from repro.core.backend import HybridBackend, SoftWalkerBackend
from repro.core.controller import SoftWalkerController
from repro.gpu.sm import SM
from repro.pagetable.address import AddressLayout
from repro.pagetable.allocator import FrameAllocator
from repro.pagetable.radix import RadixPageTable
from repro.ptw.request import WalkRequest
from repro.ptw.subsystem import HardwareWalkBackend
from repro.ptw.walker import PteMemoryPort
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry


class FixedMemory:
    def __init__(self, latency=100):
        self.latency = latency

    def access(self, address, now):
        return now + self.latency


def make_table(num_pages=64):
    from repro.config import PageTableConfig

    layout = AddressLayout.from_config(PageTableConfig())
    table = RadixPageTable(layout, FrameAllocator(0, 1 << 12))
    for vpn in range(num_pages):
        table.map(vpn, vpn + 1)
    return table


def make_controller(pw_threads=2, softpwb=4, comm=40):
    engine = Engine()
    stats = StatsRegistry()
    sm = SM(0, stats)
    config = SoftWalkerConfig(
        enabled=True, pw_threads_per_sm=pw_threads, softpwb_entries=softpwb
    )
    controller = SoftWalkerController(
        sm,
        engine,
        config,
        make_table(),
        PteMemoryPort(FixedMemory(latency=100)),
        None,
        stats,
        communication_latency=comm,
    )
    done = []
    controller.on_complete = lambda sm_id, req, out: done.append((req, out))
    return engine, controller, done, sm


def request(vpn, t=0, start_level=4):
    return WalkRequest(vpn=vpn, enqueue_time=t, start_level=start_level, node_base=0)


class TestSoftWalkerController:
    def test_walk_completes_with_communication_overheads(self):
        engine, controller, done, _ = make_controller(comm=40)
        controller.receive(request(3))
        engine.run()
        req, outcome = done[0]
        assert outcome.pfn == 4
        assert req.communication == 80  # one hop each way
        assert req.access == 400  # 4 LDPT reads at 100 cycles
        assert req.execution > 0
        assert req.queueing == 0

    def test_thread_limit_queues_in_softpwb(self):
        engine, controller, done, _ = make_controller(pw_threads=1, softpwb=4)
        controller.receive(request(1))
        controller.receive(request(2))
        engine.run()
        assert len(done) == 2
        second = next(req for req, _ in done if req.vpn == 2)
        assert second.queueing > 0  # waited for the single PW thread

    def test_concurrent_threads_walk_in_parallel(self):
        engine, controller, done, _ = make_controller(pw_threads=4)
        for vpn in range(4):
            controller.receive(request(vpn))
        engine.run()
        assert all(req.queueing == 0 for req, _ in done)

    def test_pw_warp_instructions_charged_to_sm(self):
        engine, controller, _, sm = make_controller()
        controller.receive(request(1))
        engine.run()
        assert sm.pw_issued > 0
        assert sm.user_issued == 0

    def test_fault_logged_via_ffb_path(self):
        engine, controller, done, _ = make_controller()
        controller.receive(request(9999))  # unmapped
        engine.run()
        req, outcome = done[0]
        assert outcome.faulted and req.faulted

    def test_softpwb_slots_recycle(self):
        engine, controller, done, _ = make_controller(pw_threads=1, softpwb=2)
        for vpn in range(6):
            controller.receive(request(vpn))
            engine.run()
        assert len(done) == 6
        assert controller.softpwb.occupied == 0


def make_sw_backend(config=None):
    config = config or baseline_config().with_softwalker(enabled=True)
    engine = Engine()
    stats = StatsRegistry()
    sms = [SM(i, stats) for i in range(config.num_sms)]
    backend = SoftWalkerBackend(
        engine,
        config,
        sms,
        make_table(256),
        PteMemoryPort(FixedMemory()),
        None,
        stats,
    )
    done = []
    backend.on_complete = lambda req, out: done.append((req, out))
    return engine, backend, done


class TestSoftWalkerBackend:
    def test_distributes_across_sms(self):
        engine, backend, done = make_sw_backend()
        for vpn in range(10):
            backend.submit(request(vpn))
        engine.run()
        assert len(done) == 10
        assert backend.in_flight == 0

    def test_round_trip_equals_l2_tlb_latency(self):
        config = baseline_config().with_softwalker(enabled=True)
        engine, backend, done = make_sw_backend(config)
        backend.submit(request(1))
        engine.run()
        assert done[0][0].communication == config.l2_tlb.latency

    def test_counters_decrement_on_completion(self):
        engine, backend, done = make_sw_backend()
        for vpn in range(5):
            backend.submit(request(vpn))
        engine.run()
        assert all(
            backend.distributor.counter(sm) == 0
            for sm in range(backend.distributor.num_sms)
        )


class TestHybridBackend:
    def make(self, num_walkers=1):
        from repro.config import PTWConfig

        engine = Engine()
        stats = StatsRegistry()
        config = baseline_config().with_softwalker(enabled=True, hybrid=True)
        table = make_table(256)
        port = PteMemoryPort(FixedMemory())
        hardware = HardwareWalkBackend(
            engine, PTWConfig(num_walkers=num_walkers), table, port, None, stats
        )
        sms = [SM(i, stats) for i in range(config.num_sms)]
        software = SoftWalkerBackend(engine, config, sms, table, port, None, stats)
        hybrid = HybridBackend(hardware, software)
        done = []
        hybrid.on_complete = lambda req, out: done.append((req, out))
        return engine, hybrid, done, stats

    def test_hardware_preferred_when_free(self):
        engine, hybrid, done, stats = self.make(num_walkers=4)
        hybrid.submit(request(1))
        engine.run()
        assert stats.counters.get("ptw.walks") == 1
        assert stats.counters.get("softwalker.walks") == 0
        assert done[0][0].communication == 0

    def test_overflow_goes_to_software(self):
        engine, hybrid, done, stats = self.make(num_walkers=1)
        hybrid.submit(request(1))
        hybrid.submit(request(2))  # HW walker busy -> software
        engine.run()
        assert stats.counters.get("ptw.walks") == 1
        assert stats.counters.get("softwalker.walks") == 1
        assert len(done) == 2

    def test_completion_callback_wired_to_both(self):
        engine, hybrid, done, _ = self.make(num_walkers=1)
        for vpn in range(6):
            hybrid.submit(request(vpn))
        engine.run()
        assert len(done) == 6
