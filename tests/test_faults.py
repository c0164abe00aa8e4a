"""Unit tests for the Fault Buffer and UVM fault handling."""

from repro.config import PageTableConfig, baseline_config
from repro.gpu.faults import DEFAULT_FAULT_LATENCY, FaultBuffer, UVMFaultHandler
from repro.gpu.gpu import GPUSimulator
from repro.pagetable.space import AddressSpace
from repro.ptw.request import WalkRequest
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.workloads.base import TraceWorkload, WorkloadSpec


class TestFaultBuffer:
    def test_records_accumulate(self):
        buffer = FaultBuffer(StatsRegistry())
        buffer.record(vpn=5, level=1, time=100)
        buffer.record(vpn=6, level=2, time=200)
        assert len(buffer) == 2
        assert buffer.stats.counters.get("faults.recorded") == 2
        assert [(r.vpn, r.level, r.time) for r in buffer.drain()] == [
            (5, 1, 100),
            (6, 2, 200),
        ]

    def test_drain_hands_over_batch_and_clears(self):
        buffer = FaultBuffer(StatsRegistry())
        buffer.record(vpn=1, level=1, time=0)
        buffer.record(vpn=2, level=2, time=5)
        batch = buffer.drain()
        assert [record.vpn for record in batch] == [1, 2]
        assert len(buffer) == 0
        buffer.record(vpn=3, level=1, time=9)
        assert len(buffer) == 1
        assert buffer.total_recorded == 3
        assert [record.vpn for record in buffer.drain()] == [3]
        assert buffer.drain() == []  # idempotent when empty
        assert buffer.total_recorded == 3


class TestUVMFaultHandler:
    def test_maps_page_and_resubmits(self):
        engine = Engine()
        stats = StatsRegistry()
        space = AddressSpace(PageTableConfig())
        buffer = FaultBuffer(stats)
        resubmitted = []
        handler = UVMFaultHandler(
            engine, space, buffer, resubmitted.append, fault_latency=500
        )
        request = WalkRequest(vpn=0x42, enqueue_time=0, start_level=4, node_base=0)
        request.faulted = True
        request.fault_level = 1
        handler.handle(request)
        assert len(buffer) == 1
        engine.run()
        assert engine.now == 500
        assert resubmitted == [request]
        assert not request.faulted
        assert request.enqueue_time == 500
        assert space.translate(0x42) >= 0  # page now mapped

    def test_merged_vpns_mapped_too(self):
        engine = Engine()
        space = AddressSpace(PageTableConfig())
        handler = UVMFaultHandler(
            engine, space, FaultBuffer(StatsRegistry()), lambda r: None
        )
        request = WalkRequest(vpn=1, enqueue_time=0, start_level=4, node_base=0)
        request.merged_vpns = [2, 3]
        handler.handle(request)
        engine.run()
        for vpn in (1, 2, 3):
            assert space.is_mapped(vpn) if hasattr(space, "is_mapped") else space.translate(vpn) >= 0

    def test_default_latency_is_host_scale(self):
        assert DEFAULT_FAULT_LATENCY >= 10_000


class DemandPagedWorkload(TraceWorkload):
    """Maps nothing up front: every first touch faults."""

    def _premap(self) -> None:
        self.touched_pages = len(self._page_set())


class TestEndToEndDemandPaging:
    def make_spec(self):
        return WorkloadSpec(
            name="demand_test",
            abbr="demand",
            category="irregular",
            footprint_mb=16,
            pattern="uniform_random",
            compute_per_mem=5,
            warps_per_sm=2,
            mem_insts_per_warp=2,
        )

    def test_faults_serviced_and_run_completes(self):
        config = baseline_config().derive(num_sms=4)
        workload = DemandPagedWorkload(self.make_spec(), config)
        simulator = GPUSimulator(config, workload)
        result = simulator.run()
        assert len(simulator.fault_buffer) > 0
        assert workload.space.mapped_pages == workload.touched_pages
        assert result.cycles > DEFAULT_FAULT_LATENCY  # fault round-trips visible

    def test_many_simultaneous_far_faults(self):
        """A burst of overlapping faults services in order, none lost."""
        engine = Engine()
        stats = StatsRegistry()
        space = AddressSpace(PageTableConfig())
        buffer = FaultBuffer(stats)
        resubmitted = []
        handler = UVMFaultHandler(
            engine, space, buffer, resubmitted.append, fault_latency=500
        )
        requests = []
        for index in range(64):
            request = WalkRequest(
                vpn=0x1000 + index, enqueue_time=index, start_level=4, node_base=0
            )
            request.faulted = True
            request.fault_level = 1
            requests.append(request)
            engine.schedule_at(index, handler.handle, request)
        engine.run()
        # Every fault was logged, serviced after exactly fault_latency,
        # and relaunched in arrival order with its page mapped.
        assert buffer.total_recorded == 64
        assert handler.in_flight == 0
        assert resubmitted == requests
        for request in requests:
            assert not request.faulted
            assert space.is_mapped(request.vpn)
        assert engine.now == 63 + 500

    def test_pending_requests_tracks_in_flight_window(self):
        engine = Engine()
        space = AddressSpace(PageTableConfig())
        handler = UVMFaultHandler(
            engine, space, FaultBuffer(StatsRegistry()), lambda r: None,
            fault_latency=100,
        )
        first = WalkRequest(vpn=1, enqueue_time=0, start_level=4, node_base=0)
        second = WalkRequest(vpn=2, enqueue_time=0, start_level=4, node_base=0)
        handler.handle(first)
        engine.schedule(50, handler.handle, second)
        probed = []
        for cycle in (60, 120):
            engine.schedule_at(
                cycle,
                lambda: probed.append((handler.in_flight, handler.pending_requests())),
            )
        engine.run()
        assert probed == [(2, [first, second]), (1, [second])]
        assert handler.in_flight == 0

    def test_faults_serviced_under_softwalker(self):
        config = (
            baseline_config()
            .derive(num_sms=4)
            .with_ptw(num_walkers=0)
            .with_softwalker(enabled=True)
        )
        workload = DemandPagedWorkload(self.make_spec(), config)
        simulator = GPUSimulator(config, workload)
        result = simulator.run()
        assert len(simulator.fault_buffer) > 0
        assert result.walks_completed > 0
        assert workload.space.mapped_pages == workload.touched_pages
