"""Property-based tests on whole-pipeline invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    GPUConfig,
    PAGE_SIZE_2M,
    PAGE_SIZE_64K,
    baseline_config,
    config_fingerprint,
)
from repro.gpu.gpu import GPUSimulator
from repro.gpu.translation import TranslationService
from repro.harness.runner import build_workload
from repro.pagetable.space import AddressSpace
from repro.ptw.subsystem import HardwareWalkBackend
from repro.ptw.walker import PteMemoryPort
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.tlb.pwc import PageWalkCache
from repro.workloads.base import WorkloadSpec


class FixedMemory:
    def __init__(self, latency=80):
        self.latency = latency

    def pte_access(self, address, now):
        return now + self.latency


def make_service(config, space):
    engine = Engine()
    stats = StatsRegistry()
    pwc = PageWalkCache(
        config.ptw.pwc_entries, space.layout, space.radix.root_base, stats
    )
    backend = HardwareWalkBackend(
        engine, config.ptw, space.radix, PteMemoryPort(FixedMemory()), pwc, stats
    )
    service = TranslationService(engine, config, space, pwc, backend, stats)
    return engine, service, stats


@st.composite
def request_streams(draw):
    """A batch of (sm, vpn, issue_time) translation requests."""
    num_pages = draw(st.integers(min_value=1, max_value=40))
    requests = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),       # sm
                st.integers(min_value=0, max_value=num_pages - 1),  # page index
                st.integers(min_value=0, max_value=500),      # issue time
            ),
            min_size=1,
            max_size=120,
        )
    )
    return num_pages, requests


class TestTranslationCorrectness:
    @given(stream=request_streams(),
           mshr_entries=st.sampled_from([2, 8, 128]),
           walkers=st.sampled_from([1, 4, 32]))
    @settings(max_examples=30, deadline=None)
    def test_every_request_gets_the_right_pfn(self, stream, mshr_entries, walkers):
        num_pages, requests = stream
        config = (
            baseline_config()
            .derive(num_sms=4)
            .with_l2_tlb(mshr_entries=mshr_entries)
            .with_ptw(num_walkers=walkers)
        )
        space = AddressSpace(config.page_table)
        base_vpn = 0x1000
        expected = {
            base_vpn + i: space.ensure_mapped(base_vpn + i) for i in range(num_pages)
        }
        engine, service, stats = make_service(config, space)

        delivered = []
        for sm, page, when in sorted(requests, key=lambda r: r[2]):
            vpn = base_vpn + page
            engine.schedule_at(
                when,
                lambda s=sm, v=vpn: service.request(
                    s, v, engine.now,
                    lambda t, pfn, v=v: delivered.append((v, pfn, t)),
                ),
            )
        engine.run()

        # Liveness: every single request completed.
        assert len(delivered) == len(requests)
        # Safety: each got the page table's answer, never stale/crossed.
        for vpn, pfn, _t in delivered:
            assert pfn == expected[vpn]
        # Completion times are causal.
        assert all(t >= 0 for _, _, t in delivered)
        # Conservation: walks launched == completed, MSHRs fully drained.
        assert stats.counters.get("walks.launched") == stats.counters.get(
            "walks.completed"
        )
        assert service.l2_mshr.occupancy == 0
        assert service.l2_tlb.pending_entries == 0
        assert service.backpressure_depth == 0


class TestSimulatorInvariants:
    @given(
        pattern=st.sampled_from(
            ["uniform_random", "power_law", "streaming", "strided"]
        ),
        warps=st.integers(min_value=1, max_value=4),
        insts=st.integers(min_value=1, max_value=4),
        softwalker=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_runs_complete_with_consistent_stats(
        self, pattern, warps, insts, softwalker
    ):
        spec = WorkloadSpec(
            name=f"prop_{pattern}_{warps}_{insts}",
            abbr="prop",
            category="irregular",
            footprint_mb=32,
            pattern=pattern,
            compute_per_mem=5,
            warps_per_sm=warps,
            mem_insts_per_warp=insts,
        )
        config = baseline_config().derive(num_sms=4)
        if softwalker:
            config = config.with_ptw(num_walkers=0).with_softwalker(enabled=True)
        workload = build_workload(spec, config, scale=1.0)
        result = GPUSimulator(config, workload).run()

        counters = result.stats.counters
        # TLB accounting closes.
        assert counters.get("l1tlb.lookups") == counters.get(
            "l1tlb.hits"
        ) + counters.get("l1tlb.misses")
        assert counters.get("l2tlb.lookups") == counters.get(
            "l2tlb.hits"
        ) + counters.get("l2tlb.misses")
        # Every launched walk completes.
        assert counters.get("walks.launched") == counters.get("walks.completed")
        # Latency components are sane.
        tracker = result.stats.latency("walk")
        assert tracker.component_total("queueing") >= 0
        if counters.get("walks.completed"):
            assert tracker.count == counters.get("walks.completed")
        # Issue accounting never exceeds physical issue slots.
        assert result.instructions + result.pw_instructions <= (
            result.cycles * config.num_sms
        )


# ----------------------------------------------------------------------
# Serialisation round-trips (the wire/store contracts of the service
# and the persistent result store)
# ----------------------------------------------------------------------

import json

from repro.gpu.gpu import SimulationResult
from repro.resilience.faults import FAULT_KINDS, FaultPlan, FaultSpec


@st.composite
def fault_plans(draw):
    specs = draw(
        st.lists(
            st.builds(
                FaultSpec,
                kind=st.sampled_from(FAULT_KINDS),
                time=st.integers(min_value=0, max_value=10**7),
                duration=st.integers(min_value=0, max_value=10**4),
                magnitude=st.integers(min_value=0, max_value=64),
                vpn=st.none() | st.integers(min_value=0, max_value=2**36),
            ),
            max_size=12,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return FaultPlan(seed=seed, faults=tuple(specs))


@st.composite
def simulation_results(draw):
    stats = StatsRegistry()
    for name, amount in draw(
        st.dictionaries(
            st.sampled_from(["walks", "tlb.hits", "tlb.misses", "mshr.fail"]),
            st.integers(min_value=0, max_value=10**9),
            max_size=4,
        )
    ).items():
        stats.counters.add(name, amount)
    for value, weight in draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=1, max_value=1000),
            ),
            max_size=8,
        )
    ):
        stats.histogram("walk_latency").record(value, weight)
    for queueing, access in draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**5),
                st.integers(min_value=0, max_value=10**5),
            ),
            max_size=6,
        )
    ):
        stats.latency("walk").record(queueing=queueing, access=access)
    return SimulationResult(
        workload=draw(st.text(min_size=1, max_size=16)),
        cycles=draw(st.integers(min_value=0, max_value=10**12)),
        instructions=draw(st.integers(min_value=0, max_value=10**12)),
        pw_instructions=draw(st.integers(min_value=0, max_value=10**10)),
        stats=stats,
        num_sms=draw(st.integers(min_value=1, max_value=128)),
        stall_cycles=draw(st.integers(min_value=0, max_value=10**12)),
        memory_wait_cycles=draw(st.integers(min_value=0, max_value=10**12)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        complete=draw(st.booleans()),
    )


class TestSerialisationRoundTrips:
    @given(fault_plans())
    @settings(max_examples=60, deadline=None)
    def test_fault_plan_json_round_trip_is_lossless(self, plan):
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        # And stable: a second trip produces identical JSON bytes.
        assert restored.to_json() == plan.to_json()

    @given(simulation_results())
    @settings(max_examples=40, deadline=None)
    def test_simulation_result_json_round_trip_is_lossless(self, result):
        wire = json.loads(json.dumps(result.to_dict()))
        restored = SimulationResult.from_dict(wire)
        assert restored.fingerprint() == result.fingerprint()
        assert restored.to_dict() == result.to_dict()
        assert restored.cycles == result.cycles
        assert restored.complete == result.complete
        assert restored.stats.counters.as_dict() == result.stats.counters.as_dict()


@st.composite
def gpu_configs(draw):
    """Randomized *valid* GPUConfig instances across the knob space."""
    walk_backend = draw(st.sampled_from([None, "hardware", "softwalker", "hybrid"]))
    config = baseline_config().derive(
        num_sms=draw(st.integers(min_value=1, max_value=64)),
        max_warps_per_sm=draw(st.integers(min_value=1, max_value=64)),
        issue_width=draw(st.integers(min_value=1, max_value=4)),
        fixed_pt_level_latency=draw(st.sampled_from([None, 50, 200])),
        hw_in_tlb_mshr=draw(st.booleans()),
        tlb_coalescing_span=draw(st.sampled_from([1, 2, 4])),
        tlb_speculation=draw(st.booleans()),
        walk_backend=walk_backend,
    )
    # An explicit hardware or hybrid backend needs at least one walker.
    min_walkers = 1 if walk_backend in ("hardware", "hybrid") else 0
    config = config.with_ptw(
        num_walkers=draw(st.integers(min_value=min_walkers, max_value=128)),
        pwb_entries=draw(st.integers(min_value=1, max_value=256)),
        pwb_ports=draw(st.integers(min_value=1, max_value=4)),
        pwc_entries=draw(st.integers(min_value=0, max_value=64)),
        pwc_min_level=draw(st.sampled_from([1, 2])),
        nha_coalescing=draw(st.booleans()),
        page_table_kind=draw(st.sampled_from(["radix", "hashed"])),
        pwb_policy=draw(st.sampled_from(["fcfs", "sm_batch"])),
    )
    pw_threads = draw(st.sampled_from([1, 8, 32]))
    config = config.with_softwalker(
        enabled=draw(st.booleans()),
        hybrid=draw(st.booleans()),
        pw_threads_per_sm=pw_threads,
        softpwb_entries=draw(st.integers(min_value=pw_threads, max_value=256)),
        in_tlb_mshr_entries=draw(st.sampled_from([0, 256, 1024])),
        distributor_policy=draw(
            st.sampled_from(["round_robin", "random", "stall_aware"])
        ),
        instruction_cycles=draw(st.integers(min_value=1, max_value=8)),
        simt_lockstep=draw(st.booleans()),
    )
    l2_assoc = draw(st.sampled_from([8, 16]))
    config = config.with_l2_tlb(
        entries=l2_assoc * draw(st.sampled_from([16, 64])),
        associativity=l2_assoc,
        mshr_entries=draw(st.integers(min_value=1, max_value=256)),
    )
    return config.with_page_size(
        draw(st.sampled_from([PAGE_SIZE_64K, PAGE_SIZE_2M]))
    )


class TestConfigSerialisation:
    @given(gpu_configs())
    @settings(max_examples=80, deadline=None)
    def test_gpu_config_dict_round_trip_is_lossless(self, config):
        restored = GPUConfig.from_dict(config.to_dict())
        assert restored == config
        # And stable: the second trip emits the identical dict.
        assert restored.to_dict() == config.to_dict()

    @given(gpu_configs())
    @settings(max_examples=40, deadline=None)
    def test_fingerprint_survives_json_and_matches_to_dict(self, config):
        fingerprint = config_fingerprint(config)
        assert json.loads(json.dumps(fingerprint)) == fingerprint
        assert fingerprint == config.to_dict()

    @given(gpu_configs())
    @settings(max_examples=40, deadline=None)
    def test_default_backend_field_stays_out_of_the_wire_format(self, config):
        data = config.to_dict()
        assert ("walk_backend" in data) == (config.walk_backend is not None)
