"""Unit tests for configuration dataclasses and named configs."""

import pytest

from repro.config import (
    DEFAULT_CONFIGS,
    PAGE_SIZE_2M,
    PAGE_SIZE_64K,
    CacheConfig,
    DistributorPolicy,
    GPUConfig,
    PageTableConfig,
    PTWConfig,
    SoftWalkerConfig,
    TLBConfig,
    baseline_config,
    fshpt_config,
    ideal_config,
    nha_config,
    softwalker_config,
)


class TestTable3Defaults:
    def test_baseline_matches_table3(self):
        config = baseline_config()
        assert config.num_sms == 46
        assert config.max_warps_per_sm == 48
        assert config.l1_tlb.entries == 32
        assert config.l1_tlb.associativity == 0  # fully associative
        assert config.l1_tlb.mshr_entries == 32
        assert config.l1_tlb.mshr_merges == 192
        assert config.l2_tlb.entries == 1024
        assert config.l2_tlb.associativity == 16
        assert config.l2_tlb.latency == 80
        assert config.l2_tlb.mshr_entries == 128
        assert config.l2_tlb.mshr_merges == 46
        assert config.page_table.levels == 4
        assert config.page_table.page_size == PAGE_SIZE_64K
        assert config.ptw.num_walkers == 32
        assert config.ptw.pwc_entries == 32
        assert config.dram.channels == 16

    def test_address_widths(self):
        pt = PageTableConfig()
        assert pt.offset_bits == 16
        assert pt.vpn_bits == 33
        assert pt.pfn_bits == 31


class TestValidation:
    def test_tlb_geometry_checked(self):
        with pytest.raises(ValueError):
            TLBConfig(entries=0, associativity=1, latency=1, mshr_entries=1, mshr_merges=1)
        with pytest.raises(ValueError):
            TLBConfig(entries=10, associativity=3, latency=1, mshr_entries=1, mshr_merges=1)

    def test_cache_geometry_checked(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=128, sector_bytes=32,
                        associativity=4, latency=1, mshr_entries=1)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=4096, line_bytes=128, sector_bytes=48,
                        associativity=4, latency=1, mshr_entries=1)

    @pytest.mark.parametrize(
        "field", ["size_bytes", "line_bytes", "sector_bytes", "associativity"]
    )
    def test_zero_cache_geometry_is_refused_not_divided(self, field):
        from repro.service.protocol import JobSpec, ProtocolError

        payload = baseline_config().to_dict()
        payload["l2d"][field] = 0
        with pytest.raises(ValueError, match=field):
            GPUConfig.from_dict(payload)
        with pytest.raises(ProtocolError, match=field):
            JobSpec.from_dict({"benchmark": "gups", "config": payload})

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("l1d", "mshr_entries", 0, "mshr_entries must be positive"),
            ("l2d", "mshr_entries", 0, "mshr_entries must be positive"),
            ("l1_tlb", "mshr_merges", 0, "MSHR file needs"),
            ("l2_tlb", "mshr_entries", -1, "MSHR file needs"),
            ("l1_tlb", "mshr_entries", 0, "l1_tlb.mshr_entries must be >= 1"),
            ("l2_tlb", "mshr_entries", 0, "l2_tlb.mshr_entries must be >= 1"),
            (None, "tlb_coalescing_span", 3, "coalescing span"),
            (None, "tlb_coalescing_span", 0, "coalescing span"),
            ("ptw", "pwc_min_level", 0, "min_level must be >= 1"),
            ("ptw", "pwc_entries", -1, "PWC size cannot be negative"),
            ("page_table", "page_size", 0, "at least one 128 B cache line"),
            ("page_table", "page_size", 64, "at least one 128 B cache line"),
        ],
    )
    def test_from_dict_refuses_what_would_fail_later(self, section, key, value, message):
        # Accepted, each of these failed only at machine build or
        # mid-run (an IndexError, a ZeroDivisionError).
        data = baseline_config().to_dict()
        (data if section is None else data[section])[key] = value
        with pytest.raises(ValueError, match=message):
            GPUConfig.from_dict(data)

    @pytest.mark.parametrize(
        "make,section,refused",
        [
            (softwalker_config, "l1_tlb", True),
            (softwalker_config, "l2_tlb", False),
            (lambda: baseline_config().derive(hw_in_tlb_mshr=True), "l2_tlb", False),
            (lambda: softwalker_config(in_tlb_mshr_entries=0), "l2_tlb", True),
        ],
    )
    def test_zero_tlb_mshrs_run_only_with_in_tlb_mshrs(self, make, section, refused):
        # Pending L2 TLB ways track misses in place of MSHRs: softwalker
        # gups at 4 SMs runs with none, and starves without In-TLB MSHRs.
        data = make().to_dict()
        data[section]["mshr_entries"] = 0
        if refused:
            with pytest.raises(ValueError, match=f"{section}.mshr_entries must be >= 1"):
                GPUConfig.from_dict(data)
        else:
            from repro.harness.runner import Runner

            config = GPUConfig.from_dict(data).derive(num_sms=4)
            assert Runner(store=None).run(config, "gups", scale=0.01).complete

    def test_smallest_page_size_is_one_line(self):
        assert PageTableConfig(page_size=128).page_size == 128

    def test_page_size_power_of_two(self):
        with pytest.raises(ValueError):
            PageTableConfig(page_size=3000)

    def test_ptw_kind_checked(self):
        with pytest.raises(ValueError):
            PTWConfig(page_table_kind="btree")

    def test_softwalker_policy_checked(self):
        with pytest.raises(ValueError):
            SoftWalkerConfig(distributor_policy="lottery")

    def test_softpwb_must_cover_threads(self):
        with pytest.raises(ValueError):
            SoftWalkerConfig(pw_threads_per_sm=32, softpwb_entries=16)


class TestDerivation:
    def test_with_ptw_preserves_other_fields(self):
        config = baseline_config().with_ptw(num_walkers=128)
        assert config.ptw.num_walkers == 128
        assert config.ptw.pwc_entries == 32
        assert config.l2_tlb.entries == 1024

    def test_with_page_size_switches_levels(self):
        large = baseline_config().with_page_size(PAGE_SIZE_2M)
        assert large.page_table.levels == 3
        back = large.with_page_size(PAGE_SIZE_64K)
        assert back.page_table.levels == 4

    def test_configs_are_hashable_for_caching(self):
        assert hash(baseline_config()) == hash(baseline_config())
        assert baseline_config() == baseline_config()
        assert baseline_config() != softwalker_config()


class TestNamedConfigs:
    def test_softwalker_has_no_hardware_walkers(self):
        config = softwalker_config()
        assert config.softwalker.enabled
        assert config.ptw.num_walkers == 0

    def test_hybrid_keeps_hardware_walkers(self):
        config = softwalker_config(hybrid=True)
        assert config.softwalker.hybrid
        assert config.ptw.num_walkers == 32

    def test_nha_config(self):
        assert nha_config().ptw.nha_coalescing

    def test_fshpt_config(self):
        assert fshpt_config().ptw.page_table_kind == "hashed"

    def test_ideal_config_unbounded(self):
        config = ideal_config()
        assert config.ptw.num_walkers >= 1 << 20
        assert config.l2_tlb.mshr_entries >= 1 << 20
        assert config.ptw.pwb_ports >= 1 << 20

    def test_distributor_policies(self):
        assert set(DistributorPolicy.ALL) == {"round_robin", "random", "stall_aware"}


class TestConfigRegistryErrors:
    def test_unknown_variant_lists_registered_names(self):
        with pytest.raises(KeyError) as excinfo:
            DEFAULT_CONFIGS.variant("no_such_config")
        message = str(excinfo.value)
        assert "unknown configuration 'no_such_config'" in message
        for name in DEFAULT_CONFIGS.names():
            assert name in message

    def test_unknown_variant_suggests_close_match(self):
        with pytest.raises(KeyError, match="did you mean 'baseline'"):
            DEFAULT_CONFIGS.variant("baselin")

    def test_get_raises_the_same_helpful_error(self):
        with pytest.raises(KeyError, match="registered:"):
            DEFAULT_CONFIGS.get("bogus")

    def test_serialisation_round_trip_for_every_named_config(self):
        for name in DEFAULT_CONFIGS.names():
            config = DEFAULT_CONFIGS.get(name)
            assert GPUConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        # The second key is a retired field: a stale spec must fail up
        # front rather than be accepted and ignored.
        for key, value in (("num_smz", 4), ("event_engine", "heap")):
            data = baseline_config().to_dict()
            data[key] = value
            with pytest.raises((TypeError, ValueError), match=key):
                GPUConfig.from_dict(data)

    def test_walk_backend_field_is_validated(self):
        with pytest.raises(ValueError, match="unknown walk backend"):
            baseline_config().derive(walk_backend="sotfwalker")

    @pytest.mark.parametrize(
        "backend,message",
        [
            ("hardware", "zero PTWs"),
            ("hybrid", "hybrid mode needs hardware walkers"),
        ],
    )
    def test_walker_backend_without_walkers_is_refused(self, backend, message):
        # Accepted, such a config would run until the machine drains
        # with warps unfinished.
        with pytest.raises(ValueError, match=message):
            baseline_config().derive(walk_backend=backend).with_ptw(num_walkers=0)
        data = baseline_config().derive(walk_backend=backend).to_dict()
        data["ptw"]["num_walkers"] = 0
        with pytest.raises(ValueError, match=message):
            GPUConfig.from_dict(data)
        # The software-only backend needs no hardware walkers.
        softwalker_config().derive(walk_backend="softwalker")

    @pytest.mark.parametrize(
        "config,message",
        [
            (baseline_config().with_ptw(num_walkers=0), "no walk backend"),
            (
                softwalker_config(hybrid=True).with_ptw(num_walkers=0),
                "hybrid mode needs hardware walkers",
            ),
        ],
        ids=["hardware", "hybrid"],
    )
    def test_derived_backend_without_walkers_is_refused(self, config, message):
        # Accepted, such a config failed only at machine build: on a
        # service worker, after a crash attempt.
        with pytest.raises(ValueError, match=message):
            GPUConfig.from_dict(config.to_dict())
