"""Tests for the pluggable architecture layer (``repro.arch``).

Covers the component registries, plugin loading via ``REPRO_PLUGINS``,
MachineSpec resolution/serialization, and MachineBuilder assembly.
"""

import os
import sys
import textwrap

import pytest

from repro.arch import (
    DISTRIBUTOR_POLICIES,
    PAGE_TABLE_KINDS,
    PLUGINS_ENV,
    PWB_POLICIES,
    REPLACEMENT_POLICIES,
    WALK_BACKENDS,
    ComponentRegistry,
    MachineBuilder,
    MachineSpec,
    UnknownComponentError,
    build_machine,
)
from repro.arch.registry import reset_plugins_loaded
from repro.config import GPUConfig, baseline_config, softwalker_config
from repro.harness.runner import build_workload
from repro.workloads.base import WorkloadSpec


# ----------------------------------------------------------------------
# ComponentRegistry mechanics
# ----------------------------------------------------------------------
class TestComponentRegistry:
    def test_register_and_create(self):
        registry = ComponentRegistry("widget")
        registry.register("double", lambda x: 2 * x)
        assert registry.create("double", 21) == 42
        assert "double" in registry
        assert registry.names() == ["double"]
        assert len(registry) == 1
        assert list(registry) == ["double"]

    def test_decorator_registration(self):
        registry = ComponentRegistry("widget")

        @registry.decorator("noop")
        def build_noop():
            return "noop built"

        assert registry.create("noop") == "noop built"
        assert build_noop() == "noop built"  # factory itself untouched

    def test_duplicate_registration_rejected(self):
        registry = ComponentRegistry("widget")
        registry.register("x", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", lambda: 2)
        registry.register("x", lambda: 3, replace_existing=True)
        assert registry.create("x") == 3

    def test_unknown_name_lists_registered_and_suggests(self):
        registry = ComponentRegistry("widget")
        registry.register("round_robin", lambda: None)
        registry.register("random", lambda: None)
        with pytest.raises(UnknownComponentError) as excinfo:
            registry.factory("round_robbin")
        message = str(excinfo.value)
        assert "unknown widget 'round_robbin'" in message
        assert "random, round_robin" in message
        assert "did you mean 'round_robin'" in message
        assert excinfo.value.known == ["random", "round_robin"]

    def test_unknown_component_error_is_a_key_error(self):
        # Callers that catch KeyError (dict-like contract) keep working.
        assert issubclass(UnknownComponentError, KeyError)

    def test_validate_raises_value_error(self):
        registry = ComponentRegistry("widget")
        registry.register("good", lambda: None)
        assert registry.validate("good") == "good"
        with pytest.raises(ValueError, match="unknown widget 'bad'"):
            registry.validate("bad")


class TestBuiltinRegistries:
    def test_builtin_names(self):
        assert set(WALK_BACKENDS) == {"hardware", "softwalker", "hybrid"}
        assert set(REPLACEMENT_POLICIES) == {"lru", "fifo"}
        assert set(PWB_POLICIES) == {"fcfs", "sm_batch"}
        assert set(DISTRIBUTOR_POLICIES) == {
            "round_robin",
            "random",
            "stall_aware",
        }
        assert set(PAGE_TABLE_KINDS) == {"radix", "hashed"}


# ----------------------------------------------------------------------
# Plugin loading (REPRO_PLUGINS)
# ----------------------------------------------------------------------
class TestPluginLoading:
    @pytest.fixture
    def plugin_env(self, tmp_path, monkeypatch):
        """A throwaway plugin file wired into REPRO_PLUGINS."""
        plugin = tmp_path / "toy_plugin.py"
        plugin.write_text(
            textwrap.dedent(
                """
                from repro.arch.registry import WALK_BACKENDS

                @WALK_BACKENDS.decorator("test_toy", replace_existing=True)
                def build_test_toy(ctx):
                    return ("toy backend", ctx)
                """
            )
        )
        monkeypatch.setenv(PLUGINS_ENV, str(plugin))
        reset_plugins_loaded()
        yield plugin
        WALK_BACKENDS._factories.pop("test_toy", None)
        # Evict the cached module so the next test's load re-executes it.
        sys.modules.pop("repro_plugin_toy_plugin", None)
        reset_plugins_loaded()

    def test_registry_miss_triggers_plugin_load(self, plugin_env):
        factory = WALK_BACKENDS.factory("test_toy")
        assert factory("ctx") == ("toy backend", "ctx")

    def test_walk_backend_field_accepts_plugin_name(self, plugin_env):
        config = baseline_config().derive(walk_backend="test_toy")
        assert MachineSpec(config=config).backend_name == "test_toy"
        # And it survives the wire format.
        assert GPUConfig.from_dict(config.to_dict()) == config

    def test_broken_plugin_fails_loudly(self, tmp_path, monkeypatch):
        broken = tmp_path / "broken_plugin.py"
        broken.write_text("raise RuntimeError('plugin import exploded')\n")
        monkeypatch.setenv(PLUGINS_ENV, str(broken))
        reset_plugins_loaded()
        try:
            with pytest.raises(RuntimeError, match="plugin import exploded"):
                WALK_BACKENDS.factory("definitely_not_registered")
        finally:
            reset_plugins_loaded()


# ----------------------------------------------------------------------
# MachineSpec
# ----------------------------------------------------------------------
class TestMachineSpec:
    def test_backend_name_derivation(self):
        assert MachineSpec(config=baseline_config()).backend_name == "hardware"
        assert MachineSpec(config=softwalker_config()).backend_name == "softwalker"
        assert (
            MachineSpec(config=softwalker_config(hybrid=True)).backend_name
            == "hybrid"
        )

    def test_explicit_backend_wins(self):
        config = baseline_config().derive(walk_backend="softwalker")
        assert MachineSpec(config=config).backend_name == "softwalker"

    def test_unbuildable_spec_is_rejected(self):
        config = baseline_config().with_ptw(num_walkers=0)
        with pytest.raises(ValueError, match="no walk backend"):
            MachineSpec(config=config).backend_name

    def test_dict_round_trip(self):
        spec = MachineSpec(config=softwalker_config(hybrid=True))
        assert MachineSpec.from_dict(spec.to_dict()) == spec
        # A bare config dict (no "config" wrapper) is also accepted.
        assert MachineSpec.from_dict(spec.config.to_dict()) == spec


# ----------------------------------------------------------------------
# MachineBuilder assembly
# ----------------------------------------------------------------------
def tiny_workload(config):
    spec = WorkloadSpec(
        name="arch_tiny",
        abbr="arch",
        category="irregular",
        footprint_mb=8,
        pattern="uniform_random",
        compute_per_mem=2,
        warps_per_sm=1,
        mem_insts_per_warp=2,
    )
    return build_workload(spec, config, scale=1.0, seed=3)


class TestMachineBuilder:
    @pytest.mark.parametrize(
        "config,backend_cls",
        [
            (baseline_config(), "HardwareWalkBackend"),
            (softwalker_config(), "SoftWalkerBackend"),
            (softwalker_config(hybrid=True), "HybridBackend"),
        ],
        ids=["hardware", "softwalker", "hybrid"],
    )
    def test_builds_the_configured_backend(self, config, backend_cls):
        machine = build_machine(config, tiny_workload(config))
        assert type(machine.backend).__name__ == backend_cls
        assert machine.config == config
        assert len(machine.sms) == config.num_sms
        assert machine.warps  # assembled and ready to start

    def test_builder_accepts_bare_config(self):
        config = baseline_config().derive(num_sms=2)
        builder = MachineBuilder(config)
        assert builder.spec == MachineSpec(config=config)

    def test_workload_config_mismatch_rejected(self):
        config = baseline_config()
        workload = tiny_workload(config)
        other = config.with_page_size(2 * 1024 * 1024)
        with pytest.raises(ValueError, match="different page-table"):
            build_machine(other, workload)

    def test_built_machines_run_identically(self):
        config = softwalker_config().derive(num_sms=2)

        def run_once():
            from repro.gpu.gpu import GPUSimulator

            return GPUSimulator(config, tiny_workload(config)).run()

        first, second = run_once(), run_once()
        assert first.fingerprint() == second.fingerprint()


# ----------------------------------------------------------------------
# Layering contract (tools/check_layering.py, also run in CI)
# ----------------------------------------------------------------------
class TestLayeringContract:
    def test_layer_dag_is_clean(self):
        import subprocess

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, os.path.join(repo, "tools", "check_layering.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
