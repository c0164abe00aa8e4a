"""Tests for the pluggable architecture layer (``repro.arch``).

Covers the walk-backend registry, plugin loading via ``REPRO_PLUGINS``,
backend resolution and machine assembly in ``GPUSimulator``, every
legal name of the config's value-typed component choices, and inline
configs and a plugin backend through ``repro sweep``.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.arch import (
    PLUGINS_ENV,
    WALK_BACKENDS,
    ComponentRegistry,
    UnknownComponentError,
)
from repro.arch.registry import reset_plugins_loaded
from repro.config import (
    DistributorPolicy,
    GPUConfig,
    PageTableKind,
    PwbPolicy,
    baseline_config,
    softwalker_config,
)
from repro.gpu.gpu import GPUSimulator
from repro.harness.runner import build_workload
from repro.harness.store import ResultStore
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
        assert config.backend_name == "test_toy"
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
# Machine assembly (GPUSimulator)
# ----------------------------------------------------------------------
class TestBackendName:
    def test_backend_name_derivation(self):
        assert baseline_config().backend_name == "hardware"
        assert softwalker_config().backend_name == "softwalker"
        assert softwalker_config(hybrid=True).backend_name == "hybrid"

    def test_explicit_backend_wins(self):
        config = baseline_config().derive(walk_backend="softwalker")
        assert config.backend_name == "softwalker"


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


class TestAssembly:
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
        sim = GPUSimulator(config, tiny_workload(config))
        assert type(sim.backend).__name__ == backend_cls
        assert len(sim.sms) == config.num_sms
        assert sim._warps  # assembled and ready to start

    @pytest.mark.parametrize(
        "config,refusal",
        [
            (baseline_config().with_ptw(num_walkers=0), "no walk backend"),
            (
                softwalker_config(hybrid=True).with_ptw(num_walkers=0),
                "hybrid mode needs hardware walkers",
            ),
        ],
        ids=["hardware", "hybrid"],
    )
    def test_walkerless_config_built_in_code_is_refused(self, config, refusal):
        with pytest.raises(ValueError, match=refusal):
            GPUSimulator(config, tiny_workload(config))

    def test_workload_config_mismatch_rejected(self):
        config = baseline_config()
        workload = tiny_workload(config)
        other = config.with_page_size(2 * 1024 * 1024)
        with pytest.raises(ValueError, match="different page-table"):
            GPUSimulator(other, workload)

    def test_built_machines_run_identically(self):
        config = softwalker_config().derive(num_sms=2)

        def run_once():
            return GPUSimulator(config, tiny_workload(config)).run()

        first, second = run_once(), run_once()
        assert first.fingerprint() == second.fingerprint()


#: Every legal name of each value-typed component choice, on a base
#: config whose backend reads it.
LEGAL_NAMES = [
    *(
        pytest.param(
            baseline_config().with_ptw(page_table_kind=name),
            id=f"page_table_kind={name}",
        )
        for name in PageTableKind.ALL
    ),
    *(
        pytest.param(
            baseline_config().with_ptw(pwb_policy=name), id=f"pwb_policy={name}"
        )
        for name in PwbPolicy.ALL
    ),
    *(
        pytest.param(
            softwalker_config(distributor_policy=name),
            id=f"distributor_policy={name}",
        )
        for name in DistributorPolicy.ALL
    ),
]


@pytest.mark.parametrize("config", LEGAL_NAMES)
def test_every_legal_name_builds_and_runs(config):
    """A legal name with no class behind it fails here, not mid-sweep."""
    config = config.derive(num_sms=4)
    workload = build_workload("gups", config, scale=0.01)
    result = GPUSimulator(config, workload).run()
    assert result.complete and result.walks_completed > 0


# ----------------------------------------------------------------------
# Layering contract (tools/check_layering.py, also run in CI)
# ----------------------------------------------------------------------
#: Public members that nothing in ``src/repro`` reads, each kept for the
#: reader named here.
READER_ALLOWLIST = {
    "ResultSet.filter": "stable repro.analysis API",
    "RegressionReport.regressions": "stable repro.analysis API",
    "ServiceClient.wait_until_up": "public client API",
    "sweep_resultset": "documented in docs/analysis.md; ROADMAP item 3 uses it",
    "ExperimentTable.row_for": "benchmarks/ reads it",
    "ComponentRegistry.decorator": "plugin API of examples/plugins/ and docs/architecture.md",
    "reset_plugins_loaded": "test seam for the plugin loader's once-per-process state",
    "FaultPlan.to_json": "the documented writer of the --chaos @plan.json format",
    "DRAM.busy_until": "observation point of the DRAM differential test; "
    "no other member reads a channel's state without an access",
    "PageWalkProgram.for_walk": "the Figure 14 walk program; the ISA and validation "
    "tests check its structure against the radix walker",
    "energy_report": "examples/energy_study.py reads it",
    "translation_energy_per_walk": "examples/energy_study.py reads it",
    "save_trace": "writer of the line-space trace file format in docs/modeling.md",
    "load_trace": "reader of the line-space trace file format in docs/modeling.md",
    "read_jsonl": "reader of the raw event stream `repro run --trace --jsonl` writes",
}


def _is_export_table(node: ast.stmt) -> bool:
    """A package façade's export list: ``__all__`` or a ``*_EXPORTS``
    table.  Its entries name members; they do not read them."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return False
    return any(
        isinstance(target, ast.Name)
        and (target.id == "__all__" or target.id.endswith("_EXPORTS"))
        for target in targets
    )


def unread_public_members(src: Path) -> list[str]:
    """Public module-level functions, methods and properties in ``src``
    whose name is never loaded there, as a name or an attribute, and
    never appears there as a whole string constant (which covers
    ``getattr`` dispatch and name tables) outside an export table."""
    defined: list[tuple[str, str, int]] = []
    reads: set[str] = set()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(src.parent)
        exports = {
            id(sub)
            for node in tree.body
            if _is_export_table(node)
            for sub in ast.walk(node)
        }
        for node in tree.body:
            if isinstance(node, functions):
                defined.append((node.name, str(where), node.lineno))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, functions):
                        defined.append(
                            (f"{node.name}.{item.name}", str(where), item.lineno)
                        )
        for node in ast.walk(tree):
            if id(node) in exports:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    return [
        f"{where}:{line}: {qualname}"
        for qualname, where, line in defined
        if not qualname.rpartition(".")[2].startswith("_")
        and qualname.rpartition(".")[2] not in reads
    ]


class TestLayeringContract:
    def test_layer_dag_is_clean(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, os.path.join(repo, "tools", "check_layering.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_every_public_member_has_a_reader(self):
        """A member only tests read is deleted with its tests; one kept
        for a reader outside ``src/repro`` says why in the allowlist."""
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        unread = unread_public_members(src)
        offenders = [e for e in unread if e.rpartition(": ")[2] not in READER_ALLOWLIST]
        assert not offenders, "no reader in src/repro:\n" + "\n".join(offenders)
        # An entry whose member is gone or has gained a reader goes too.
        stale = set(READER_ALLOWLIST) - {e.rpartition(": ")[2] for e in unread}
        assert not stale, f"allowlisted but read or gone: {sorted(stale)}"


# ----------------------------------------------------------------------
# Inline configs and plugins through `repro sweep` (real subprocesses)
# ----------------------------------------------------------------------
REPO = Path(__file__).resolve().parent.parent
ORACLE_PLUGIN = REPO / "examples" / "plugins" / "toy_backend.py"


def repro_sweep(tmp_path, configs: str) -> None:
    """``repro sweep`` over gups into ``tmp_path/store``, plugin loaded."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        ),
        REPRO_PLUGINS=str(ORACLE_PLUGIN),
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "sweep",
            "--configs", configs,
            "--benchmarks", "gups",
            "--scale", "0.05",
            "--seed", "7",
            "--store", str(tmp_path / "store"),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


class TestSweepThroughTheStack:
    def test_named_and_equivalent_inline_config_share_one_store_entry(
        self, tmp_path
    ):
        inline = tmp_path / "inline_softwalker.json"
        inline.write_text(json.dumps(softwalker_config().to_dict()))
        repro_sweep(tmp_path, f"softwalker,@{inline}")
        assert len(ResultStore(tmp_path / "store")) == 1

    def test_oracle_plugin_runs_through_the_sweep_and_beats_baseline(
        self, tmp_path
    ):
        oracle = tmp_path / "oracle.json"
        oracle.write_text(
            json.dumps({**baseline_config().to_dict(), "walk_backend": "oracle"})
        )
        repro_sweep(tmp_path, f"@{oracle},baseline")
        cycles = {
            key["config"].get("walk_backend"): result.cycles
            for key, result in ResultStore(tmp_path / "store").iter_entries()
        }
        # Unlimited walk parallelism must beat 32 hardware walkers.
        assert cycles.keys() == {"oracle", None}
        assert cycles["oracle"] < cycles[None]
