"""The import contract: each entry point loads only the layers it runs.

A service client and ``import repro`` load neither numpy nor the
machine model, the CLI's client commands start without numpy, and the
job path (runner, daemon) imports everything a job executes up front,
so no job pays for an import.  Every check starts a fresh interpreter,
because this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Layers a client-side process must not load.
MODEL_PREFIXES = ("repro.gpu", "repro.harness", "repro.workloads")

#: What the CLI parser must not load: it does read the benchmark names
#: from the numpy-free ``repro.workloads.catalog``.
CLI_PREFIXES = ("repro.gpu", "repro.harness", "repro.workloads.base")


def fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that finds this ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )


def modules_after(code: str) -> set[str]:
    """The modules loaded after ``code`` runs in a fresh interpreter."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    return set(json.loads(fresh("-c", probe).stdout.splitlines()[-1]))


def model_modules(modules, prefixes=MODEL_PREFIXES) -> list[str]:
    return sorted(
        name
        for name in modules
        if name == "numpy" or name.startswith(("numpy.", *prefixes))
    )


def test_service_client_loads_no_simulator():
    assert model_modules(modules_after("import repro.service.client")) == []


def test_inline_config_label_loads_no_simulator():
    code = (
        "from repro.config import softwalker_config\n"
        "from repro.service.protocol import JobSpec\n"
        "label = JobSpec(benchmark='gups', config=softwalker_config()).label()\n"
        "assert label.startswith('inline-'), label\n"
    )
    assert model_modules(modules_after(code), ("repro.gpu", "repro.harness")) == []


def test_repro_facade_loads_no_simulator():
    modules = modules_after("import repro")
    assert model_modules(modules) == []
    assert sorted(name for name in modules if name.startswith("repro")) == ["repro"]


def test_every_facade_name_resolves():
    code = (
        "import repro, repro.analysis, repro.harness, repro.service, repro.workloads\n"
        "packages = (repro, repro.analysis, repro.harness, repro.service, repro.workloads)\n"
        "for package in packages:\n"
        "    for name in package.__all__:\n"
        "        getattr(package, name)\n"
        "from repro import *\n"
    )
    fresh("-c", code)


def test_unknown_facade_name_is_an_attribute_error():
    code = (
        "import repro\n"
        "try:\n"
        "    repro.Checkpoint\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('resolved a name that is not exported')\n"
    )
    fresh("-c", code)


def cli_imports(*argv: str) -> list[str]:
    """Modules ``python -m repro *argv`` imported (from ``-X importtime``)."""
    stderr = fresh("-X", "importtime", "-m", "repro", *argv).stderr
    return [
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]


def test_client_commands_start_without_numpy():
    for command in ("submit", "jobs"):
        imported = cli_imports(command, "--help")
        assert "repro.cli" in imported
        assert model_modules(imported, CLI_PREFIXES) == [], command


def test_runner_preloads_the_whole_run():
    code = (
        "import sys\n"
        "import repro.harness.runner as runner\n"
        "from repro.config import baseline_config, softwalker_config\n"
        "before = set(sys.modules)\n"
        "for config in (baseline_config(), softwalker_config()):\n"
        "    runner.Runner(store=None).run(\n"
        "        config.derive(num_sms=4), 'gups', scale=0.01\n"
        "    )\n"
        "added = sorted(set(sys.modules) - before)\n"
        "print('ADDED', [name for name in added if name.startswith('repro')])\n"
    )
    out = fresh("-c", code).stdout
    assert "ADDED []" in out, out


def test_daemon_preloads_the_whole_job():
    code = (
        "import sys\n"
        "import repro.service.server\n"
        "from repro.config import DEFAULT_CONFIGS\n"
        "from repro.harness.runner import simulate\n"
        "from repro.obs import Observability\n"
        "before = set(sys.modules)\n"
        "config = DEFAULT_CONFIGS.get('softwalker').derive(num_sms=4)\n"
        "obs = Observability.sampling(500)\n"
        "assert simulate(config, 'gups', scale=0.01, obs=obs).result.complete\n"
        "added = sorted(set(sys.modules) - before)\n"
        "print('ADDED', [name for name in added if name.startswith('repro')])\n"
    )
    out = fresh("-c", code).stdout
    assert "ADDED []" in out, out
