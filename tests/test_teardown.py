"""A finished machine is freed by reference counting alone.

``Runner.run`` and ``run_supervised`` release the machine's two-way
wiring (completion callbacks, audit hook, sampled gauges) at the end of
each job, so no reference cycle keeps a simulated machine alive for the
cycle collector.  These runs disable the collector and check that the
simulator, its translation service and its walk backend are gone as
soon as the job returns.
"""

import dataclasses
import gc
import weakref

import pytest

import repro.harness.runner as runner_module
from repro.arch.registry import WALK_BACKENDS
from repro.config import (
    avatar_config,
    baseline_config,
    fshpt_config,
    nha_config,
    softwalker_config,
)
from repro.gpu.gpu import GPUSimulator
from repro.harness.runner import Runner, build_workload
from repro.harness.supervised import SupervisionPolicy, run_supervised
from repro.obs import Observability
from repro.resilience import default_chaos_plan

#: One config per built-in walk backend, plus variants that wire other
#: callables (hashed traversal, NHA, speculation, TLB coalescing, PWB
#: and distributor policies, lockstep PW warps).
CONFIGS = {
    "hardware": baseline_config(),
    "softwalker": softwalker_config(),
    "hybrid": softwalker_config(hybrid=True),
    "fshpt": fshpt_config(),
    "nha": nha_config(),
    "avatar": avatar_config(),
    "sm_batch": baseline_config().with_ptw(pwb_policy="sm_batch"),
    "coalesced": baseline_config().derive(tlb_coalescing_span=16),
    "stall_aware": softwalker_config(distributor_policy="stall_aware"),
    "lockstep": softwalker_config().derive(
        softwalker=dataclasses.replace(
            softwalker_config().softwalker, simt_lockstep=True
        )
    ),
}


def test_every_builtin_backend_is_covered():
    builtin = {"hardware", "softwalker", "hybrid"}
    assert builtin <= set(WALK_BACKENDS.names())
    assert {CONFIGS[name].backend_name for name in builtin} == builtin


class Recording(GPUSimulator):
    """Keeps weak references to each machine's simulator, translation
    service and walk backend."""

    refs: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refs.extend(
            weakref.ref(part) for part in (self, self.translation, self.backend)
        )


def live_after(job):
    """Run ``job()`` with the collector off; the machines it left alive."""
    Recording.refs = []
    gc.collect()
    gc.disable()
    try:
        result = job()
        alive = [ref() for ref in Recording.refs if ref() is not None]
    finally:
        gc.enable()
    assert len(Recording.refs) == 3
    return result, alive


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_finished_machine_is_freed_without_the_collector(name, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.setattr(runner_module, "GPUSimulator", Recording)
    config = CONFIGS[name].derive(num_sms=4)
    result, alive = live_after(lambda: Runner().run(config, "gups", scale=0.02))
    assert alive == []
    assert result.complete and result.cycles > 0


def test_sampled_run_is_freed_without_the_collector(monkeypatch):
    """The gauges close over the machine; the caller keeps ``obs``."""
    monkeypatch.setattr(runner_module, "GPUSimulator", Recording)
    config = softwalker_config().derive(num_sms=4)
    obs = Observability.full(interval=200)
    result, alive = live_after(
        lambda: Runner().run(config, "gups", scale=0.02, obs=obs)
    )
    assert alive == []
    assert result.complete
    assert obs.metrics.samples_taken > 0
    assert "gpu.warps_remaining" in obs.metrics.gauge_names()


@pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
def test_supervised_run_is_freed_without_the_collector(chaos):
    config = softwalker_config().derive(num_sms=4)

    def make_sim():
        return Recording(config, build_workload("gups", config, scale=0.02))

    def job():
        return run_supervised(
            make_sim,
            policy=SupervisionPolicy(audit_every=500 if chaos else 0),
            plan=default_chaos_plan(seed=0) if chaos else None,
        )

    report, alive = live_after(job)
    assert alive == []
    assert report.result.complete
    assert (report.audits > 0) == chaos
    assert (report.faults_injected > 0) == chaos
