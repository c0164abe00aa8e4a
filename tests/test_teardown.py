"""A finished machine is freed by reference counting alone.

``Runner.run`` releases the walk backend's completion wiring at the end
of each job, so no reference cycle keeps a simulated machine alive for
the cycle collector.  These runs disable the collector and check that
the simulator and its translation service are gone as soon as the job
returns.
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
from repro.harness.runner import Runner

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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_finished_machine_is_freed_without_the_collector(name, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    refs = []

    class Recording(GPUSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))
            refs.append(weakref.ref(self.translation))
            refs.append(weakref.ref(self.backend))

    monkeypatch.setattr(runner_module, "GPUSimulator", Recording)
    config = CONFIGS[name].derive(num_sms=4)
    gc.collect()
    gc.disable()
    try:
        result = Runner().run(config, "gups", scale=0.02)
        alive = [ref() for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert len(refs) == 3
    assert alive == []
    assert result.complete and result.cycles > 0

