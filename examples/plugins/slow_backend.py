"""A deliberately slow walk-backend plugin: the *molasses* walker.

Molasses wraps whatever backend the configuration would otherwise
select and burns real host wall-clock time (``time.sleep``) on every
submitted walk — **without touching simulated time**.  The simulation
it produces is bit-identical to the unwrapped backend's (same
fingerprint, same cycle count); only the host is slower.

That makes it the perfect test fixture for the performance regression
guard: ``repro bench --compare`` must flag a molasses run as a
regression while the fingerprint column proves the simulation itself
never changed.  The bench-smoke CI job does exactly that.

Activate::

    REPRO_PLUGINS=examples/plugins/slow_backend.py \\
        REPRO_MOLASSES_DELAY=0.002 \\
        python -m repro bench --configs @molasses.json --benchmarks gups

with a config dict naming it, e.g. ``{"walk_backend": "molasses"}``,
or in Python ``baseline_config().derive(walk_backend="molasses")``.

**Hijack mode** (``REPRO_MOLASSES_HIJACK=1``): instead of registering a
new backend name, re-register the standard names (``hardware``,
``softwalker``, ``hybrid``) with molasses-wrapped factories.  Configs
then keep their exact fingerprints — the store key, cell identity, and
simulation outcome are unchanged — while every run pays the sleep tax.
That is how the report-smoke builds an "identical simulation, slower
host" snapshot for ``repro report --against`` to flag.
"""

import os
import time

from repro.arch.machine import MachineSpec
from repro.arch.registry import WALK_BACKENDS

#: Host seconds slept per submitted walk (simulated time unaffected).
DELAY = float(os.environ.get("REPRO_MOLASSES_DELAY", "0.002"))


class _SleepyBackend:
    """The wrapped backend plus a per-walk sleep.

    Only ``submit`` differs; ``on_complete`` (assigned by the
    TranslationService after construction) goes to the wrapped backend,
    which is the one that actually finishes walks, and every other
    attribute — ``in_flight``, ``live_requests``, ``register_metrics``,
    a hybrid backend's ``has_free_walker`` — is read from it, so audits,
    metrics and composite backends see the real backend's state.
    """

    def __init__(self, inner):
        self._inner = inner

    def submit(self, request):
        time.sleep(DELAY)
        self._inner.submit(request)

    @property
    def on_complete(self):
        return self._inner.on_complete

    @on_complete.setter
    def on_complete(self, callback):
        self._inner.on_complete = callback

    def __getattr__(self, name):
        # Only reached for names this class does not define.
        if name == "_inner":
            raise AttributeError(name)
        return getattr(self._inner, name)


@WALK_BACKENDS.decorator("molasses", replace_existing=True)
def build_molasses_backend(ctx):
    """Factory the registry calls; ``ctx`` is a BackendContext.

    Resolves the backend this config would select with the override
    removed and builds it through the registry, so the wrapper composes
    with hardware, softwalker, and hybrid alike.
    """
    inner_name = MachineSpec(config=ctx.config.derive(walk_backend=None)).backend_name
    return _SleepyBackend(WALK_BACKENDS.create(inner_name, ctx))


if os.environ.get("REPRO_MOLASSES_HIJACK"):
    for _name in ("hardware", "softwalker", "hybrid"):
        try:
            _original = WALK_BACKENDS.factory(_name)
        except KeyError:
            continue

        # Wrap the captured factory: resolving by name again would
        # recurse into the slot being replaced.
        def _make_sleepy(original):
            def factory(ctx):
                return _SleepyBackend(original(ctx))

            return factory

        WALK_BACKENDS.register(
            _name, _make_sleepy(_original), replace_existing=True
        )
