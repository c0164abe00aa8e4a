"""Pluggable machine architecture: registries + spec-driven assembly.

Two halves:

* :mod:`repro.arch.registry` — string-keyed
  :class:`~repro.arch.registry.ComponentRegistry` instances for every
  interchangeable machine component, plus the ``REPRO_PLUGINS``
  loading hook.  Sits at the bottom of the layer DAG (imports nothing
  from the rest of repro).
* :mod:`repro.arch.machine` — :class:`~repro.arch.machine.MachineSpec`
  and :class:`~repro.arch.machine.MachineBuilder`, the assembly layer
  :class:`~repro.gpu.gpu.GPUSimulator` fronts.

The machine symbols are exposed lazily: ``repro.config`` imports the
registry half at import time, and an eager import of the machine half
here would close a cycle back into ``repro.config``.
"""

from repro.arch.registry import (
    DISTRIBUTOR_POLICIES,
    PAGE_TABLE_KINDS,
    PLUGINS_ENV,
    PWB_POLICIES,
    REPLACEMENT_POLICIES,
    WALK_BACKENDS,
    ComponentRegistry,
    UnknownComponentError,
    load_plugins,
)

_MACHINE_EXPORTS = (
    "BackendContext",
    "Machine",
    "MachineBuilder",
    "MachineSpec",
    "TraversalPlan",
    "build_machine",
)

__all__ = [
    "DISTRIBUTOR_POLICIES",
    "PAGE_TABLE_KINDS",
    "PLUGINS_ENV",
    "PWB_POLICIES",
    "REPLACEMENT_POLICIES",
    "WALK_BACKENDS",
    "ComponentRegistry",
    "UnknownComponentError",
    "load_plugins",
    *_MACHINE_EXPORTS,
]


def __getattr__(name: str):
    if name in _MACHINE_EXPORTS:
        from repro.arch import machine

        return getattr(machine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
