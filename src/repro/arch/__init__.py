"""Pluggable walk backends: the registry plus plugin loading.

:mod:`repro.arch.registry` holds :data:`WALK_BACKENDS`, the one
name-keyed extension point of the machine, the
:class:`~repro.arch.registry.BackendContext` its factories receive, and
the ``REPRO_PLUGINS`` loading hook.  It sits at the bottom of the layer
DAG (imports nothing from the rest of repro);
:class:`~repro.gpu.gpu.GPUSimulator` wires the rest of the machine.
"""

from repro.arch.registry import (
    PLUGINS_ENV,
    WALK_BACKENDS,
    BackendContext,
    ComponentRegistry,
    UnknownComponentError,
    load_plugins,
)

__all__ = [
    "PLUGINS_ENV",
    "WALK_BACKENDS",
    "BackendContext",
    "ComponentRegistry",
    "UnknownComponentError",
    "load_plugins",
]
