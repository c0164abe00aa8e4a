"""String-keyed component registries: the machine's extension points.

Every interchangeable piece of the simulated machine — walk backends,
PWB dequeue policies, Request Distributor policies, page-table kinds —
is resolved by *name* through
a :class:`ComponentRegistry` here instead of an if/else chain at the
assembly site.  Config validation delegates to the same registries, so
the set of legal names in a :class:`~repro.config.GPUConfig` and the
set of buildable components can never drift apart, and registering a
new component makes it selectable everywhere at once (CLI, sweeps, the
service daemon).

This module sits at the very bottom of the layer DAG: it imports
nothing from the rest of ``repro``.  Built-in components are seeded
with *lazy* factories (the implementation module is imported on first
build), which is what lets ``repro.config`` validate names at import
time without dragging the whole machine model in.

External code hooks in two ways, without patching repro:

* ``REPRO_PLUGINS`` — a ``os.pathsep``-separated list of module names
  or ``.py`` file paths, imported by :func:`load_plugins`; each module
  registers its components at import time.
* ``repro.plugins`` entry points — packages installed with an
  ``entry_points = {"repro.plugins": [...]}`` declaration are loaded
  the same way.

Plugins load lazily: on the first lookup (or validation) that misses,
the registries pull plugins in and retry before erroring, so a plugin
name is usable anywhere a built-in name is — including inside config
dicts arriving over the service socket.
"""

from __future__ import annotations

import difflib
import importlib
import importlib.util
import os
import sys
from typing import Any, Callable, Generic, Iterator, TypeVar

PLUGINS_ENV = "REPRO_PLUGINS"
ENTRY_POINT_GROUP = "repro.plugins"

T = TypeVar("T")


class UnknownComponentError(KeyError):
    """Lookup of a name no factory is registered under.

    Carries the registry's kind and the registered names so front ends
    can render an actionable message (and a did-you-mean suggestion)
    instead of a bare :class:`KeyError`.
    """

    def __init__(self, kind: str, name: str, known: list[str]) -> None:
        message = f"unknown {kind} {name!r}; registered: {', '.join(sorted(known)) or '(none)'}"
        close = difflib.get_close_matches(name, known, n=1)
        if close:
            message += f" — did you mean {close[0]!r}?"
        super().__init__(message)
        self.kind = kind
        self.name = name
        self.known = sorted(known)

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class ComponentRegistry(Generic[T]):
    """Name -> factory mapping for one kind of machine component.

    Factories receive whatever arguments the assembly site passes to
    :meth:`create` (each registry documents its factory signature).
    Registration order is preserved; lookups that miss trigger one
    plugin-load attempt before raising
    :class:`UnknownComponentError`.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable[..., T]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        factory: Callable[..., T],
        *,
        replace_existing: bool = False,
    ) -> Callable[..., T]:
        """Register ``factory`` under ``name``; returns the factory.

        Usable as a decorator::

            @WALK_BACKENDS.register("toy")
            def build_toy(ctx): ...

        (``register(name)`` with no factory returns the decorator.)
        """
        if not replace_existing and name in self._factories:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._factories[name] = factory
        return factory

    def decorator(self, name: str, **kwargs: Any) -> Callable[[Callable[..., T]], Callable[..., T]]:
        def wrap(factory: Callable[..., T]) -> Callable[..., T]:
            self.register(name, factory, **kwargs)
            return factory

        return wrap

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def factory(self, name: str) -> Callable[..., T]:
        try:
            return self._factories[name]
        except KeyError:
            pass
        # One plugin-load attempt before giving up: inline config dicts
        # may name components a not-yet-imported plugin provides.
        if load_plugins():
            try:
                return self._factories[name]
            except KeyError:
                pass
        raise UnknownComponentError(self.kind, name, list(self._factories))

    def create(self, name: str, *args: Any, **kwargs: Any) -> T:
        """Build the named component (a fresh instance every call)."""
        return self.factory(name)(*args, **kwargs)

    def validate(self, name: str) -> str:
        """Check ``name`` is registered; returns it for chaining.

        Raises :class:`ValueError` (what dataclass ``__post_init__``
        callers expect) with the registered-name list on a miss.
        """
        try:
            self.factory(name)
        except UnknownComponentError as miss:
            raise ValueError(str(miss)) from None
        return name

    def names(self) -> list[str]:
        """Registered names, in registration order."""
        return list(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:
        return f"ComponentRegistry({self.kind!r}, names={self.names()})"


# ----------------------------------------------------------------------
# The machine's registries
# ----------------------------------------------------------------------

#: Walk backends: ``factory(ctx: repro.arch.machine.BackendContext)``
#: returning an object with ``submit``/``on_complete``/``live_requests``
#: /``register_metrics`` (see docs/architecture.md for the contract).
WALK_BACKENDS: ComponentRegistry = ComponentRegistry("walk backend")

#: PWB dequeue policies: ``factory()`` returning a
#: :class:`~repro.ptw.subsystem.PwbPolicy`.
PWB_POLICIES: ComponentRegistry = ComponentRegistry("PWB policy")

#: Request Distributor core-selection policies: ``factory(seed=...)``
#: returning a :class:`~repro.core.distributor.SelectionPolicy`.
DISTRIBUTOR_POLICIES: ComponentRegistry = ComponentRegistry("distributor policy")

#: Page-table kinds: ``factory(ctx)`` returning a
#: :class:`~repro.arch.machine.TraversalPlan` (how hardware walkers
#: traverse the table, and whether the PWC applies).
PAGE_TABLE_KINDS: ComponentRegistry = ComponentRegistry("page table kind")

# ----------------------------------------------------------------------
# Built-in components (lazy factories: implementations import on build)
# ----------------------------------------------------------------------

def _build_hardware_backend(ctx):
    from repro.ptw.subsystem import HardwareWalkBackend

    plan = ctx.traversal_plan()
    return HardwareWalkBackend(
        ctx.engine,
        ctx.config.ptw,
        ctx.space.radix,
        ctx.pte_port,
        plan.pwc,
        ctx.stats,
        traversal=plan.traversal,
    )


def _build_softwalker_backend(ctx):
    from repro.core.backend import SoftWalkerBackend

    return SoftWalkerBackend(
        ctx.engine,
        ctx.config,
        ctx.sms,
        ctx.space.radix,
        ctx.pte_port,
        ctx.pwc,
        ctx.stats,
    )


def _build_hybrid_backend(ctx):
    from repro.core.backend import HybridBackend

    if ctx.config.ptw.num_walkers == 0:
        raise ValueError("hybrid mode needs hardware walkers")
    # Composed through the registry, so replacing either half swaps it
    # inside the hybrid too.
    return HybridBackend(
        WALK_BACKENDS.create("hardware", ctx),
        WALK_BACKENDS.create("softwalker", ctx),
    )


WALK_BACKENDS.register("hardware", _build_hardware_backend)
WALK_BACKENDS.register("softwalker", _build_softwalker_backend)
WALK_BACKENDS.register("hybrid", _build_hybrid_backend)


def _build_fcfs_policy():
    from repro.ptw.subsystem import FcfsPwbPolicy

    return FcfsPwbPolicy()


def _build_sm_batch_policy():
    from repro.ptw.subsystem import SmBatchPwbPolicy

    return SmBatchPwbPolicy()


PWB_POLICIES.register("fcfs", _build_fcfs_policy)
PWB_POLICIES.register("sm_batch", _build_sm_batch_policy)


def _build_round_robin(**kwargs):
    from repro.core.distributor import RoundRobinSelection

    return RoundRobinSelection()


def _build_random(*, seed: int = 97, **kwargs):
    from repro.core.distributor import RandomSelection

    return RandomSelection(seed=seed)


def _build_stall_aware(**kwargs):
    from repro.core.distributor import StallAwareSelection

    return StallAwareSelection()


DISTRIBUTOR_POLICIES.register("round_robin", _build_round_robin)
DISTRIBUTOR_POLICIES.register("random", _build_random)
DISTRIBUTOR_POLICIES.register("stall_aware", _build_stall_aware)


def _build_radix_plan(ctx):
    from repro.arch.machine import TraversalPlan

    return TraversalPlan(traversal=None, pwc=ctx.pwc)


def _build_hashed_plan(ctx):
    from repro.arch.machine import TraversalPlan
    from repro.ptw.hashed_backend import make_hashed_traversal

    if ctx.space.hashed is None:
        raise ValueError("hashed page table requested but not built")
    # Hashed walks are single probes; the PWC caches radix interior
    # nodes and does not apply.
    return TraversalPlan(
        traversal=make_hashed_traversal(ctx.space.hashed, ctx.pte_port),
        pwc=None,
    )


PAGE_TABLE_KINDS.register("radix", _build_radix_plan)
PAGE_TABLE_KINDS.register("hashed", _build_hashed_plan)




# ----------------------------------------------------------------------
# Plugins
# ----------------------------------------------------------------------

_plugins_loaded = False


def _import_path(path: str):
    """Import a plugin from a ``.py`` file path (no package needed)."""
    name = "repro_plugin_" + os.path.splitext(os.path.basename(path))[0]
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load plugin file {path!r}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return module


def load_plugins(*, reload: bool = False) -> bool:
    """Import every ``REPRO_PLUGINS`` module / entry point, once.

    Returns True if this call actually loaded anything (the registries
    use that to decide whether a retry is worthwhile).  Idempotent;
    ``reload=True`` forces a re-scan (tests use it after mutating the
    environment).  A plugin that fails to import raises — a silently
    dropped plugin is far worse than a loud startup error.
    """
    global _plugins_loaded
    if _plugins_loaded and not reload:
        return False
    _plugins_loaded = True
    loaded = False
    for entry in os.environ.get(PLUGINS_ENV, "").split(os.pathsep):
        entry = entry.strip()
        if not entry:
            continue
        if entry.endswith(".py") or os.sep in entry:
            _import_path(entry)
        else:
            importlib.import_module(entry)
        loaded = True
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - py3.7 fallback not shipped
        return loaded
    try:
        points = entry_points(group=ENTRY_POINT_GROUP)
    except TypeError:  # pragma: no cover - pre-3.10 selection API
        points = entry_points().get(ENTRY_POINT_GROUP, ())
    for point in points:
        point.load()
        loaded = True
    return loaded


def reset_plugins_loaded() -> None:
    """Forget that plugins were loaded (test isolation helper)."""
    global _plugins_loaded
    _plugins_loaded = False
