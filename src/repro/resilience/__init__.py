"""Resilience layer: fault injection and invariant auditing.

Two cooperating pieces harden long simulations against both injected
chaos and latent wiring bugs:

* :class:`FaultInjector` executes a seeded, declarative
  :class:`FaultPlan` against a live simulator — corrupted PTEs, MSHR
  exhaustion, walker stalls, DRAM spikes, delayed completions,
  duplicated requests — all perfectly replayable.
* :class:`InvariantChecker` audits conservation laws every N events via
  the engine's audit hook and raises :class:`InvariantViolation` with a
  full component-state dump the moment one breaks.

``repro.harness.supervised`` builds the watchdog, event budget and
graceful degradation on top; ``repro run --chaos`` exercises fault
injection and auditing end to end.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    default_chaos_plan,
)
from repro.resilience.invariants import InvariantChecker, InvariantViolation

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InvariantChecker",
    "InvariantViolation",
    "default_chaos_plan",
]
