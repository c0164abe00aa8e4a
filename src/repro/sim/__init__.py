"""Discrete-event simulation core: engine, clock, and statistics."""

from repro.sim.engine import Engine, SimulationError
from repro.sim.stats import Counter, Histogram, LatencyTracker, StatsRegistry

__all__ = [
    "Engine",
    "SimulationError",
    "Counter",
    "Histogram",
    "LatencyTracker",
    "StatsRegistry",
]
