"""Avatar-style TLB speculation (ref [72], Section 2.3).

Avatar observes that consecutive virtual pages are often physically
contiguous, so on an L1 TLB miss the physical address can be *guessed*
from a nearby cached translation and the access issued speculatively;
a PTE embedded in the fetched data cacheline validates the guess.  A
correct speculation skips the L2 TLB lookup and the page walk entirely;
a wrong one pays a flush penalty and falls back to the normal walk —
which is why Avatar still suffers page-walk contention on irregular
workloads (the paper's argument for SoftWalker being complementary).

We model the predictor and the two outcomes' timing; validation
correctness is decided against the real page table, standing in for the
in-cacheline PTE check.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.sim.stats import StatsRegistry

#: Pipeline cost of squashing a mis-speculated access (cycles).
MISPREDICT_PENALTY = 20

#: Verified translations the predictor remembers per SM.
HISTORY_ENTRIES = 16


class ContiguityPredictor:
    """Per-SM contiguity predictor over a small translation history.

    ``predict(vpn)`` extrapolates physical contiguity from the
    *nearest* (by virtual distance) recently verified translation, so
    interleaved warps streaming different regions each speculate from
    their own region's history — Avatar's SP mechanism, reduced to a
    16-entry history table per SM.
    """

    def __init__(self, stats: StatsRegistry, *, name: str = "spec") -> None:
        self.stats = stats
        self.name = name
        self._history: OrderedDict[int, int] = OrderedDict()
        # Called on every L1 miss: bump counters by precomputed name.
        self._counts = stats.counters.live()
        self._c_predictions = f"{name}.predictions"
        self._c_correct = f"{name}.correct"
        self._c_wrong = f"{name}.wrong"

    def predict(self, vpn: int) -> int | None:
        """Predicted PFN for ``vpn``, or None with no history."""
        if not self._history:
            return None
        nearest = min(self._history, key=lambda seen: abs(seen - vpn))
        prediction = self._history[nearest] + (vpn - nearest)
        if prediction < 0:
            return None
        self._counts[self._c_predictions] += 1
        return prediction

    def observe(self, vpn: int, pfn: int) -> None:
        """Train on a verified translation (TLB fill or validation)."""
        self._history.pop(vpn, None)
        self._history[vpn] = pfn
        while len(self._history) > HISTORY_ENTRIES:
            self._history.popitem(last=False)

    def record_outcome(self, correct: bool) -> None:
        self._counts[self._c_correct if correct else self._c_wrong] += 1
