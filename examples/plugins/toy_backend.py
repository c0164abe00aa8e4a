"""A complete, runnable walk-backend plugin: the *oracle* walker.

The oracle backend models a machine with unlimited page-walk
parallelism: every submitted request starts traversing the page table
immediately — no Page Walk Buffer, no walker contention, zero queueing.
It is the "how fast could translation possibly be?" bound, and at ~60
lines it doubles as the reference example for the plugin walkthrough in
``docs/architecture.md``.

Activate it by pointing ``REPRO_PLUGINS`` at this file and selecting
the backend by name::

    REPRO_PLUGINS=examples/plugins/toy_backend.py \\
        python -m repro run dc --config @oracle.json --scale 0.05

with a config that names it, e.g. ``{"walk_backend": "oracle", ...}``
passed as an inline config dict (``--config @my_config.json``), or in
Python::

    config = baseline_config().derive(walk_backend="oracle")

The contract (``repro.gpu.translation.WalkBackend``):

* ``submit(request)`` — accept a :class:`~repro.ptw.request.WalkRequest`
  from the L2 TLB controller and eventually resolve it.
* ``on_complete`` — attribute the :class:`TranslationService` assigns;
  call it exactly once per request with ``(request, WalkOutcome)``.
  It is reset to None when the job ends, and the backend stores no
  bound method of itself, so the finished machine has no reference
  cycle.
* ``live_requests()`` *(optional)* — every request currently owned, so
  the resilience layer's conservation audit can account for them.
* ``register_metrics(metrics)`` *(optional)* — sampled gauges.
* ``in_flight`` *(optional)* — current outstanding-walk count.
"""

from repro.arch.registry import WALK_BACKENDS


class OracleWalkBackend:
    """Infinitely parallel page walking: real traversal, zero queueing."""

    def __init__(self, ctx):
        self.engine = ctx.engine
        self.stats = ctx.stats
        self._plan = ctx.traversal_plan()
        self._page_table = ctx.space.radix
        self._pte_port = ctx.pte_port
        self.on_complete = None
        self._live = {}
        self._next_id = 0

    def submit(self, request):
        from repro.ptw.walker import execute_walk

        self.stats.counters.add("oracle.submitted")
        # enqueue_time marks the end of the L2 TLB lookup, which can lie
        # a few cycles ahead of the submit call — never walk before the
        # request is actually ready (queueing must stay non-negative).
        begin = max(self.engine.now, request.enqueue_time)
        if self._plan.traversal is not None:
            outcome = self._plan.traversal(request.vpn, request.start_level, begin)
        else:
            outcome = execute_walk(
                self._page_table,
                self._pte_port,
                self._plan.pwc,
                request.vpn,
                request.start_level,
                begin,
            )
        request.queueing = begin - request.enqueue_time
        request.access = outcome.finish_time - begin
        request.faulted = outcome.faulted
        request.fault_level = outcome.fault_level
        token = self._next_id
        self._next_id += 1
        self._live[token] = request
        self.engine.schedule_at(
            outcome.finish_time, self._finish, token, request, outcome
        )

    def _finish(self, token, request, outcome):
        del self._live[token]
        self.stats.counters.add("oracle.completed")
        if self.on_complete is None:
            raise RuntimeError("OracleWalkBackend.on_complete not wired")
        self.on_complete(request, outcome)

    # Optional protocol members — the audit and metrics layers use
    # these when present, and quietly skip backends without them.
    @property
    def in_flight(self):
        return len(self._live)

    def live_requests(self):
        return list(self._live.values())

    def register_metrics(self, metrics):
        metrics.register_gauge("oracle.in_flight", lambda: len(self._live))


@WALK_BACKENDS.decorator("oracle", replace_existing=True)
def build_oracle_backend(ctx):
    """Factory the registry calls; ``ctx`` is a BackendContext."""
    return OracleWalkBackend(ctx)
