"""One workload in a fresh process: set up, measure, check, report.

``run.py`` starts this file once per workload (plus set-up-only probes)
and reads the JSON object it prints as its last line.  Run by hand::

    PYTHONPATH=src python3 perfbench/child.py --workload regular-sweep \\
        --seed 1 --seconds 30 --trace 0 --spawned-at 0

The untraced run drives only the public entry points users call:
``Runner.sweep`` with ``jobs=1`` and a fresh ``ResultStore`` per pass,
or ``ServiceClient.submit(wait=True)`` against a ``repro serve
--max-inflight 1`` daemon on a unix socket.  The traced run measures
untraced passes, then passes with layer spans, then one pass under
cProfile; the first two give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import catalog
from catalog import DEFAULT_SEED, WORKLOADS, Workload, job_label
import hostspeed
from hostspeed import Laps, Metronome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"
#: Short relative socket name: unix socket paths are limited to ~107
#: bytes, and the checkout may sit deep in the file system.
SOCKET_NAME = "svc.sock"
#: Tail percentiles tried from the top; the first one with at least
#: ``TAIL_BEYOND`` samples above it is reported.
TAIL_LADDER = (99.9, 99, 95, 90, 80, 75, 70, 60, 50)
TAIL_BEYOND = 10


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(values: list[float]) -> tuple[float, str]:
    """Highest ladder percentile with >= TAIL_BEYOND samples beyond it.

    With too few samples for any of them the maximum is reported and
    labelled as such.
    """
    n = len(values)
    if not n:
        return 0.0, "no samples"
    for pct in TAIL_LADDER:
        cut = quantile(values, pct / 100)
        if sum(1 for v in values if v > cut) >= TAIL_BEYOND:
            return cut, f"p{pct:g} of n={n}"
    return max(values), f"max of n={n} (fewer than {2 * TAIL_BEYOND} samples)"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest waited-for
    descendant (the daemon or one of its forked job workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
@dataclass
class Checker:
    """Counts operations and the ones whose output check failed."""

    expected: dict[str, str] | None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: First digest seen per job label (determinism across passes and
    #: the repeat-submission check).
    seen: dict[str, str] = field(default_factory=dict)

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def digest_problems(self, label: str, digest: str | None) -> list[str]:
        if digest is None:
            return ["no digest"]
        problems = []
        first = self.seen.setdefault(label, digest)
        if digest != first:
            problems.append(f"digest {digest[:12]} differs from earlier {first[:12]}")
        if self.expected is not None:
            want = self.expected.get(label)
            if want is None:
                problems.append("no expected digest recorded")
            elif digest != want:
                problems.append(f"digest {digest[:12]} != expected {want[:12]}")
        return problems


def load_expected(seed: int) -> dict[str, str] | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED_PATH.read_text())


# ----------------------------------------------------------------------
# Workload sessions
# ----------------------------------------------------------------------
@dataclass
class Unit:
    """One pass over a workload's job list, timed in host seconds.

    ``kernels`` are the host-speed kernel times taken during the pass;
    ``run_scale`` turns a run's host seconds into reference seconds.
    """

    wall: float
    job_latencies: list[float]
    results: list  # SimulationResult of every cold job, in order
    kernels: list[float] = field(default_factory=list)
    store_bytes: int = 0
    repeat_latencies: list[float] = field(default_factory=list)
    status: list[dict] = field(default_factory=list)

    @classmethod
    def timed(cls, laps: Laps, job_latencies: list[float], results: list) -> "Unit":
        return cls(sum(laps.segments), job_latencies, results, laps.kernels)


class SweepSession:
    """Cold serial sweeps through ``Runner.sweep``."""

    def __init__(self, workload: Workload, seed: int, tmp: Path, checker: Checker):
        from repro.config import DEFAULT_CONFIGS
        from repro.harness.pool import make_point

        self.workload = workload
        self.tmp = tmp
        self.checker = checker
        self.points = []
        self.labels = {}
        self.names = {}
        for config, benchmark in catalog.sweep_jobs(workload):
            point = make_point(
                DEFAULT_CONFIGS.get(config), benchmark, scale=workload.scale, seed=seed
            )
            self.points.append(point)
            self.labels[point] = job_label(config, benchmark, workload.scale, seed)
            self.names[point.config] = config
        self.passes = 0
        #: Host-speed kernel timed after each point (None under cProfile).
        self.kernel = None

    def label(self, config, benchmark: str, seed) -> str:
        return f"{self.names.get(config, 'inline')}/{benchmark}/seed{seed}"

    def run(self, instrument=None) -> Unit:
        """One cold pass over the points.

        ``instrument`` (span wrappers or a profiler, as a context
        manager) is active around ``Runner.sweep`` only, so the output
        check after it is neither traced nor profiled.  The host-speed
        kernel runs after each point, outside the point's latency.
        """
        from repro.harness.runner import Runner
        from repro.harness.store import ResultStore

        store_dir = self.tmp / f"store-{self.passes}"
        self.passes += 1
        store = ResultStore(store_dir)
        runner = Runner(jobs=1, store=store)
        laps = Laps(self.kernel)

        def progress(_point, _status, _done, _total):
            laps.lap()

        try:
            with instrument or contextlib.nullcontext():
                results = runner.sweep(self.points, jobs=1, progress=progress)
        except Exception as failure:
            # A pass that raises fails each of its points; the run goes
            # on and still reports.
            traceback.print_exc()
            for point in self.points:
                self.checker.op(self.labels[point], [f"sweep raised {failure!r}"])
            results = None
        latencies = list(laps.segments)
        laps.lap()  # the rest of the sweep after its last point
        if results is None:
            unit = Unit.timed(laps, latencies, [])
        else:
            unit = Unit.timed(laps, latencies, [results[p] for p in self.points])
            self.check(results, store)
        unit.store_bytes = dir_bytes(store_dir)
        shutil.rmtree(store_dir, ignore_errors=True)
        return unit

    def check(self, results, store) -> None:
        from repro.harness import store as store_module

        for point in self.points:
            label = self.labels[point]
            result = results.get(point)
            if result is None:
                self.checker.op(label, ["no result"])
                continue
            problems = []
            if not result.complete:
                problems.append("incomplete result")
            digest = store_module.fingerprint_digest(result)
            loaded = store.load(point.store_key())
            if loaded is None:
                problems.append("store round trip lost the entry")
            elif store_module.fingerprint_digest(loaded) != digest:
                problems.append("store round trip changed the fingerprint")
            problems += self.checker.digest_problems(label, digest)
            self.checker.op(label, problems)

    def close(self) -> None:
        pass


class ServiceSession:
    """A ``repro serve --max-inflight 1`` daemon and one closed-loop client."""

    def __init__(self, workload: Workload, seed: int, tmp: Path, checker: Checker):
        self.workload = workload
        self.tmp = tmp
        self.checker = checker
        self.rounds = catalog.service_rounds(workload, seed)
        self.next_round = 0
        self.daemon: subprocess.Popen | None = None
        self.daemons = 0
        self.store_dir: Path | None = None
        self.client = None
        self.submissions = 0
        self.with_status = False
        #: Host-speed kernel timed between submissions (None under cProfile).
        self.kernel = None
        #: Records a client-side span per submission in the span phase.
        self.recorder = None

    def start_daemon(self, trace_dir: Path | None = None, profile: bool = False) -> None:
        from repro.service.client import ServiceClient

        self.daemons += 1
        self.store_dir = self.tmp / f"store-{self.daemons}"
        command = [sys.executable, str(HERE / "daemon.py")]
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            command += ["--trace-dir", str(trace_dir)] + (["--profile"] if profile else [])
        command += [
            "--", "--socket", SOCKET_NAME, "--max-inflight", "1",
            "--store", str(self.store_dir),
        ]
        log = open(self.tmp / f"daemon-{self.daemons}.log", "wb")
        try:
            self.daemon = subprocess.Popen(
                command, cwd=self.tmp, stdout=log, stderr=subprocess.STDOUT
            )
        finally:
            log.close()
        # Daemon and client both resolve the relative socket name in tmp.
        os.chdir(self.tmp)
        self.client = ServiceClient(SOCKET_NAME, timeout=120.0, client_name="perfbench")
        deadline = time.monotonic() + 60.0
        while not self.client.alive():
            if self.daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"daemon did not come up; see {self.tmp}/daemon-{self.daemons}.log"
                )
            time.sleep(0.02)
        self.submissions = 0

    def stop_daemon(self) -> dict | None:
        """Drain the daemon (SIGTERM) and wait for it; returns its stats."""
        if self.daemon is None:
            return None
        stats = None
        try:
            stats = self.client.stats()
        except (OSError, RuntimeError):
            pass
        self.daemon.send_signal(signal.SIGTERM)
        try:
            self.daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
        self.daemon = None
        return stats

    def run(self) -> Unit:
        from repro.service.client import ServiceError
        from repro.service.protocol import ProtocolError

        if self.next_round >= len(self.rounds):
            raise RuntimeError(
                f"more than {len(self.rounds)} service rounds requested; "
                "raise catalog.SERVICE_MAX_ROUNDS and rerun expected.py"
            )
        jobs = self.rounds[self.next_round]
        self.next_round += 1
        records = []
        # The host-speed kernel runs between submissions, while the
        # daemon is idle, outside every latency.
        laps = Laps(self.kernel)
        for job in jobs:
            submit = self.client.submit
            if self.recorder is not None:
                self.recorder.request = f"{job.config}/{job.benchmark}/seed{job.seed}"
                submit = functools.partial(self.recorder.span, "service.submit", submit)
            sent = time.perf_counter()
            try:
                frame, error = submit(job.spec(), wait=True), None
            except (ServiceError, ProtocolError, OSError) as failure:
                frame, error = None, f"{type(failure).__name__}: {failure}"
            records.append((job, frame, error, time.perf_counter() - sent, time.time()))
            self.submissions += 1
            laps.lap()
        return self.check(Unit.timed(laps, [], []), records)

    def check(self, unit: Unit, records) -> Unit:
        from repro.gpu.gpu import SimulationResult
        from repro.harness.pool import make_point
        from repro.harness.store import ResultStore, fingerprint_digest
        from repro.config import DEFAULT_CONFIGS

        store = ResultStore(self.store_dir)
        for job, frame, error, latency, received in records:
            label = job.label + (" (repeat)" if job.repeat else "")
            if error is not None or frame is None:
                self.checker.op(label, [error or "no reply"])
                continue
            problems = []
            if frame.get("state") != "done" or "result" not in frame:
                problems.append(f"state {frame.get('state')}: {frame.get('error')}")
                self.checker.op(label, problems)
                continue
            result = SimulationResult.from_dict(frame["result"])
            if not result.complete:
                problems.append("incomplete result")
            digest = frame.get("digest")
            if fingerprint_digest(result) != digest:
                problems.append("reply digest does not match its result")
            if not job.repeat:
                point = make_point(
                    DEFAULT_CONFIGS.get(job.config), job.benchmark,
                    scale=job.scale, seed=job.seed,
                )
                loaded = store.load(point.store_key())
                if loaded is None:
                    problems.append("store round trip lost the entry")
                elif fingerprint_digest(loaded) != digest:
                    problems.append("store round trip changed the fingerprint")
            elif job.label not in self.checker.seen:
                problems.append("repeat of a spec never answered")
            problems += self.checker.digest_problems(job.label, digest)
            self.checker.op(label, problems)
            if job.repeat:
                unit.repeat_latencies.append(latency)
                continue
            unit.job_latencies.append(latency)
            unit.results.append(result)
            if self.with_status:
                status = self.client.status(frame["job"])
                status["received_at"] = received
                unit.status.append(status)
        unit.store_bytes = dir_bytes(self.store_dir)
        return unit

    def close(self) -> None:
        self.stop_daemon()


# ----------------------------------------------------------------------
# Measurement loop and metrics
# ----------------------------------------------------------------------
def pass_count(workload: Workload, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time.

    A count fixed by the arguments rather than a deadline: the parent and
    a faster change do the same work, and the tail percentile always
    rests on the same number of samples.
    """
    return max(1, round(seconds / workload.pass_seconds))


def measure(run_unit, count: int) -> list[Unit]:
    return [run_unit() for _ in range(count)]


def run_scale(units: list[Unit]) -> float:
    """Host seconds to reference seconds, from every kernel of the run."""
    return hostspeed.scale([k for u in units for k in u.kernels])


def events_per_s(unit: Unit) -> float:
    """Events per host second of event loop."""
    events = sum(r.perf["events"] for r in unit.results if r.perf)
    loop = sum(r.perf["wall_seconds"] for r in unit.results if r.perf)
    return events / loop if loop else 0.0


def end_to_end(units: list[Unit], notes: list[str]) -> dict[str, float]:
    """End-to-end host times, in reference seconds (see ``hostspeed.py``)."""
    scale = run_scale(units)
    latencies = [x * scale for u in units for x in u.job_latencies]
    tail_value, tail_label = tail(latencies)
    kernels = [k for u in units for k in u.kernels]
    notes.append(f"job_tail_s is {tail_label} cold-job latencies")
    notes.append(
        f"wall_s is the median of {len(units)} pass(es) of "
        + ", ".join(f"{u.wall:.3f}" for u in units) + f" host s, times {scale:.4f}: "
        f"host-speed kernel {hostspeed.REFERENCE_S} s on the reference host, here "
        f"{median(kernels):.4f} s (median of {len(kernels)})"
    )
    return {
        "wall_s": median([u.wall for u in units]) * scale,
        "events_per_s": median([events_per_s(u) for u in units]) / scale,
        "peak_rss_mb": peak_rss_mb(),
        # Per-pass medians first: a pooled median of six job types sits
        # on the boundary between the third and fourth type's samples.
        "job_p50_s": median([median(u.job_latencies) for u in units]) * scale,
        "job_tail_s": tail_value,
        "host_scale": scale,
    }


def simulated_counters(results) -> dict[str, float]:
    """Deterministic per-job counters of one job list."""
    n = len(results) or 1
    lookups = sum(r.stats.counters.get("l2tlb.lookups") for r in results)
    hits = sum(r.stats.counters.get("l2tlb.hits") for r in results)
    return {
        "gpu.sim_cycles": sum(r.cycles for r in results) / n,
        "gpu.instructions": sum(r.instructions for r in results) / n,
        "tlb.l2_hit_ratio": hits / lookups if lookups else 0.0,
        "tlb.mshr_failures": sum(r.mshr_failures for r in results) / n,
        "ptw.walks": sum(r.walks_completed for r in results) / n,
        "core.walk_queueing_frac": sum(r.queueing_fraction for r in results) / n,
        "memory.l2d_miss_ratio": sum(r.l2_cache_miss_rate for r in results) / n,
    }


def service_layer(units: list[Unit]) -> dict[str, float]:
    statuses = [s for u in units for s in u.status]
    runs = [s["finished_at"] - s["started_at"] for s in statuses]
    walls = [r.perf["wall_seconds"] for u in units for r in u.results if r.perf]
    return {
        "service.queue_wait_s": median([s["started_at"] - s["submitted_at"] for s in statuses]),
        "service.run_s": median(runs),
        "service.overhead_s": median([run - wall for run, wall in zip(runs, walls)]),
        "service.reply_s": median([s["received_at"] - s["finished_at"] for s in statuses]),
        "service.dedupe_p50_s": median([x for u in units for x in u.repeat_latencies]),
    }


def traced_metrics(units: list[Unit], untraced: list[Unit], spans,
                   self_s: dict[str, float], extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics, per pass over the job list."""
    from tracing import totals

    n = len(units)
    span_s = {name: seconds / n for name, seconds in totals(spans).items()}
    metrics = {
        "workloads.gen_s": span_s.get("workloads.gen", 0.0),
        "arch.build_s": span_s.get("arch.build", 0.0),
        "sim.loop_s": span_s.get("sim.loop", 0.0),
        "sim.events": sum(r.perf["events"] for u in units for r in u.results if r.perf) / n,
        "harness.serialize_s": span_s.get("harness.serialize", 0.0),
        "harness.fingerprint_s": span_s.get("harness.fingerprint", 0.0),
        "harness.store_write_s": span_s.get("harness.store_write", 0.0),
        "harness.store_read_s": span_s.get("harness.store_read", 0.0),
        "harness.store_bytes": median([u.store_bytes for u in units]),
        "trace.overhead_s": (median([u.wall for u in units]) - median([u.wall for u in untraced]))
        * run_scale(units + untraced),
        **simulated_counters(units[0].results),
        **extra,
    }
    for metric in catalog.PER_LAYER:
        if metric.name.endswith(".self_s"):
            metrics[metric.name] = self_s.get(metric.name.removesuffix(".self_s"), 0.0)
    # Service-only metrics read 0 on the sweeps.
    return {m.name: metrics.get(m.name, 0.0) for m in catalog.PER_LAYER}


def run_traced(session, seconds: float, report: dict, tmp: Path, trace_path: Path) -> dict:
    """Three phases over the same job lists: untraced, with layer spans,
    and one pass under cProfile.  Spans and cProfile run apart so the
    span timings do not carry the profiler's cost."""
    import cProfile
    import pstats

    from tracing import (SpanRecorder, load_spans, profile_table,
                         self_time_by_package, write_chrome_trace)

    count = pass_count(session.workload, seconds / 4)
    untraced = measure(session.run, count)
    extra: dict[str, float] = {}
    if isinstance(session, SweepSession):
        recorder = SpanRecorder("benchmark")
        units = measure(lambda: session.run(recorder.installed(session.label)), count)
        spans = recorder.spans
        profiler = cProfile.Profile()
        session.kernel = None
        profiled = session.run(profiler)
        stats = pstats.Stats(profiler)
    else:
        session.stop_daemon()
        session.start_daemon(trace_dir=tmp / "spans")
        session.with_status = True
        session.recorder = SpanRecorder("client")
        units = measure(session.run, count)
        submissions = session.submissions
        simulations = float((session.stop_daemon() or {}).get("simulations", 0))
        spans = session.recorder.spans + load_spans(sorted((tmp / "spans").glob("*.spans.json")))
        session.recorder = None
        extra.update(service_layer(units))
        extra["service.simulations"] = simulations
        extra["service.store_hit_ratio"] = 1.0 - simulations / submissions
        # The daemon's store grows over the phase: report bytes per round.
        extra["harness.store_bytes"] = units[-1].store_bytes / len(units)
        session.start_daemon(trace_dir=tmp / "profile", profile=True)
        session.with_status = False
        session.kernel = None
        profiled = session.run()
        session.stop_daemon()
        stats = pstats.Stats(*map(str, sorted((tmp / "profile").glob("*.prof"))))
    self_s = self_time_by_package(stats)
    write_chrome_trace(spans, trace_path)
    traced_wall = median([u.wall for u in units])
    untraced_wall = median([u.wall for u in untraced])
    report["notes"] += [
        f"tracing overhead: traced wall_s {traced_wall:.3f} s - untraced wall_s "
        f"{untraced_wall:.3f} s = {traced_wall - untraced_wall:.3f} s "
        f"({len(units)} traced, {len(untraced)} untraced pass(es))",
        f"cProfile pass: wall_s {profiled.wall:.3f} s "
        f"({profiled.wall / untraced_wall:.2f}x untraced); self time by package "
        "(includes the profiler's own cost):",
        *profile_table(self_s),
        f"chrome trace of {len(spans)} spans: {trace_path}",
    ]
    return traced_metrics(units, untraced, spans, self_s, extra)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    report: dict = {"workload": workload.name, "notes": []}
    session = metronome = None
    try:
        from repro.arch import load_plugins

        load_plugins()  # honour REPRO_PLUGINS (no-op when unset)
        checker = Checker(load_expected(args.seed))
        if workload.kind == "sweep":
            session = SweepSession(workload, args.seed, tmp, checker)
        else:
            session = ServiceSession(workload, args.seed, tmp, checker)
            session.start_daemon()
        # In host seconds; run.py scales it with the measuring run's kernels.
        report["setup_s"] = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps(report))
            return 0
        metronome = Metronome()
        session.kernel = metronome.kernel_seconds
        if args.trace:
            trace_path = OUT_DIR / f"{workload.name}-seed{args.seed}.trace.json"
            metrics = run_traced(session, args.seconds, report, tmp, trace_path)
        else:
            units = measure(session.run, pass_count(workload, args.seconds))
            session.close()
            metrics = end_to_end(units, report["notes"])
            report["host_scale"] = metrics.pop("host_scale")
        report.update(
            metrics=metrics,
            attempted=checker.attempted,
            failed=checker.failed,
            problems=checker.problems[:20],
        )
    finally:
        if session is not None:
            session.close()
        if metronome is not None:
            metronome.close()
        os.chdir(ROOT)
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
