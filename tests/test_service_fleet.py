"""End-to-end fleet tests: scheduler + worker hosts + crash-safe leases.

These boot a real ``repro serve --tcp`` scheduler subprocess with
**zero local worker slots** (``--max-inflight 0``), so every simulation
must be executed by a separate ``repro worker`` host pulling jobs over
TCP.  The acceptance properties of the fleet PR live here:

* a job runs on a worker host and its result fingerprint is identical
  to a single-node in-process run — distribution changes nothing;
* ``kill -9`` of the worker holding a running job expires its lease,
  the scheduler requeues, and the surviving worker completes it — with
  exactly one persisted store entry;
* a poison job (crashes every host that touches it) is dead-lettered
  after the attempt budget instead of crash-looping the fleet forever;
* a drain sends polling workers home and they exit cleanly;
* the ``serve``/``submit --wait``/``jobs --stats`` CLI round trips work
  over the unix socket and over TCP.
"""

import os
import signal
import socket as socket_module
import subprocess
import sys
import time
from contextlib import contextmanager, ExitStack

import pytest

from repro.config import baseline_config
from repro.harness.runner import Runner
from repro.harness.store import ResultStore, fingerprint_digest
from repro.service import JobSpec, ServiceClient

#: Scale small enough that one gups run takes about a second.
TINY = 0.05
#: Scale big enough that a run is reliably still in flight seconds in.
LONG = 0.5

#: Fleet knobs tuned for test latency: a dead worker is noticed in
#: about two seconds (TTL + reaper tick) instead of the default 15.
LEASE_TTL = "1.5"


def free_port() -> int:
    with socket_module.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _env(tmp_path, extra=None) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.abspath("src"), os.environ.get("PYTHONPATH")])
        ),
        REPRO_SOCKET=str(tmp_path / "svc.sock"),
        REPRO_STORE=str(tmp_path / "store"),
    )
    if extra:
        env.update(extra)
    return env


@contextmanager
def serve(tmp_path, *args, address=None, env_extra=None):
    """A ``repro serve`` subprocess; yields (process, client).

    The client connects to ``address``, the ``--tcp`` address when the
    arguments give one, else to the unix socket under ``tmp_path``.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--drain-grace", "0.5", *args],
        env=_env(tmp_path, env_extra),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    client = ServiceClient(
        address or str(tmp_path / "svc.sock"), client_name="pytest-fleet"
    )
    try:
        client.wait_until_up(15.0)
        yield process, client
    finally:
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5)
        process.stdout.close()


def scheduler(tmp_path, port, *args, env_extra=None):
    """A ``repro serve --tcp`` subprocess with no local worker slots."""
    address = f"127.0.0.1:{port}"
    return serve(
        tmp_path,
        "--tcp", address,
        "--max-inflight", "0",
        "--lease-ttl", LEASE_TTL,
        *args,
        address=address,
        env_extra=env_extra,
    )


@contextmanager
def worker(tmp_path, port, *args, env_extra=None):
    """One ``repro worker`` host subprocess polling the scheduler."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            f"127.0.0.1:{port}",
            "--poll-interval",
            "0.1",
            *args,
        ],
        env=_env(tmp_path, env_extra),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        yield process
    finally:
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5)
        process.stdout.close()


def wait_for(predicate, timeout: float, interval: float = 0.1, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise TimeoutError(f"{what} not reached within {timeout:.0f}s")


def job_record(client, job_id: str) -> dict:
    return client.status(job_id)


def worker_pid(worker_id: str) -> int:
    """Worker ids embed the host pid: ``w-<pid>-<suffix>``."""
    return int(worker_id.split("-")[1])


class TestFleetExecution:
    def test_remote_worker_matches_single_node_fingerprint(self, tmp_path):
        port = free_port()
        with ExitStack() as stack:
            _process, client = stack.enter_context(scheduler(tmp_path, port))
            stack.enter_context(worker(tmp_path, port))
            spec = JobSpec(benchmark="gups", scale=TINY, seed=11)
            frame = client.submit(spec, wait=True)
            assert frame["state"] == "done"

            local = Runner().run(baseline_config(), "gups", scale=TINY, seed=11)
            assert frame["digest"] == fingerprint_digest(local)

            stats = client.stats()
            fleet = stats["fleet"]
            assert len(fleet["workers"]) == 1
            assert fleet["dead_letters"] == 0
            assert stats["simulations"] == 1
            assert ResultStore(tmp_path / "store").info()["entries"] == 1

    def test_killed_worker_job_is_releases_and_completed_by_survivor(
        self, tmp_path
    ):
        port = free_port()
        with ExitStack() as stack:
            _process, client = stack.enter_context(scheduler(tmp_path, port))
            stack.enter_context(worker(tmp_path, port))
            stack.enter_context(worker(tmp_path, port))

            spec = JobSpec(benchmark="gups", scale=LONG, seed=23)
            job_id = client.submit(spec)["job"]

            # Wait until a worker host holds the job, then kill -9 it.
            running = wait_for(
                lambda: (
                    record := job_record(client, job_id)
                )["state"] == "running" and record.get("worker") and record,
                timeout=20,
                what="job running on a worker",
            )
            victim = running["worker"]
            time.sleep(0.5)  # let it get properly mid-simulation
            os.kill(worker_pid(victim), signal.SIGKILL)

            # Lease expiry -> requeue -> the survivor completes it.
            final = client.subscribe(job_id)
            assert final["state"] == "done"
            record = job_record(client, job_id)
            assert record["attempts"] == 1  # exactly one crashed dispatch
            assert record["worker"] != victim

            # Fingerprint identical to a single-node in-process run.
            local = Runner().run(baseline_config(), "gups", scale=LONG, seed=23)
            assert final["digest"] == fingerprint_digest(local)

            # Exactly one store entry despite the re-dispatch.
            assert ResultStore(tmp_path / "store").info()["entries"] == 1

            fleet = client.stats()["fleet"]
            assert fleet["crash_requeues"] == 1
            assert fleet["dead_letters"] == 0

    def test_poison_job_is_dead_lettered_after_attempt_budget(self, tmp_path):
        port = free_port()
        poison_env = {"REPRO_CHAOS_EXIT_SEED": "4242"}
        with ExitStack() as stack:
            _process, client = stack.enter_context(
                scheduler(tmp_path, port, "--attempt-budget", "2")
            )
            stack.enter_context(worker(tmp_path, port, env_extra=poison_env))

            poison = JobSpec(benchmark="gups", scale=TINY, seed=4242)
            job_id = client.submit(poison)["job"]
            final = client.subscribe(job_id)
            assert final["state"] == "dead"
            assert "dead-lettered" in final["error"]

            record = job_record(client, job_id)
            assert record["state"] == "dead"
            assert record["attempts"] == 2

            fleet = client.stats()["fleet"]
            assert fleet["dead_letters"] == 1

            # The fleet survives the poison: a healthy job still runs.
            healthy = client.submit(
                JobSpec(benchmark="gups", scale=TINY, seed=7), wait=True
            )
            assert healthy["state"] == "done"

    def test_drain_sends_polling_workers_home(self, tmp_path):
        port = free_port()
        with ExitStack() as stack:
            process, client = stack.enter_context(scheduler(tmp_path, port))
            host = stack.enter_context(worker(tmp_path, port))
            # Let the worker register, then drain the scheduler.
            wait_for(
                lambda: client.stats()["fleet"]["workers"],
                timeout=10,
                what="worker registration",
            )
            client.drain()
            assert process.wait(timeout=30) == 0
            assert host.wait(timeout=30) == 0


def repro_cli(tmp_path, *args, socket=None) -> str:
    """One ``repro`` command against the service; returns its stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(tmp_path, {"REPRO_SOCKET": socket} if socket else None),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def table_value(text: str, row: str) -> str:
    """The value column of ``row`` in a two-column CLI table."""
    for line in text.splitlines():
        if line.startswith(row + "  "):
            return line[len(row):].strip()
    raise AssertionError(f"no {row!r} row in:\n{text}")


class TestCLIRoundTrips:
    def test_submit_and_jobs_over_unix_socket_and_tcp(self, tmp_path):
        submit = ("submit", "gups", "--scale", str(TINY), "--wait")

        # Unix socket, local worker hosts: the repeat is served by
        # dedupe or the store, never by a second simulation.
        local = tmp_path / "local"
        local.mkdir()
        with serve(local) as (process, _client):
            first = repro_cli(local, *submit)
            second = repro_cli(local, *submit)
            assert table_value(second, "fingerprint") == table_value(
                first, "fingerprint"
            )
            assert "done" in repro_cli(local, "jobs")
            stats = repro_cli(local, "jobs", "--stats")
            assert table_value(stats, "simulations run") == "1"
            process.terminate()
            assert process.wait(timeout=30) == 0

        # TCP, no local slots: a remote worker host runs the job.
        fleet = tmp_path / "fleet"
        fleet.mkdir()
        port = free_port()
        address = f"127.0.0.1:{port}"
        with ExitStack() as stack:
            process, _client = stack.enter_context(scheduler(fleet, port))
            host = stack.enter_context(worker(fleet, port))
            frame = repro_cli(fleet, *submit, socket=address)
            assert table_value(frame, "fingerprint") == table_value(
                first, "fingerprint"
            )
            stats = repro_cli(fleet, "jobs", "--stats", socket=address)
            assert table_value(stats, "fleet workers") == "1/1 connected"
            process.terminate()
            assert process.wait(timeout=30) == 0
            assert host.wait(timeout=30) == 0
