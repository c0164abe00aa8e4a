"""End-to-end tests for the daemon's local worker hosts.

``repro serve --max-inflight N`` forks N ordinary worker hosts that
lease jobs over the unix socket.  These boot a real daemon and check
the process contract of that single dispatch path:

* a host is its own process: a SIGTERM sent to one finishes its job
  and stops that host only — the daemon keeps serving;
* a drain with a job in flight leaves no job process behind.
"""

import os
import signal
import sys
import time

import pytest

from repro.service import JobSpec
from test_service import LONG, TINY, daemon

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads process state from /proc"
)


def is_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def children_of(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def wait_for(predicate, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise TimeoutError(f"{what} not reached within {timeout:.0f}s")


def running_job(client, job_id: str) -> tuple[dict, int]:
    """Wait until a local host runs ``job_id``; returns (status, host pid)."""
    status = wait_for(
        lambda: (record := client.status(job_id))["state"] == "running" and record,
        timeout=20,
        what="job running on a local host",
    )
    workers = client.stats()["fleet"]["workers"]
    return status, workers[status["worker"]]["info"]["pid"]


def test_sigterm_to_one_local_host_does_not_drain_the_daemon(tmp_path):
    with daemon(tmp_path, "--max-inflight", "2") as (process, client):
        job_id = client.submit(JobSpec(benchmark="gups", scale=0.4, seed=5))["job"]
        status, host_pid = running_job(client, job_id)
        os.kill(host_pid, signal.SIGTERM)

        # The host finishes the job it holds, then exits on its own.
        final = client.subscribe(job_id)
        assert final["state"] == "done"
        wait_for(lambda: not is_running(host_pid), 20, "the stopped host's exit")

        # The daemon did not drain: it still admits and runs work on
        # the other host.
        assert process.poll() is None
        assert client.ping()["draining"] is False
        again = client.submit(JobSpec(benchmark="gups", scale=TINY, seed=6), wait=True)
        assert again["state"] == "done"
        assert client.status(again["job"])["worker"] != status["worker"]


def test_drain_with_a_job_in_flight_leaves_no_job_process(tmp_path):
    with daemon(tmp_path, "--max-inflight", "1") as (process, client):
        job_id = client.submit(JobSpec(benchmark="gups", scale=LONG, seed=8))["job"]
        _status, host_pid = running_job(client, job_id)
        job_pids = wait_for(
            lambda: children_of(host_pid), 20, "the host's job process"
        )
        process.terminate()  # SIGTERM: drain
        assert process.wait(timeout=60) == 0
        leftovers = [pid for pid in [host_pid, *job_pids] if is_running(pid)]
        assert leftovers == []
