"""Unit tests for the client-side retry policy, address parsing and
reply decoding."""

import socket
import threading

import pytest

from repro.service.client import (
    Backpressure,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    is_tcp_address,
)
from repro.service.protocol import ProtocolError


class TestIsTcpAddress:
    @pytest.mark.parametrize(
        "address",
        ["127.0.0.1:7733", "tcp://anything", "host:80", ":9999", "tcp://x/y"],
    )
    def test_tcp_shapes(self, address):
        assert is_tcp_address(address) is True

    @pytest.mark.parametrize(
        "address",
        [
            "/tmp/svc.sock",
            "relative/path.sock",
            "svc.sock",
            "host:port",
            "host:",
            "just-a-name",
            "",
        ],
    )
    def test_path_shapes(self, address):
        assert is_tcp_address(address) is False


class TestRetryPolicyDelay:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base=1.0, cap=4.0, jitter=0.0)
        assert [policy.delay(k) for k in range(4)] == [1.0, 2.0, 4.0, 4.0]

    def test_server_hint_raises_the_delay(self):
        policy = RetryPolicy(base=0.25, cap=10.0, jitter=0.0)
        assert policy.delay(0, hint=3.0) == 3.0
        # The hint never lifts the delay above the cap.
        assert policy.delay(0, hint=99.0) == 10.0
        # A small hint does not *shrink* an already-large backoff.
        assert policy.delay(5, hint=0.1) == 8.0

    def test_jitter_stays_within_the_fraction(self):
        policy = RetryPolicy(base=1.0, cap=1.0, jitter=0.25)
        for _ in range(200):
            assert 0.75 <= policy.delay(0) <= 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)


class TestRetryPolicyCall:
    def make(self, **kwargs):
        kwargs.setdefault("attempts", 3)
        kwargs.setdefault("base", 1.0)
        kwargs.setdefault("jitter", 0.0)
        return RetryPolicy(**kwargs)

    def test_success_needs_no_sleep(self):
        sleeps = []
        assert self.make().call(lambda: "ok", sleep=sleeps.append) == "ok"
        assert sleeps == []

    def test_backpressure_retried_honouring_retry_after(self):
        calls = []
        sleeps = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise Backpressure(429, "full", {"retry_after": 5.0})
            return "ok"

        assert self.make(cap=10.0).call(flaky, sleep=sleeps.append) == "ok"
        assert len(calls) == 3
        assert sleeps == [5.0, 5.0]  # hint beat the 1s/2s schedule

    def test_connection_errors_retried(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise ConnectionRefusedError("nobody home")
            return "up"

        assert self.make().call(flaky, sleep=lambda _s: None) == "up"

    def test_exhausted_attempts_raise_the_last_failure(self):
        def always_down():
            raise Backpressure(503, "draining", {"retry_after": 0.1})

        with pytest.raises(Backpressure):
            self.make().call(always_down, sleep=lambda _s: None)

    def test_protocol_error_is_never_retried(self):
        calls = []

        def malformed():
            calls.append(1)
            raise ProtocolError("garbage frame")

        with pytest.raises(ProtocolError):
            self.make().call(malformed, sleep=lambda _s: None)
        assert len(calls) == 1

    def test_plain_service_errors_are_never_retried(self):
        # A 400/404/409 is deterministic — retrying cannot help.
        def rejected():
            raise ServiceError(404, "unknown job")

        with pytest.raises(ServiceError):
            self.make().call(rejected, sleep=lambda _s: None)


class TestReplyDecoding:
    def test_non_object_reply_is_a_protocol_error(self, tmp_path):
        """A reply line that is valid JSON but not an object is refused
        by the frame decoder, not handed to the error mapping."""
        path = str(tmp_path / "fake.sock")
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen(1)

        def answer():
            conn, _ = server.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"[1]\n")

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="JSON object"):
                ServiceClient(path, timeout=5.0).ping()
        finally:
            thread.join(timeout=5.0)
            server.close()
