"""ServiceClient.submit_many: bounded fan-out, ordering, failure modes."""

from __future__ import annotations

import pytest

from repro.service.check import ServerHarness
from repro.service.client import ServiceClientError


@pytest.fixture(scope="module")
def harness():
    with ServerHarness() as running:
        yield running


def request(app, sample_blocks=128):
    return {"app": app, "system": {"sample_blocks": sample_blocks}}


class TestSubmitMany:
    def test_results_come_back_in_payload_order(self, harness):
        apps = ["Ocean", "FFT", "Radix", "Ocean", "LU"]
        with harness.client(timeout=60, jitter_seed=0) as client:
            replies = client.submit_many(
                [request(app) for app in apps], max_in_flight=3
            )
        assert [reply["app"] for reply in replies] == apps

    def test_concurrent_matches_sequential(self, harness):
        payloads = [request(app) for app in ("Ocean", "FFT", "Radix")]
        with harness.client(timeout=60, jitter_seed=0) as client:
            sequential = client.submit_many(payloads, max_in_flight=1)
            concurrent = client.submit_many(payloads, max_in_flight=3)
        assert sequential == concurrent

    def test_empty_batch(self, harness):
        with harness.client(timeout=60) as client:
            assert client.submit_many([]) == []

    def test_validation(self, harness):
        with harness.client(timeout=60) as client:
            with pytest.raises(ValueError, match="max_in_flight"):
                client.submit_many([request("Ocean")], max_in_flight=0)

    def test_failure_raised_in_payload_order(self, harness):
        payloads = [request("Ocean"), request("NoSuchApp"), request("FFT")]
        with harness.client(timeout=60, max_attempts=1) as client:
            with pytest.raises(ServiceClientError, match="NoSuchApp"):
                client.submit_many(payloads, max_in_flight=2)

    def test_return_exceptions_keeps_every_slot(self, harness):
        payloads = [request("Ocean"), request("NoSuchApp"), request("FFT")]
        with harness.client(timeout=60, max_attempts=1) as client:
            replies = client.submit_many(
                payloads, max_in_flight=2, return_exceptions=True
            )
        assert replies[0]["app"] == "Ocean"
        assert isinstance(replies[1], ServiceClientError)
        assert replies[2]["app"] == "FFT"

    def test_sequential_path_return_exceptions(self, harness):
        payloads = [request("NoSuchApp"), request("Ocean")]
        with harness.client(timeout=60, max_attempts=1) as client:
            replies = client.submit_many(
                payloads, max_in_flight=1, return_exceptions=True
            )
        assert isinstance(replies[0], ServiceClientError)
        assert replies[1]["app"] == "Ocean"
