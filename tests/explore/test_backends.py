"""Submission backends: normalization, parity, failure surfacing."""

from __future__ import annotations

import pytest

from repro.explore.backends import EvaluationError, LocalBackend, ServiceBackend
from repro.explore.objectives import resolve_design
from repro.service import codec
from repro.service.check import ServerHarness
from repro.sim.engine import FailedJob, StagedEngine
from repro.sim.store import ResultStore

SAMPLE_BLOCKS = 128


def jobs_for(params, apps=("Ocean",)):
    return resolve_design(params).jobs(apps, sample_blocks=SAMPLE_BLOCKS)


class TestLocalBackend:
    def test_payloads_are_canonical_json_shapes(self):
        backend = LocalBackend()
        [payload] = backend.submit(jobs_for({"scheme": "desc-zero"}))
        assert payload["app"] == "Ocean"
        # Canonical round-trip: re-encoding is a fixed point.
        import json

        assert json.loads(codec.encode_json(payload)) == payload

    def test_ordered_and_deterministic(self):
        backend = LocalBackend()
        jobs = jobs_for({"scheme": "desc-zero"}, apps=("Ocean", "FFT"))
        first = backend.submit(jobs)
        second = backend.submit(jobs)
        assert [p["app"] for p in first] == ["Ocean", "FFT"]
        assert codec.encode_json(first) == codec.encode_json(second)

    def test_failed_job_raises_evaluation_error(self, monkeypatch):
        backend = LocalBackend()
        jobs = jobs_for({"scheme": "desc-zero"})

        def fail(submitted, **kwargs):
            return [
                FailedJob(job=job, reason="timeout", attempts=3)
                for job in submitted
            ]

        monkeypatch.setattr("repro.explore.backends.simulate_many", fail)
        with pytest.raises(EvaluationError, match="timeout"):
            backend.submit(jobs)

    def test_close_is_idempotent(self):
        backend = LocalBackend()
        backend.close()
        backend.close()


class TestServiceBackend:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            ServiceBackend(max_in_flight=0)

    def test_byte_parity_with_local_backend(self):
        jobs = jobs_for(
            {"scheme": "desc-zero", "chunk_bits": 4}, apps=("Ocean", "FFT")
        )
        local = LocalBackend()
        local_payloads = local.submit(jobs)
        with ServerHarness(engine=StagedEngine(ResultStore())) as harness:
            backend = ServiceBackend(
                client=harness.client(timeout=60, max_attempts=5),
                max_in_flight=2,
            )
            try:
                service_payloads = backend.submit(jobs)
            finally:
                backend.close()
        assert codec.encode_json(service_payloads) == codec.encode_json(
            local_payloads
        )

    def test_client_failure_becomes_evaluation_error(self):
        backend = ServiceBackend(
            host="127.0.0.1",
            port=1,  # nothing listens here
            max_in_flight=1,
            timeout=0.2,
            max_attempts=1,
        )
        try:
            with pytest.raises(EvaluationError, match="service submission"):
                backend.submit(jobs_for({"scheme": "desc-zero"}))
        finally:
            backend.close()
