"""Submission backends: how a study turns jobs into result payloads.

The driver speaks one protocol (:class:`SubmissionBackend`): give it a
batch of :class:`~repro.sim.engine.SimJob` configurations, get back one
result payload per job, in order.  Two implementations:

* :class:`LocalBackend` — in-process, serial
  :func:`repro.sim.engine.simulate_many`: zero moving parts, the store
  deduplicates repeated stages;
* :class:`ServiceBackend` — rides a running ``repro serve`` instance
  through :meth:`repro.service.client.ServiceClient.submit_many`:
  bounded in-flight concurrency, and the service's coalescing, result
  store, and warehouse make revisited design points nearly free.  The
  client's retry discipline honours the service's 429/503/deadline
  semantics, so a study breathes with the service's backpressure
  instead of fighting it.

Both backends normalize results through the canonical JSON codec, so a
payload is byte-identical no matter which backend produced it — the
property the self-check's backend-parity assertion pins.

A job that cannot produce a result raises :class:`EvaluationError`;
the driver records the design point as failed and explores on.
"""

from __future__ import annotations

import json
from typing import Protocol, Sequence

from repro.service import codec
from repro.service.client import ServiceClient, ServiceClientError
from repro.sim.engine import FailedJob, SimJob, StagedEngine, simulate_many
from repro.sim.store import ResultStore

__all__ = [
    "EvaluationError",
    "LocalBackend",
    "ServiceBackend",
    "SubmissionBackend",
]


class EvaluationError(RuntimeError):
    """A design point's jobs could not all produce results."""


def _normalize(payload: dict) -> dict:
    """Round-trip a payload through canonical JSON.

    Forces both backends onto the same float/keys representation so
    ``encode_json`` of any two equal results is byte-identical.
    """
    return json.loads(codec.encode_json(payload))


class SubmissionBackend(Protocol):
    """The submission protocol the study driver drives."""

    def submit(self, jobs: Sequence[SimJob]) -> list[dict]:
        """Result payloads for ``jobs``, in job order.

        Raises :class:`EvaluationError` when any job cannot produce a
        result.
        """
        ...

    def close(self) -> None:
        """Release any held resources (idempotent)."""
        ...


class LocalBackend:
    """In-process evaluation through :func:`simulate_many`.

    Args:
        engine: Engine to run on (default: fresh engine + private
            store, so studies never leak into the process-wide store).
    """

    def __init__(self, engine: StagedEngine | None = None) -> None:
        self.engine = (
            engine if engine is not None else StagedEngine(ResultStore())
        )

    def submit(self, jobs: Sequence[SimJob]) -> list[dict]:
        """Simulate the batch in-process; payloads in job order."""
        results = simulate_many(jobs, store=self.engine.store)
        payloads = []
        for job, result in zip(jobs, results, strict=True):
            if isinstance(result, FailedJob):
                raise EvaluationError(
                    f"job {job.app.name}/{job.scheme.name} failed "
                    f"({result.reason}) after {result.attempts} attempt(s)"
                )
            payloads.append(_normalize(codec.result_to_payload(result)))
        return payloads

    def close(self) -> None:
        """Nothing to release; present for protocol symmetry."""


class ServiceBackend:
    """Evaluation through a running simulation service.

    Args:
        host / port: Where the service listens.
        max_in_flight: Concurrent requests kept in flight per batch
            (see :meth:`ServiceClient.submit_many`).
        client: A ready client to use instead of building one (the
            check harness injects clients pointed at its harness).
        **client_kwargs: Forwarded to :class:`ServiceClient` when no
            client is given (timeouts, deadlines, jitter seed, ...).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        max_in_flight: int = 8,
        client: ServiceClient | None = None,
        **client_kwargs,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        self.max_in_flight = max_in_flight
        self._client = (
            client
            if client is not None
            else ServiceClient(host=host, port=port, **client_kwargs)
        )

    def submit(self, jobs: Sequence[SimJob]) -> list[dict]:
        """Submit the batch over HTTP; payloads in job order."""
        import dataclasses

        payloads = [
            {
                "app": job.app.name,
                "scheme": dataclasses.asdict(job.scheme),
                "system": dataclasses.asdict(job.system),
            }
            for job in jobs
        ]
        try:
            replies = self._client.submit_many(
                payloads, max_in_flight=self.max_in_flight
            )
        except ServiceClientError as exc:
            raise EvaluationError(f"service submission failed: {exc}") from exc
        return [_normalize(reply) for reply in replies]

    def close(self) -> None:
        """Drop the client's keep-alive connection."""
        self._client.close()
