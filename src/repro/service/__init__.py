"""repro.service — the async serving layer over the staged engine.

Turns the batch/CLI-driven reproduction into an operable system: an
asyncio HTTP+JSON service (``repro serve``) that absorbs concurrent
simulation and sweep requests, deduplicates identical in-flight
configurations, serves repeats from the
:class:`~repro.sim.store.ResultStore`, and keeps the hardened engine
saturated with adaptively sized batches — all with explicit
backpressure instead of unbounded queues, and structured error
responses instead of hung connections (even when the drain task dies:
every waiter fails with a ``ServiceError`` and ``/healthz`` answers
503, so a process manager restarts the process).

Layers (each its own module, composable in-process without HTTP):

* :mod:`repro.service.stages` — the composable pipeline stages
  (Admission, Coalescer, Batcher, Executor) behind the
  :class:`~repro.service.stages.PipelineStage` protocol;
* :mod:`repro.service.pipeline` — the one wired stage stack behind
  :class:`SimulationService`;
* :mod:`repro.service.server` — the HTTP front-end
  (:class:`ServiceServer`: ``/simulate``, ``/sweep``, ``/healthz``,
  ``/metrics``);
* :mod:`repro.service.client` — the in-repo client with full-jitter
  429/503-aware retries, deadline stamping, and optional hedged
  requests (:class:`ServiceClient`);
* :mod:`repro.service.metrics` — the counters/gauges/histograms
  registry behind ``/metrics``;
* :mod:`repro.service.codec` — request canonicalization and canonical
  result encoding;
* :mod:`repro.service.clock` — injectable monotonic time;
* :mod:`repro.service.check` — the end-to-end self-check behind
  ``repro serve --check``.

See ``docs/service.md`` for the API schema, the metrics glossary, and
operational notes.
"""

from repro.service.client import (
    ServiceClient,
    ServiceClientError,
    ServiceRequestError,
    ServiceUnavailable,
)
from repro.service.clock import MONOTONIC_CLOCK, Clock, FakeClock
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.pipeline import (
    Backpressure,
    DeadlineExceeded,
    ServiceConfig,
    ServiceError,
    SimulationFailed,
    SimulationService,
)
from repro.service.server import ServiceServer
from repro.service.stages import (
    Admission,
    Batcher,
    Coalescer,
    Executor,
    PipelineStage,
)

__all__ = [
    "Admission",
    "Backpressure",
    "Batcher",
    "Coalescer",
    "DeadlineExceeded",
    "Executor",
    "PipelineStage",
    "Clock",
    "Counter",
    "FakeClock",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MONOTONIC_CLOCK",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceError",
    "ServiceRequestError",
    "ServiceServer",
    "ServiceUnavailable",
    "SimulationFailed",
    "SimulationService",
]
