"""repro.service — the async serving layer over the staged engine.

Turns the batch/CLI-driven reproduction into an operable system: an
asyncio HTTP+JSON service (``repro serve``) that absorbs concurrent
simulation and sweep requests, deduplicates identical in-flight
configurations, serves repeats from the
:class:`~repro.sim.store.ResultStore`, and keeps the hardened engine
saturated with adaptively sized batches — all with explicit
backpressure instead of unbounded queues, and structured error
responses instead of hung connections.

Layers (each its own module, composable in-process without HTTP):

* :mod:`repro.service.stages` — the composable pipeline stages
  (Admission, Coalescer, Batcher, Executor) behind the
  :class:`~repro.service.stages.PipelineStage` protocol;
* :mod:`repro.service.pipeline` — the one wired stage stack behind
  :class:`SimulationService`;
* :mod:`repro.service.server` — the HTTP front-end
  (:class:`ServiceServer`: ``/simulate``, ``/sweep``, ``/healthz``,
  ``/metrics``);
* :mod:`repro.service.breaker` — the circuit breaker
  (:class:`~repro.service.breaker.CircuitBreaker`): a sick engine sheds
  load with 503 + Retry-After instead of queueing doomed work;
* :mod:`repro.service.supervisor` — drain-task health checks, crash
  recovery with bounded backoff, re-submission of stranded work, and
  the warehouse scrubber
  (:class:`~repro.service.supervisor.ShardSupervisor`);
* :mod:`repro.service.client` — the in-repo client with full-jitter
  429/503-aware retries, deadline stamping, and optional hedged
  requests (:class:`ServiceClient`);
* :mod:`repro.service.metrics` — the counters/gauges/histograms
  registry behind ``/metrics``;
* :mod:`repro.service.codec` — request canonicalization and canonical
  result encoding;
* :mod:`repro.service.clock` — injectable monotonic time;
* :mod:`repro.service.check` — the end-to-end self-check behind
  ``repro serve --check``;
* :mod:`repro.service.chaos` — the seeded chaos campaign behind
  ``repro chaos`` (crash storms, failure bursts, byte flips, floods —
  golden traffic must stay byte-identical throughout).

See ``docs/service.md`` for the API schema, the metrics glossary, and
operational notes.
"""

from repro.service.breaker import BreakerConfig, CircuitBreaker
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
    ShardUnavailable,
    SimulationFailed,
    SimulationService,
)
from repro.service.server import ServiceServer
from repro.service.stages import (
    Admission,
    BatchCrash,
    Batcher,
    Coalescer,
    Executor,
    PipelineStage,
)
from repro.service.supervisor import ShardSupervisor

__all__ = [
    "Admission",
    "Backpressure",
    "BatchCrash",
    "Batcher",
    "BreakerConfig",
    "CircuitBreaker",
    "Coalescer",
    "DeadlineExceeded",
    "Executor",
    "PipelineStage",
    "ShardSupervisor",
    "ShardUnavailable",
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
