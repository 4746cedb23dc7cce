"""Request canonicalization and result serialization for the service.

The wire format is deliberately thin: a simulation request is the JSON
shape of a :class:`~repro.sim.engine.SimJob` (application name, scheme
fields, system fields), and a response is the JSON shape of the
:class:`~repro.sim.metrics.RunResult` the staged engine produces.
Canonicalization happens *before* anything touches the pipeline — two
requests that mean the same simulation parse to the same frozen
:class:`SimJob` and therefore the same store key, which is what makes
request coalescing and read-through caching correct rather than
heuristic.

:func:`encode_json` pins key order and float formatting, so "the same
result" is byte-comparable: a response served from the coalescing map,
the result store, or a fresh engine run encodes to identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping

from repro.encoding.registry import make_transfer_model
from repro.sim.config import FIELD_TYPES, SchemeConfig, SystemConfig
from repro.sim.engine import SimJob
from repro.sim.metrics import RunResult
from repro.workloads.profiles import profile

__all__ = [
    "BadRequest",
    "encode_json",
    "job_from_payload",
    "result_to_payload",
    "scheme_from_payload",
    "system_from_payload",
]


class BadRequest(ValueError):
    """A request payload that cannot mean any simulation."""


def _config_from_payload(
    payload: Mapping[str, Any], cls: type, what: str
) -> Any:
    """Build a frozen config dataclass from a JSON object, strictly.

    Unknown keys are rejected rather than ignored: a typo like
    ``chunk_bit`` silently falling back to the default would coalesce
    the request with the *wrong* computation.  A value of the wrong
    JSON type (``"nuca": "yes"``, ``"num_banks": 8.0``) is rejected
    by name before the config sees it.
    """
    if not isinstance(payload, Mapping):
        raise BadRequest(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    field_types = FIELD_TYPES[cls]
    unknown = sorted(set(payload) - field_types.keys())
    if unknown:
        raise BadRequest(
            f"unknown {what} field(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(field_types))}"
        )
    for name, value in payload.items():
        accepted, expected = field_types[name]
        if type(value) not in accepted:
            raise BadRequest(
                f"invalid {what}: {name} must be {expected}, got {value!r}"
            )
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"invalid {what}: {exc}") from exc


def scheme_from_payload(payload: Mapping[str, Any]) -> SchemeConfig:
    """A :class:`SchemeConfig` from its JSON object (strict keys).

    The scheme must also have a transfer model that accepts it: an
    unknown name or a geometry the 512-bit sample block cannot take
    (a chunk width that does not divide it, more wires than chunks, an
    ECC segment that does not interleave) is a bad request, not a job
    that fails in the engine.
    """
    scheme = _config_from_payload(payload, SchemeConfig, "scheme")
    try:
        make_transfer_model(scheme)
    except ValueError as exc:
        raise BadRequest(f"invalid scheme: {exc}") from exc
    return scheme


def system_from_payload(payload: Mapping[str, Any]) -> SystemConfig:
    """A :class:`SystemConfig` from its JSON object (strict keys)."""
    return _config_from_payload(payload, SystemConfig, "system")


def job_from_payload(payload: Mapping[str, Any]) -> SimJob:
    """Canonicalize one simulation request into a frozen :class:`SimJob`.

    Expected shape::

        {"app": "Ocean",
         "scheme": {"name": "desc+zero-skip", "data_wires": 128, ...},
         "system": {"sample_blocks": 1200, ...}}        # optional

    ``scheme`` and ``system`` accept any subset of their config fields;
    omitted fields take the config defaults, exactly as the Python API
    does, so the request canonicalizes to the same job (and store key)
    a direct :class:`~repro.sim.engine.StagedEngine` caller would use.
    """
    if not isinstance(payload, Mapping):
        raise BadRequest(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - {"app", "scheme", "system"})
    if unknown:
        raise BadRequest(
            f"unknown request field(s) {', '.join(unknown)}; "
            "expected app, scheme, system"
        )
    if "app" not in payload:
        raise BadRequest("request is missing the required 'app' field")
    name = payload["app"]
    if not isinstance(name, str):
        raise BadRequest(f"'app' must be a string, got {type(name).__name__}")
    try:
        app = profile(name)
    except ValueError as exc:
        raise BadRequest(str(exc)) from exc
    scheme = scheme_from_payload(payload.get("scheme", {}))
    system = system_from_payload(payload.get("system", {}))
    return SimJob(app=app, scheme=scheme, system=system)


def result_to_payload(result: RunResult) -> dict:
    """The JSON shape of one :class:`RunResult` (every field, no loss)."""
    return {
        "app": result.app,
        "scheme": result.scheme,
        "cycles": result.cycles,
        "hit_latency": result.hit_latency,
        "miss_latency": result.miss_latency,
        "bank_wait": result.bank_wait,
        "transfers": result.transfers,
        "transfer_stats": dataclasses.asdict(result.transfer_stats),
        "l2": dataclasses.asdict(result.l2),
        "processor": dataclasses.asdict(result.processor),
    }


def encode_json(payload: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, repr floats.

    Responses for the same simulation must be byte-identical no matter
    which cache tier served them, so the encoding leaves nothing to
    chance (dict insertion order, spacing).
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=True
    ).encode("utf-8")
