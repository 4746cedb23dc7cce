"""Span wrappers around each module's public entry points.

Installed by the traced launcher inside the program's process, before
the command runs.  Every wrapper replaces the original object wherever
a ``repro`` module holds a reference to it, so a function imported by
name elsewhere is traced too.  Span names are the per-layer metric
names they feed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import time

from spans import RID_HEADER, Recorder

__all__ = ["install", "finish"]

_COMPUTE = (
    "repro.kernels.native",
    "repro.kernels.pipeline",
    "repro.sim.stages",
    "repro.sim.transfer",
    "repro.sim.engine",
    "repro.sim.store",
    "repro.ecc.layout",
)
_GROUPS = {
    "all": _COMPUTE + ("repro.experiments",),
    "faults": _COMPUTE + (
        "repro.experiments.fault_sweep", "repro.faults.campaign",
        "repro.faults.injector", "repro.core.link",
    ),
    "serve": _COMPUTE + (
        "repro.service.codec", "repro.service.pipeline",
        "repro.service.stages", "repro.service.server",
    ),
}


def _replace(original, wrapped) -> None:
    """Point every ``repro`` module reference at ``wrapped``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)


def _sync(rec: Recorder, original, name, after=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index, token = rec.open(name(args) if callable(name) else name)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.close(index, token)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _function(rec: Recorder, module, attr: str, name, after=None) -> None:
    original = getattr(module, attr)
    _replace(original, _sync(rec, original, name, after))


def _method(rec: Recorder, cls, attr: str, name, after=None) -> None:
    setattr(cls, attr, _sync(rec, getattr(cls, attr), name, after))


def _transfer_name(kind: str):
    def name(args) -> str:
        scheme = getattr(args[0], "scheme", None)
        if getattr(scheme, "ecc_segment_bits", None):
            return "encoding.transfer_s.secded"
        return f"encoding.transfer_s.{kind}"

    return name


def _compute(rec: Recorder) -> None:
    from repro.ecc import layout
    from repro.kernels import native, pipeline
    from repro.sim import engine, stages, transfer

    _function(rec, native, "load_native_kernel", "kernels.native_load_s")

    def fallback(args, result) -> None:
        if result is None:
            rec.count("kernels.fallbacks")

    for name in sorted(vars(pipeline)):
        if name.endswith("_native") and callable(getattr(pipeline, name)):
            _function(rec, pipeline, name, "kernels.native_s", fallback)
    _function(rec, stages, "sample_workload", "workloads.sample_s")
    _function(rec, stages, "design_cache", "energy.design_s")
    _function(rec, stages, "solve_timing", "sim.timing_s")
    _function(rec, stages, "account_energy", "sim.energy_s")
    _method(rec, transfer.DescTransferModel, "transfer_stats", _transfer_name("desc"))
    _method(rec, transfer.BaselineTransferModel, "transfer_stats", _transfer_name("baseline"))
    _function(rec, layout, "secded_extend_stream", "ecc.encode_s")
    _method(rec, layout.DescEccLayout, "encode_stream", "ecc.encode_s")
    _method(rec, layout.DescEccLayout, "decode_block", "ecc.decode_s")

    run_many = engine.StagedEngine.run_many

    @functools.wraps(run_many)
    def traced_run_many(self, jobs, *args, **kwargs):
        jobs = list(jobs)
        rec.count("sim.engine_jobs", len(jobs))
        with rec.span("sim.engine_s"):
            return run_many(self, jobs, *args, **kwargs)

    engine.StagedEngine.run_many = traced_run_many


def _experiments(rec: Recorder) -> None:
    import repro.experiments as experiments

    for info in sorted(os.listdir(os.path.dirname(experiments.__file__))):
        if info.startswith("fig") and info.endswith(".py"):
            module = importlib.import_module(f"repro.experiments.{info[:-3]}")
            _function(rec, module, "run", f"experiments.{info[:5]}_s")


def _faults(rec: Recorder) -> None:
    from repro.core.link import DescLink
    from repro.faults import campaign, injector

    _function(rec, campaign, "run_campaign", "faults.campaign_s")
    _method(rec, injector.LinkFaultInjector, "perturb", "faults.inject_s")
    send_block = DescLink.send_block

    @functools.wraps(send_block)
    def traced_send_block(self, *args, **kwargs):
        before = self.cycles
        with rec.span("core.send_s"):
            result = send_block(self, *args, **kwargs)
        rec.count("core.cycles", self.cycles - before)
        return result

    DescLink.send_block = traced_send_block


def _service(rec: Recorder) -> None:
    from repro.service import codec, pipeline, server, stages

    ids = itertools.count()
    pid = os.getpid()
    submitted: dict[int, tuple[str | None, float]] = {}

    job_from_payload = codec.job_from_payload

    @functools.wraps(job_from_payload)
    def traced_job_from_payload(payload):
        rec.set_request(f"{pid}-{next(ids)}")
        with rec.span("service.parse_s"):
            return job_from_payload(payload)

    _replace(job_from_payload, traced_job_from_payload)
    _function(rec, codec, "result_to_payload", "service.serialize_s")
    _function(rec, codec, "encode_json", "service.serialize_s")

    submit = pipeline.SimulationService.submit

    @functools.wraps(submit)
    async def traced_submit(self, job, *args, **kwargs):
        index, token = rec.open("service.submit_s")
        submitted[id(job)] = (rec.request(), rec.spans[index][1])
        try:
            return await submit(self, job, *args, **kwargs)
        finally:
            submitted.pop(id(job), None)
            rec.close(index, token)

    pipeline.SimulationService.submit = traced_submit

    execute = stages.Executor.execute

    @functools.wraps(execute)
    async def traced_execute(self, jobs):
        now = time.perf_counter()
        rec.event("service.batch", len(jobs))
        for job in jobs:
            rid, started = submitted.get(id(job), (None, None))
            if started is not None:
                rec.event("service.queue_wait", [rid, now - started])
        return await execute(self, jobs)

    stages.Executor.execute = traced_execute

    write_response = server._write_response

    @functools.wraps(write_response)
    async def traced_write_response(writer, status, payload, keep_alive=True, headers=None):
        rid = rec.request()
        if rid is not None:
            headers = {**(headers or {}), RID_HEADER: rid}
        try:
            return await write_response(writer, status, payload, keep_alive, headers)
        finally:
            rec.set_request(None)

    _replace(write_response, traced_write_response)


def install(rec: Recorder, command: str) -> dict:
    """Import the modules ``command`` uses and wrap their entry points.

    Returns the result-store counters at install time, for
    :func:`finish`.
    """
    for name in _GROUPS.get(command, _COMPUTE):
        importlib.import_module(name)
    _compute(rec)
    if command == "all":
        _experiments(rec)
    elif command == "faults":
        _faults(rec)
    elif command == "serve":
        _service(rec)
    return _store_counts()


def _store_counts() -> dict:
    from repro.sim.store import RESULT_STORE

    stats = RESULT_STORE.stats()
    return {"hits": stats.hits, "misses": stats.misses}


def finish(rec: Recorder, before: dict) -> None:
    """Record the result-store hits and misses since :func:`install`."""
    after = _store_counts()
    rec.count("sim.store_hits", after["hits"] - before["hits"])
    rec.count("sim.store_misses", after["misses"] - before["misses"])
