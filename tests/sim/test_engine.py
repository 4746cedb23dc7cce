"""The staged engine: seed equivalence, dispatch, and parallelism.

``golden_runs.json`` was captured from the pre-refactor monolithic
``repro.sim.system.simulate`` (the seed implementation) for all 8
``DEFAULT_SCHEMES`` across three application profiles.  The staged
engine must reproduce every ``RunResult`` field bit-for-bit — the
refactor moved code, not numerics.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.encoding.registry import (
    TransferModel,
    make_transfer_model,
    transfer_model_names,
)
from repro.experiments.common import DEFAULT_SCHEMES
from repro.sim.config import SchemeConfig, SystemConfig, desc_scheme
from repro.sim.engine import SimJob, StagedEngine, simulate_many
from repro.sim.store import ResultStore
from repro.sim.system import ENGINE, simulate

GOLDEN_PATH = Path(__file__).parent / "golden_runs.json"


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _result_dict(result):
    return {
        "app": result.app,
        "scheme": result.scheme,
        "cycles": result.cycles,
        "hit_latency": result.hit_latency,
        "miss_latency": result.miss_latency,
        "bank_wait": result.bank_wait,
        "transfers": result.transfers,
        "transfer_stats": asdict(result.transfer_stats),
        "l2": asdict(result.l2),
        "processor": asdict(result.processor),
    }


GOLDEN = _golden()


class TestSeedEquivalence:
    """The staged engine is numerically identical to the seed monolith."""

    @pytest.mark.parametrize(
        "entry",
        GOLDEN["runs"],
        ids=[f"{e['app']}-{e['scheme_config']['name']}" for e in GOLDEN["runs"]],
    )
    def test_exact_run_result(self, entry):
        system = SystemConfig(sample_blocks=GOLDEN["system"]["sample_blocks"])
        scheme = SchemeConfig(**entry["scheme_config"])
        result = simulate(entry["app"], scheme, system)
        assert _result_dict(result) == entry["result"]

    def test_covers_all_default_schemes_and_three_apps(self):
        covered = {
            (e["app"], tuple(sorted(e["scheme_config"].items())))
            for e in GOLDEN["runs"]
        }
        apps = {app for app, _ in covered}
        assert len(apps) == 3
        for _, scheme in DEFAULT_SCHEMES:
            for app in apps:
                assert (app, tuple(sorted(asdict(scheme).items()))) in covered


class TestDispatch:
    def test_no_is_desc_in_engine_or_stages(self):
        """Scheme dispatch lives in the registry, not the run loop."""
        import repro.sim.engine as engine_mod
        import repro.sim.stages as stages_mod
        import inspect

        for module in (engine_mod, stages_mod):
            assert "is_desc" not in inspect.getsource(module)

    def test_every_figure16_scheme_has_a_model(self):
        from repro.encoding.registry import FIGURE16_SCHEMES

        names = transfer_model_names()
        for name in FIGURE16_SCHEMES:
            assert name in names

    def test_models_satisfy_protocol(self):
        for name in ("binary", "desc+zero-skip"):
            model = make_transfer_model(SchemeConfig(name=name))
            assert isinstance(model, TransferModel)

    def test_unknown_scheme_rejected(self):
        bogus = SchemeConfig(name="carrier-pigeon")
        with pytest.raises(ValueError, match="no transfer model"):
            make_transfer_model(bogus)

    @pytest.mark.parametrize(
        "scheme,message",
        [
            (desc_scheme(chunk_bits=3), "multiple of 3"),
            (desc_scheme(chunk_bits=4, data_wires=256), "spread evenly"),
            (desc_scheme(chunk_bits=64, data_wires=8), "at most 32"),
            (desc_scheme(chunk_bits=512, data_wires=1), "at most 32"),
            (desc_scheme(ecc_segment_bits=100), "multiple of 100"),
            (desc_scheme(ecc_segment_bits=256), "interleave"),
            (SchemeConfig(name="binary", data_wires=100), "multiple of 100"),
            (SchemeConfig(ecc_segment_bits=128), "W == S"),
            (SchemeConfig(data_wires=100, ecc_segment_bits=100), "multiple of 100"),
        ],
        ids=lambda value: getattr(value, "name", None) and value.label(),
    )
    def test_invalid_geometry_rejected_at_construction(self, scheme, message):
        """No sample is needed to tell that a 512-bit block cannot take it."""
        with pytest.raises(ValueError, match=message):
            make_transfer_model(scheme)

    @pytest.mark.parametrize(
        "scheme",
        [
            desc_scheme(chunk_bits=2, data_wires=64),
            desc_scheme(ecc_segment_bits=128),
            SchemeConfig(name="binary", data_wires=64, ecc_segment_bits=64),
            SchemeConfig(name="bus-invert"),
        ],
        ids=lambda scheme: scheme.label(),
    )
    @pytest.mark.parametrize("exclude_null", [False, True])
    def test_sample_from_an_older_store(self, scheme, exclude_null, tmp_path):
        """A sample an older release persisted, which carried only the
        bit matrix, is dropped when its store loads: the transfer stage
        draws a fresh sample and gets the fresh statistics."""
        import pickle
        from types import SimpleNamespace

        from repro.sim.stages import sample_workload, workload_key
        from repro.sim.store import STORE_FORMAT_VERSION
        from repro.workloads.profiles import profile

        app = profile("Radix")
        fresh = sample_workload(app, 300, 1)
        older = SimpleNamespace(
            app=app, num_blocks=300, seed=1, packed=None,
            null_fraction=fresh.null_fraction, bits=fresh.packed.bits.copy(),
        )
        path = tmp_path / "store.pkl"
        with open(path, "wb") as handle:
            pickle.dump({
                "version": STORE_FORMAT_VERSION,
                "entries": {workload_key(app, 300, 1): older},
                "hits": 0, "misses": 0,
            }, handle)
        store = ResultStore(path)
        assert workload_key(app, 300, 1) not in store
        stats = StagedEngine(store).transfer_stats(scheme, app, 300, 1, exclude_null)
        assert stats == make_transfer_model(scheme).transfer_stats(fresh, exclude_null)


class TestTransferKey:
    """A segmented baseline at its default width and at that width
    spelled out is one transfer computation."""

    @pytest.mark.parametrize(
        "name", ["zero-compression", "bus-invert", "bus-invert+zero-skip",
                 "bus-invert+encoded-zero-skip"],
    )
    def test_default_segment_width_shares_the_entry(self, name):
        from repro.encoding.registry import BEST_SEGMENT_BITS
        from repro.workloads.profiles import profile

        app = profile("FFT")
        engine = StagedEngine(ResultStore())
        default = engine.transfer_stats(SchemeConfig(name=name), app, 200, 0)
        misses = engine.store.misses
        explicit = engine.transfer_stats(
            SchemeConfig(name=name, segment_bits=BEST_SEGMENT_BITS[name]),
            app, 200, 0,
        )
        assert explicit is default
        assert engine.store.misses == misses

    def test_one_transfer_miss_for_both_spellings(self):
        from repro.workloads.profiles import profile

        engine = StagedEngine(ResultStore())
        system = SystemConfig(sample_blocks=200)
        for bits in (None, 4):
            engine.run(profile("LU"), SchemeConfig(name="bus-invert", segment_bits=bits), system)
        transfer = [key for key in engine.store if key[0] == "transfer"]
        assert len(transfer) == 1
        # The sample, the transfer statistics, the cache design, and
        # each of the two runs.
        assert engine.store.misses == 5

    def test_other_widths_keep_their_own_entries(self):
        from repro.sim.stages import transfer_key
        from repro.workloads.profiles import profile

        app = profile("FFT")
        keys = {
            transfer_key(SchemeConfig(name="bus-invert", segment_bits=bits), app, 200, 0, False)
            for bits in (None, 4, 8)
        }
        assert len(keys) == 2
        binary = SchemeConfig(name="binary")
        assert transfer_key(binary, app, 200, 0, False)[1] is binary


class _CountingPart:
    """A key element that counts how often it is hashed."""

    hashes = 0

    def __init__(self, tag: int) -> None:
        self.tag = tag

    def __hash__(self) -> int:
        type(self).hashes += 1
        return hash(self.tag)

    def __eq__(self, other) -> bool:
        return isinstance(other, _CountingPart) and other.tag == self.tag


class TestStoredResultLookups:
    """A stored result is found with one store lookup, so its key is
    hashed once."""

    def test_batch_hashes_each_stored_key_once(self):
        engine = StagedEngine(ResultStore())
        keys = [("run", _CountingPart(i)) for i in range(5)]
        for index, key in enumerate(keys):
            engine.store.put(key, index)
        _CountingPart.hashes = 0
        results = engine._batch(
            list(range(5)), keys, worker=None, local=None,
            max_workers=1, retries=0, affinity=None,
        )
        assert results == list(range(5))
        assert _CountingPart.hashes == len(keys)
        assert (engine.store.hits, engine.store.misses) == (5, 0)

    def test_service_hashes_a_stored_key_once(self):
        import asyncio

        from repro.service.pipeline import SimulationService

        service = SimulationService(StagedEngine(ResultStore()))
        key = ("run", _CountingPart(7))
        service.engine.store.put(key, "stored")
        _CountingPart.hashes = 0
        assert asyncio.run(service.serve_key(key, None, wait=False)) == "stored"
        assert _CountingPart.hashes == 1
        assert service.engine.store.hits == 1
        assert service.metrics.counter("store_hits_total").value == 1


class TestChunkStatisticsStage:
    """The Figs. 12/13 stage against an oracle that shares no store
    code: the stream redrawn with ``block_stream`` and measured
    directly."""

    @pytest.mark.parametrize("app", ["FFT", "Radix", "Ocean"])
    @pytest.mark.parametrize("num_blocks", [1, 200, 3000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_redrawn_stream(self, app, num_blocks, seed):
        from repro.workloads.generator import block_stream, chunk_statistics
        from repro.workloads.profiles import profile

        app = profile(app)
        engine = StagedEngine(ResultStore())
        stats = engine.chunk_statistics(app, num_blocks, seed)
        assert stats == chunk_statistics(block_stream(app, num_blocks, seed))
        misses = engine.store.misses
        assert engine.chunk_statistics(app, num_blocks, seed) is stats
        assert engine.store.misses == misses  # computed once, then read


class TestStoreIntegration:
    def test_repeated_run_hits_store(self):
        engine = StagedEngine(ResultStore())
        engine.run("Ocean", desc_scheme("zero"))
        misses = engine.store.misses
        engine.run("Ocean", desc_scheme("zero"))
        assert engine.store.misses == misses  # second run: pure hits
        assert engine.store.hits > 0

    def test_schemes_share_workload_sample(self):
        engine = StagedEngine(ResultStore())
        engine.run("Ocean", desc_scheme("zero"))
        engine.run("Ocean", desc_scheme("none"))
        samples = [key for key in engine.store if key[0] == "workload"]
        assert len(samples) == 1

    def test_clear_caches_clears_the_unified_store(self):
        from repro.sim.system import clear_caches

        simulate("Ocean", desc_scheme("zero"))
        assert len(ENGINE.store) > 0
        clear_caches()
        assert len(ENGINE.store) == 0
        assert ENGINE.store.stats().hits == 0


class TestSimulateMany:
    SYSTEM = SystemConfig(sample_blocks=600)

    def _jobs(self):
        return [
            SimJob.of(app, scheme, self.SYSTEM)
            for app in ("Ocean", "Radix")
            for _, scheme in DEFAULT_SCHEMES[:4]
        ]

    def test_matches_individual_simulate_calls(self):
        results = simulate_many(self._jobs(), max_workers=1)
        for job, result in zip(self._jobs(), results, strict=True):
            assert result == simulate(job.app, job.scheme, job.system)

    def test_accepts_plain_tuples(self):
        [result] = simulate_many(
            [("Ocean", desc_scheme("zero"), self.SYSTEM)], max_workers=1
        )
        assert result == simulate("Ocean", desc_scheme("zero"), self.SYSTEM)

    def test_parallel_agrees_with_serial_bit_for_bit(self):
        """The property the batch API guarantees: worker count never
        changes a single bit of any result field."""
        jobs = self._jobs()
        serial = simulate_many(jobs, max_workers=1, store=ResultStore())
        parallel = simulate_many(jobs, max_workers=4, store=ResultStore())
        assert [_result_dict(r) for r in serial] == [
            _result_dict(r) for r in parallel
        ]

    def test_parallel_results_merge_into_parent_store(self):
        store = ResultStore()
        jobs = self._jobs()
        simulate_many(jobs, max_workers=2, store=store)
        runs = [key for key in store if key[0] == "run"]
        assert len(runs) == len(jobs)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            simulate_many(self._jobs(), max_workers=0)

    def test_forkless_platform_runs_serially_with_same_results(
        self, monkeypatch
    ):
        """Satellite guarantee: no fork → clean serial fallback, results
        bit-for-bit identical to the pooled path."""
        import repro.sim.engine as engine_mod

        jobs = self._jobs()
        pooled = simulate_many(jobs, max_workers=4, store=ResultStore())
        monkeypatch.setattr(engine_mod, "fork_available", lambda: False)
        serial = simulate_many(jobs, max_workers=4, store=ResultStore())
        assert [_result_dict(r) for r in serial] == [
            _result_dict(r) for r in pooled
        ]

    def test_pool_launch_failure_falls_back_in_process(self, monkeypatch):
        """Sandboxes can advertise fork yet refuse to spawn: the batch
        API must complete in-process rather than raise."""
        import repro.sim.engine as engine_mod

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("process creation refused")

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", ExplodingPool)
        jobs = self._jobs()
        results = simulate_many(jobs, max_workers=2, store=ResultStore())
        assert len(results) == len(jobs)
        for job, result in zip(jobs, results, strict=True):
            assert result == simulate(job.app, job.scheme, job.system)


# ---------------------------------------------------------------------------
# Failure isolation: module-level helpers must be picklable for the pool.
# ---------------------------------------------------------------------------

from dataclasses import dataclass as _dataclass, field as _field  # noqa: E402

from repro.faults.campaign import FaultCampaignConfig  # noqa: E402
from repro.sim.engine import FailedJob  # noqa: E402

GOOD_CAMPAIGN = FaultCampaignConfig(
    num_blocks=4, block_bits=64, segment_bits=16, data_seed=2
)


@_dataclass(frozen=True)
class _ExplodingCampaign:
    """Duck-typed campaign config whose execution always raises."""

    ident: int = 0

    def key(self) -> str:
        return f"exploding/{self.ident}"

    @property
    def data_seed(self) -> int:  # first field run_campaign touches
        raise RuntimeError("boom: this campaign always fails")


@_dataclass(frozen=True)
class _WorkerKillerCampaign:
    """Valid campaign in the parent; SIGKILLs any pool worker touching
    it — the hard-crash case that used to abort the whole batch."""

    parent_pid: int
    inner: FaultCampaignConfig = _field(default_factory=lambda: GOOD_CAMPAIGN)

    def key(self) -> str:
        return f"killer/{self.inner.key()}"

    @property
    def data_seed(self) -> int:
        import os
        import signal

        if os.getpid() != self.parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.data_seed

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "inner"), name)


class TestFailureIsolation:
    """Satellite guarantee: one bad job costs one slot, never the batch."""

    def test_raising_job_fails_only_its_slot_serially(self):
        engine = StagedEngine(ResultStore())
        results = engine.fault_campaigns(
            [GOOD_CAMPAIGN, _ExplodingCampaign()], max_workers=1
        )
        good, bad = results
        assert good.stats.blocks_sent == 4
        assert isinstance(bad, FailedJob)
        assert bad.reason == "error"
        assert "boom" in bad.error
        # The healthy result still landed in the store.
        assert ("fault-campaign", GOOD_CAMPAIGN.key()) in engine.store

    def test_raising_job_fails_only_its_slot_in_pool(self):
        engine = StagedEngine(ResultStore())
        results = engine.fault_campaigns(
            [_ExplodingCampaign(1), GOOD_CAMPAIGN, _ExplodingCampaign(2)],
            max_workers=2,
        )
        assert isinstance(results[0], FailedJob)
        assert results[1].stats.blocks_sent == 4
        assert isinstance(results[2], FailedJob)

    def test_failure_logged_with_reason(self, caplog):
        engine = StagedEngine(ResultStore())
        with caplog.at_level("WARNING", logger="repro.sim.engine"):
            engine.fault_campaigns([_ExplodingCampaign()], max_workers=1)
        assert any("failed" in rec.message for rec in caplog.records)

    def test_retries_count_every_attempt(self):
        engine = StagedEngine(ResultStore())
        [failed] = engine.fault_campaigns(
            [_ExplodingCampaign()], max_workers=1, retries=2
        )
        assert isinstance(failed, FailedJob)
        assert failed.attempts == 3

    def test_zero_retries_attempts_once(self):
        engine = StagedEngine(ResultStore())
        [failed] = engine.fault_campaigns(
            [_ExplodingCampaign()], max_workers=1, retries=0
        )
        assert failed.attempts == 1

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            StagedEngine(ResultStore()).fault_campaigns(
                [GOOD_CAMPAIGN], retries=-1
            )

    def test_killed_worker_recovers_serially(self, caplog):
        """A SIGKILLed worker breaks the whole pool; the batch API must
        recompute in-process and still return every result."""
        from repro.sim.engine import fork_available

        if not fork_available():
            pytest.skip("worker-kill test needs pool workers")
        import os

        engine = StagedEngine(ResultStore())
        killer = _WorkerKillerCampaign(parent_pid=os.getpid())
        with caplog.at_level("WARNING", logger="repro.sim.engine"):
            results = engine.fault_campaigns(
                [killer, GOOD_CAMPAIGN], max_workers=2
            )
        assert not any(isinstance(r, FailedJob) for r in results)
        assert results[0].stats == results[1].stats  # same inner campaign
        assert any("pool broke" in rec.message for rec in caplog.records)

    def test_failed_slots_never_poison_the_store(self):
        engine = StagedEngine(ResultStore())
        engine.fault_campaigns([_ExplodingCampaign()], max_workers=1)
        assert ("fault-campaign", "exploding/0") not in engine.store
        # A later healthy batch is unaffected.
        [result] = engine.fault_campaigns([GOOD_CAMPAIGN], max_workers=1)
        assert result.stats.clean_blocks == 4
