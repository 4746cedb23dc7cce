"""Per-rule positive and negative cases for R001-R005.

Every rule has at least one fixture that must produce a finding and
one that must stay clean, so a rule that silently stops firing (or
starts over-firing) breaks this suite before it reaches CI policy.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.analysis.config import AnalysisConfig, load_config
from repro.analysis.framework import run_analysis
from repro.analysis.rules import default_rules
from repro.analysis.rules.parity import TierParityRule
from tests.analysis.conftest import FILE_RULES_ONLY


def lint(root: Path, *rule_ids: str):
    config = load_config(root)
    return run_analysis(root, config, default_rules(), list(rule_ids) or None)


# -- R001: seed hygiene ------------------------------------------------


class TestSeedHygiene:
    def test_flags_unseeded_sources(self, make_repo):
        root = make_repo(
            {
                "src/repro/bad.py": """
                import random
                import numpy as np
                import time
                from datetime import datetime

                def draw():
                    r = random.Random()
                    x = random.random()
                    rng = np.random.default_rng()
                    legacy = np.random.rand(4)
                    stamp = time.time()
                    when = datetime.now()
                    return r, x, rng, legacy, stamp, when
                """
            }
        )
        findings = lint(root, "R001")
        assert len(findings) == 6
        assert all(f.rule == "R001" for f in findings)
        messages = " ".join(f.message for f in findings)
        assert "unseeded" in messages
        assert "process-global" in messages
        assert "wall-clock" in messages

    def test_seeded_and_monotonic_uses_pass(self, make_repo):
        root = make_repo(
            {
                "src/repro/good.py": """
                import random
                import time
                import numpy as np
                from datetime import datetime

                def draw(seed):
                    r = random.Random(seed)
                    rng = np.random.default_rng(seed)
                    values = rng.normal(size=4)
                    elapsed = time.perf_counter()
                    fixed = datetime.fromtimestamp(0)
                    return r.random(), values, elapsed, fixed
                """
            }
        )
        assert lint(root, "R001") == []

    def test_monotonic_reads_flagged_in_clock_scope(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/timing.py": """
                import time
                from time import perf_counter

                def measure():
                    a = time.monotonic()
                    b = perf_counter()
                    return a, b
                """
            }
        )
        findings = lint(root, "R001")
        assert len(findings) == 2
        assert all("repro.service.clock" in f.message for f in findings)

    def test_monotonic_reads_pass_outside_clock_scope(self, make_repo):
        root = make_repo(
            {
                "src/repro/sim/timing.py": """
                import time

                def measure():
                    return time.monotonic()
                """
            }
        )
        assert lint(root, "R001") == []

    def test_clock_scope_waiver_is_honoured(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/clock.py": """
                import time

                def real():
                    return time.monotonic()  # lint-ok: R001
                """
            }
        )
        assert lint(root, "R001") == []


class TestExploreSeedContract:
    """R001's explore-scope extension: seeds must be threaded, never
    defaulted to ``None`` (which means fresh OS entropy)."""

    def test_flags_none_defaults_and_none_seeded_rngs(self, make_repo):
        root = make_repo(
            {
                "src/repro/explore/bad.py": """
                import random
                import numpy as np

                def sample(points, seed=None):
                    return points

                def fan_out(*, jitter_seed=None):
                    return jitter_seed

                def build():
                    a = random.Random(None)
                    b = np.random.default_rng(None)
                    c = np.random.default_rng(seed=None)
                    return a, b, c
                """
            }
        )
        findings = lint(root, "R001")
        assert sum("defaults to" in f.message for f in findings) == 2
        assert sum(
            "wearing a seed's clothes" in f.message for f in findings
        ) == 3
        assert len(findings) == 5

    def test_threaded_seeds_pass(self, make_repo):
        root = make_repo(
            {
                "src/repro/explore/good.py": """
                import random

                def sample(points, seed=0):
                    return random.Random(seed)

                def derive(base_seed: int, offset: int = 1):
                    return random.Random(base_seed + offset)
                """
            }
        )
        assert lint(root, "R001") == []

    def test_contract_is_confined_to_explore_scope(self, make_repo):
        root = make_repo(
            {
                "src/repro/sim/elsewhere.py": """
                import random

                def sample(points, seed=None):
                    rng = random.Random(seed if seed is not None else 7)
                    return rng.random()
                """
            }
        )
        assert lint(root, "R001") == []

    def test_import_aliases_are_tracked(self, make_repo):
        root = make_repo(
            {
                "src/repro/alias.py": """
                import numpy as xp
                import random as rnd

                def draw():
                    return xp.random.default_rng(), rnd.random()
                """
            }
        )
        assert len(lint(root, "R001")) == 2

    def test_out_of_scope_files_ignored(self, make_repo):
        root = make_repo(
            {
                "src/tools/script.py": """
                import random

                print(random.random())
                """
            }
        )
        assert lint(root, "R001") == []

    def test_line_suppression_waives_one_call(self, make_repo):
        root = make_repo(
            {
                "src/repro/meta.py": """
                import time

                def stamp():
                    return time.time()  # lint-ok: R001

                def leak():
                    return time.time()
                """
            }
        )
        findings = lint(root, "R001")
        assert len(findings) == 1
        assert findings[0].line == 8


# -- R002: cost accounting ---------------------------------------------


class TestCostAccounting:
    def test_flags_field_writes_outside_charge_sites(self, make_repo):
        root = make_repo(
            {
                "src/repro/rogue.py": """
                def tamper(cost, total_cost):
                    cost.data_flips += 1
                    total_cost.sync_flips = 5
                    total_cost.cycles += 10
                    object.__setattr__(cost, "overhead_flips", 3)
                """
            }
        )
        findings = lint(root, "R002")
        assert len(findings) == 4
        assert all(f.rule == "R002" for f in findings)

    def test_charge_sites_are_whitelisted(self, make_repo):
        root = make_repo(
            {
                "src/repro/core/link.py": """
                def charge(cost):
                    cost.data_flips += 1
                """
            }
        )
        assert lint(root, "R002") == []

    def test_non_cost_objects_pass(self, make_repo):
        root = make_repo(
            {
                "src/repro/clean.py": """
                def accumulate(stats, cost, delta):
                    stats.cycles = 5
                    self_cycles = cost.cycles
                    cost = cost + delta
                    return cost, self_cycles
                """
            }
        )
        assert lint(root, "R002") == []


# -- R003: transfer-model coverage -------------------------------------


class TestTierParity:
    def test_real_registry_has_full_model_coverage(self):
        # The live invariant on this checkout: every scheme the encoder
        # registry exposes has a registered TransferModel.
        rule = TierParityRule()
        config = replace(AnalysisConfig(), check_transfer_models=True)
        assert list(rule._check_models(config)) == []


# -- R003: kernel-dispatcher parity ------------------------------------


_KERNEL_CONFIG = """
[tool.repro.analysis]
kernel_dispatchers = ["src/repro/kern.py:encode"]
check_transfer_models = false
stage_protocol = ""
"""

_KERNEL_TRIO = """
def encode_native(bits, data_wires, segment_bits=8):
    return 1


def encode_numpy(bits, data_wires, segment_bits=8):
    return 2


def encode(bits, data_wires, segment_bits=8):
    return encode_native(bits, data_wires, segment_bits)
"""


class TestKernelDispatcherParity:
    def test_matching_trio_passes(self, make_repo):
        root = make_repo({"src/repro/kern.py": _KERNEL_TRIO}, _KERNEL_CONFIG)
        assert lint(root, "R003") == []

    def test_missing_twin_is_flagged(self, make_repo):
        no_numpy = _KERNEL_TRIO.replace("def encode_numpy", "def _hidden")
        root = make_repo({"src/repro/kern.py": no_numpy}, _KERNEL_CONFIG)
        findings = lint(root, "R003")
        assert any("encode_numpy" in f.message for f in findings)

    def test_drifted_twin_default_is_flagged(self, make_repo):
        # The numpy twin's keyword default drifts: wrong answers appear
        # only under REPRO_NATIVE=0, the exact bug class R003 guards.
        drifted = _KERNEL_TRIO.replace(
            "def encode_numpy(bits, data_wires, segment_bits=8):",
            "def encode_numpy(bits, data_wires, segment_bits=4):",
        )
        root = make_repo({"src/repro/kern.py": drifted}, _KERNEL_CONFIG)
        findings = lint(root, "R003")
        assert any(
            "encode_numpy" in f.message and "differs" in f.message
            for f in findings
        )

    def test_missing_dispatcher_is_flagged(self, make_repo):
        root = make_repo({"src/repro/kern.py": "X = 1\n"}, _KERNEL_CONFIG)
        findings = lint(root, "R003")
        assert any("not found" in f.message for f in findings)

    def test_real_pipeline_dispatchers_conform(self):
        # The live invariant: every configured pipeline dispatcher in
        # this checkout ships signature-identical native/numpy twins.
        from repro.analysis.config import find_repo_root
        from repro.analysis.framework import SourceFile

        root = find_repo_root()
        assert root is not None
        config = AnalysisConfig()
        paths = dict.fromkeys(
            e.rpartition(":")[0] for e in config.kernel_dispatchers
        )
        files = [SourceFile.load(root / rel, rel) for rel in paths]
        rule = TierParityRule()
        assert list(
            rule._check_kernel_dispatchers(files, config, root)
        ) == []


# -- R003: stage-protocol conformance ----------------------------------


_STAGE_CONFIG = """
[tool.repro.analysis]
kernel_dispatchers = []
check_transfer_models = false
stage_protocol = "src/repro/stages.py:Stage"
stage_classes = ["src/repro/stages.py:Good", "src/repro/other.py:Far"]
"""

_STAGE_PROTOCOL = """
from typing import Protocol

class Stage(Protocol):
    name: str

    def snapshot(self) -> dict:
        ...

    async def drain(self) -> None:
        ...
"""

_GOOD_STAGE = """
class Good:
    name = "good"

    def snapshot(self) -> dict:
        return {}

    async def drain(self) -> None:
        return None

    def extra_method(self, x, y=1):
        return x + y
"""


class TestStageProtocol:
    def test_conforming_stages_pass(self, make_repo):
        root = make_repo(
            {
                "src/repro/stages.py": _STAGE_PROTOCOL + _GOOD_STAGE,
                "src/repro/other.py": _GOOD_STAGE.replace("Good", "Far"),
            },
            _STAGE_CONFIG,
        )
        assert lint(root, "R003") == []

    def test_sync_drain_is_flagged(self, make_repo):
        # Same signature, wrong async-ness: awaiting a sync drain at
        # shutdown is exactly the drift the rule exists to catch.
        drifted = _GOOD_STAGE.replace("Good", "Far").replace(
            "async def drain", "def drain"
        )
        root = make_repo(
            {
                "src/repro/stages.py": _STAGE_PROTOCOL + _GOOD_STAGE,
                "src/repro/other.py": drifted,
            },
            _STAGE_CONFIG,
        )
        findings = lint(root, "R003")
        assert len(findings) == 1
        assert "async" in findings[0].message
        assert "Far.drain" in findings[0].message

    def test_missing_protocol_method_is_flagged(self, make_repo):
        stripped = _GOOD_STAGE.replace("Good", "Far").replace(
            "    def snapshot(self) -> dict:\n        return {}\n", ""
        )
        root = make_repo(
            {
                "src/repro/stages.py": _STAGE_PROTOCOL + _GOOD_STAGE,
                "src/repro/other.py": stripped,
            },
            _STAGE_CONFIG,
        )
        findings = lint(root, "R003")
        assert len(findings) == 1
        assert "missing the Stage method 'snapshot'" in findings[0].message

    def test_missing_name_attribute_is_flagged(self, make_repo):
        nameless = _GOOD_STAGE.replace("Good", "Far").replace(
            '    name = "good"\n', ""
        )
        root = make_repo(
            {
                "src/repro/stages.py": _STAGE_PROTOCOL + _GOOD_STAGE,
                "src/repro/other.py": nameless,
            },
            _STAGE_CONFIG,
        )
        findings = lint(root, "R003")
        assert len(findings) == 1
        assert "attribute 'name'" in findings[0].message

    def test_signature_drift_is_flagged(self, make_repo):
        drifted = _GOOD_STAGE.replace("Good", "Far").replace(
            "def snapshot(self) -> dict:", "def snapshot(self, deep) -> dict:"
        )
        root = make_repo(
            {
                "src/repro/stages.py": _STAGE_PROTOCOL + _GOOD_STAGE,
                "src/repro/other.py": drifted,
            },
            _STAGE_CONFIG,
        )
        findings = lint(root, "R003")
        assert len(findings) == 1
        assert "Far.snapshot" in findings[0].message

    def test_missing_stage_class_is_flagged(self, make_repo):
        root = make_repo(
            {"src/repro/stages.py": _STAGE_PROTOCOL + _GOOD_STAGE},
            _STAGE_CONFIG,
        )
        findings = lint(root, "R003")
        assert len(findings) == 1
        assert "not found" in findings[0].message
        assert "stage_classes" in findings[0].message

    def test_real_stages_satisfy_the_protocol(self):
        # The live invariant on this checkout: the shipped pipeline
        # stages conform to the shipped protocol.
        from repro.analysis.config import find_repo_root
        from repro.analysis.framework import run_analysis
        from repro.analysis.rules import default_rules

        root = find_repo_root()
        assert root is not None
        config = load_config(root)
        findings = run_analysis(
            root, config, default_rules(), rule_filter=["R003"]
        )
        assert [f for f in findings if "stage" in f.message.lower()] == []


# -- R004: float equality ----------------------------------------------


class TestFloatEquality:
    def test_flags_equality_on_float_metrics(self, make_repo):
        root = make_repo(
            {
                "src/repro/sim/check.py": """
                def compare(a, b, total, count):
                    if a.energy_j == b.energy_j:
                        return True
                    if total / count != 0.5:
                        return False
                    return a.link_rate == b.link_rate
                """
            }
        )
        findings = lint(root, "R004")
        assert len(findings) == 3
        assert all(f.rule == "R004" for f in findings)
        assert "math.isclose" in findings[0].message

    def test_order_comparisons_and_ints_pass(self, make_repo):
        root = make_repo(
            {
                "src/repro/sim/clean.py": """
                def compare(a, b, items, count):
                    close = a.energy_j <= b.energy_j
                    sized = len(items) == 3
                    empty = count == 0
                    return close and sized and empty
                """
            }
        )
        assert lint(root, "R004") == []

    def test_scope_limits_where_it_fires(self, make_repo):
        root = make_repo(
            {
                "src/repro/core/free.py": """
                def compare(a, b):
                    return a.energy_j == b.energy_j
                """
            }
        )
        assert lint(root, "R004") == []


# -- R005: unordered iteration -----------------------------------------


class TestUnorderedIteration:
    def test_flags_set_iteration_feeding_ordered_output(self, make_repo):
        root = make_repo(
            {
                "src/repro/walk.py": """
                def emit(rows):
                    names = {row.name for row in rows}
                    for name in names:
                        print(name)
                    return list(names), [n.upper() for n in names]
                """
            }
        )
        findings = lint(root, "R005")
        assert len(findings) == 3
        assert all("sorted" in f.message for f in findings)

    def test_sorted_wrapper_and_dicts_pass(self, make_repo):
        root = make_repo(
            {
                "src/repro/ordered.py": """
                def emit(rows, table):
                    names = {row.name for row in rows}
                    for name in sorted(names):
                        print(name)
                    for key in table:
                        print(key, table[key])
                    return sorted(names)
                """
            }
        )
        assert lint(root, "R005") == []

    def test_set_names_do_not_leak_across_scopes(self, make_repo):
        # A set-typed ``names`` in one helper must not taint an
        # unrelated list-typed ``names`` in another (regression: the
        # first implementation used one flat namespace per file).
        root = make_repo(
            {
                "src/repro/scopes.py": """
                def as_set(rows):
                    names = {row.name for row in rows}
                    return sorted(names)

                def as_list(rows):
                    names = [row.name for row in rows]
                    for name in names:
                        print(name)
                """
            }
        )
        assert lint(root, "R005") == []

    def test_file_suppression_waives_whole_file(self, make_repo):
        root = make_repo(
            {
                "src/repro/waived.py": """
                # lint-ok-file: R005
                def emit(names):
                    for name in set(names):
                        print(name)
                """
            }
        )
        assert lint(root, "R005") == []


# -- R006: deadline hygiene --------------------------------------------


class TestDeadlineHygiene:
    def test_flags_unbounded_awaits_on_blocking_primitives(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/bad.py": """
                import asyncio

                async def worker(queue, lock, reader):
                    item = await queue.get()
                    await lock.acquire()
                    data = await reader.readexactly(4)
                    return item, data
                """
            }
        )
        findings = lint(root, "R006")
        assert len(findings) == 3
        assert all(f.rule == "R006" for f in findings)
        messages = " ".join(f.message for f in findings)
        assert "get()" in messages
        assert "acquire()" in messages
        assert "readexactly()" in messages
        assert "wait_for" in messages  # the fix is named in the message

    def test_wait_for_wrapped_awaits_pass(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/good.py": """
                import asyncio

                async def worker(queue):
                    return await asyncio.wait_for(queue.get(), timeout=5.0)
                """
            }
        )
        assert lint(root, "R006") == []

    def test_timeout_keyword_passes(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/good.py": """
                async def worker(pool):
                    conn = await pool.acquire(timeout=2.0)
                    return conn
                """
            }
        )
        assert lint(root, "R006") == []

    def test_none_timeout_is_not_a_deadline(self, make_repo):
        # ``timeout=None`` means "wait forever": exactly the hazard.
        root = make_repo(
            {
                "src/repro/service/bad.py": """
                async def worker(pool):
                    return await pool.acquire(timeout=None)
                """
            }
        )
        findings = lint(root, "R006")
        assert len(findings) == 1

    def test_async_with_timeout_scope_guards_awaits(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/good.py": """
                import asyncio

                async def worker(queue):
                    async with asyncio.timeout(5.0):
                        first = await queue.get()
                        second = await queue.get()
                    return first, second
                """
            }
        )
        assert lint(root, "R006") == []

    def test_abort_timer_scope_guards_reads_inside_it_only(self, make_repo):
        # The HTTP server bounds each socket wait with a loop timer that
        # aborts the transport; a read outside its scope is still bare.
        root = make_repo(
            {
                "src/repro/service/server.py": """
                async def handle(reader, writer):
                    async with _abort_after(writer.transport, 30.0):
                        head = await reader.readuntil(b"\\r\\n\\r\\n")
                        await writer.drain()
                    body = await reader.readexactly(4)
                    return head, body
                """
            }
        )
        findings = lint(root, "R006")
        assert len(findings) == 1
        assert "readexactly()" in findings[0].message

    def test_waiver_comment_passes_with_justification(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/waived.py": """
                async def park(stop_event):
                    # Lifecycle park, woken by stop(); not a request.
                    await stop_event.wait()  # lint-ok: R006
                """
            }
        )
        assert lint(root, "R006") == []

    def test_out_of_scope_files_are_ignored(self, make_repo):
        # The rule polices the request path (src/repro/service), not
        # the whole tree: sim code may await freely.
        root = make_repo(
            {
                "src/repro/sim/elsewhere.py": """
                async def worker(queue):
                    return await queue.get()
                """
            }
        )
        assert lint(root, "R006") == []

    def test_scope_is_configurable(self, make_repo):
        root = make_repo(
            {
                "src/repro/other/worker.py": """
                async def worker(queue):
                    return await queue.get()
                """
            },
            pyproject_extra=(
                FILE_RULES_ONLY + 'deadline_scope = ["src/repro/other"]\n'
            ),
        )
        findings = lint(root, "R006")
        assert len(findings) == 1

    def test_non_primitive_awaits_pass(self, make_repo):
        # Awaiting ordinary coroutines is fine; only the known
        # blocking primitives need a bound.
        root = make_repo(
            {
                "src/repro/service/good.py": """
                async def worker(service, job):
                    result = await service.submit(job)
                    await service.stop()
                    return result
                """
            }
        )
        assert lint(root, "R006") == []
