"""Positive and negative fixtures for the deep rules R007 and R008.

R007 fixtures live under ``src/repro/service`` (the rule's scope) and
cover all four hazard shapes: cross-await races, blocking calls,
fire-and-forget tasks, and cancellation-opaque excepts.  R008 fixtures
seed a tiny C source plus a ctypes binding module and then break the
contract one way at a time — wrong width, wrong arity, unbound symbol,
phantom symbol — proving each mismatch class is caught.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.config import load_config
from repro.analysis.framework import run_analysis
from repro.analysis.rules import default_rules, known_rule_ids


def lint(root: Path, *rule_ids: str):
    config = load_config(root)
    return run_analysis(root, config, default_rules(), list(rule_ids) or None)


class TestRuleRegistry:
    def test_deep_rules_registered(self):
        assert "R007" in known_rule_ids()
        assert "R008" in known_rule_ids()


# -- R007 (a): state mutated on both sides of an await ----------------


class TestAsyncRaces:
    def test_cross_await_self_mutation_flagged(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/racy.py": """
                import asyncio

                class Tracker:
                    async def bump(self):
                        self.pending = self.pending + 1
                        await asyncio.sleep(0)
                        self.pending = self.pending - 1
                """
            }
        )
        findings = lint(root, "R007")
        assert len(findings) == 1
        assert "self.pending" in findings[0].message
        assert "both sides of an await" in findings[0].message

    def test_module_global_mutation_flagged(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/racy.py": """
                import asyncio

                TOTAL = 0

                async def account(n):
                    global TOTAL
                    TOTAL += n
                    await asyncio.sleep(0)
                    TOTAL -= n
                """
            }
        )
        findings = lint(root, "R007")
        assert len(findings) == 1
        assert "global TOTAL" in findings[0].message

    def test_lock_guarded_mutation_passes(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/guarded.py": """
                import asyncio

                class Tracker:
                    async def bump(self):
                        async with self._lock:
                            self.pending += 1
                            await asyncio.sleep(0)
                            self.pending -= 1
                """
            }
        )
        assert lint(root, "R007") == []

    def test_local_mutation_passes(self, make_repo):
        # Locals are coroutine-private: no interleaving can see them.
        root = make_repo(
            {
                "src/repro/service/local.py": """
                import asyncio

                async def tally(jobs):
                    count = 0
                    for job in jobs:
                        count += 1
                        await asyncio.sleep(0)
                        count += 1
                    return count
                """
            }
        )
        assert lint(root, "R007") == []

    def test_single_sided_mutation_passes(self, make_repo):
        # Read-modify-write entirely before the await is one atomic
        # step on the event loop.
        root = make_repo(
            {
                "src/repro/service/oneside.py": """
                import asyncio

                class Tracker:
                    async def bump(self):
                        self.pending += 1
                        await asyncio.sleep(0)
                """
            }
        )
        assert lint(root, "R007") == []

    def test_waiver_suppresses_race(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/waived.py": """
                import asyncio

                class Stats:
                    async def sample(self):
                        self.ticks += 1
                        await asyncio.sleep(0)
                        self.ticks += 1  # lint-ok: R007
                """
            }
        )
        assert lint(root, "R007") == []


# -- R007 (b): blocking calls in coroutines ---------------------------


class TestBlockingCalls:
    def test_time_sleep_and_subprocess_flagged(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/blocky.py": """
                import subprocess
                import time

                async def refresh():
                    time.sleep(1.0)
                    subprocess.run(["true"], check=True)
                """
            }
        )
        findings = lint(root, "R007")
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 2
        assert "time.sleep" in messages
        assert "subprocess.run" in messages
        assert "run_in_executor" in messages

    def test_open_read_flagged(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/filey.py": """
                async def load(path):
                    with open(path) as handle:
                        return handle.read()
                """
            }
        )
        findings = lint(root, "R007")
        assert len(findings) == 1
        assert "open(...)" in findings[0].message

    def test_executor_thunk_passes(self, make_repo):
        # Passing the callable (not calling it) hands the blocking work
        # to a thread; the lambda body is a nested scope the coroutine
        # checks must not descend into.
        root = make_repo(
            {
                "src/repro/service/offload.py": """
                import asyncio
                import subprocess

                async def refresh():
                    loop = asyncio.get_running_loop()
                    return await loop.run_in_executor(
                        None, lambda: subprocess.run(["true"])
                    )
                """
            }
        )
        assert lint(root, "R007") == []

    def test_sync_function_not_checked(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/sync.py": """
                import time

                def pause():
                    time.sleep(0.1)
                """
            }
        )
        assert lint(root, "R007") == []


# -- R007 (c): fire-and-forget tasks ----------------------------------


class TestTaskLeaks:
    def test_bare_create_task_flagged(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/leaky.py": """
                import asyncio

                async def kick(coro):
                    asyncio.create_task(coro)
                """
            }
        )
        findings = lint(root, "R007")
        assert len(findings) == 1
        assert "fire-and-forget" in findings[0].message
        assert "create_task" in findings[0].message

    def test_stored_task_passes(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/kept.py": """
                import asyncio

                class Runner:
                    async def kick(self, coro):
                        self._task = asyncio.create_task(coro)
                        return await self._task
                """
            }
        )
        assert lint(root, "R007") == []


# -- R007 (d): cancellation-opaque excepts ----------------------------


class TestCancellation:
    def test_swallowed_cancelled_error_flagged(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/eaten.py": """
                import asyncio

                async def drain(queue):
                    try:
                        await queue.join()
                    except asyncio.CancelledError:
                        pass
                """
            }
        )
        findings = lint(root, "R007")
        assert len(findings) == 1
        assert "CancelledError" in findings[0].message
        assert "without re-raising" in findings[0].message

    def test_bare_except_flagged(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/bare.py": """
                async def fetch(reader):
                    try:
                        return await reader.read()
                    except:
                        return None
                """
            }
        )
        findings = lint(root, "R007")
        assert len(findings) == 1
        assert "swallows" in findings[0].message

    def test_broad_exception_without_cancel_arm_flagged(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/broad.py": """
                async def fetch(reader):
                    try:
                        return await reader.read()
                    except Exception:
                        return None
                """
            }
        )
        findings = lint(root, "R007")
        assert len(findings) == 1
        assert "except asyncio.CancelledError: raise" in findings[0].message

    def test_reraising_handlers_pass(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/good.py": """
                import asyncio

                async def fetch(reader):
                    try:
                        return await reader.read()
                    except asyncio.CancelledError:
                        raise
                    except Exception:
                        return None
                """
            }
        )
        assert lint(root, "R007") == []

    def test_try_without_await_not_checked(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/noawait.py": """
                async def parse(blob):
                    try:
                        return int(blob)
                    except Exception:
                        return None
                """
            }
        )
        assert lint(root, "R007") == []

    def test_waived_shutdown_swallow_passes(self, make_repo):
        root = make_repo(
            {
                "src/repro/service/shutdown.py": """
                import asyncio

                class Runner:
                    async def stop(self):
                        self._task.cancel()
                        try:
                            await self._task
                        except asyncio.CancelledError:  # lint-ok: R007
                            pass
                """
            }
        )
        assert lint(root, "R007") == []


# -- R008: C <-> ctypes contract --------------------------------------

#: A tiny exported kernel plus a static helper that must be ignored.
GOOD_C = """
#include <stdint.h>

typedef int64_t i64;
typedef uint8_t u8;

static i64 helper(i64 x) { return x + 1; }

i64 stream_cost(const u8 *data, i64 length, i64 *out) {
    (void)data; (void)out;
    return helper(length);
}
"""

GOOD_BINDING = """
import ctypes

_U8P = ctypes.POINTER(ctypes.c_uint8)
_I64P = ctypes.POINTER(ctypes.c_int64)


def _prototypes(lib):
    lib.stream_cost.restype = ctypes.c_int64
    lib.stream_cost.argtypes = [_U8P, ctypes.c_int64, _I64P]
"""

FFI_CONFIG = """
[tool.repro.analysis]
kernel_dispatchers = []
check_transfer_models = false
stage_protocol = ""
ffi_sources = ["src/repro/kernels/fix_native.c"]
ffi_bindings = ["src/repro/kernels/fix_binding.py"]
"""


def make_ffi_repo(make_repo, c_source=GOOD_C, binding=GOOD_BINDING):
    return make_repo(
        {
            "src/repro/kernels/fix_native.c": c_source,
            "src/repro/kernels/fix_binding.py": binding,
        },
        pyproject_extra=FFI_CONFIG,
    )


class TestFfiContract:
    def test_matching_contract_is_clean(self, make_repo):
        root = make_ffi_repo(make_repo)
        assert lint(root, "R008") == []

    def test_wrong_width_flagged(self, make_repo):
        binding = GOOD_BINDING.replace(
            "lib.stream_cost.argtypes = [_U8P, ctypes.c_int64, _I64P]",
            "lib.stream_cost.argtypes = [_U8P, ctypes.c_int32, _I64P]",
        )
        root = make_ffi_repo(make_repo, binding=binding)
        findings = lint(root, "R008")
        assert len(findings) == 1
        assert "arg 1" in findings[0].message
        assert "int32" in findings[0].message
        assert "int64" in findings[0].message
        assert "width/signedness mismatch" in findings[0].message
        assert findings[0].path == "src/repro/kernels/fix_binding.py"

    def test_pointerness_mismatch_flagged(self, make_repo):
        binding = GOOD_BINDING.replace(
            "lib.stream_cost.argtypes = [_U8P, ctypes.c_int64, _I64P]",
            "lib.stream_cost.argtypes = "
            "[_U8P, ctypes.c_int64, ctypes.c_int64]",
        )
        root = make_ffi_repo(make_repo, binding=binding)
        findings = lint(root, "R008")
        assert len(findings) == 1
        assert "pointer-ness mismatch" in findings[0].message

    def test_wrong_arity_flagged(self, make_repo):
        binding = GOOD_BINDING.replace(
            "lib.stream_cost.argtypes = [_U8P, ctypes.c_int64, _I64P]",
            "lib.stream_cost.argtypes = [_U8P, ctypes.c_int64]",
        )
        root = make_ffi_repo(make_repo, binding=binding)
        findings = lint(root, "R008")
        assert len(findings) == 1
        assert "2 entries" in findings[0].message
        assert "3 parameters" in findings[0].message

    def test_wrong_restype_flagged(self, make_repo):
        binding = GOOD_BINDING.replace(
            "lib.stream_cost.restype = ctypes.c_int64",
            "lib.stream_cost.restype = ctypes.c_uint64",
        )
        root = make_ffi_repo(make_repo, binding=binding)
        findings = lint(root, "R008")
        assert len(findings) == 1
        assert "restype" in findings[0].message
        assert "uint64" in findings[0].message

    def test_unbound_symbol_flagged_at_c_prototype(self, make_repo):
        c_source = GOOD_C + """
i64 orphan_kernel(i64 n) { return n; }
"""
        root = make_ffi_repo(make_repo, c_source=c_source)
        findings = lint(root, "R008")
        assert len(findings) == 1
        assert "orphan_kernel" in findings[0].message
        assert "no argtypes/restype binding" in findings[0].message
        # Anchored at the C definition, not the binding module.
        assert findings[0].path == "src/repro/kernels/fix_native.c"

    def test_phantom_binding_flagged(self, make_repo):
        binding = GOOD_BINDING + """
    lib.renamed_kernel.restype = ctypes.c_int64
    lib.renamed_kernel.argtypes = [_I64P]
"""
        root = make_ffi_repo(make_repo, binding=binding)
        findings = lint(root, "R008")
        assert len(findings) == 1
        assert "renamed_kernel" in findings[0].message
        assert "not an exported symbol" in findings[0].message

    def test_missing_restype_flagged(self, make_repo):
        binding = GOOD_BINDING.replace(
            "    lib.stream_cost.restype = ctypes.c_int64\n", ""
        )
        root = make_ffi_repo(make_repo, binding=binding)
        findings = lint(root, "R008")
        assert len(findings) == 1
        assert "never assigns restype" in findings[0].message

    def test_static_functions_are_exempt(self, make_repo):
        # GOOD_C's `helper` is static and deliberately unbound; the
        # clean-contract test already proves it is not reported.
        root = make_ffi_repo(make_repo)
        messages = [f.message for f in lint(root, "R008")]
        assert not any("helper" in m for m in messages)

    def test_list_arithmetic_argtypes_evaluate(self, make_repo):
        c_source = """
#include <stdint.h>

typedef int64_t i64;

i64 wide_kernel(i64 *a, i64 *b, i64 *c, i64 *d, i64 n) {
    (void)a; (void)b; (void)c; (void)d;
    return n;
}
"""
        binding = """
import ctypes

_I64P = ctypes.POINTER(ctypes.c_int64)


def _prototypes(lib):
    lib.wide_kernel.restype = ctypes.c_int64
    lib.wide_kernel.argtypes = [_I64P] * 2 + [_I64P, _I64P] + [ctypes.c_int64]
"""
        root = make_ffi_repo(make_repo, c_source=c_source, binding=binding)
        assert lint(root, "R008") == []

    def test_missing_source_reported(self, make_repo):
        root = make_repo(
            {"src/repro/kernels/fix_binding.py": GOOD_BINDING},
            pyproject_extra=FFI_CONFIG,
        )
        findings = lint(root, "R008")
        messages = " ".join(f.message for f in findings)
        assert "fix_native.c' not found" in messages
