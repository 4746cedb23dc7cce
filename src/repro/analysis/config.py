"""Analysis configuration: built-in defaults + ``[tool.repro.analysis]``.

The defaults below describe *this* repository (scopes, charge sites,
kernel twins), so the analyzer works out of the box on a checkout even
when no TOML parser is available.  A ``[tool.repro.analysis]`` block in
``pyproject.toml`` overrides any field — the committed block mirrors
the defaults to keep the policy reviewable next to the other tool
configuration; test fixtures override freely to point rules at small
synthetic trees.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

try:  # Python 3.11+
    import tomllib as _toml
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback
    try:
        import tomli as _toml  # type: ignore[import-not-found,no-redef]
    except ModuleNotFoundError:
        _toml = None  # type: ignore[assignment]

__all__ = ["AnalysisConfig", "find_repo_root", "load_config"]


@dataclass(frozen=True)
class AnalysisConfig:
    """Every knob of the analysis pass, with this repo's defaults.

    All paths are repo-root-relative POSIX strings; scope entries are
    path *prefixes* (a directory covers everything beneath it).

    Attributes:
        paths: Trees the analyzer walks.
        baseline: Baseline file recording accepted pre-existing debt.
        seed_scope: Where R001 (seed hygiene) applies.
        clock_scope: Where R001 additionally flags *monotonic* clock
            reads (``time.monotonic``/``perf_counter``...).  The
            service package must route timing through its injectable
            :class:`~repro.service.clock.Clock` so tests can drive a
            fake; one real read lives in ``clock.py`` behind a
            ``lint-ok`` waiver.
        explore_seed_scope: Where R001 additionally enforces the
            explorer's *threaded-seed* contract: a function parameter
            named ``seed`` (or ``*_seed``) may not default to ``None``,
            and ``random.Random``/``numpy.random.default_rng`` may not
            be called with a literal ``None`` seed.  Byte-reproducible
            studies require every sampling entry point to take an
            explicit seed; "``None`` means fresh entropy" defaults are
            how nondeterminism sneaks back in.
        cost_scope: Where R002 (cost accounting) applies.
        cost_charge_sites: Files allowed to write TransferCost fields —
            the protocol's whitelisted charge sites.
        float_scope: Where R004 (float equality) applies.
        iteration_scope: Where R005 (unordered iteration) applies.
        kernel_dispatchers: ``path:function`` compute-kernel dispatch
            functions; each must ship ``<name>_native`` and
            ``<name>_numpy`` twins in the same module with the
            dispatcher's exact signature (R003), so the
            ``REPRO_NATIVE=0`` fallback stays drop-in.
        check_transfer_models: Verify every registered scheme name has
            a transfer model (imports the registry; fixture trees turn
            this off).
        registry_file: Where transfer-model coverage findings anchor.
        stage_protocol: ``path:Class`` of the service pipeline's stage
            protocol; every configured stage class must satisfy its
            surface (R003).
        stage_classes: ``path:Class`` pipeline stage implementations
            checked against ``stage_protocol`` — matching method
            signatures (including async-ness) and the protocol's
            class attributes.
        deadline_scope: Where R006 (deadline hygiene) applies — the
            deadline-propagating service package.
        deadline_primitives: Method names whose direct ``await`` must
            carry a timeout/deadline (queue, future, lock, and socket
            blocking primitives).
        deadline_wrappers: Call names that bound an await — awaiting
            one of these, or sitting inside ``async with <wrapper>``,
            satisfies R006.
        async_scope: Where R007 (async-race & cancellation safety)
            applies — the asyncio service package.
        async_blocking_calls: Dotted call names R007 treats as
            event-loop-blocking inside a coroutine (route them through
            ``run_in_executor`` or waive).
        async_lock_names: Lowercase substrings that mark an
            ``async with`` context as a serializing lock; mutations
            inside such a block are exempt from the cross-``await``
            race check.
        ffi_sources: C sources whose exported (non-``static``)
            functions R008 parses as the contract side.
        ffi_bindings: Python modules whose ``argtypes``/``restype``
            assignments R008 cross-checks against the C prototypes.
    """

    paths: tuple[str, ...] = ("src",)
    baseline: str = "lint_baseline.json"
    seed_scope: tuple[str, ...] = ("src/repro",)
    clock_scope: tuple[str, ...] = ("src/repro/service",)
    explore_seed_scope: tuple[str, ...] = ("src/repro/explore",)
    cost_scope: tuple[str, ...] = ("src/repro",)
    cost_charge_sites: tuple[str, ...] = (
        "src/repro/core/link.py",
        "src/repro/core/receiver.py",
        "src/repro/cache/datapath.py",
    )
    float_scope: tuple[str, ...] = (
        "src/repro/sim",
        "src/repro/energy",
        "src/repro/reporting",
    )
    iteration_scope: tuple[str, ...] = ("src/repro",)
    kernel_dispatchers: tuple[str, ...] = (
        "src/repro/kernels/pipeline.py:desc_stream_arrays",
        "src/repro/kernels/pipeline.py:binary_flips",
        "src/repro/kernels/pipeline.py:dzc_flips",
        "src/repro/kernels/pipeline.py:bus_invert_flips",
        "src/repro/kernels/pipeline.py:block_assemble",
        "src/repro/kernels/pipeline.py:trace_assemble",
        "src/repro/kernels/pipeline.py:group_rank",
    )
    check_transfer_models: bool = True
    registry_file: str = "src/repro/encoding/registry.py"
    stage_protocol: str = "src/repro/service/stages.py:PipelineStage"
    stage_classes: tuple[str, ...] = (
        "src/repro/service/stages.py:Admission",
        "src/repro/service/stages.py:Coalescer",
        "src/repro/service/stages.py:Batcher",
        "src/repro/service/stages.py:Executor",
    )
    deadline_scope: tuple[str, ...] = ("src/repro/service",)
    deadline_primitives: tuple[str, ...] = (
        "get", "put", "join", "wait", "acquire", "drain",
        "readexactly", "readuntil", "readline", "read", "recv",
        "accept", "wait_closed", "serve_forever",
    )
    deadline_wrappers: tuple[str, ...] = (
        "wait_for", "timeout", "timeout_at", "_abort_after",
    )
    async_scope: tuple[str, ...] = ("src/repro/service",)
    async_blocking_calls: tuple[str, ...] = (
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.system",
        "os.waitpid",
        "urllib.request.urlopen",
        "socket.create_connection",
        "http.client.HTTPConnection",
        "http.client.HTTPSConnection",
    )
    async_lock_names: tuple[str, ...] = ("lock", "mutex", "sem")
    ffi_sources: tuple[str, ...] = ("src/repro/kernels/pipeline_native.c",)
    ffi_bindings: tuple[str, ...] = ("src/repro/kernels/pipeline.py",)


def find_repo_root(start: Path | None = None) -> Path | None:
    """Locate the checkout root by walking up from ``start`` (or cwd).

    The root is the first ancestor holding a ``pyproject.toml`` next to
    a ``src/repro`` package.  Returns ``None`` when no ancestor
    qualifies — callers turn that into a clear "not inside a repro
    checkout" error instead of a traceback.
    """
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file() and (
            candidate / "src" / "repro"
        ).is_dir():
            return candidate
    return None


def load_config(root: Path) -> AnalysisConfig:
    """The effective configuration for a checkout.

    Reads ``[tool.repro.analysis]`` from ``root/pyproject.toml`` when a
    TOML parser is available; unknown keys raise (a typo in the policy
    block should not silently disable a rule).
    """
    config = AnalysisConfig()
    pyproject = root / "pyproject.toml"
    if _toml is None or not pyproject.is_file():
        return config
    with pyproject.open("rb") as handle:
        payload = _toml.load(handle)
    section = payload.get("tool", {}).get("repro", {}).get("analysis", {})
    if not section:
        return config
    known = {f.name: f.type for f in fields(AnalysisConfig)}
    updates: dict = {}
    for key, value in section.items():
        name = key.replace("-", "_")
        if name not in known:
            raise ValueError(
                f"unknown [tool.repro.analysis] key {key!r}; "
                f"known keys: {', '.join(sorted(known))}"
            )
        if isinstance(value, list):
            value = tuple(value)
        updates[name] = value
    return replace(config, **updates)
