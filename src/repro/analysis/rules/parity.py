"""R003: the engine tiers stay call-compatible, and every scheme has a
registered transfer model.

The multicore substrate runs the native kernel and falls back to the
reference event loop; the pipeline kernels pair each native entry point
with a NumPy twin.  The fallbacks only stay honest while the tiers
remain drop-in replacements.  The checks:

* **Dispatch compatibility** — every configured engine tier class must
  exist, and the dispatch facade (the reference event loop's home)
  must define its methods with the same leading parameter the tiers'
  ``run`` takes, so the fallback can be rewired without call-site
  edits.
* **Transfer-model coverage** — every scheme name the encoder registry
  exposes must have a registered
  :class:`~repro.encoding.registry.TransferModel`, or the staged
  engine raises at dispatch time on exactly one scheme, in exactly the
  configuration no test covered.
* **Kernel-dispatcher parity** — every configured ``path:function``
  compute-kernel dispatcher must ship ``<name>_native`` and
  ``<name>_numpy`` twins in the same module with the dispatcher's
  exact signature.  The batched pipeline kernels select a tier per
  call (ctypes library when loaded, NumPy otherwise); a twin whose
  parameters drift produces answers that differ only under
  ``REPRO_NATIVE=0`` or on boxes without a C toolchain.
* **Stage-protocol conformance** — every configured service pipeline
  stage must satisfy the
  :class:`~repro.service.stages.PipelineStage` protocol: the
  protocol's methods with identical signatures *and* async-ness, and
  its class attributes.  ``typing.Protocol`` is structural and only
  checked where a stage is annotated as one; this keeps a stage that
  drifts (or a new stage that never grew a ``drain``) from wiring into
  the service's stack unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.framework import Rule, SourceFile

__all__ = ["TierParityRule"]


_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def _signature(node: _FunctionNode) -> dict:
    """Comparable shape of a method: names, defaults, kinds, async-ness."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    defaults = [ast.dump(d) for d in args.defaults]
    kwonly = [a.arg for a in args.kwonlyargs]
    kw_defaults = [
        ast.dump(d) if d is not None else None for d in args.kw_defaults
    ]
    return {
        "positional": positional,
        "defaults": defaults,
        "kwonly": kwonly,
        "kw_defaults": kw_defaults,
        "vararg": args.vararg.arg if args.vararg else None,
        "kwarg": args.kwarg.arg if args.kwarg else None,
        "is_async": isinstance(node, ast.AsyncFunctionDef),
    }


def _describe(sig: dict) -> str:
    parts = list(sig["positional"])
    if sig["vararg"]:
        parts.append("*" + sig["vararg"])
    parts.extend(sig["kwonly"])
    if sig["kwarg"]:
        parts.append("**" + sig["kwarg"])
    prefix = "async " if sig.get("is_async") else ""
    return prefix + "(" + ", ".join(parts) + ")"


class _ClassSpec:
    """One ``path:Class`` entry, resolved against the loaded file set."""

    def __init__(self, entry: str) -> None:
        path, _, name = entry.rpartition(":")
        if not path or not name:
            raise ValueError(
                f"tier entry {entry!r} must look like 'path/to/file.py:Class'"
            )
        self.path = path
        self.name = name
        self.entry = entry

    def resolve(
        self, files: Sequence[SourceFile], root: Path
    ) -> tuple[SourceFile | None, ast.ClassDef | None]:
        file = next((f for f in files if f.rel == self.path), None)
        if file is None:
            disk = root / self.path
            if disk.is_file():
                file = SourceFile.load(disk, self.path)
        if file is None or file.tree is None:
            return file, None
        for node in file.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == self.name:
                return file, node
        return file, None


def _methods(cls: ast.ClassDef) -> dict[str, _FunctionNode]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _class_attrs(cls: ast.ClassDef) -> set[str]:
    """Class-level attribute names (plain and annotated assignments)."""
    attrs: set[str] = set()
    for node in cls.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    attrs.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                attrs.add(node.target.id)
    return attrs


class TierParityRule(Rule):
    """R003: engine tiers and the scheme registry stay in lock-step."""

    id = "R003"
    severity = "error"
    title = "engine-tier parity / transfer-model coverage"

    def check_project(
        self, files: Sequence[SourceFile], config: AnalysisConfig, root: Path
    ) -> Iterable[Finding]:
        yield from self._check_dispatch(files, config, root)
        yield from self._check_kernel_dispatchers(files, config, root)
        if config.check_transfer_models:
            yield from self._check_models(config)
        yield from self._check_stage_protocol(files, config, root)

    def _missing(
        self,
        file: SourceFile | None,
        spec: _ClassSpec,
        what: str = "engine tier",
        key: str = "tier_classes",
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=spec.path,
            line=1,
            col=0,
            message=(
                f"configured {what} {spec.entry!r} not found; "
                f"update [tool.repro.analysis] {key} if it moved"
            ),
        )

    # -- dispatch compatibility ----------------------------------------

    def _check_dispatch(
        self, files: Sequence[SourceFile], config: AnalysisConfig, root: Path
    ) -> Iterator[Finding]:
        leading = None
        for entry in config.tier_classes:
            spec = _ClassSpec(entry)
            file, cls = spec.resolve(files, root)
            if cls is None:
                yield self._missing(file, spec)
                continue
            run = _methods(cls).get("run")
            if leading is None and run is not None:
                positional = _signature(run)["positional"]
                if positional:
                    leading = positional[0]
        if not config.dispatch_class:
            return
        spec = _ClassSpec(config.dispatch_class)
        file, cls = spec.resolve(files, root)
        if cls is None:
            yield self._missing(file, spec)
            return
        assert file is not None
        methods = _methods(cls)
        for method in config.dispatch_methods:
            node = methods.get(method)
            if node is None:
                yield self.finding(
                    file, cls,
                    f"dispatch facade {spec.name} is missing method "
                    f"'{method}'; the reference tier must stay "
                    "reachable through it",
                )
                continue
            sig = _signature(node)
            if leading and (
                not sig["positional"] or sig["positional"][0] != leading
            ):
                yield self.finding(
                    file, node,
                    f"{spec.name}.{method}{_describe(sig)} does not "
                    f"take '{leading}' as its first parameter like the "
                    "engine tiers' run(); dispatch and tiers must stay "
                    "call-compatible",
                )

    # -- kernel-dispatcher parity --------------------------------------

    def _check_kernel_dispatchers(
        self, files: Sequence[SourceFile], config: AnalysisConfig, root: Path
    ) -> Iterator[Finding]:
        for entry in config.kernel_dispatchers:
            spec = _ClassSpec(entry)  # same path:name syntax
            file = next((f for f in files if f.rel == spec.path), None)
            if file is None:
                disk = root / spec.path
                if disk.is_file():
                    file = SourceFile.load(disk, spec.path)
            if file is None or file.tree is None:
                yield self._missing(
                    file, spec,
                    what="kernel dispatcher", key="kernel_dispatchers",
                )
                continue
            functions = {
                node.name: node
                for node in file.tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            dispatcher = functions.get(spec.name)
            if dispatcher is None:
                yield self._missing(
                    file, spec,
                    what="kernel dispatcher", key="kernel_dispatchers",
                )
                continue
            ref_sig = _signature(dispatcher)
            for suffix in ("_native", "_numpy"):
                twin_name = spec.name + suffix
                twin = functions.get(twin_name)
                if twin is None:
                    yield self.finding(
                        file, dispatcher,
                        f"kernel dispatcher '{spec.name}' has no "
                        f"'{twin_name}' twin in {spec.path}; the "
                        "native/NumPy fallback chain requires both "
                        "tiers",
                    )
                    continue
                twin_sig = _signature(twin)
                if twin_sig != ref_sig:
                    yield self.finding(
                        file, twin,
                        f"signature of {twin_name}"
                        f"{_describe(twin_sig)} differs from dispatcher "
                        f"{spec.name}{_describe(ref_sig)}; kernel tiers "
                        "must expose identical parameters so the "
                        "fallback chain stays drop-in",
                    )

    # -- stage-protocol conformance ------------------------------------

    def _check_stage_protocol(
        self, files: Sequence[SourceFile], config: AnalysisConfig, root: Path
    ) -> Iterator[Finding]:
        if not config.stage_protocol or not config.stage_classes:
            return
        proto_spec = _ClassSpec(config.stage_protocol)
        proto_file, proto_cls = proto_spec.resolve(files, root)
        if proto_cls is None:
            yield self._missing(
                proto_file, proto_spec,
                what="stage protocol", key="stage_protocol",
            )
            return
        proto_methods = _methods(proto_cls)
        proto_attrs = _class_attrs(proto_cls)
        for entry in config.stage_classes:
            spec = _ClassSpec(entry)
            file, cls = spec.resolve(files, root)
            if cls is None:
                yield self._missing(
                    file, spec,
                    what="pipeline stage", key="stage_classes",
                )
                continue
            assert file is not None
            methods = _methods(cls)
            attrs = _class_attrs(cls)
            for attr in sorted(proto_attrs):
                if attr not in attrs and attr not in methods:
                    yield self.finding(
                        file, cls,
                        f"stage {spec.name} is missing the "
                        f"{proto_spec.name} attribute '{attr}'; every "
                        "pipeline stage must satisfy the stage protocol",
                    )
            for method_name, proto_node in sorted(proto_methods.items()):
                node = methods.get(method_name)
                if node is None:
                    yield self.finding(
                        file, cls,
                        f"stage {spec.name} is missing the "
                        f"{proto_spec.name} method '{method_name}'; "
                        "every pipeline stage must satisfy the stage "
                        "protocol",
                    )
                    continue
                proto_sig = _signature(proto_node)
                sig = _signature(node)
                if proto_sig != sig:
                    yield self.finding(
                        file, node,
                        f"signature of {spec.name}.{method_name}"
                        f"{_describe(sig)} differs from the protocol's "
                        f"{proto_spec.name}.{method_name}"
                        f"{_describe(proto_sig)}; stages must expose "
                        "the protocol surface exactly (including "
                        "async-ness)",
                    )

    # -- transfer-model coverage ---------------------------------------

    def _check_models(self, config: AnalysisConfig) -> Iterator[Finding]:
        try:
            from repro.encoding.registry import (
                scheme_names,
                transfer_model_names,
            )

            schemes = set(scheme_names())
            models = set(transfer_model_names())
        except Exception as exc:  # registry import must never crash lint
            yield Finding(
                rule=self.id,
                severity=self.severity,
                path=config.registry_file,
                line=1,
                col=0,
                message=(
                    "could not verify transfer-model coverage: "
                    f"importing the registry failed ({exc!r})"
                ),
            )
            return
        for scheme in sorted(schemes - models):
            yield Finding(
                rule=self.id,
                severity=self.severity,
                path=config.registry_file,
                line=1,
                col=0,
                message=(
                    f"scheme {scheme!r} has no registered TransferModel; "
                    "the staged engine will raise at dispatch time — "
                    "register a factory in repro.sim.transfer"
                ),
            )
