"""R007: async-race and cancellation-safety analysis for coroutines.

The service is a single-process asyncio program, which buys it freedom
from data races *between* awaits and exposes it to exactly four bug
shapes at the awaits themselves — the shapes no test tier exercises
deterministically because they need a precise interleaving or a
cancellation landing on one specific line:

(a) **cross-``await`` state races** — ``self.x``/module-global state
    mutated on *both* sides of an ``await`` in the same coroutine.
    Every ``await`` is a scheduling point: another coroutine of the
    same object can interleave and observe (or clobber) the
    half-updated state.  Mutations inside an ``async with <lock>``
    scope are exempt — the lock serializes the critical section.
(b) **blocking calls in coroutines** — ``time.sleep``,
    ``subprocess.*``, ``http.client`` connections, ``open(...)``:
    each stalls the whole event loop for its duration.  Route them
    through ``loop.run_in_executor(...)`` (references passed to the
    executor are not calls and do not trigger the rule).
(c) **fire-and-forget tasks** — ``asyncio.create_task(...)`` /
    ``ensure_future(...)`` as a bare expression statement.  Nothing
    holds the task: the event loop keeps only a weak reference (it can
    be garbage-collected mid-flight), its exception is silently
    dropped, and shutdown cannot cancel or await it.
(d) **cancellation-opaque ``except`` clauses** around an ``await`` —
    a bare ``except:`` / ``except BaseException`` that does not
    re-raise eats :class:`asyncio.CancelledError` and turns staged
    cancellation into a hung request; an explicit
    ``except asyncio.CancelledError`` without a re-raise does the same
    on purpose and must say so with a waiver; a broad
    ``except Exception`` over an await path should carry an explicit
    ``except asyncio.CancelledError: raise`` arm above it so the
    cancellation route is visible in the source (and stays correct if
    the handler is ever widened).

All four are heuristics over one function's AST (statements are
ordered by a pre-order walk, so exclusive branches can look
sequential); deliberate exceptions — shutdown paths that swallow the
cancellation of a task they just cancelled — carry
``# lint-ok: R007`` waivers with a justification, mirroring the R006
waiver style.  The baseline stays empty.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.framework import Rule, SourceFile

__all__ = ["AsyncSafetyRule"]

#: Call names that spawn a task whose handle must be kept.
_SPAWN_CALLS = ("create_task", "ensure_future")

_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _trailing_name(node: ast.AST) -> str:
    """The last name of a call target (``a.b.get`` -> ``get``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``""`` if not one)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _own_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Pre-order walk of one function's own body.

    Does not descend into nested function/class/lambda scopes — their
    statements run on a different activation (or a different thread,
    for executor thunks) and are analyzed on their own.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _NESTED_SCOPES):
            continue
        yield child
        yield from _own_walk(child)


def _contains_await(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Await) for sub in _own_walk(node)) or isinstance(
        node, ast.Await
    )


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body raises (bare or otherwise)."""
    return any(isinstance(sub, ast.Raise) for sub in _own_walk(handler))


def _exception_names(handler: ast.ExceptHandler) -> tuple[str, ...]:
    """Trailing names of the caught exception classes ('' = bare)."""
    kind = handler.type
    if kind is None:
        return ("",)
    if isinstance(kind, ast.Tuple):
        return tuple(_trailing_name(item) for item in kind.elts)
    return (_trailing_name(kind),)


def _mutation_targets(node: ast.AST, global_names: frozenset[str]) -> list[str]:
    """Shared-state keys a statement writes (``self.attr`` / globals).

    Follows subscripts and attribute chains down to their base, so
    ``self._counts[k] += 1`` mutates ``self._counts``.  Local names are
    coroutine-private and never shared; only ``self.*`` attributes and
    names declared ``global`` count.
    """
    if isinstance(node, ast.Assign):
        targets: list[ast.expr] = list(node.targets)
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    else:
        return []
    keys = []
    for target in targets:
        base = target
        while isinstance(base, (ast.Subscript, ast.Starred)):
            base = base.value
        dotted = _dotted(base)
        if dotted.startswith("self."):
            # The shared unit is the attribute off self, not a nested path.
            keys.append("self." + dotted.split(".")[1])
        elif isinstance(base, ast.Name) and base.id in global_names:
            keys.append(f"global {base.id}")
    return keys


class AsyncSafetyRule(Rule):
    """R007: races across awaits, blocking calls, task leaks,
    swallowed cancellations."""

    id = "R007"
    severity = "warning"
    title = "async-race & cancellation safety"

    def scope(self, config: AnalysisConfig) -> tuple[str, ...]:
        return tuple(config.async_scope)

    def check_file(
        self, file: SourceFile, config: AnalysisConfig
    ) -> Iterable[Finding]:
        tree = file.tree
        assert tree is not None
        blocking = frozenset(config.async_blocking_calls)
        lock_names = tuple(n.lower() for n in config.async_lock_names)
        for node in ast.walk(tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(
                    file, node, blocking, lock_names
                )

    # -- per-coroutine dispatch ---------------------------------------

    def _check_coroutine(
        self,
        file: SourceFile,
        fn: ast.AsyncFunctionDef,
        blocking: frozenset,
        lock_names: tuple[str, ...],
    ) -> Iterable[Finding]:
        global_names = frozenset(
            name
            for stmt in _own_walk(fn)
            if isinstance(stmt, ast.Global)
            for name in stmt.names
        )
        yield from self._check_races(file, fn, global_names, lock_names)
        yield from self._check_blocking(file, fn, blocking)
        yield from self._check_task_leaks(file, fn)
        yield from self._check_cancellation(file, fn)

    # -- (a) mutations on both sides of an await ----------------------

    def _check_races(
        self,
        file: SourceFile,
        fn: ast.AsyncFunctionDef,
        global_names: frozenset[str],
        lock_names: tuple[str, ...],
    ) -> Iterable[Finding]:
        events: list[tuple[str, str, bool, ast.AST]] = []

        def locked(ctx: ast.AsyncWith) -> bool:
            for item in ctx.items:
                expr = item.context_expr
                name = _trailing_name(
                    expr.func if isinstance(expr, ast.Call) else expr
                )
                if any(part in name.lower() for part in lock_names):
                    return True
            return False

        def visit(node: ast.AST, guarded: bool) -> None:
            if isinstance(node, ast.AsyncWith) and locked(node):
                guarded = True
            if isinstance(node, ast.Await):
                events.append(("await", "", guarded, node))
            for key in _mutation_targets(node, global_names):
                events.append(("mutate", key, guarded, node))
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _NESTED_SCOPES):
                    continue
                visit(child, guarded)

        for stmt in fn.body:
            visit(stmt, False)

        # For each shared key: is there an unguarded mutation before an
        # await and another after it?  Report at the later mutation.
        reported: set[str] = set()
        seen_before: dict[str, bool] = {}
        await_since: dict[str, bool] = {}
        for kind, key, guarded, node in events:
            if kind == "await":
                for k in seen_before:
                    await_since[k] = True
                continue
            if guarded or key in reported:
                continue
            if seen_before.get(key) and await_since.get(key):
                reported.add(key)
                yield self.finding(
                    file,
                    node,
                    f"'{key}' is mutated on both sides of an await in "
                    f"'{fn.name}' with no lock; an interleaving "
                    "coroutine can observe or clobber the half-updated "
                    "state — serialize with 'async with <lock>' or add "
                    "a '# lint-ok: R007' waiver explaining why the "
                    "interleaving is benign",
                )
            seen_before[key] = True
            await_since.setdefault(key, False)

    # -- (b) blocking calls in coroutines -----------------------------

    def _check_blocking(
        self, file: SourceFile, fn: ast.AsyncFunctionDef, blocking: frozenset
    ) -> Iterable[Finding]:
        for node in _own_walk(fn):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in blocking:
                yield self.finding(
                    file,
                    node,
                    f"blocking call '{dotted}(...)' inside coroutine "
                    f"'{fn.name}' stalls the whole event loop; route it "
                    "through loop.run_in_executor(...) or waive with "
                    "'# lint-ok: R007'",
                )
            elif isinstance(node.func, ast.Name) and node.func.id == "open":
                yield self.finding(
                    file,
                    node,
                    f"file open(...) inside coroutine '{fn.name}': "
                    "synchronous file I/O blocks the event loop; route "
                    "it through loop.run_in_executor(...) or waive with "
                    "'# lint-ok: R007'",
                )

    # -- (c) fire-and-forget tasks ------------------------------------

    def _check_task_leaks(
        self, file: SourceFile, fn: ast.AsyncFunctionDef
    ) -> Iterable[Finding]:
        for node in _own_walk(fn):
            if not isinstance(node, ast.Expr):
                continue
            value = node.value
            if (
                isinstance(value, ast.Call)
                and _trailing_name(value.func) in _SPAWN_CALLS
            ):
                spawn = _trailing_name(value.func)
                yield self.finding(
                    file,
                    node,
                    f"fire-and-forget '{spawn}(...)' in '{fn.name}': "
                    "the loop keeps only a weak reference, exceptions "
                    "are dropped, and shutdown cannot cancel it — store "
                    "the task (and await or cancel it later), or waive "
                    "with '# lint-ok: R007'",
                )

    # -- (d) cancellation-opaque except clauses -----------------------

    def _check_cancellation(
        self, file: SourceFile, fn: ast.AsyncFunctionDef
    ) -> Iterable[Finding]:
        for node in _own_walk(fn):
            if not isinstance(node, ast.Try):
                continue
            awaited = any(
                _contains_await(stmt) for stmt in (*node.body, *node.orelse)
            )
            if not awaited:
                continue
            cancel_handled = False
            for handler in node.handlers:
                names = _exception_names(handler)
                reraises = _handler_reraises(handler)
                if "CancelledError" in names:
                    if not reraises:
                        yield self.finding(
                            file,
                            handler,
                            f"'{fn.name}' catches asyncio.CancelledError "
                            "around an await without re-raising; a "
                            "swallowed cancellation turns shutdown into "
                            "a hung task — re-raise it, or waive with "
                            "'# lint-ok: R007' naming the shutdown path "
                            "that makes swallowing safe",
                        )
                    cancel_handled = True
                elif "" in names or "BaseException" in names:
                    if not cancel_handled and not reraises:
                        yield self.finding(
                            file,
                            handler,
                            f"bare/BaseException except around an await "
                            f"in '{fn.name}' swallows "
                            "asyncio.CancelledError; re-raise, add an "
                            "'except asyncio.CancelledError: raise' arm "
                            "above it, or waive with '# lint-ok: R007'",
                        )
                    cancel_handled = True
                elif "Exception" in names:
                    if not cancel_handled and not reraises:
                        yield self.finding(
                            file,
                            handler,
                            f"broad 'except Exception' around an await "
                            f"in '{fn.name}' hides the cancellation "
                            "path; add an explicit 'except "
                            "asyncio.CancelledError: raise' arm above "
                            "it so staged cancellation visibly "
                            "propagates, or waive with "
                            "'# lint-ok: R007'",
                        )
