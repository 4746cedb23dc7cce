"""R008: C <-> ctypes FFI contract checking for the native kernels.

The native tier is driven through :mod:`ctypes`, which trusts the
``argtypes``/``restype`` assignments absolutely: a binding that says
``c_int32`` where the C prototype takes ``int64_t`` reads garbage on
every call, and the byte-identity tests only notice when the wrong
width happens to corrupt a value they check.  This rule closes that
gap statically:

* a small C-declaration parser reads every **exported** (non-static)
  function definition out of the configured ``ffi_sources``
  (``pipeline_native.c``): return type plus
  each parameter's base type and pointer-ness, with ``typedef``
  aliases (``i64``, ``u64``, ``u8``, ``f64``) resolved;
* a symbolic evaluator walks the configured ``ffi_bindings`` modules'
  ASTs and reconstructs every ``lib.<symbol>.argtypes = [...]`` /
  ``.restype = ...`` assignment — through name aliases
  (``_I64P = ctypes.POINTER(ctypes.c_int64)``, ``c_i64 =
  ctypes.c_int64``) and list arithmetic (``[_I64P] * 10 + [...]``);
* the two sides are cross-checked project-wide: every exported C
  symbol must be bound somewhere, every binding must name a real
  symbol and carry both ``argtypes`` and ``restype``, arity must
  match, and each position must agree on pointer-ness, integer
  width, and signedness (``const`` is calling-convention-irrelevant
  and ignored).

Findings anchor at the Python assignment when the binding is wrong and
at the C prototype when a symbol is unbound, so the fix site is always
one click away.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.framework import Rule, SourceFile

__all__ = ["FfiContractRule"]

#: Canonical scalar types: (kind, bits).  Pointers wrap one of these.
_C_BASE_TYPES = {
    "int64_t": ("int", 64),
    "uint64_t": ("uint", 64),
    "int32_t": ("int", 32),
    "uint32_t": ("uint", 32),
    "int16_t": ("int", 16),
    "uint16_t": ("uint", 16),
    "int8_t": ("int", 8),
    "uint8_t": ("uint", 8),
    "double": ("float", 64),
    "float": ("float", 32),
    "int": ("int", 32),
    "unsigned int": ("uint", 32),
    "char": ("int", 8),
    "unsigned char": ("uint", 8),
    "_Bool": ("uint", 8),
}

_CTYPES_ATOMS = {
    "c_int64": ("int", 64),
    "c_longlong": ("int", 64),
    "c_uint64": ("uint", 64),
    "c_ulonglong": ("uint", 64),
    "c_int32": ("int", 32),
    "c_uint32": ("uint", 32),
    "c_int16": ("int", 16),
    "c_uint16": ("uint", 16),
    "c_int8": ("int", 8),
    "c_uint8": ("uint", 8),
    "c_byte": ("int", 8),
    "c_ubyte": ("uint", 8),
    "c_double": ("float", 64),
    "c_float": ("float", 32),
    "c_bool": ("uint", 8),
}


@dataclass(frozen=True)
class CType:
    """One parameter or return type: a scalar or a pointer to one."""

    kind: str  # "int" / "uint" / "float" / "void"
    bits: int
    pointer: bool = False

    def describe(self) -> str:
        base = f"{self.kind}{self.bits}" if self.kind != "void" else "void"
        return base + ("*" if self.pointer else "")


@dataclass
class CFunction:
    """One exported C function definition."""

    name: str
    path: str
    line: int
    returns: CType
    params: list[tuple[str, CType]]  # (param name, type)


@dataclass
class _Binding:
    """ctypes prototype state collected for one symbol."""

    path: str
    argtypes: list | None = None  # list[CType] or None
    argtypes_node: ast.AST | None = None
    restype: object | None = None  # CType / "unknown" / None
    restype_node: ast.AST | None = None


# -- the C side ------------------------------------------------------

_TYPEDEF = re.compile(r"\btypedef\s+([A-Za-z_][\w\s]*?)\s+(\w+)\s*;")
#: A definition/declaration at column 0: return-type tokens, name, "(".
_FUNC_HEAD = re.compile(r"^([A-Za-z_][\w \t]*?)[ \t]+\**([A-Za-z_]\w*)\s*\(", re.M)


def _strip_comments(text: str) -> str:
    """Blank out comments and preprocessor lines, preserving offsets."""

    def blank(match: re.Match) -> str:
        return "".join(c if c == "\n" else " " for c in match.group(0))

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.S)
    text = re.sub(r"//[^\n]*", blank, text)
    text = re.sub(r"^[ \t]*#[^\n]*", blank, text, flags=re.M)
    return text


def _resolve_c_type(tokens: str, typedefs: dict[str, str]) -> CType | None:
    """``const i64 *`` -> CType; ``None`` when unknown."""
    pointer = "*" in tokens
    words = [
        w
        for w in tokens.replace("*", " ").split()
        if w not in ("const", "restrict", "volatile", "static", "inline")
    ]
    name = " ".join(words)
    seen: set[str] = set()
    while name in typedefs and name not in seen:
        seen.add(name)
        name = typedefs[name]
    if name == "void":
        return CType("void", 0, pointer)
    base = _C_BASE_TYPES.get(name)
    if base is None:
        return None
    return CType(base[0], base[1], pointer)


def parse_c_exports(path: Path, rel: str) -> tuple[list[CFunction], list[str]]:
    """Exported function definitions of one C source.

    Returns (functions, problems) — a problem is an exported-looking
    definition whose types the parser cannot interpret; the rule
    reports those rather than silently skipping them.
    """
    raw = path.read_text(encoding="utf-8")
    text = _strip_comments(raw)
    typedefs: dict[str, str] = {}
    for match in _TYPEDEF.finditer(text):
        typedefs[match.group(2)] = " ".join(match.group(1).split())
    functions: list[CFunction] = []
    problems: list[str] = []
    for match in _FUNC_HEAD.finditer(text):
        ret_tokens, name = match.group(1), match.group(2)
        if "static" in ret_tokens.split():
            continue
        # Balance the parameter parentheses (no nesting in practice,
        # but scan defensively) and require a definition body or a
        # trailing prototype semicolon.
        depth, pos = 1, match.end()
        while pos < len(text) and depth:
            if text[pos] == "(":
                depth += 1
            elif text[pos] == ")":
                depth -= 1
            pos += 1
        tail = text[pos:].lstrip()
        if not tail.startswith("{") and not tail.startswith(";"):
            continue
        line = text.count("\n", 0, match.start()) + 1
        head = text[match.start() : match.end() - 1]  # up to the "("
        ret_src = head[: head.rfind(name)]  # type tokens + pointer stars
        returns = _resolve_c_type(ret_src, typedefs)
        if returns is None:
            problems.append(
                f"exported C function '{name}' has an uninterpretable "
                f"return type '{ret_tokens.strip()}'"
            )
            continue
        params_src = text[match.end() : pos - 1]
        params: list[tuple[str, CType]] = []
        bad = False
        if params_src.strip() and params_src.strip() != "void":
            for index, chunk in enumerate(params_src.split(",")):
                chunk = chunk.strip()
                words = chunk.replace("*", " * ").split()
                # Last bare word is the parameter name when present.
                pname = ""
                if len(words) > 1 and words[-1] not in ("*",) and not (
                    " ".join(words) in _C_BASE_TYPES
                ):
                    pname = words[-1]
                    type_tokens = " ".join(words[:-1])
                else:
                    type_tokens = " ".join(words)
                ctype = _resolve_c_type(type_tokens, typedefs)
                if ctype is None:
                    problems.append(
                        f"exported C function '{name}' parameter "
                        f"{index} ('{chunk}') has an uninterpretable type"
                    )
                    bad = True
                    break
                params.append((pname or f"arg{index}", ctype))
        if not bad:
            functions.append(CFunction(name, rel, line, returns, params))
    return functions, problems


# -- the Python side -------------------------------------------------


def _collect_aliases(tree: ast.Module) -> dict[str, ast.expr]:
    """Every simple ``NAME = <expr>`` in the module, any scope.

    Reassigned names become ambiguous and are dropped — the evaluator
    then reports the binding as uncheckable instead of guessing.
    """
    aliases: dict[str, ast.expr] = {}
    ambiguous: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id in aliases:
            ambiguous.add(target.id)
        aliases[target.id] = node.value
    for name in sorted(ambiguous):
        aliases.pop(name, None)
    return aliases


def _eval_ctype(node: ast.expr, aliases: dict, depth: int = 0):
    """Evaluate an expression to a CType, a list of CTypes, an int,
    or ``None`` (uninterpretable)."""
    if depth > 20:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, (ast.List, ast.Tuple)):
        out: list[CType] = []
        for item in node.elts:
            value = _eval_ctype(item, aliases, depth + 1)
            if isinstance(value, CType):
                out.append(value)
            elif isinstance(value, list):
                out.extend(value)
            else:
                return None
        return out
    if isinstance(node, ast.BinOp):
        left = _eval_ctype(node.left, aliases, depth + 1)
        right = _eval_ctype(node.right, aliases, depth + 1)
        if isinstance(node.op, ast.Add):
            if isinstance(left, list) and isinstance(right, list):
                return left + right
        elif isinstance(node.op, ast.Mult):
            if isinstance(left, list) and isinstance(right, int):
                return left * right
            if isinstance(left, int) and isinstance(right, list):
                return right * left
        return None
    if isinstance(node, ast.Name):
        if node.id in _CTYPES_ATOMS:
            kind, bits = _CTYPES_ATOMS[node.id]
            return CType(kind, bits)
        if node.id in aliases:
            return _eval_ctype(aliases[node.id], aliases, depth + 1)
        return None
    if isinstance(node, ast.Attribute):
        if node.attr in _CTYPES_ATOMS:
            kind, bits = _CTYPES_ATOMS[node.attr]
            return CType(kind, bits)
        return None
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if name == "POINTER" and len(node.args) == 1:
            inner = _eval_ctype(node.args[0], aliases, depth + 1)
            if isinstance(inner, CType) and not inner.pointer:
                return CType(inner.kind, inner.bits, pointer=True)
        return None
    return None


def _collect_bindings(
    file: SourceFile,
) -> tuple[dict[str, _Binding], list[tuple[ast.AST, str]]]:
    """Every ``<obj>.<symbol>.argtypes/.restype`` assignment in a file.

    Returns (bindings by symbol, uncheckable assignments) — an
    assignment whose value the evaluator cannot reduce is reported,
    never silently trusted.
    """
    tree = file.tree
    assert tree is not None
    aliases = _collect_aliases(tree)
    bindings: dict[str, _Binding] = {}
    uncheckable: list[tuple[ast.AST, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Attribute):
            continue
        if target.attr not in ("argtypes", "restype"):
            continue
        owner = target.value
        if not isinstance(owner, ast.Attribute):
            continue  # bare ``fn.argtypes`` cannot name its symbol
        symbol = owner.attr
        binding = bindings.setdefault(symbol, _Binding(path=file.rel))
        value = _eval_ctype(node.value, aliases)
        if target.attr == "argtypes":
            binding.argtypes_node = node
            if isinstance(value, list):
                binding.argtypes = value
            else:
                uncheckable.append(
                    (node, f"argtypes of '{symbol}' could not be evaluated")
                )
        else:
            binding.restype_node = node
            if isinstance(value, CType):
                binding.restype = value
            else:
                uncheckable.append(
                    (node, f"restype of '{symbol}' could not be evaluated")
                )
    return bindings, uncheckable


class FfiContractRule(Rule):
    """R008: C prototypes and ctypes bindings must agree exactly."""

    id = "R008"
    severity = "error"
    title = "C <-> ctypes FFI contract"

    def check_project(
        self, files: Sequence[SourceFile], config: AnalysisConfig, root: Path
    ) -> Iterable[Finding]:
        sources = tuple(config.ffi_sources)
        binding_rels = tuple(config.ffi_bindings)
        if not sources or not binding_rels:
            return
        exports: dict[str, CFunction] = {}
        for rel in sources:
            path = root / rel
            if not path.is_file():
                yield self._anchor(rel, 1, f"ffi source '{rel}' not found")
                continue
            functions, problems = parse_c_exports(path, rel)
            for message in problems:
                yield self._anchor(rel, 1, message)
            for fn in functions:
                exports[fn.name] = fn

        by_rel = {file.rel: file for file in files}
        bindings: dict[str, _Binding] = {}
        for rel in binding_rels:
            file = by_rel.get(rel)
            if file is None or file.tree is None:
                yield self._anchor(
                    rel, 1,
                    f"ffi binding module '{rel}' is missing from the "
                    "analyzed tree",
                )
                continue
            found, uncheckable = _collect_bindings(file)
            for node, message in uncheckable:
                yield self._anchor(
                    rel, getattr(node, "lineno", 1), message,
                    col=getattr(node, "col_offset", 0),
                )
            for symbol, binding in found.items():
                bindings.setdefault(symbol, binding)
                if bindings[symbol] is not binding:
                    # A symbol bound from two modules: take the first,
                    # but both must agree with the C side; merge the
                    # missing halves for completeness checking.
                    kept = bindings[symbol]
                    if kept.argtypes is None and binding.argtypes is not None:
                        kept.argtypes = binding.argtypes
                        kept.argtypes_node = binding.argtypes_node
                    if kept.restype is None and binding.restype is not None:
                        kept.restype = binding.restype
                        kept.restype_node = binding.restype_node

        yield from self._cross_check(exports, bindings)

    def _cross_check(
        self, exports: dict[str, CFunction], bindings: dict[str, _Binding]
    ) -> Iterable[Finding]:
        for name in sorted(exports):
            fn = exports[name]
            binding = bindings.get(name)
            if binding is None:
                yield self._anchor(
                    fn.path, fn.line,
                    f"exported C symbol '{name}' has no "
                    "argtypes/restype binding in the configured ffi "
                    "binding modules; bind it (or make it static)",
                )
                continue
            line = getattr(binding.argtypes_node, "lineno", 1)
            if binding.argtypes_node is None:
                yield self._anchor(
                    binding.path, 1,
                    f"binding for '{name}' never assigns argtypes; "
                    "ctypes would default every argument to c_int",
                )
            elif binding.argtypes is not None:
                yield from self._check_args(name, fn, binding, line)
            if binding.restype_node is None:
                yield self._anchor(
                    binding.path, line,
                    f"binding for '{name}' never assigns restype; "
                    "ctypes would truncate the return value to c_int",
                )
            elif isinstance(binding.restype, CType):
                if (binding.restype.kind, binding.restype.bits,
                        binding.restype.pointer) != (
                        fn.returns.kind, fn.returns.bits, fn.returns.pointer):
                    yield self._anchor(
                        binding.path,
                        getattr(binding.restype_node, "lineno", 1),
                        f"restype of '{name}' is "
                        f"{binding.restype.describe()} but the C "
                        f"prototype returns {fn.returns.describe()}",
                    )
        for name in sorted(bindings):
            if name not in exports:
                binding = bindings[name]
                node = binding.argtypes_node or binding.restype_node
                yield self._anchor(
                    binding.path, getattr(node, "lineno", 1),
                    f"ctypes binding targets '{name}', which is not an "
                    "exported symbol of the configured ffi sources "
                    "(renamed or removed C function?)",
                )

    def _check_args(
        self, name: str, fn: CFunction, binding: _Binding, line: int
    ) -> Iterable[Finding]:
        bound = binding.argtypes
        assert bound is not None
        if len(bound) != len(fn.params):
            yield self._anchor(
                binding.path, line,
                f"argtypes of '{name}' has {len(bound)} entries but the "
                f"C prototype takes {len(fn.params)} parameters",
            )
            return
        for index, ((pname, want), got) in enumerate(zip(fn.params, bound)):
            if want.pointer != got.pointer:
                yield self._anchor(
                    binding.path, line,
                    f"argtypes of '{name}' arg {index} ('{pname}') is "
                    f"{got.describe()} but the C prototype takes "
                    f"{want.describe()} (pointer-ness mismatch)",
                )
            elif (want.kind, want.bits) != (got.kind, got.bits):
                yield self._anchor(
                    binding.path, line,
                    f"argtypes of '{name}' arg {index} ('{pname}') is "
                    f"{got.describe()} but the C prototype takes "
                    f"{want.describe()} (width/signedness mismatch)",
                )

    def _anchor(
        self, path: str, line: int, message: str, col: int = 0
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=path,
            line=line,
            col=col,
            message=message,
        )
