"""PROTO: wire-frame hardening for the binary serve protocol.

A length field decoded from an untrusted frame header that reaches an
allocation-sizing expression before being validated is a remote memory
amplifier: one crafted 40-byte header can demand a multi-gigabyte
``np.zeros``.  PROTO501 is a small flow-sensitive taint pass over the
CFG: ``struct.unpack`` results and header-parameter fields are taint
sources, allocation sizes / read lengths / slice bounds are sinks, and
a comparison mentioning the value (``if m > cap: raise``, ``assert``)
sanitises it on the paths beyond the test.

The rule only engages in modules that import :mod:`struct`, so the
kernel code never pays for it.
"""

from __future__ import annotations

import ast
from typing import Callable, FrozenSet, Iterator, List, Set, Tuple

from repro.check.cfg import Event, build_cfg, function_defs, walk_stmt_expr
from repro.check.dataflow import iter_event_states
from repro.check.engine import Finding, LintRule, Module, dotted_name

State = FrozenSet[Tuple[str, str]]

_HEADER_PARAM_NAMES = ("header", "hdr", "frame")
_SANITIZER_HINTS = ("valid", "check", "ensure", "clamp")
_ALLOC_FUNCS = frozenset({"empty", "zeros", "ones", "full"})
_READ_FUNCS = frozenset({"readexactly", "read_bytes", "read", "recv"})


def _module_imports_struct(module: Module) -> bool:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            if any(a.name == "struct" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "struct":
                return True
    return False


def _header_params(fn: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
        if arg.arg.lower() in _HEADER_PARAM_NAMES:
            names.add(arg.arg)
            continue
        ann = arg.annotation
        ann_name = None
        if isinstance(ann, ast.Name):
            ann_name = ann.id
        elif isinstance(ann, ast.Attribute):
            ann_name = ann.attr
        elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            ann_name = ann.value.split(".")[-1]
        if ann_name and ann_name.endswith("Header"):
            names.add(arg.arg)
    return names


class FrameTaintRule(LintRule):
    """PROTO501: unvalidated wire-header fields sizing allocations."""

    rule_id = "PROTO501"
    severity = "error"
    description = "wire-decoded sizes must be bounds-checked before use"

    def check(self, module: Module) -> Iterator[Finding]:
        if not _module_imports_struct(module):
            return
        for qual, fn in function_defs(module.tree):
            yield from self._check_function(module, qual, fn)

    # -- taint machinery ----------------------------------------------
    def _tokens_in(
        self, expr: ast.AST, header_params: Set[str]
    ) -> Set[str]:
        tokens: Set[str] = set()
        for sub in walk_stmt_expr(expr):
            if isinstance(sub, ast.Name):
                tokens.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                dotted = dotted_name(sub)
                parts = dotted.split(".")
                if len(parts) == 2 and parts[0] in header_params:
                    tokens.add(dotted)
        return tokens

    @staticmethod
    def _is_tainted(token: str, state: State, header_params: Set[str]) -> bool:
        if ("s", token) in state:
            return False
        if ("t", token) in state:
            return True
        return "." in token and token.split(".")[0] in header_params

    def _transfer(
        self, header_params: Set[str]
    ) -> Callable[[State, Event], State]:
        def transfer(state: State, event: Event) -> State:
            kind = event[0]
            if kind == "guard":
                expr = event[1]
                sanitized = set()
                for sub in walk_stmt_expr(expr):
                    if isinstance(sub, ast.Compare):
                        sanitized.update(
                            self._tokens_in(sub, header_params)
                        )
                if sanitized:
                    return state | {("s", tok) for tok in sanitized}
                return state
            if kind != "stmt":
                return state
            node = event[1]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                names: List[str] = []
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name) and isinstance(
                            sub.ctx, ast.Store
                        ):
                            names.append(sub.id)
                value = node.value
                if value is None:
                    return state
                if isinstance(value, ast.Call):
                    callee = dotted_name(value.func).split(".")[-1].lower()
                    if any(h in callee for h in _SANITIZER_HINTS):
                        # m = _validated_m(header.m): the validator's
                        # return value is trusted by construction
                        out = {
                            fact for fact in state
                            if fact[1] not in names
                        }
                        out.update(("s", name) for name in names)
                        return frozenset(out)
                from_unpack = any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in ("unpack", "unpack_from")
                    for sub in walk_stmt_expr(value)
                )
                rhs_tainted = from_unpack or any(
                    self._is_tainted(tok, state, header_params)
                    for tok in self._tokens_in(value, header_params)
                )
                out = {
                    fact for fact in state if fact[1] not in names
                }
                if rhs_tainted:
                    out.update(("t", name) for name in names)
                return frozenset(out)
            if isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Call
            ):
                call = node.value
                name = dotted_name(call.func).split(".")[-1].lower()
                if any(hint in name for hint in _SANITIZER_HINTS):
                    sanitized = set()
                    for arg in list(call.args) + [
                        k.value for k in call.keywords
                    ]:
                        sanitized.update(
                            self._tokens_in(arg, header_params)
                        )
                    if sanitized:
                        return state | {("s", t) for t in sanitized}
            return state

        return transfer

    # -- sinks ---------------------------------------------------------
    def _sink_exprs(
        self, node: ast.AST
    ) -> Iterator[Tuple[ast.AST, str, ast.AST]]:
        """``(sizing_expr, sink_kind, report_node)`` triples."""
        for sub in walk_stmt_expr(node):
            if isinstance(sub, ast.Call):
                last = dotted_name(sub.func).split(".")[-1]
                if last == "frombuffer":
                    for kw in sub.keywords:
                        if kw.arg == "count":
                            yield kw.value, "np.frombuffer count", sub
                elif last in _ALLOC_FUNCS and sub.args:
                    yield sub.args[0], f"np.{last} shape", sub
                elif last in ("bytes", "bytearray") and sub.args:
                    arg = sub.args[0]
                    if not isinstance(arg, (ast.Constant, ast.Bytes)):
                        yield arg, f"{last}() size", sub
                elif last in _READ_FUNCS and sub.args:
                    yield sub.args[0], f"{last}() length", sub
            elif isinstance(sub, ast.Subscript) and isinstance(
                sub.slice, ast.Slice
            ):
                for bound in (sub.slice.lower, sub.slice.upper):
                    if bound is not None and not isinstance(
                        bound, ast.Constant
                    ):
                        yield bound, "slice bound", sub

    def _check_function(
        self, module: Module, qual: str, fn: ast.AST
    ) -> Iterator[Finding]:
        header_params = _header_params(fn)
        cfg = build_cfg(fn)
        transfer = self._transfer(header_params)
        reported: Set[Tuple[int, str]] = set()
        for event, state in iter_event_states(cfg, transfer):
            if event[0] != "stmt":
                continue
            for sizing, kind, report in self._sink_exprs(event[1]):
                for token in sorted(
                    self._tokens_in(sizing, header_params)
                ):
                    if not self._is_tainted(token, state, header_params):
                        continue
                    key = (id(report), token)
                    if key in reported:
                        continue
                    reported.add(key)
                    yield self.finding(
                        module,
                        report,
                        f"wire-decoded {token!r} reaches {kind} in "
                        f"{qual!r} before any bounds check; validate "
                        "it against the payload cap first",
                    )
