"""Module summaries, name resolution and project-wide rules.

Per-file analysis alone cannot see a blocking call two frames below an
``async def``, an inverted lock order split across two modules, or a
memmap handed to a helper that forgets to unmap it.  This module builds
a compact :class:`ModuleSummary` per file -- imports, function call
sites, blocking sites, lock-order edges and parameter dispositions --
and a :class:`ProjectIndex` that resolves call tokens across the
summaries.

:class:`ProjectRule` is the cross-module counterpart of
:class:`~repro.check.engine.LintRule`: it runs once per engine
invocation over the full index instead of once per module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.check.cfg import build_cfg, function_defs, walk_stmt_expr
from repro.check.dataflow import iter_event_states
from repro.check.domain import (
    awaited_call_ids,
    blocking_call_label,
    lock_acquisitions,
    lockset_transfer,
)
from repro.check.engine import (
    Finding,
    LintRule,
    Module,
    dotted_name,
    param_names,
    walk_function,
)

#: Calls that take a coroutine/callable and own its execution.
_WRAPPERS = frozenset({
    "create_task", "ensure_future", "gather", "wait", "wait_for", "run",
    "run_coroutine_threadsafe", "as_completed", "shield", "run_until_complete",
})

#: Calls that move a callable onto a worker thread (the sanctioned
#: bridge for blocking work reachable from the event loop).
_BRIDGES = frozenset({"run_in_executor", "to_thread", "submit"})


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    token: str
    line: int
    col: int
    awaited: bool
    bare: bool      # the whole statement is this call (``Expr(Call)``)
    wrapped: bool   # passed into create_task/gather/... as an argument


@dataclass(frozen=True)
class BlockingSite:
    """A thread-blocking call (pipe/queue/sleep/subprocess/spawn)."""

    label: str
    token: str
    line: int
    col: int


@dataclass(frozen=True)
class LockOrder:
    """``acquired`` was taken while ``held`` was already held."""

    held: str
    acquired: str
    line: int
    col: int


@dataclass
class FunctionInfo:
    """Flow summary of one function definition."""

    qualname: str
    line: int
    col: int
    is_async: bool
    class_name: Optional[str]
    params: List[str]
    calls: List[CallSite] = field(default_factory=list)
    blocking: List[BlockingSite] = field(default_factory=list)
    lock_orders: List[LockOrder] = field(default_factory=list)
    closes_params: List[str] = field(default_factory=list)
    escapes_params: List[str] = field(default_factory=list)
    #: ``(callee_token, param_name, arg_position)``
    forwards: List[Tuple[str, str, int]] = field(default_factory=list)
    #: ``(callee_token, arg_position, var, line, col)`` -- a local memmap
    #: whose only disposal route is the call it is handed to.
    memmap_handoffs: List[Tuple[str, int, str, int, int]] = field(
        default_factory=list
    )


@dataclass
class ModuleSummary:
    """Everything the project rules need to know about one file."""

    module: str
    path: str
    import_aliases: Dict[str, str] = field(default_factory=dict)
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    top_imports: List[Tuple[str, int, int]] = field(default_factory=list)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)


def module_name_for(path: str) -> str:
    """Dotted module name derived from the package layout: climb while
    an ``__init__.py`` marks the parent as a package.  Works for the
    ``src/`` layout (``src/repro/serve/gateway.py`` ->
    ``repro.serve.gateway``) and leaves loose files as bare names."""
    p = Path(path)
    parts = [p.stem] if p.stem != "__init__" else []
    parent = p.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else p.stem


# ----------------------------------------------------------------------
# summary construction
# ----------------------------------------------------------------------

def _collect_imports(summary: ModuleSummary, tree: ast.AST) -> None:
    own_package = summary.module.split(".")[:-1]

    def resolve_from(node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        base = own_package[: len(own_package) - (node.level - 1)]
        if node.module:
            base = base + [node.module]
        return ".".join(base)

    def visit(node: ast.AST, top: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    local = alias.asname or alias.name.split(".")[0]
                    dotted = alias.name if alias.asname else local
                    summary.import_aliases[local] = dotted
                    if top:
                        summary.top_imports.append(
                            (alias.name, child.lineno, child.col_offset + 1)
                        )
            elif isinstance(child, ast.ImportFrom):
                target = resolve_from(child)
                for alias in child.names:
                    local = alias.asname or alias.name
                    summary.from_imports[local] = (target, alias.name)
                if top:
                    summary.top_imports.append(
                        (target, child.lineno, child.col_offset + 1)
                    )
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, top=False)
            elif isinstance(child, ast.ClassDef):
                visit(child, top=False)
            else:
                # imports under top-level if/try still run at import time
                visit(child, top=top)

    visit(tree, top=True)


_CLOSERS = frozenset({"close", "unlink", "release", "terminate"})


def _direct_escape_names(value: ast.AST) -> Iterator[str]:
    """Names an expression hands onward as *the object itself* --
    ``return mm`` / ``return mm, other`` escape the mapping,
    ``return int(mm.sum())`` only escapes a derived scalar."""
    if isinstance(value, ast.Name):
        yield value.id
    elif isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        for elt in value.elts:
            yield from _direct_escape_names(elt)
    elif isinstance(value, ast.Starred):
        yield from _direct_escape_names(value.value)
    elif isinstance(value, ast.IfExp):
        yield from _direct_escape_names(value.body)
        yield from _direct_escape_names(value.orelse)
    elif isinstance(value, ast.NamedExpr):
        yield from _direct_escape_names(value.value)


def _canonical_lock(
    token: str,
    module: str,
    class_name: Optional[str],
    aliases: Dict[str, str],
    from_imports: Dict[str, Tuple[str, str]],
) -> str:
    """Like :func:`canonical_lock_token`, but resolving imported names
    to their *defining* module so ``from a import LOCK`` in two modules
    still names one lock."""
    parts = token.split(".")
    root = parts[0]
    if root in ("self", "cls") and class_name:
        return ".".join([module, class_name] + parts[1:])
    if root in from_imports:
        target_mod, orig = from_imports[root]
        return ".".join([target_mod, orig] + parts[1:])
    if root in aliases:
        return ".".join([aliases[root]] + parts[1:])
    return f"{module}.{token}"


def _function_info(
    module: str,
    qual: str,
    fn: ast.AST,
    aliases: Optional[Dict[str, str]] = None,
    from_imports: Optional[Dict[str, Tuple[str, str]]] = None,
) -> FunctionInfo:
    aliases = aliases or {}
    from_imports = from_imports or {}
    parts = qual.split(".")
    class_name = parts[-2] if len(parts) >= 2 else None
    info = FunctionInfo(
        qualname=qual,
        line=fn.lineno,
        col=fn.col_offset + 1,
        is_async=isinstance(fn, ast.AsyncFunctionDef),
        class_name=class_name,
        params=param_names(fn),
    )
    awaited = set()
    wrapped = set()
    bare = set()
    calls: List[ast.Call] = []
    for node in walk_function(fn):
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            awaited.add(id(node.value))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            bare.add(id(node.value))
        elif isinstance(node, ast.Call):
            calls.append(node)
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else None
            name = func.id if isinstance(func, ast.Name) else attr
            if name in _WRAPPERS or name in _BRIDGES:
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if isinstance(arg, ast.Call):
                        wrapped.add(id(arg))
        elif isinstance(node, ast.Expr):
            inner = node.value
            if isinstance(inner, ast.Await) and isinstance(
                inner.value, ast.Call
            ):
                bare.add(id(inner.value))

    params = set(info.params)
    for call in calls:
        token = dotted_name(call.func)
        if not token:
            continue
        info.calls.append(
            CallSite(
                token=token,
                line=call.lineno,
                col=call.col_offset + 1,
                awaited=id(call) in awaited,
                bare=id(call) in bare,
                wrapped=id(call) in wrapped,
            )
        )
        label = blocking_call_label(call)
        if label is not None and id(call) not in awaited:
            info.blocking.append(
                BlockingSite(
                    label=label,
                    token=token,
                    line=call.lineno,
                    col=call.col_offset + 1,
                )
            )
        # parameter dispositions (memmap/segment ownership handoff)
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _CLOSERS
        ):
            root = func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in params:
                info.closes_params.append(root.id)
        for pos, arg in enumerate(
            list(call.args) + [k.value for k in call.keywords]
        ):
            if isinstance(arg, ast.Name) and arg.id in params:
                info.forwards.append((token, arg.id, pos))

    for node in walk_function(fn):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None:
                for name in _direct_escape_names(value):
                    if name in params:
                        info.escapes_params.append(name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    for name in _direct_escape_names(node.value):
                        if name in params:
                            info.escapes_params.append(name)

    info.closes_params = sorted(set(info.closes_params))
    info.escapes_params = sorted(set(info.escapes_params))
    _collect_memmap_handoffs(fn, info)

    # lock-order edges from the lockset fixpoint
    cfg = build_cfg(fn)
    seen = set()
    for event, state in iter_event_states(cfg, lockset_transfer):
        if not state:
            continue
        for token, line, col in lock_acquisitions(event):
            canon = _canonical_lock(
                token, module, class_name, aliases, from_imports
            )
            for held in state:
                if held == token:
                    continue
                held_canon = _canonical_lock(
                    held, module, class_name, aliases, from_imports
                )
                key = (held_canon, canon, line, col)
                if key in seen:
                    continue
                seen.add(key)
                info.lock_orders.append(
                    LockOrder(held=held_canon, acquired=canon,
                              line=line, col=col)
                )
    return info


def _collect_memmap_handoffs(fn: ast.AST, info: FunctionInfo) -> None:
    """Record locals bound to ``np.memmap(...)`` whose only disposal
    route is being passed to a callee -- the SHM203 shape the local
    rule accepts on faith and the project rule verifies."""
    mapped: Dict[str, ast.Assign] = {}
    for node in walk_function(fn):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and dotted_name(node.value.func).split(".")[-1] == "memmap"
        ):
            mapped[node.targets[0].id] = node
    if not mapped:
        return
    closed: Set[str] = set()
    escaped: Set[str] = set()
    handoffs: Dict[str, List[Tuple[str, int, int, int]]] = {}
    for node in walk_function(fn):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "close":
                root = func.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in mapped:
                    closed.add(root.id)
            token = dotted_name(func)
            for pos, arg in enumerate(
                list(node.args) + [k.value for k in node.keywords]
            ):
                if isinstance(arg, ast.Name) and arg.id in mapped and token:
                    handoffs.setdefault(arg.id, []).append(
                        (token, pos, node.lineno, node.col_offset + 1)
                    )
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                for name in _direct_escape_names(node.value):
                    if name in mapped:
                        escaped.add(name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    for name in _direct_escape_names(node.value):
                        if name in mapped:
                            escaped.add(name)
        elif isinstance(node, ast.withitem):
            for sub in walk_stmt_expr(node.context_expr):
                if isinstance(sub, ast.Name) and sub.id in mapped:
                    escaped.add(sub.id)
    for var, sites in handoffs.items():
        if var in closed or var in escaped:
            continue
        for token, pos, line, col in sites:
            info.memmap_handoffs.append((token, pos, var, line, col))


def build_module_summary(module: Module) -> ModuleSummary:
    """Summarise one parsed module for the project rules."""
    summary = ModuleSummary(
        module=module_name_for(module.path), path=module.path
    )
    _collect_imports(summary, module.tree)
    for qual, fn in function_defs(module.tree):
        summary.functions[qual] = _function_info(
            summary.module,
            qual,
            fn,
            summary.import_aliases,
            summary.from_imports,
        )
    return summary


# ----------------------------------------------------------------------
# the project index
# ----------------------------------------------------------------------

class ProjectIndex:
    """All module summaries of one engine run, with call resolution."""

    def __init__(
        self,
        summaries: Dict[str, ModuleSummary],
        config: Optional[dict] = None,
    ) -> None:
        self.by_path = dict(summaries)
        self.config = config or {}
        self.by_name: Dict[str, ModuleSummary] = {}
        for summary in self.by_path.values():
            self.by_name.setdefault(summary.module, summary)

    def summaries(self) -> List[ModuleSummary]:
        return [self.by_path[p] for p in sorted(self.by_path)]

    def resolve(
        self,
        summary: ModuleSummary,
        caller: Optional[FunctionInfo],
        token: str,
    ) -> Optional[Tuple[ModuleSummary, FunctionInfo]]:
        """Resolve a call token to its target function, if the target
        is statically nameable within the scanned tree.  Unresolvable
        tokens (``self.server.submit``, dynamic dispatch) return None --
        the rules treat them conservatively."""
        parts = token.split(".")
        if parts[0] in ("self", "cls") and caller is not None:
            if len(parts) == 2 and caller.class_name:
                qual = f"{caller.class_name}.{parts[1]}"
                if qual in summary.functions:
                    return summary, summary.functions[qual]
            return None
        if len(parts) == 1:
            name = parts[0]
            # nested scope chain, innermost first
            if caller is not None:
                prefix = caller.qualname.split(".")
                while prefix:
                    qual = ".".join(prefix + [name])
                    if qual in summary.functions:
                        return summary, summary.functions[qual]
                    prefix.pop()
            if name in summary.functions:
                return summary, summary.functions[name]
            if name in summary.from_imports:
                target_mod, orig = summary.from_imports[name]
                other = self.by_name.get(target_mod)
                if other and orig in other.functions:
                    return other, other.functions[orig]
            return None
        root, rest = parts[0], ".".join(parts[1:])
        if root in summary.import_aliases:
            other = self.by_name.get(summary.import_aliases[root])
            if other and rest in other.functions:
                return other, other.functions[rest]
            return None
        if root in summary.from_imports:
            target_mod, orig = summary.from_imports[root]
            # ``from pkg import submodule`` -> look inside the submodule
            sub = self.by_name.get(f"{target_mod}.{orig}")
            if sub and rest in sub.functions:
                return sub, sub.functions[rest]
            # ``from pkg import Class`` -> Class.method in pkg
            other = self.by_name.get(target_mod)
            if other:
                qual = f"{orig}.{rest}"
                if qual in other.functions:
                    return other, other.functions[qual]
        # local class: ``Worker.run`` / instance built locally is not
        # tracked, but direct ``Class.method`` tokens resolve here
        if token in summary.functions:
            return summary, summary.functions[token]
        return None


class ProjectRule(LintRule):
    """A rule that runs once over the whole :class:`ProjectIndex`."""

    project = True

    def __init__(self) -> None:
        self.config: dict = {}

    def configure(self, config: Optional[dict]) -> None:
        self.config = config or {}

    def check(self, module: Module) -> Iterator[Finding]:
        return iter(())

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=path,
            line=line,
            col=col,
            message=message,
        )
