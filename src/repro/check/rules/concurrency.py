"""Shared-memory and process-pool hygiene rules.

The serving stack (:mod:`repro.serve`) and the shared-memory layer
(:mod:`repro.analysis.shm`) juggle three resources whose misuse is
invisible to the type system and usually invisible to tests:

* **POSIX shm segments** leak kernel objects until reboot if a create
  is not paired with ``close``/``unlink`` on *every* path (SHM201,
  SHM202);
* **locks held across blocking calls** (pipe recv, queue get, worker
  spawn) turn a slow worker into a stalled pool (LOCK301);
* **memory mappings without an unmap** keep every touched page in the
  resident set until garbage collection gets around to the array --
  which defeats the windowed out-of-core reads of
  :mod:`repro.analysis.shards` precisely when memory is tightest
  (SHM203);
* **partitioned slabs written outside the owner's chunk slice** race
  under the chunk-parallel label kernels, corrupting a neighbour
  chunk's rows only when run concurrently (SHM204).

These rules are heuristic by necessity -- they trade a few suppression
comments for catching the leak/deadlock patterns that actually bit
this codebase (see ``repro.analysis.shm.share_edge_list`` and
``PoolExecutor._monitor_loop`` history).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.check.callgraph import (
    FunctionInfo,
    ModuleSummary,
    ProjectIndex,
    ProjectRule,
)
from repro.check.engine import (
    Finding,
    LintRule,
    Module,
    dotted_name,
    name_chain,
    param_names,
    walk_function,
)

#: Constructors whose result owns a shared-memory segment (or mapping).
_SHM_FACTORIES = frozenset({"create", "zeros", "attach"})

#: Attribute calls that release a segment or hand ownership onward.
_RELEASERS = frozenset({"close", "unlink", "release", "close_all"})


def _is_shm_acquire(node: ast.Call) -> Optional[str]:
    """A short label if ``node`` acquires a shared-memory resource."""
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr in _SHM_FACTORIES and "sharedarray" in name_chain(func):
            return f"SharedArray.{func.attr}"
        receiver = name_chain(func.value)
        if func.attr == "acquire" and (
            "slab" in receiver or "pool" in receiver
        ):
            return "SlabPool.acquire"
    name = dotted_name(func)
    if name is not None and name.split(".")[-1] == "SharedMemory":
        return "SharedMemory"
    return None


def _escapes(fn: ast.FunctionDef, var: str, after_line: int) -> bool:
    """True if local ``var`` leaves the function's hands after binding:
    passed to a call, returned/yielded, stored into a container or
    attribute, released directly, or used as a context manager."""
    for node in walk_function(fn):
        lineno = getattr(node, "lineno", None)
        if lineno is None or lineno < after_line:
            continue
        if isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name) and sub.id == var:
                        return True
            func = node.func
            if isinstance(func, ast.Attribute):
                root = func.value
                if isinstance(root, ast.Name) and root.id == var:
                    if func.attr in _RELEASERS:
                        return True
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None:
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Name) and sub.id == var:
                        return True
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Name) and sub.id == var:
                            return True
        elif isinstance(node, ast.withitem):
            for sub in ast.walk(node.context_expr):
                if isinstance(sub, ast.Name) and sub.id == var:
                    return True
    return False


class UnreleasedSegmentRule(LintRule):
    """SHM201: a shared-memory acquisition that can never be released.

    Flags ``x = SharedArray.create(...)`` (and friends) where ``x`` is a
    plain local that is never closed, unlinked, returned, stored, or
    passed onward -- the segment outlives the process and leaks a
    kernel object.
    """

    rule_id = "SHM201"
    severity = "error"
    description = "every shm segment acquired must be released or escape"

    def check(self, module: Module) -> Iterator[Finding]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in walk_function(fn):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                label = _is_shm_acquire(node.value)
                if label is None:
                    continue
                if len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue  # attribute/subscript targets escape by definition
                if not _escapes(fn, target.id, node.lineno):
                    yield self.finding(
                        module,
                        node,
                        f"{label}() result {target.id!r} in {fn.name!r} is "
                        "never closed, unlinked, returned, or stored; the "
                        "segment leaks",
                    )


def _memmap_closed(fn: ast.FunctionDef, var: str, after_line: int) -> bool:
    """True if ``var._mmap.close()`` appears after ``after_line``."""
    for node in walk_function(fn):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node, "lineno", 0) < after_line:
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "close"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "_mmap"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == var
        ):
            return True
    return False


class MemmapDisciplineRule(LintRule):
    """SHM203: an ``np.memmap`` that is never unmapped.

    A memmap'd array holds its mapping until the *array object* is
    collected -- ``del`` is not enough under reference cycles, and the
    touched pages count toward RSS the whole time.  The out-of-core
    paths (:func:`repro.analysis.shards.open_memmap_window`) rely on
    eager unmapping to keep their peak-memory promise, so every
    ``x = np.memmap(...)`` bound to a plain local must either be used
    as a context manager, explicitly unmapped with ``x._mmap.close()``,
    or hand the mapping onward (returned, stored, passed to a callee
    that owns the close).
    """

    rule_id = "SHM203"
    severity = "error"
    description = "every np.memmap must be unmapped or hand off ownership"

    def check(self, module: Module) -> Iterator[Finding]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in walk_function(fn):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                name = dotted_name(node.value.func)
                if name is None or name.split(".")[-1] != "memmap":
                    continue
                if len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue  # attribute/subscript targets escape by definition
                if _memmap_closed(fn, target.id, node.lineno):
                    continue
                if _escapes(fn, target.id, node.lineno):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"memmap {target.id!r} in {fn.name!r} is never "
                    "unmapped; call ._mmap.close() (or use "
                    "open_memmap_window) so the pages leave the "
                    "resident set deterministically",
                )


def _enclosing_guard(stack: List[ast.AST]) -> bool:
    """True if any enclosing statement is a try with handlers/finally
    or a with block (i.e. some error path exists for cleanup)."""
    for node in stack:
        if isinstance(node, ast.Try) and (node.handlers or node.finalbody):
            return True
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return True
    return False


class UnguardedMultiAcquireRule(LintRule):
    """SHM202: consecutive shm acquisitions without an error-path guard.

    ``a = SharedArray.create(...); b = SharedArray.create(...)`` leaks
    ``a`` whenever the second create throws (ENOSPC, name collision,
    worker crash).  The second and later acquisitions in a function must
    sit inside a ``try``/``with`` so the earlier ones can be rolled
    back.
    """

    rule_id = "SHM202"
    severity = "warning"
    description = "multi-segment acquisition needs an error-path guard"

    def check(self, module: Module) -> Iterator[Finding]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            yield from self._check_function(module, fn)

    def _check_function(
        self, module: Module, fn: ast.FunctionDef
    ) -> Iterator[Finding]:
        acquires: List[tuple] = []  # (call node, guarded?)

        def visit(node: ast.AST, stack: List[ast.AST]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)) and node is not fn:
                return
            if isinstance(node, ast.Call) and _is_shm_acquire(node):
                acquires.append((node, _enclosing_guard(stack)))
            stack.append(node)
            for child in ast.iter_child_nodes(node):
                visit(child, stack)
            stack.pop()

        visit(fn, [])
        for call, guarded in acquires[1:]:
            if not guarded:
                label = _is_shm_acquire(call)
                yield self.finding(
                    module,
                    call,
                    f"{label}() in {fn.name!r} follows an earlier "
                    "acquisition with no try/with guard; a failure here "
                    "leaks the earlier segment",
                )


def _mentions_bounds(node: ast.AST) -> bool:
    """True if the subtree references the chunk bounds ``lo``/``hi``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in ("lo", "hi"):
            return True
    return False


def _is_exact_chunk_slice(sub: ast.Subscript) -> bool:
    """True for exactly ``X[lo:hi]`` -- no step, no arithmetic."""
    sl = sub.slice
    return (
        isinstance(sl, ast.Slice)
        and isinstance(sl.lower, ast.Name) and sl.lower.id == "lo"
        and isinstance(sl.upper, ast.Name) and sl.upper.id == "hi"
        and sl.step is None
    )


class ChunkOwnerWriteRule(LintRule):
    """SHM204: a chunk worker writes a partitioned slab outside its slice.

    The chunk-parallel kernels (:mod:`repro.core.parallel_kernels`) run
    concurrently on *one* shared output slab with no per-element locks;
    that is race-free only under owner-write discipline: a worker given
    the bounds ``lo``/``hi`` may write a **partitioned** slab through
    exactly ``slab[lo:hi]`` and nothing else.  ``slab[lo:hi + 1]``
    overlaps the next chunk's slice, and a scatter
    (``np.minimum.at(slab, idx, ...)``) writes wherever ``idx`` points
    -- both are ghost writes that corrupt a neighbour's rows and only
    fail under concurrency.

    Heuristic: inside any function whose parameters include both ``lo``
    and ``hi`` (the chunk-worker convention), a parameter is treated as
    *partitioned* the moment the function slices it with those bounds.
    Every subscript store to a partitioned parameter must then be the
    exact ``[lo:hi]`` slice, and partitioned parameters must not be
    scatter targets.  Private per-worker slabs (written full-slab, never
    sliced by the bounds -- e.g. the hook phase's sentinel-initialised
    partial) are intentionally exempt.
    """

    rule_id = "SHM204"
    severity = "error"
    description = "chunk workers write partitioned slabs only via [lo:hi]"

    def check(self, module: Module) -> Iterator[Finding]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = set(param_names(fn))
            if not {"lo", "hi"} <= params:
                continue
            yield from self._check_worker(module, fn, params)

    def _check_worker(
        self, module: Module, fn: ast.FunctionDef, params: set
    ) -> Iterator[Finding]:
        partitioned = set()
        for node in walk_function(fn):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in params
                and isinstance(node.slice, ast.Slice)
                and _mentions_bounds(node.slice)
            ):
                partitioned.add(node.value.id)
        if not partitioned:
            return
        for node in walk_function(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if not (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in partitioned
                    ):
                        continue
                    if _is_exact_chunk_slice(target):
                        continue
                    yield self.finding(
                        module,
                        node,
                        f"{fn.name!r} writes partitioned slab "
                        f"{target.value.id!r} outside its exact [lo:hi] "
                        "slice; concurrent chunks ghost-write each "
                        "other's rows",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "at"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in partitioned
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{fn.name!r} scatters into partitioned slab "
                        f"{node.args[0].id!r} through arbitrary indices; "
                        "scatter into a private per-worker slab and "
                        "MIN-combine instead",
                    )


class MemmapHandoffRule(ProjectRule):
    """SHM203 (cross-function half): a memmap handed to a helper that
    forgets it.

    The local SHM203 rule accepts "passed to a call" as a disposal
    route on faith -- which is exactly how the false negative through
    one call level hid: ``m = np.memmap(...); helper(m)`` where
    ``helper`` neither unmaps, stores, returns nor forwards ``m``.
    With the callgraph the receiving parameter's disposition is checked
    for real (following forwards up to two levels); an unresolvable
    callee stays conservatively trusted.
    """

    rule_id = "SHM203"
    severity = "error"
    description = "a memmap handed to a helper must be disposed by it"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for summary in index.summaries():
            for info in summary.functions.values():
                for token, pos, var, line, col in info.memmap_handoffs:
                    resolved = index.resolve(summary, info, token)
                    if resolved is None:
                        continue
                    tmod, tinfo = resolved
                    param = self._receiving_param(token, tinfo, pos)
                    if param is None:
                        continue
                    if self._disposes(index, tmod, tinfo, param, depth=2):
                        continue
                    yield self.finding_at(
                        summary.path,
                        line,
                        col,
                        f"memmap {var!r} is handed to "
                        f"{tinfo.qualname!r}, which neither unmaps, "
                        "stores nor forwards it; the mapping leaks "
                        "until garbage collection",
                    )

    @staticmethod
    def _receiving_param(
        token: str, tinfo: FunctionInfo, pos: int
    ) -> Optional[str]:
        params = list(tinfo.params)
        if params and params[0] in ("self", "cls") and (
            token.startswith("self.") or token.startswith("cls.")
        ):
            params = params[1:]
        return params[pos] if pos < len(params) else None

    def _disposes(
        self,
        index: ProjectIndex,
        summary: ModuleSummary,
        info: FunctionInfo,
        param: str,
        depth: int,
    ) -> bool:
        if param in info.closes_params or param in info.escapes_params:
            return True
        if depth <= 0:
            return False
        for token, fwd_param, pos in info.forwards:
            if fwd_param != param:
                continue
            resolved = index.resolve(summary, info, token)
            if resolved is None:
                return True  # unresolvable onward hand-off: trust it
            tmod, tinfo = resolved
            nxt = self._receiving_param(token, tinfo, pos)
            if nxt is not None and self._disposes(
                index, tmod, tinfo, nxt, depth - 1
            ):
                return True
        return False
