"""Hygiene rules for the dense-field kernel modules.

The field engines (:mod:`repro.core.vectorized`,
:mod:`repro.core.batched`) rely on two disciplines:

* the kernel's loops allocate no field-sized buffer -- the iteration
  and retirement loop of :meth:`BatchedGCA.run` reuses its
  preallocated mask and compacts retired graphs out of the field in
  place, and :func:`_apply_iteration`'s pointer-jump loop only gathers
  a label column (DB101);
* the pure per-generation transform (:func:`apply_generation`) takes
  the field ``D`` read-only and returns a new array -- the
  interpreter cross-validation depends on ``D`` surviving the call
  (DB103).

DB101 is path-scoped to the kernel modules (allocation in a loop is
perfectly normal elsewhere); DB103 is structural on the
``apply_generation*(D, ...)`` signature and runs everywhere.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.check.engine import (
    Finding,
    LintRule,
    Module,
    dotted_name,
    param_names,
    root_name,
    walk_function,
)

#: Array-allocating callables that must not appear inside kernel loops
#: (in-place ops like ``np.copyto``/``np.minimum(..., out=)`` are the
#: sanctioned alternative).
_ALLOCATORS = frozenset({
    "zeros", "empty", "ones", "full", "copy", "ascontiguousarray",
    "stack", "concatenate", "tile", "zeros_like", "empty_like",
    "ones_like", "full_like", "vstack", "hstack",
})

#: Roots under which the allocator names count (``np.zeros``,
#: ``numpy.empty``) -- plus bare method ``.copy()`` on anything.
_NUMPY_ROOTS = frozenset({"np", "numpy"})


def _allocator_call(node: ast.Call) -> Optional[str]:
    """The allocator's name if ``node`` allocates an array, else None."""
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr == "copy" and not node.args:
            return dotted_name(func)
        if func.attr in _ALLOCATORS and isinstance(func.value, ast.Name) \
                and func.value.id in _NUMPY_ROOTS:
            return dotted_name(func)
    return None


class LoopAllocationRule(LintRule):
    """DB101: an array allocation inside a loop of a kernel module.

    Scoped to the kernel modules by basename, where the loops are the
    iteration and retirement loop of ``BatchedGCA.run``, the pointer-jump
    loop of ``_apply_iteration`` and the instrumented generation loop.
    Hoist the buffer out of the loop, or suppress with a reason when the
    allocation is on an opt-in slow path (instrumentation, retirement).
    """

    rule_id = "DB101"
    severity = "warning"
    description = "no array allocation inside the kernel modules' loops"
    basenames = frozenset({"vectorized.py", "batched.py"})

    def check(self, module: Module) -> Iterator[Finding]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            seen = set()
            for loop in walk_function(fn):
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                for node in ast.walk(loop):
                    if not isinstance(node, ast.Call):
                        continue
                    name = _allocator_call(node)
                    key = (node.lineno, node.col_offset)
                    if name is not None and key not in seen:
                        seen.add(key)
                        yield self.finding(
                            module,
                            node,
                            f"{name}() allocates inside a loop of "
                            f"{fn.name!r}; preallocate it before the loop "
                            "or write through out=/np.copyto",
                        )


class ReadFieldWriteRule(LintRule):
    """DB103: ``apply_generation`` mutates the read-only field ``D``.

    The un-fused transform documents "``D`` is not modified" and the
    interpreter cross-validation relies on it.  Flags stores through
    ``D``, ``out=D`` keywords and ``np.copyto(D, ...)``.
    """

    rule_id = "DB103"
    severity = "error"
    description = "apply_generation must treat the field D as read-only"

    def check(self, module: Module) -> Iterator[Finding]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if not fn.name.startswith("apply_generation"):
                continue
            if "D" not in param_names(fn):
                continue
            for node in walk_function(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    targets = []
                for target in targets:
                    if isinstance(
                        target, (ast.Subscript, ast.Attribute)
                    ) and root_name(target) == "D":
                        yield self.finding(
                            module,
                            node,
                            f"{fn.name!r} writes the read-only field D; "
                            "build the result in a fresh array",
                        )
                if isinstance(node, ast.Call):
                    for kw in node.keywords:
                        if kw.arg == "out" and root_name(kw.value) == "D":
                            yield self.finding(
                                module,
                                node,
                                f"{fn.name!r} targets the read-only field "
                                "D via out=",
                            )
                    if (
                        dotted_name(node.func) in ("np.copyto", "numpy.copyto")
                        and node.args
                        and root_name(node.args[0]) == "D"
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"{fn.name!r} overwrites the read-only field D "
                            "via np.copyto",
                        )
