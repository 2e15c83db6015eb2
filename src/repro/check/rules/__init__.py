"""The repo-specific rule set.

========  ========  ==========================================================
id        severity  checks
========  ========  ==========================================================
SHM201    error     a shared-memory acquisition that can never be released
SHM202    warning   consecutive shm acquisitions without an error-path guard
SHM203    error     an ``np.memmap`` never unmapped (local) or handed to a
                    helper that forgets it (cross-function, via callgraph)
SHM204    error     a chunk worker writes a partitioned slab off-slice
LOCK301   error     a blocking pipe/queue/spawn call on a path holding a lock
                    (lockset dataflow over the CFG)
LOCK302   error     the same lock pair acquired in both orders (cross-module)
ASYNC401  error     blocking call reachable from ``async def`` unbridged
ASYNC402  error     a coroutine called but never awaited or scheduled
ASYNC403  error     task handle dropped / unguarded call_soon_threadsafe
ASYNC404  error     ``await`` while holding a synchronous lock
PROTO501  error     wire-decoded size reaches an allocation unvalidated
ARCH601   error     a top-level import crosses the declared layer map
========  ========  ==========================================================

Rules marked cross-module are :class:`~repro.check.callgraph.ProjectRule`\\ s:
they run once per engine invocation over the project index instead of
once per file, and therefore see relationships (lock order between
``serve/executor.py`` and ``analysis/shm.py``, blocking work two sync
frames below an ``async def``) that no per-file pass can.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.check.engine import LintRule
from repro.check.rules.concurrency import (
    ChunkOwnerWriteRule,
    MemmapDisciplineRule,
    MemmapHandoffRule,
    UnguardedMultiAcquireRule,
    UnreleasedSegmentRule,
)
from repro.check.rules.lockset import (
    LockAcrossBlockingRule,
    LockOrderRule,
)
from repro.check.rules.async_rules import (
    AwaitUnderSyncLockRule,
    BlockingInAsyncRule,
    DroppedHandleRule,
    UnawaitedCoroutineRule,
)
from repro.check.rules.wire import FrameTaintRule
from repro.check.rules.layering import ArchLayerRule

_ALL = (
    UnreleasedSegmentRule,
    UnguardedMultiAcquireRule,
    MemmapDisciplineRule,
    MemmapHandoffRule,
    ChunkOwnerWriteRule,
    LockAcrossBlockingRule,
    LockOrderRule,
    BlockingInAsyncRule,
    UnawaitedCoroutineRule,
    DroppedHandleRule,
    AwaitUnderSyncLockRule,
    FrameTaintRule,
    ArchLayerRule,
)


def all_rules(only: Optional[Sequence[str]] = None) -> List[LintRule]:
    """Instantiate the full rule set (or the ``only`` subset by id)."""
    rules: List[LintRule] = [cls() for cls in _ALL]
    if only is None:
        return rules
    wanted = {rule_id.strip().upper() for rule_id in only if rule_id.strip()}
    unknown = wanted - {r.rule_id for r in rules}
    if unknown:
        raise ValueError(
            f"unknown rule ids {sorted(unknown)}; have {rule_ids()}"
        )
    return [r for r in rules if r.rule_id in wanted]


def rule_ids() -> List[str]:
    """All known rule ids, sorted (SHM203 has a local and a
    cross-function half sharing one id)."""
    return sorted({cls.rule_id for cls in _ALL})
