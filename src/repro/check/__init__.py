"""Repo-specific static analysis.

The serving and shared-memory layers rest on invariants nothing in
Python enforces by itself:

* **shared-memory hygiene** -- every segment created is closed and
  unlinked on *every* path, every memmap is unmapped, and a chunk
  worker writes only its own slice of a partitioned slab;
* **locks and asyncio** -- no lock is held across a blocking pipe or
  queue call, locks are taken in one order, and no blocking call,
  dropped task or unawaited coroutine hides under an ``async def``;
* **wire hardening** -- a size decoded from a frame header is
  bounds-checked before it sizes an allocation;
* **layering** -- top-level imports respect the declared layer map.

:mod:`repro.check.engine` is a small AST-walking lint framework;
:mod:`repro.check.cfg` / :mod:`repro.check.dataflow` add per-function
control-flow graphs and a forward fixpoint for the flow-sensitive
rules; :mod:`repro.check.callgraph` builds the cross-module summaries
behind the project-wide rules; :mod:`repro.check.rules` holds the
repo-specific rules; :mod:`repro.check.sanitizer` holds the shm
sanitizer, which stamps write epochs on shared slabs at runtime.

The GCA's concurrent-read, owner-write contract is enforced at runtime
only, by the write barrier in :mod:`repro.gca.sanitized`.

Run the linter with ``python -m repro check src/`` and the sanitizers
with ``connected_components(..., sanitize=True)`` /
``with shm_sanitizer(): ...`` around a pooled sharded solve.
"""

from repro.check.engine import CheckEngine, CheckReport, Finding, LintRule
from repro.check.rules import all_rules, rule_ids

__all__ = [
    "CheckEngine",
    "CheckReport",
    "Finding",
    "LintRule",
    "all_rules",
    "rule_ids",
]
