"""The AST-walking lint framework behind ``python -m repro check``.

The engine is deliberately small: a :class:`LintRule` receives one
parsed :class:`Module` (path, source, AST) and yields
:class:`Finding`\\ s; :class:`CheckEngine` walks the requested paths,
runs every rule, applies inline suppressions, and renders the
surviving findings as text or JSON.

Suppression syntax
------------------
A finding is suppressed by a trailing comment on the offending line (or
the line directly above it)::

    src = SharedArray.create(graph.src)  # repro-check: allow[SHM201] owned by pool
    # repro-check: allow[SHM202] close handled by the caller
    dst = SharedArray.create(graph.dst)

``allow[*]`` suppresses every rule on that line.  A reason after the
bracket is conventional (and what review should insist on), but not
enforced.  It is the only way to accept a finding: CI fails on any
finding that survives suppression.
"""

from __future__ import annotations

import ast
import re
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Inline suppression marker: ``# repro-check: allow[RULE1,RULE2] reason``.
_SUPPRESS_RE = re.compile(r"#\s*repro-check:\s*allow\[([A-Za-z0-9_*,\s]+)\]")

_SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )


def is_suppressed_by(
    finding: "Finding", table: Dict[int, Set[str]]
) -> bool:
    allowed = table.get(finding.line, ())
    return "*" in allowed or finding.rule_id in allowed


class Module:
    """One parsed source file handed to the rules."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self._suppressions: Optional[Dict[int, Set[str]]] = None

    def suppressions(self) -> Dict[int, Set[str]]:
        """Mapping line -> rule ids allowed on that line (``"*"`` = all).

        A standalone suppression comment also covers the line below it,
        so the comment can sit above long statements.
        """
        if self._suppressions is None:
            table: Dict[int, Set[str]] = {}
            for lineno, text in enumerate(self.lines, start=1):
                match = _SUPPRESS_RE.search(text)
                if not match:
                    continue
                ids = {
                    part.strip()
                    for part in match.group(1).split(",")
                    if part.strip()
                }
                table.setdefault(lineno, set()).update(ids)
                if text.lstrip().startswith("#"):
                    table.setdefault(lineno + 1, set()).update(ids)
            self._suppressions = table
        return self._suppressions

    def is_suppressed(self, finding: Finding) -> bool:
        return is_suppressed_by(finding, self.suppressions())


class LintRule(ABC):
    """One mechanical check.  Subclasses set the class attributes and
    implement :meth:`check`."""

    rule_id: str = "RULE000"
    severity: str = "error"
    description: str = ""
    #: True for cross-module rules (see
    #: :class:`repro.check.callgraph.ProjectRule`); the engine runs
    #: them once per invocation over the project index instead of once
    #: per module.
    project: bool = False

    def configure(self, config: Optional[dict]) -> None:
        """Receive the resolved ``[tool.repro-check]`` config before a
        run; per-module rules usually ignore it."""

    @abstractmethod
    def check(self, module: Module) -> Iterator[Finding]:
        """Yield the rule's findings for one module."""

    def finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


# ----------------------------------------------------------------------
# shared AST helpers (used by the concrete rules)
# ----------------------------------------------------------------------

def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted rendering of a call target, e.g.
    ``np.zeros``, ``SharedArray.create``, ``self._slabs.acquire``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.append(dotted_name(node.func) + "()")
    return ".".join(reversed(parts))


def name_chain(node: ast.AST) -> str:
    """Lower-cased dotted chain for fuzzy receiver matching."""
    return dotted_name(node).lower()


def param_names(fn: ast.AST) -> List[str]:
    """All parameter names of a function definition."""
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def walk_function(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/lambdas
    (a closure has its own scope and, usually, its own contract)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

@dataclass
class CheckReport:
    """Outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    parse_errors: List[Finding] = field(default_factory=list)
    rules_run: List[str] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the run is clean (no new findings, no parse errors)."""
        return not self.findings and not self.parse_errors

    @property
    def all_findings(self) -> List[Finding]:
        return self.parse_errors + self.findings

    def per_rule_counts(self) -> Dict[str, int]:
        counts = {rule_id: 0 for rule_id in self.rules_run}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts

    # -- renderers -----------------------------------------------------
    def render_text(self) -> str:
        lines = [f.render() for f in self.all_findings]
        total = len(self.all_findings)
        lines.append(
            f"{total} finding{'s' if total != 1 else ''} "
            f"({self.suppressed} suppressed) in {self.files_scanned} files"
        )
        return "\n".join(lines)

    def render_stats(self) -> str:
        """The ``--stats`` trend summary printed in CI logs."""
        rows = sorted(self.per_rule_counts().items())
        width = max((len(r) for r, _ in rows), default=4)
        lines = ["repro-check stats"]
        for rule_id, count in rows:
            lines.append(f"  {rule_id:<{width}}  {count}")
        lines.append(
            f"  files scanned: {self.files_scanned}, suppressed: "
            f"{self.suppressed}, runtime: {self.duration_s * 1e3:.1f} ms"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "findings": [
                {
                    "rule": f.rule_id,
                    "severity": f.severity,
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "message": f.message,
                }
                for f in self.all_findings
            ],
            "stats": {
                "files_scanned": self.files_scanned,
                "suppressed": self.suppressed,
                "per_rule": self.per_rule_counts(),
                "duration_s": self.duration_s,
            },
        }


class CheckEngine:
    """Run a rule set over files and directories.

    ``rules`` may mix per-module :class:`LintRule`\\ s and cross-module
    project rules (``rule.project`` is True); the engine partitions
    them itself.  ``config`` is the ``[tool.repro-check]`` table --
    pass None to auto-discover the nearest ``pyproject.toml`` above the
    scanned paths.
    """

    def __init__(
        self,
        rules: Optional[Sequence[LintRule]] = None,
        *,
        config: Optional[dict] = None,
    ) -> None:
        if rules is None:
            from repro.check.rules import all_rules

            rules = all_rules()
        for rule in rules:
            if rule.severity not in _SEVERITIES:
                raise ValueError(
                    f"{rule.rule_id}: severity must be one of {_SEVERITIES}, "
                    f"got {rule.severity!r}"
                )
        self.rules = list(rules)
        self.config = config

    @property
    def local_rules(self) -> List[LintRule]:
        return [r for r in self.rules if not getattr(r, "project", False)]

    @property
    def project_rules(self) -> List[LintRule]:
        return [r for r in self.rules if getattr(r, "project", False)]

    # ------------------------------------------------------------------
    def _run_local(self, module: Module) -> Tuple[List[Finding], int]:
        kept: List[Finding] = []
        suppressed = 0
        for rule in self.local_rules:
            for finding in rule.check(module):
                if module.is_suppressed(finding):
                    suppressed += 1
                else:
                    kept.append(finding)
        return kept, suppressed

    def check_source(
        self, path: str, source: str
    ) -> Tuple[List[Finding], int]:
        """Run every applicable rule over one in-memory module; project
        rules see a single-module index (so intra-module lock order,
        async reachability etc. still fire).

        Returns ``(findings, suppressed_count)``; parse failures raise
        ``SyntaxError`` (the path-walking entry point converts them to
        findings instead).
        """
        from repro.check.callgraph import ProjectIndex, build_module_summary

        module = Module(path, source)
        kept, suppressed = self._run_local(module)
        config = self.config or {}
        index = ProjectIndex(
            {path: build_module_summary(module)}, config
        )
        for rule in self.project_rules:
            rule.configure(config)
            for finding in rule.check_project(index):
                if module.is_suppressed(finding):
                    suppressed += 1
                else:
                    kept.append(finding)
        kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return kept, suppressed

    def check_paths(
        self,
        paths: Sequence[str],
        restrict: Optional[Set[str]] = None,
    ) -> CheckReport:
        """Walk ``paths`` (files or directories) and lint every ``.py``.

        ``restrict`` limits *reported* findings to the given posix
        paths (``--changed-only``); every file is still summarised so
        the cross-module rules see the whole project.
        """
        from repro.check.callgraph import (
            ModuleSummary,
            ProjectIndex,
            build_module_summary,
        )

        started = time.perf_counter()
        report = CheckReport(rules_run=[r.rule_id for r in self.rules])
        if self.config is not None:
            config = self.config
        else:
            from repro.check.rules.layering import load_check_config

            config = load_check_config(paths[0] if paths else None)

        summaries: Dict[str, "ModuleSummary"] = {}
        tables: Dict[str, Dict[int, Set[str]]] = {}
        collected: List[Finding] = []
        for file_path in self._collect(paths):
            posix = file_path.as_posix()
            report.files_scanned += 1
            try:
                module = Module(posix, file_path.read_text())
            except SyntaxError as exc:
                report.parse_errors.append(Finding(
                    rule_id="PARSE",
                    severity="error",
                    path=posix,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"could not parse: {exc.msg}",
                ))
                continue
            findings, suppressed = self._run_local(module)
            summaries[posix] = build_module_summary(module)
            tables[posix] = module.suppressions()
            report.suppressed += suppressed
            collected.extend(findings)

        index = ProjectIndex(summaries, config)
        for rule in self.project_rules:
            rule.configure(config)
            for finding in rule.check_project(index):
                table = tables.get(finding.path, {})
                if is_suppressed_by(finding, table):
                    report.suppressed += 1
                else:
                    collected.append(finding)

        if restrict is not None:
            collected = [f for f in collected if f.path in restrict]
            report.parse_errors = [
                f for f in report.parse_errors if f.path in restrict
            ]
        collected.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        report.findings = collected
        report.duration_s = time.perf_counter() - started
        return report

    @staticmethod
    def _collect(paths: Sequence[str]) -> List[Path]:
        files: List[Path] = []
        for raw in paths:
            path = Path(raw)
            if not path.exists():
                raise FileNotFoundError(f"no such file or directory: {raw}")
            if path.is_dir():
                files.extend(
                    p
                    for p in sorted(path.rglob("*.py"))
                    if "__pycache__" not in p.parts
                )
            elif path.suffix == ".py":
                files.append(path)
        return files
