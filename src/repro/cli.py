"""Command-line interface.

Installed as ``python -m repro`` (see ``__main__.py``). Sub-commands:

``solve``
    Compute the connected components of a graph (edge-list file or a
    built-in generator) with a selectable engine.
``tables``
    Print the Table 1 / Table 2 / total-generation reproductions for one
    field size.
``synthesize``
    Print the Section 4 hardware estimate for one field size.
``trace``
    Replay a small instance generation by generation (Figure 3 style).
``closure``
    All-pairs reachability via the GCA transitive-closure machine.
``sweep``
    Run an oracle-verified engine sweep and print the summary (optionally
    archiving the raw records as JSON).
``sparse-sweep``
    The sparse-scale counterpart: random edge lists shared with worker
    processes via zero-copy shared memory.
``serve``
    Run the request server behind the asyncio socket gateway
    (``--listen HOST:PORT``): binary wire protocol, JSON lines and a
    small HTTP surface on one port.  SIGTERM/SIGINT drain before
    stopping, bounded by ``--drain-timeout``.
``serve-bench``
    Drive the micro-batching request server with an open- or closed-loop
    workload and print throughput, occupancy, tail latency and the
    shed/deadline counters (optionally against the naive sequential
    baseline).  With ``--listen`` the same workload travels the binary
    wire protocol over ``--connections`` persistent loopback sockets
    through an in-process gateway, labels are verified against the
    oracle, and the report adds client-side wire latency percentiles.
``reproduce``
    Run the acceptance harness: a quick PASS/FAIL verdict for every
    experiment E1-E20.
``check``
    Run the repo-specific static analysis (CROW discipline,
    double-buffer hygiene, shm/concurrency hygiene) over source paths;
    text, ``--json`` or ``--sarif`` output, optional ``--baseline``.

Examples::

    python -m repro check src/ --stats
    python -m repro check src/ --json --baseline check_baseline.json
    python -m repro solve --random 16 --method interpreter --sanitize
    python -m repro serve-bench --executor pool --sanitize-shm
    python -m repro solve graph.edges --method vectorized
    python -m repro solve --random 64 --p 0.1 --seed 7
    python -m repro solve --random-sparse 100000 300000 --method auto
    python -m repro solve --random-sparse 500000 2000000 --method parallel \
        --variant fastsv --kernel-workers 4
    python -m repro solve --random-sparse 2000000 8000000 --method sharded \
        --shards 4 --memory-budget 256M
    python -m repro tables --n 8
    python -m repro synthesize --n 16
    python -m repro trace --n 4 --edges 0-1,1-3
    python -m repro closure --n 6 --edges 0-1,1-2,4-5 --query 0-2
    python -m repro sweep --sizes 8,16 --engines vectorized,unionfind
    python -m repro sparse-sweep --sizes 10000,50000 --jobs 4
    python -m repro serve --listen 127.0.0.1:7421 --workers 2
    python -m repro serve --listen 0.0.0.0:7421 --cache-bytes 64M
    python -m repro serve-bench --count 200 --baseline
    python -m repro serve-bench --rps 2000 --deadline 0.05 --json serve.json
    python -m repro serve-bench --executor pool --process-workers 2
    python -m repro serve-bench --cache-bytes 1048576 --duplicate-fraction 0.5
    python -m repro serve-bench --listen --connections 1000 --rps 4000
    python -m repro reproduce [--only E1,E6]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.analysis import (
    compare_table1,
    compare_table2,
    measured_total,
    render_table1,
    render_table2,
    render_totals,
)
from repro.core.api import GraphLike, connected_components
from repro.core.machine import connected_components_interpreter
from repro.core.trace import TraceRecorder
from repro.graphs.generators import from_edges, random_graph
from repro.graphs.io import load_edge_list
from repro.hardware import paper_report, synthesize
from repro.hirschberg.edgelist import random_edge_list


def _parse_edges(spec: str) -> List[tuple]:
    """Parse ``"0-1,1-3"`` into ``[(0, 1), (1, 3)]``."""
    edges = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split("-")
        if len(pieces) != 2:
            raise ValueError(f"malformed edge {part!r}; expected 'a-b'")
        edges.append((int(pieces[0]), int(pieces[1])))
    return edges


_BYTE_SUFFIXES = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}


def _parse_bytes(spec: str) -> int:
    """Parse ``"512M"`` / ``"2G"`` / ``"1073741824"`` into bytes."""
    text = spec.strip().upper()
    if text.endswith("B"):
        text = text[:-1]
    factor = 1
    if text and text[-1] in _BYTE_SUFFIXES:
        factor = _BYTE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = int(float(text) * factor)
    except ValueError:
        raise ValueError(
            f"malformed byte size {spec!r}; expected e.g. 512M, 2G or a "
            f"plain byte count"
        ) from None
    if value < 1:
        raise ValueError(f"byte size must be >= 1, got {spec!r}")
    return value


def _load_graph(args: argparse.Namespace) -> GraphLike:
    if args.graph_file:
        return load_edge_list(args.graph_file)
    if args.random_sparse:
        n, m = args.random_sparse
        return random_edge_list(n, m, seed=args.seed)
    if args.random:
        return random_graph(args.random, args.p, seed=args.seed)
    raise SystemExit(
        "solve: provide an edge-list file, --random N or --random-sparse N M"
    )


#: ``solve`` suppresses the per-component listing above this many nodes
#: (the listing is a Python loop; at sparse scale it would dwarf the solve).
_LISTING_LIMIT = 10_000


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    budget = _parse_bytes(args.memory_budget) if args.memory_budget else None
    result = connected_components(
        graph, engine=args.method, early_exit=args.early_exit,
        sanitize=args.sanitize, shards=args.shards, memory_budget=budget,
        variant=args.variant, kernel_workers=args.kernel_workers,
    )
    shown = (f"auto -> {result.method}" if args.method == "auto"
             else args.method)
    print(f"n = {graph.n}, edges = {graph.edge_count}, method = {shown}")
    if result.method == "parallel" and result.detail is not None:
        d = result.detail
        mode = (f"pooled x{d.workers}" if d.pooled else "inline")
        print(f"parallel: variant={d.variant}, rounds={d.rounds} "
              f"(+{d.confirm_rounds} confirm), chunks={d.chunks}, {mode}")
    print(f"components: {result.component_count}")
    if args.sanitize and getattr(result.detail, "sanitizer", None) is not None:
        print(result.detail.sanitizer.summary())
    if args.early_exit and result.detail.converged_at_iteration is not None:
        print(f"converged at iteration {result.detail.converged_at_iteration} "
              f"({result.detail.total_generations} generations)")
    if args.labels:
        print("labels:", " ".join(map(str, result.labels.tolist())))
    elif graph.n <= _LISTING_LIMIT:
        for component in result.components():
            print(f"  [{component[0]}] {component}")
    else:
        print(f"(component listing suppressed for n > {_LISTING_LIMIT}; "
              f"use --labels for the raw vector)")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    n = args.n
    graph = random_graph(n, 0.3, seed=args.seed)
    res = connected_components_interpreter(graph)
    print(render_table1(n, compare_table1(n, res.access_log)))
    print()
    print(render_table2(n, compare_table2(n, res.access_log)))
    print()
    print(render_totals([measured_total(n, res.access_log)]))
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    report = synthesize(args.n)
    print(f"model  (n={args.n:3d}): {report.summary()}")
    if args.n == paper_report().n:
        print(f"paper  (n= 16): {paper_report().summary()}")
    print(f"device utilisation (EP2C70): {report.device_utilisation:.1%}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    edges = _parse_edges(args.edges) if args.edges else []
    graph = from_edges(args.n, edges)
    recorder = TraceRecorder(graph)
    recorder.run()
    print(recorder.render())
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    from repro.extensions.transitive_closure import transitive_closure_gca

    edges = _parse_edges(args.edges) if args.edges else []
    graph = from_edges(args.n, edges)
    result = transitive_closure_gca(graph, record_access=False)
    print(f"n = {args.n}, edges = {graph.edge_count}, "
          f"squarings = {result.squarings}")
    if args.query:
        for a, b in _parse_edges(args.query):
            print(f"reachable({a}, {b}) = {result.reachable(a, b)}")
    else:
        for i in range(args.n):
            reach = np.flatnonzero(result.closure[i]).tolist()
            print(f"  {i}: {reach}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweep import SweepSpec, dumps_records, run_sweep, summarize
    from repro.util.formatting import render_table

    spec = SweepSpec(
        name="cli",
        sizes=[int(x) for x in args.sizes.split(",") if x],
        engines=[e for e in args.engines.split(",") if e],
        densities=[args.p],
        workload=args.workload,
        seeds=list(range(args.repeats)),
    )
    records = run_sweep(spec, jobs=args.jobs)
    print(render_table(
        ["engine", "n", "runs", "median ms", "all correct", "generations"],
        summarize(records),
        title=f"sweep: {spec.run_count} runs, workload={spec.workload}",
    ))
    if not all(r.correct for r in records):
        print("error: some runs diverged from the oracle", file=sys.stderr)
        return 1
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(dumps_records(records))
        print(f"records written to {args.json}")
    return 0


def _cmd_sparse_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweep import (
        SparseSweepSpec,
        dumps_records,
        run_sparse_sweep,
    )
    from repro.util.formatting import render_table

    spec = SparseSweepSpec(
        name="cli-sparse",
        sizes=[int(x) for x in args.sizes.split(",") if x],
        edge_factors=[float(x) for x in args.edge_factors.split(",") if x],
        engines=[e for e in args.engines.split(",") if e],
        seeds=list(range(args.repeats)),
    )
    records = run_sparse_sweep(spec, jobs=args.jobs)
    rows = [
        [r.engine, r.resolved_engine, r.n, r.m,
         round(r.seconds * 1e3, 3), r.correct]
        for r in records
    ]
    print(render_table(
        ["engine", "resolved", "n", "m", "ms", "correct"],
        rows,
        title=f"sparse sweep: {spec.run_count} runs (shared-memory workers)",
    ))
    if not all(r.correct for r in records):
        print("error: some runs diverged from the oracle", file=sys.stderr)
        return 1
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(dumps_records(records))
        print(f"records written to {args.json}")
    return 0


def _parse_listen(spec: str) -> tuple:
    """Parse ``"HOST:PORT"`` (or ``":PORT"`` for all interfaces)."""
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        raise ValueError(
            f"malformed listen address {spec!r}; expected HOST:PORT"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"malformed port in listen address {spec!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in listen address {spec!r}")
    return (host or "0.0.0.0", port)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.gateway import GatewayConfig, run_gateway
    from repro.serve.server import Server, ServerConfig

    host, port = _parse_listen(args.listen)
    config = ServerConfig(
        workers=args.workers,
        max_wait=args.max_wait,
        max_queue=args.max_queue,
        admission=args.admission,
        executor=args.executor,
        process_workers=args.process_workers,
        cache_bytes=(_parse_bytes(args.cache_bytes)
                     if args.cache_bytes else 0),
        cache_verify=args.cache_verify,
    )
    gw_config = GatewayConfig(
        host=host,
        port=port,
        max_payload_bytes=_parse_bytes(args.max_payload),
        chunk_labels=args.chunk_labels,
        default_deadline=args.deadline if args.deadline > 0 else None,
        drain_timeout=args.drain_timeout,
    )

    def announce(bound_host: str, bound_port: int) -> None:
        print(f"serving on {bound_host}:{bound_port} "
              f"(binary wire protocol + JSON lines + HTTP)", flush=True)

    with Server(config) as server:
        drained = run_gateway(server, gw_config, announce=announce)
    if drained:
        print("drained and stopped cleanly")
        return 0
    print(f"error: drain exceeded {args.drain_timeout:g}s; "
          f"pending requests were cancelled", file=sys.stderr)
    return 1


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import (
        LoadSpec,
        make_workload,
        naive_seconds,
        oracle_labels,
        run_closed_loop,
        run_open_loop,
        run_socket_closed_loop,
        run_socket_open_loop,
    )
    from repro.serve.server import Server, ServerConfig

    if args.listen and args.dense_fraction:
        print("error: --listen carries edge lists only; "
              "use --dense-fraction 0", file=sys.stderr)
        return 2

    spec = LoadSpec(
        count=args.count,
        sizes=tuple(int(x) for x in args.sizes.split(",") if x),
        size_skew=args.size_skew,
        edge_factor=args.edge_factor,
        dense_fraction=args.dense_fraction,
        duplicate_fraction=args.duplicate_fraction,
        seed=args.seed,
    )
    graphs = make_workload(spec)
    config = ServerConfig(
        workers=args.workers,
        max_wait=args.max_wait,
        executor=args.executor,
        process_workers=args.process_workers,
        cache_bytes=args.cache_bytes,
        cache_verify=args.cache_verify,
    )
    deadline = args.deadline if args.deadline > 0 else None

    naive = naive_seconds(graphs) if args.baseline else None
    shm_report = None
    if args.sanitize_shm:
        from contextlib import ExitStack

        from repro.check.sanitizer import shm_sanitizer

        stack = ExitStack()
        shm_report = stack.enter_context(shm_sanitizer(strict=False))
    else:
        stack = None
    wire_results = None
    try:
        with Server(config) as server:
            if args.listen:
                from repro.serve.gateway import GatewayHandle

                with GatewayHandle(server) as gateway:
                    start = time.perf_counter()
                    if args.rps > 0:
                        wire_results = run_socket_open_loop(
                            gateway.address, graphs, offered_rps=args.rps,
                            connections=args.connections, deadline=deadline,
                            seed=spec.seed,
                            settle_timeout=args.wait_timeout,
                        )
                    else:
                        wire_results = run_socket_closed_loop(
                            gateway.address, graphs,
                            connections=args.connections, deadline=deadline,
                        )
                    served = time.perf_counter() - start
                    snapshot = server.metrics_snapshot()
            else:
                start = time.perf_counter()
                if args.rps > 0:
                    handles = run_open_loop(server, graphs,
                                            offered_rps=args.rps,
                                            deadline=deadline, seed=spec.seed)
                else:
                    handles = run_closed_loop(server, graphs,
                                              concurrency=args.concurrency,
                                              deadline=deadline)
                responses = [h.response(timeout=args.wait_timeout)
                             for h in handles]
                served = time.perf_counter() - start
                snapshot = server.metrics_snapshot()
    finally:
        if stack is not None:
            stack.close()
    if shm_report is not None:
        print(shm_report.summary())
        from repro.check.sanitizer import ShmSanitizerError

        try:
            shm_report.verify()
        except ShmSanitizerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    wire_client = None
    mismatches = 0
    if wire_results is not None:
        total = len(wire_results)
        answered = [r for r in wire_results if r is not None]
        oks = [r for r in answered if r.ok]
        for r in oks:
            if not np.array_equal(r.labels, oracle_labels(
                    graphs[r.request_id])):
                mismatches += 1
        ok = len(oks) - mismatches
        lat_ms = np.array([r.latency_seconds for r in oks]) * 1e3 \
            if oks else np.array([0.0])
        wire_client = {
            "connections": args.connections,
            "answered": len(answered),
            "ok": len(oks),
            "label_mismatches": mismatches,
            "p50_ms": round(float(np.percentile(lat_ms, 50)), 4),
            "p99_ms": round(float(np.percentile(lat_ms, 99)), 4),
            "mean_ms": round(float(lat_ms.mean()), 4),
        }
        print(f"wire: {len(oks)}/{total} ok over {args.connections} "
              f"connection(s) in {served * 1e3:.1f} ms "
              f"({total / served:.0f} rps offered-side)")
        print(f"wire latency ms: p50 {wire_client['p50_ms']}, "
              f"p99 {wire_client['p99_ms']} "
              f"(client-side, end to end)")
        if mismatches:
            print(f"error: {mismatches} label vector(s) diverged from "
                  f"the oracle", file=sys.stderr)
        responses = answered  # counted below as the served set
    else:
        ok = sum(r.ok for r in responses)
    print(f"served {ok}/{len(responses)} ok in {served * 1e3:.1f} ms "
          f"({len(responses) / served:.0f} rps)")
    if naive is not None:
        print(f"naive sequential baseline: {naive * 1e3:.1f} ms "
              f"(speedup {naive / served:.2f}x)")
    occupancy = snapshot["batch_occupancy"]
    print(f"batches: {snapshot['counters']['batches']} "
          f"(mean occupancy {occupancy['mean']}, max {occupancy['max']})")
    counters = snapshot["counters"]
    print(f"shed: {counters['shed']}, timed out: {counters['timed_out']}, "
          f"deadline misses: {counters['deadline_misses']}")
    latency = snapshot["latency"]
    if latency["count"]:
        print(f"latency ms: p50 {latency['p50_ms']}, "
              f"p95 {latency['p95_ms']}, p99 {latency['p99_ms']}")
    if args.executor == "pool":
        gauges = snapshot["gauges"]
        print(f"pool: restarts {gauges['pool_restarts']}, dispatch "
              f"overhead {gauges['pool_dispatch_overhead_s'] * 1e3:.2f} ms")
    if "cache" in snapshot:
        cache = snapshot["cache"]
        print(f"cache: {cache['hits']} hits, {cache['misses']} misses, "
              f"{cache['evictions']} evictions, "
              f"{cache['bytes_used']} bytes used")
    if args.json:
        from pathlib import Path

        payload = dict(snapshot)
        payload["bench"] = {
            "count": len(graphs),
            "ok": ok,
            "served_seconds": served,
            "naive_seconds": naive,
        }
        if wire_client is not None:
            payload["bench"]["wire_client"] = wire_client
        Path(args.json).write_text(json.dumps(payload, indent=2,
                                              sort_keys=True) + "\n")
        print(f"snapshot written to {args.json}")
    return 0 if ok == len(graphs) or args.allow_failures else 1


def _changed_python_files(paths: List[str]) -> Optional[Set[str]]:
    """Posix paths of tracked-but-modified plus untracked ``.py`` files
    under ``paths``, from git; ``None`` when git is unavailable."""
    import subprocess

    changed: Set[str] = set()
    for argv in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        changed.update(
            line.strip() for line in proc.stdout.splitlines()
            if line.strip().endswith(".py")
        )
    roots = [Path(p).as_posix().rstrip("/") for p in paths]
    return {
        f for f in changed
        if any(f == r or f.startswith(r + "/") for r in roots)
    }


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import (
        CheckEngine,
        StaleBaselineError,
        all_rules,
        load_baseline,
        write_baseline,
    )

    only = [r for r in args.rules.split(",") if r] or None
    cache_path = None if args.no_cache else args.cache
    engine = CheckEngine(all_rules(only=only), cache_path=cache_path)
    baseline = load_baseline(args.baseline) if args.baseline else None
    restrict: Optional[Set[str]] = None
    if args.changed_only:
        restrict = _changed_python_files(args.paths)
        if restrict is None:
            print(
                "repro check: --changed-only needs a git checkout "
                "(git diff failed)",
                file=sys.stderr,
            )
            return 2
    try:
        report = engine.check_paths(
            args.paths, baseline=baseline, restrict=restrict
        )
    except StaleBaselineError as exc:
        print(f"repro check: stale baseline: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        write_baseline(
            report.findings + report.baselined, args.write_baseline
        )
        print(f"baseline with {len(report.findings) + len(report.baselined)} "
              f"finding(s) written to {args.write_baseline}")
        return 0
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    elif args.sarif:
        print(json.dumps(report.to_sarif(engine.rules), indent=2))
    else:
        print(report.render_text())
    if args.stats:
        print(report.render_stats())
    return 0 if report.ok else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.reproduce import render, run_all

    only = [x for x in args.only.split(",") if x] if args.only else None
    results = run_all(only=only)
    print(render(results))
    return 0 if results and all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Hirschberg's connected-components algorithm on a Global "
            "Cellular Automaton (IPPS 2007 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute connected components")
    solve.add_argument("graph_file", nargs="?", help="edge-list file")
    solve.add_argument("--random", type=int, metavar="N",
                       help="use a random G(N, p) instead of a file")
    solve.add_argument("--random-sparse", type=int, nargs=2,
                       metavar=("N", "M"),
                       help="use a sparse random edge list with N nodes "
                            "and up to M edges (never densified)")
    solve.add_argument("--p", type=float, default=0.1,
                       help="edge probability for --random (default 0.1)")
    solve.add_argument("--seed", type=int, default=None, help="random seed")
    solve.add_argument(
        "--method",
        choices=["auto", "vectorized", "batched", "edgelist", "contracting",
                 "parallel", "sharded", "interpreter", "reference", "pram"],
        default="vectorized",
        help="execution engine; 'auto' picks contracting, or sharded "
             "when contracting's working set exceeds the probed memory, "
             "and reports its choice",
    )
    solve.add_argument("--variant",
                       choices=["sv", "fastsv", "stochastic"],
                       default=None,
                       help="update rule for --method parallel "
                            "(default fastsv)")
    solve.add_argument("--kernel-workers", type=int, default=None,
                       metavar="W",
                       help="shm pool workers for --method parallel "
                            "(default 1 = inline serial kernels)")
    solve.add_argument("--shards", type=int, default=None, metavar="K",
                       help="shard count for --method sharded "
                            "(default: planned from the memory budget)")
    solve.add_argument("--memory-budget", default="", metavar="BYTES",
                       help="resident memory budget for --method sharded, "
                            "e.g. 512M or 2G (default: half of the host's "
                            "available memory)")
    solve.add_argument("--labels", action="store_true",
                       help="print the raw label vector")
    solve.add_argument("--early-exit", action="store_true",
                       help="stop at the label fixed point "
                            "(vectorized method only)")
    solve.add_argument("--sanitize", action="store_true",
                       help="run on the CROW write-barrier interpreter: "
                            "any cross-cell write raises and the read "
                            "accounting is cross-checked (method must be "
                            "auto or interpreter; slow)")
    solve.set_defaults(func=_cmd_solve)

    tables = sub.add_parser("tables", help="print the Table 1/2 reproductions")
    tables.add_argument("--n", type=int, default=8, help="field size")
    tables.add_argument("--seed", type=int, default=0)
    tables.set_defaults(func=_cmd_tables)

    synth = sub.add_parser("synthesize", help="hardware cost estimate")
    synth.add_argument("--n", type=int, default=16, help="field size")
    synth.set_defaults(func=_cmd_synthesize)

    trace = sub.add_parser("trace", help="generation-by-generation replay")
    trace.add_argument("--n", type=int, default=4, help="node count")
    trace.add_argument("--edges", default="",
                       help="comma-separated edges, e.g. 0-1,1-3")
    trace.set_defaults(func=_cmd_trace)

    closure = sub.add_parser("closure", help="all-pairs reachability (GCA)")
    closure.add_argument("--n", type=int, default=4, help="node count")
    closure.add_argument("--edges", default="",
                         help="comma-separated edges, e.g. 0-1,1-3")
    closure.add_argument("--query", default="",
                         help="reachability queries, e.g. 0-3,1-2")
    closure.set_defaults(func=_cmd_closure)

    sweep = sub.add_parser("sweep", help="oracle-verified engine sweep")
    sweep.add_argument("--sizes", default="8,16", help="comma-separated n")
    sweep.add_argument("--engines", default="vectorized,unionfind")
    sweep.add_argument("--p", type=float, default=0.1, help="edge probability")
    sweep.add_argument("--workload", default="random",
                       choices=["random", "path", "tree", "planted"])
    sweep.add_argument("--repeats", type=int, default=1, help="seeds per cell")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the grid cells (default 1)")
    sweep.add_argument("--json", default="", help="archive records to file")
    sweep.set_defaults(func=_cmd_sweep)

    sparse = sub.add_parser(
        "sparse-sweep",
        help="verified sparse-engine sweep over shared-memory edge lists",
    )
    sparse.add_argument("--sizes", default="10000,50000",
                        help="comma-separated n")
    sparse.add_argument("--edge-factors", default="2.0",
                        help="comma-separated m/n ratios (default 2.0)")
    sparse.add_argument("--engines", default="edgelist,contracting",
                        help="comma-separated subset of "
                             "edgelist,contracting,auto")
    sparse.add_argument("--repeats", type=int, default=1,
                        help="seeds per cell")
    sparse.add_argument("--jobs", type=int, default=1,
                        help="worker processes attaching zero-copy views "
                             "(default 1)")
    sparse.add_argument("--json", default="", help="archive records to file")
    sparse.set_defaults(func=_cmd_sparse_sweep)

    listen = sub.add_parser(
        "serve",
        help="run the request server behind the asyncio socket gateway",
    )
    listen.add_argument("--listen", required=True, metavar="HOST:PORT",
                        help="bind address, e.g. 127.0.0.1:7421 "
                             "(port 0 picks an ephemeral port)")
    listen.add_argument("--workers", type=int, default=1,
                        help="server worker threads (default 1)")
    listen.add_argument("--executor", choices=["inline", "pool"],
                        default="inline",
                        help="'pool' executes flushed batches on a "
                             "persistent multi-process worker pool")
    listen.add_argument("--process-workers", type=int, default=0,
                        help="pool processes (0 = one per core with "
                             "--executor pool)")
    listen.add_argument("--max-wait", type=float, default=0.002,
                        help="batching window seconds (default 0.002)")
    listen.add_argument("--max-queue", type=int, default=1024,
                        help="admission queue depth (default 1024)")
    listen.add_argument("--admission", choices=["block", "shed", "fail"],
                        default="shed",
                        help="full-queue policy; 'shed' answers with a "
                             "typed SHED error frame (default)")
    listen.add_argument("--cache-bytes", default="", metavar="BYTES",
                        help="content-addressed result cache budget, "
                             "e.g. 64M (default: cache off)")
    listen.add_argument("--cache-verify", action="store_true",
                        help="re-solve and compare on each entry's first "
                             "cache hit before trusting it")
    listen.add_argument("--deadline", type=float, default=0.0,
                        help="default deadline seconds for wire requests "
                             "that carry none; 0 = none")
    listen.add_argument("--max-payload", default="256M", metavar="BYTES",
                        help="per-frame edge payload ceiling "
                             "(default 256M)")
    listen.add_argument("--chunk-labels", type=int, default=65536,
                        help="label values per streamed response chunk "
                             "(default 65536)")
    listen.add_argument("--drain-timeout", type=float, default=10.0,
                        help="bound in seconds on the SIGTERM/SIGINT "
                             "drain (default 10)")
    listen.set_defaults(func=_cmd_serve)

    serve = sub.add_parser(
        "serve-bench",
        help="micro-batching server benchmark (open or closed loop)",
    )
    serve.add_argument("--count", type=int, default=200,
                       help="requests in the workload (default 200)")
    serve.add_argument("--sizes", default="8,16,32,64,128,256",
                       help="comma-separated node-count ladder")
    serve.add_argument("--size-skew", type=float, default=1.0,
                       help="weight ~ n^-skew; small requests dominate "
                            "(default 1.0)")
    serve.add_argument("--edge-factor", type=float, default=2.0,
                       help="edges per node for sparse requests")
    serve.add_argument("--dense-fraction", type=float, default=0.0,
                       help="fraction of dense adjacency requests")
    serve.add_argument("--duplicate-fraction", type=float, default=0.0,
                       help="probability a request repeats an earlier "
                            "graph (exercises the result cache)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--workers", type=int, default=1,
                       help="worker threads (default 1)")
    serve.add_argument("--executor", choices=["inline", "pool"],
                       default="inline",
                       help="'pool' executes flushed batches on a "
                            "persistent multi-process worker pool")
    serve.add_argument("--process-workers", type=int, default=0,
                       help="pool processes (0 = one per core with "
                            "--executor pool)")
    serve.add_argument("--cache-bytes", type=int, default=0,
                       help="content-addressed result cache budget in "
                            "bytes (0 = cache off)")
    serve.add_argument("--cache-verify", action="store_true",
                       help="re-solve and compare on each entry's first "
                            "cache hit before trusting it")
    serve.add_argument("--max-wait", type=float, default=0.002,
                       help="batching window seconds (default 0.002)")
    serve.add_argument("--rps", type=float, default=0.0,
                       help="open-loop offered rate; 0 = closed loop")
    serve.add_argument("--concurrency", type=int, default=8,
                       help="closed-loop client threads (default 8)")
    serve.add_argument("--listen", action="store_true",
                       help="drive the workload over the binary wire "
                            "protocol through an in-process gateway on "
                            "a loopback socket, verifying every label "
                            "vector against the oracle")
    serve.add_argument("--connections", type=int, default=64,
                       help="persistent wire connections with --listen "
                            "(default 64)")
    serve.add_argument("--deadline", type=float, default=0.0,
                       help="per-request deadline seconds; 0 = none")
    serve.add_argument("--wait-timeout", type=float, default=120.0,
                       help="seconds to wait for each response")
    serve.add_argument("--baseline", action="store_true",
                       help="also time the naive sequential baseline")
    serve.add_argument("--allow-failures", action="store_true",
                       help="exit 0 even when some requests did not "
                            "resolve ok (overload experiments)")
    serve.add_argument("--sanitize-shm", action="store_true",
                       help="observe the shared-memory layer for the whole "
                            "bench: leaked segments, double-acquired slabs "
                            "and write-epoch races fail the run")
    serve.add_argument("--json", default="",
                       help="write the metrics snapshot to a file")
    serve.set_defaults(func=_cmd_serve_bench)

    reproduce = sub.add_parser(
        "reproduce", help="PASS/FAIL verdict for every experiment"
    )
    reproduce.add_argument("--only", default="",
                           help="comma-separated experiment ids, e.g. E1,E6")
    reproduce.set_defaults(func=_cmd_reproduce)

    check = sub.add_parser(
        "check",
        help="repo-specific static analysis (CROW / double-buffer / shm "
             "hygiene rules)",
    )
    check.add_argument("paths", nargs="*", default=["src"],
                       help="files or directories to lint (default: src)")
    check.add_argument("--rules", default="",
                       help="comma-separated rule ids to run "
                            "(default: all)")
    check.add_argument("--json", action="store_true",
                       help="print the findings as JSON")
    check.add_argument("--sarif", action="store_true",
                       help="print the findings as SARIF 2.1.0")
    check.add_argument("--stats", action="store_true",
                       help="append the per-rule trend summary (CI logs)")
    check.add_argument("--baseline", default="",
                       help="baseline file; only findings not recorded "
                            "there fail the run")
    check.add_argument("--write-baseline", default="", metavar="PATH",
                       help="record the current findings as the baseline "
                            "and exit 0")
    check.add_argument("--changed-only", action="store_true",
                       help="report findings only for files git considers "
                            "changed (all files are still summarized so "
                            "cross-module rules stay sound)")
    check.add_argument("--cache", default=".check_cache.json",
                       metavar="PATH",
                       help="incremental cache file (default: "
                            ".check_cache.json)")
    check.add_argument("--no-cache", action="store_true",
                       help="disable the incremental cache")
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
