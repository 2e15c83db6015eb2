"""Edge-list I/O for adjacency matrices and sparse edge lists.

Simple text formats so examples can load external graphs and benchmark
results can be archived:

* edge-list: first line ``n``, then one ``i j`` pair per line;
* dense matrix: whitespace-separated 0/1 rows (NumPy ``savetxt`` style).

The ``*_sparse`` functions read and write the *same* edge-list format
but produce/consume :class:`~repro.hirschberg.edgelist.EdgeListGraph`
instances and never materialise a dense matrix, so they scale to
multi-million-edge files.  The sparse loader takes a buffered fast path
-- one :func:`numpy.fromstring` call over the whole document instead of
a Python loop over lines -- whenever the text contains only digits and
whitespace; comments or unusual formatting fall back to the strict
line-by-line parser.  See ``benchmarks/bench_sparse_scaling.py`` for the
measured difference.
"""

from __future__ import annotations

import io as _io
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from repro.graphs.adjacency import AdjacencyMatrix
from repro.graphs.generators import from_edges
from repro.hirschberg.edgelist import EdgeListGraph

PathLike = Union[str, Path]

#: Characters the buffered sparse fast path accepts (deleting them must
#: leave nothing).  ``-`` is included so negative endpoints reach the
#: range check in ``from_arrays`` rather than silently degrading to the
#: slow parser.
_SPARSE_FAST_TABLE = {ord(c): None for c in "0123456789- \t\n\r"}


def dumps_edge_list(graph: AdjacencyMatrix) -> str:
    """Serialise ``graph`` to the edge-list text format."""
    lines = [str(graph.n)]
    lines.extend(f"{i} {j}" for i, j in graph.edges())
    return "\n".join(lines) + "\n"


def loads_edge_list(text: str) -> AdjacencyMatrix:
    """Parse the edge-list text format produced by :func:`dumps_edge_list`.

    Blank lines and ``#`` comments are ignored.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty edge-list document")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"first line must be the node count, got {lines[0]!r}") from exc
    edges: List[Tuple[int, int]] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return from_edges(n, edges)


def save_edge_list(graph: AdjacencyMatrix, path: PathLike) -> None:
    """Write ``graph`` to ``path`` in edge-list format."""
    Path(path).write_text(dumps_edge_list(graph))


def load_edge_list(path: PathLike) -> AdjacencyMatrix:
    """Read a graph from an edge-list file."""
    return loads_edge_list(Path(path).read_text())


def dumps_edge_list_sparse(graph: EdgeListGraph) -> str:
    """Serialise a sparse graph to the edge-list text format.

    The output is interchangeable with :func:`dumps_edge_list`'s: header
    ``n``, then one canonical ``u v`` pair per line.
    """
    u, v = graph.pairs()
    buf = _io.StringIO()
    buf.write(f"{graph.n}\n")
    if u.size:
        np.savetxt(buf, np.stack([u, v], axis=1), fmt="%d")
    return buf.getvalue()


def loads_edge_list_sparse(text: str) -> EdgeListGraph:
    """Parse edge-list text into an :class:`EdgeListGraph` (no dense matrix).

    Fast path: when the document is purely numeric, the whole text is
    parsed with one ``np.fromstring`` call (orders of magnitude faster
    than a line loop at multi-million-edge scale).  Documents with
    comments or blank lines take the strict line-by-line path; both
    normalise through ``EdgeListGraph.from_arrays`` (self-loops dropped,
    parallel edges deduplicated, endpoints range-checked).
    """
    if text.strip() and not text.translate(_SPARSE_FAST_TABLE):
        values = np.fromstring(text, dtype=np.int64, sep=" ")
        if (values.size - 1) % 2:
            raise ValueError(
                f"expected 'n' then (u, v) pairs; got {values.size} tokens"
            )
        return EdgeListGraph.from_arrays(
            int(values[0]), values[1::2], values[2::2]
        )
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty edge-list document")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(
            f"first line must be the node count, got {lines[0]!r}"
        ) from exc
    pairs: List[Tuple[int, int]] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return EdgeListGraph.from_edges(n, pairs)


#: Bytes read per block by the streaming loader (split at the last
#: newline, so lines never straddle blocks).
_STREAM_BLOCK_BYTES = 16 << 20


def open_edge_list_stream(
    path: PathLike, chunk_edges: int = 1 << 20
):
    """Stream an edge-list file as ``(n, iterator of (u, v) chunks)``.

    The out-of-core ingestion path for
    :func:`repro.hirschberg.sharded.connected_components_sharded`: the
    header is read eagerly (so ``n`` is available for planning), then
    the body is consumed lazily in byte blocks, each split at its last
    newline and parsed with one vectorised ``np.fromstring`` call --
    the full edge list is **never materialised**; peak memory is one
    block plus one emitted chunk.  Blocks containing comments or
    stray tokens fall back to a line-by-line parse of just that block.

    Yields int64 ``(u, v)`` array pairs of at most ``chunk_edges``
    edges.  Endpoints are *not* range-checked here (the consumer
    compacts and checks per shard); pairs are emitted exactly as
    written, so self-loops and duplicates survive to the consumer's
    normalisation, same as :func:`loads_edge_list_sparse`.
    """
    if chunk_edges < 1:
        raise ValueError(f"chunk_edges must be >= 1, got {chunk_edges}")
    path = Path(path)
    handle = open(path, "rb")
    header = b""
    try:
        while True:
            line = handle.readline()
            if not line:
                raise ValueError("empty edge-list document")
            stripped = line.strip()
            if stripped and not stripped.startswith(b"#"):
                header = stripped
                break
        n = int(header)
    except ValueError:
        handle.close()
        if header and not header.isdigit():
            raise ValueError(
                f"first line must be the node count, got {header.decode()!r}"
            ) from None
        raise

    def _parse_block(block: bytes) -> np.ndarray:
        text = block.decode("ascii", errors="strict")
        if not text.translate(_SPARSE_FAST_TABLE):
            values = np.fromstring(text, dtype=np.int64, sep=" ")
        else:
            tokens: List[int] = []
            for ln in text.splitlines():
                ln = ln.strip()
                if not ln or ln.startswith("#"):
                    continue
                parts = ln.split()
                if len(parts) != 2:
                    raise ValueError(f"malformed edge line {ln!r}")
                tokens.extend((int(parts[0]), int(parts[1])))
            values = np.asarray(tokens, dtype=np.int64)
        if values.size % 2:
            raise ValueError(
                f"expected (u, v) pairs; got {values.size} tokens in block"
            )
        return values

    def chunks():
        try:
            carry = b""
            pending = np.empty(0, dtype=np.int64)
            while True:
                block = handle.read(_STREAM_BLOCK_BYTES)
                if not block:
                    break
                block = carry + block
                cut = block.rfind(b"\n")
                if cut < 0:
                    carry = block
                    continue
                carry, block = block[cut + 1:], block[:cut + 1]
                values = _parse_block(block)
                if pending.size:
                    values = np.concatenate([pending, values])
                limit = 2 * chunk_edges
                start = 0
                while values.size - start >= limit:
                    part = values[start:start + limit]
                    yield part[0::2].copy(), part[1::2].copy()
                    start += limit
                pending = values[start:].copy()
            if carry.strip():
                tail = _parse_block(carry + b"\n")
                if tail.size:
                    pending = np.concatenate([pending, tail])
            for start in range(0, pending.size, 2 * chunk_edges):
                part = pending[start:start + 2 * chunk_edges]
                yield part[0::2].copy(), part[1::2].copy()
        finally:
            handle.close()

    return n, chunks()


def save_edge_list_sparse(graph: EdgeListGraph, path: PathLike) -> None:
    """Write a sparse graph to ``path`` in edge-list format."""
    Path(path).write_text(dumps_edge_list_sparse(graph))


def load_edge_list_sparse(path: PathLike) -> EdgeListGraph:
    """Read an edge-list file as an :class:`EdgeListGraph` (buffered)."""
    return loads_edge_list_sparse(Path(path).read_text())


def save_matrix(graph: AdjacencyMatrix, path: PathLike) -> None:
    """Write ``graph`` as a dense 0/1 matrix text file."""
    np.savetxt(path, graph.matrix, fmt="%d")


def load_matrix(path: PathLike) -> AdjacencyMatrix:
    """Read a dense 0/1 matrix text file as a graph."""
    data = np.loadtxt(path, dtype=np.int64)
    if data.ndim == 0:  # 1x1 matrix collapses to a scalar
        data = data.reshape(1, 1)
    elif data.ndim == 1:  # a single row collapses to 1-D
        data = data.reshape(1, -1)
    return AdjacencyMatrix(data)


def dumps_matrix(graph: AdjacencyMatrix) -> str:
    """Serialise ``graph`` as dense matrix text."""
    buf = _io.StringIO()
    np.savetxt(buf, graph.matrix, fmt="%d")
    return buf.getvalue()
