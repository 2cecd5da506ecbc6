"""Independent pure-Python/numpy oracles for the four graph workloads.

These deliberately share no code with the engines: SSSP/BFS use Dijkstra /
hop-BFS over adjacency dicts, PageRank and PHP solve their fixpoint linear
systems directly (dense solve for small graphs, damped iteration otherwise).
Engine tests compare against these, the same way SQL results are compared
against DuckDB.
"""
from __future__ import annotations

import heapq
from collections import defaultdict

import numpy as np
import pandas as pd

INF = float("inf")


def _adj(edges: pd.DataFrame) -> dict[int, list[tuple[int, float]]]:
    adj: dict[int, list[tuple[int, float]]] = defaultdict(list)
    for s, d, w in zip(edges.src.to_numpy(), edges.dst.to_numpy(), edges.w.to_numpy()):
        adj[int(s)].append((int(d), float(w)))
    return adj


def all_vertices(edges: pd.DataFrame, extra: list[int] | None = None) -> list[int]:
    vs = set(edges.src.tolist()) | set(edges.dst.tolist()) | set(extra or [])
    return sorted(vs)


def sssp_reference(edges: pd.DataFrame, source: int, *, extra: tuple[int, ...] = ()) -> pd.Series:
    """Dijkstra shortest distances from ``source`` (INF when unreachable)
    over the endpoints of ``edges`` and the ``extra`` (isolated) ids."""
    adj = _adj(edges)
    dist = {v: INF for v in all_vertices(edges, [source, *extra])}
    dist[source] = 0.0
    pq = [(0.0, source)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v, w in adj.get(u, []):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return pd.Series(dist).sort_index()


def bfs_reference(edges: pd.DataFrame, source: int) -> pd.Series:
    """Directed hop counts from ``source`` (INF when unreachable)."""
    unit = edges.copy()
    unit["w"] = 1.0
    return sssp_reference(unit, source)


def _index(vs: list[int]) -> dict[int, int]:
    return {v: i for i, v in enumerate(vs)}


def _solve_sum(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """Solve x = P x + b where P is given in COO (row=receiver, col=sender).

    Dense solve for n <= 3000, otherwise damped Jacobi-style iteration to
    1e-12 (the systems here have spectral radius <= damping < 1).
    """
    if n <= 3000:
        P = np.zeros((n, n))
        np.add.at(P, (rows, cols), vals)
        return np.linalg.solve(np.eye(n) - P, b)
    x = b.copy()
    for _ in range(10_000):
        nx = b.copy()
        np.add.at(nx, rows, vals * x[cols])
        if np.max(np.abs(nx - x)) < 1e-12:
            return nx
        x = nx
    return x


def pagerank_reference(
    edges: pd.DataFrame, d: float = 0.85, *, extra: tuple[int, ...] = ()
) -> pd.Series:
    """Exact asynchronous-accumulative PageRank: x = (1-d)·1 + d·Aᵀ D⁻¹ x,
    over the endpoints of ``edges`` and the ``extra`` (isolated) ids.

    Matches the paper's Maiter-style formulation (Example 1b); dangling
    vertices simply emit nothing.
    """
    vs = all_vertices(edges, list(extra))
    idx = _index(vs)
    src = edges.src.map(idx).to_numpy()
    dst = edges.dst.map(idx).to_numpy()
    outdeg = np.zeros(len(vs))
    np.add.at(outdeg, src, 1.0)
    vals = d / outdeg[src]
    b = np.full(len(vs), 1.0 - d)
    x = _solve_sum(len(vs), dst, src, vals, b)
    return pd.Series(x, index=vs).sort_index()


def php_reference(edges: pd.DataFrame, source: int, d: float = 0.85) -> pd.Series:
    """Penalized hitting probability from ``source``.

    Accumulative form: x_s = 1 fixed (the source absorbs — its in-edges are
    dropped), and x_v = Σ_{(u,v)} x_u · d · w_uv / Σ_out w_u for v ≠ s.
    """
    e = edges[edges.dst != source]
    vs = all_vertices(edges, [source])
    idx = _index(vs)
    src = e.src.map(idx).to_numpy()
    dst = e.dst.map(idx).to_numpy()
    wsum = np.zeros(len(vs))
    # Normalize by the FULL out-weight of u on the original graph (u's edge
    # into the source still dilutes its other messages — the mass into the
    # source is the "penalty" and vanishes).
    full_src = edges.src.map(idx).to_numpy()
    np.add.at(wsum, full_src, edges.w.to_numpy())
    vals = d * e.w.to_numpy() / wsum[src]
    b = np.zeros(len(vs))
    b[idx[source]] = 1.0
    x = _solve_sum(len(vs), dst, src, vals, b)
    return pd.Series(x, index=vs).sort_index()


def assert_states_close(
    got: pd.Series, expected: pd.Series, *, atol: float = 1e-6, rtol: float = 1e-6
) -> None:
    """Compare two vertex-state vectors (id-indexed), treating INF == INF."""
    got = got.sort_index()
    expected = expected.sort_index()
    missing = expected.index.difference(got.index)
    assert len(missing) == 0, f"states missing for vertices {list(missing)[:10]}"
    got = got.reindex(expected.index)
    g, e = got.to_numpy(float), expected.to_numpy(float)
    both_inf = np.isinf(g) & np.isinf(e)
    ok = both_inf | np.isclose(g, e, atol=atol, rtol=rtol)
    bad = np.flatnonzero(~ok)
    assert len(bad) == 0, (
        f"{len(bad)} mismatching states, first 10: "
        f"{[(expected.index[i], g[i], e[i]) for i in bad[:10]]}"
    )
