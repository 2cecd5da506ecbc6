"""Dense-subgraph candidate discovery: size-capped label propagation (§IV-A1).

The paper uses Louvain with a size threshold K; we use mode-based label
propagation over the undirected view, as numpy in the driver (DESIGN.md
§5.3) — on our planted-partition datasets LPA recovers community blocks
well, and a deterministic chunk-split enforces the K cap exactly as the
paper's threshold does. The density test (Def. 2) is applied afterwards,
on the candidate layout in ``layph.layered``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def lpa_communities(edges: pd.DataFrame, *, n_iters: int = 4, K: int = 1000) -> pd.DataFrame:
    """Label propagation over the undirected view; returns (id, sub).

    The view holds each distinct pair of ``edges`` in both directions, and
    every endpoint starts with its own id as its label. In each synchronous
    round every vertex adopts the most frequent label among its neighbors
    (ties -> smaller label). Communities larger than ``K`` are split into
    id-ordered chunks of ``K``; communities of fewer than 4 vertices are
    dropped (their vertices become upper-layer outliers).
    """
    n = len(edges)
    ids, at = np.unique(
        np.concatenate([edges.src.to_numpy(np.int64), edges.dst.to_numpy(np.int64)]),
        return_inverse=True,
    )
    u, v, _ = _pair_counts(at, np.concatenate([at[n:], at[:n]]))  # both directions
    label = ids.copy()
    for _ in range(n_iters):
        vtx, lbl, cnt = _pair_counts(u, label[v])
        o = np.lexsort((lbl, -cnt, vtx))  # per vertex: most frequent, then smallest
        vtx, lbl = vtx[o], lbl[o]
        first = np.ones(len(vtx), bool)
        first[1:] = vtx[1:] != vtx[:-1]
        label[vtx[first]] = lbl[first]
    return _cap_sizes(pd.DataFrame({"id": ids, "sub": label}), K=K)


def _pair_counts(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (a, b) pairs, sorted, and how often each occurs."""
    o = np.lexsort((b, a))
    a, b = a[o], b[o]
    new = np.ones(len(a), bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    at = np.flatnonzero(new)
    return a[at], b[at], np.diff(np.append(at, len(a)))


def _cap_sizes(membership: pd.DataFrame, *, K: int) -> pd.DataFrame:
    """Relabel to dense 0..N-1 sub ids, split >K communities, drop those of
    fewer than 4 vertices."""
    out = membership.sort_values(["sub", "id"]).reset_index(drop=True)
    out["rank"] = out.groupby("sub").cumcount()
    out["chunk"] = out["rank"] // K
    key = out["sub"].astype(str) + "_" + out["chunk"].astype(str)
    out["sub"] = pd.factorize(key)[0].astype(np.int64)
    sizes = out.groupby("sub").id.transform("size")
    out = out[sizes >= 4]
    out["sub"] = pd.factorize(out["sub"])[0].astype(np.int64)
    return out[["id", "sub"]].reset_index(drop=True)


def planted_communities(membership: pd.DataFrame, *, K: int = 1000) -> pd.DataFrame:
    """Use generator ground truth as the community assignment (fast path for
    tests/benchmarks where discovery quality is not the variable under study)."""
    return _cap_sizes(membership.copy(), K=K)
