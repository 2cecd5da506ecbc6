"""ΔG generation and application.

Following §II-B, a batch update ΔG is a set of *unit updates*: single-edge
insertions and deletions (a weight change is a delete followed by an add).
Vertex updates (Fig. 5e) are expressed through their incident edges plus an
explicit vertex set so engines know which ids gained/lost root messages.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.graphs.schema import (
    canonical_edges,
    edge_frame,
    is_canonical,
    pair_order,
    pairs_in,
    source_rows,
    vertex_ids,
)


def _has_duplicate_pairs(src: np.ndarray, dst: np.ndarray) -> bool:
    o = pair_order(src, dst)
    s, d = src[o], dst[o]
    return bool(((s[1:] == s[:-1]) & (d[1:] == d[:-1])).any())


@dataclass
class GraphDelta:
    """A batch of unit updates.

    ``added``: edges to insert, columns ``src, dst, w``.
    ``deleted``: edges to remove, columns ``src, dst``.
    ``added_vertices`` / ``deleted_vertices``: vertex ids for vertex-update
    batches (empty for pure edge batches). Deleted vertices' incident edges
    must all appear in ``deleted`` (:func:`apply_delta` checks this).

    Raises ``ValueError`` on a pair listed twice in ``added`` or twice in
    ``deleted``, on a self-loop in ``added`` and on an added edge that
    touches a deleted vertex. A pair both deleted and added is a weight
    change.
    """

    added: pd.DataFrame
    deleted: pd.DataFrame
    added_vertices: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    deleted_vertices: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def __post_init__(self):
        a_src = self.added.src.to_numpy(np.int64)
        a_dst = self.added.dst.to_numpy(np.int64)
        if _has_duplicate_pairs(a_src, a_dst):
            raise ValueError("GraphDelta.added lists a (src, dst) pair twice")
        if _has_duplicate_pairs(
            self.deleted.src.to_numpy(np.int64), self.deleted.dst.to_numpy(np.int64)
        ):
            raise ValueError("GraphDelta.deleted lists a (src, dst) pair twice")
        if (a_src == a_dst).any():
            raise ValueError("GraphDelta.added holds a self-loop")
        gone = np.asarray(self.deleted_vertices, np.int64)
        if len(gone) and (np.isin(a_src, gone).any() or np.isin(a_dst, gone).any()):
            raise ValueError("GraphDelta.added touches a deleted vertex")

    @property
    def size(self) -> int:
        return len(self.added) + len(self.deleted)

    def sources(self) -> np.ndarray:
        """Sorted unique ids whose out-edge runs ΔG may change: the sources
        of ``added`` and ``deleted``, and ``deleted_vertices``. Every other
        source keeps its run, and with it its prepared weights."""
        return np.unique(np.concatenate([
            self.added.src.to_numpy(np.int64), self.deleted.src.to_numpy(np.int64),
            np.asarray(self.deleted_vertices, np.int64),
        ]))


def apply_delta(edges: pd.DataFrame, delta: GraphDelta) -> pd.DataFrame:
    """Return ``G ⊕ ΔG`` as a canonical frame: deletions first, then
    insertions (insert wins on re-added pairs, giving weight-change
    semantics).

    Only the out-edge runs of the sources ΔG names are rewritten; the rest
    of the (src, dst)-sorted table is copied around them. A canonical
    ``edges`` is read in place; any other is canonicalized first. Raises
    ``ValueError`` when a deleted vertex keeps an edge.
    """
    src, dst = edges.src.to_numpy(np.int64), edges.dst.to_numpy(np.int64)
    if not is_canonical(src, dst):
        edges = canonical_edges(edges)
        src, dst = edges.src.to_numpy(), edges.dst.to_numpy()
    w = edges.w.to_numpy(np.float64)
    a_src, a_dst = delta.added.src.to_numpy(np.int64), delta.added.dst.to_numpy(np.int64)
    a_w = delta.added.w.to_numpy(np.float64)
    d_src, d_dst = delta.deleted.src.to_numpy(np.int64), delta.deleted.dst.to_numpy(np.int64)

    rows = source_rows(src, delta.sources())
    gone = pairs_in(
        src[rows], dst[rows], np.concatenate([d_src, a_src]), np.concatenate([d_dst, a_dst])
    )
    kept = rows[~gone]
    ns = np.concatenate([src[kept], a_src])
    nd = np.concatenate([dst[kept], a_dst])
    nw = np.concatenate([w[kept], a_w])
    o = pair_order(ns, nd)
    rest = np.ones(len(src), bool)
    rest[rows] = False
    # Every rewritten source lost its whole run, so a new row goes where its
    # src would sort among the rows left.
    at = np.searchsorted(src[rest], ns[o])
    out_src = np.insert(src[rest], at, ns[o])
    out_dst = np.insert(dst[rest], at, nd[o])
    dead = np.asarray(delta.deleted_vertices, np.int64)
    if len(dead) and (np.isin(out_src, dead).any() or np.isin(out_dst, dead).any()):
        raise ValueError("a deleted vertex keeps an edge that ΔG does not delete")
    return edge_frame(out_src, out_dst, np.insert(w[rest], at, nw[o]), copy=False)


def random_edge_delta(
    edges: pd.DataFrame, *, n_add: int, n_del: int, seed: int = 0,
    w_lo: float = 1.0, w_hi: float = 10.0,
) -> GraphDelta:
    """Random ΔG as in §VI-A: ``n_add`` new edges between existing vertices
    and ``n_del`` removed existing edges, all chosen uniformly."""
    rng = np.random.default_rng(seed)
    ids = vertex_ids(edges)

    n_del = min(n_del, len(edges))
    del_idx = rng.choice(len(edges), size=n_del, replace=False) if n_del else []
    deleted = edges.iloc[list(del_idx)][["src", "dst"]].reset_index(drop=True)

    existing = set(zip(edges.src.to_numpy(), edges.dst.to_numpy()))
    src, dst = [], []
    attempts = 0
    while len(src) < n_add and attempts < 50 * max(1, n_add):
        attempts += 1
        u, v = rng.choice(ids), rng.choice(ids)
        if u != v and (u, v) not in existing:
            existing.add((u, v))
            src.append(u)
            dst.append(v)
    added = pd.DataFrame(
        {
            "src": np.array(src, np.int64),
            "dst": np.array(dst, np.int64),
            "w": rng.uniform(w_lo, w_hi, size=len(src)).round(3),
        }
    )
    return GraphDelta(added=added, deleted=deleted)


def random_vertex_delta(
    edges: pd.DataFrame, *, n_add: int, n_del: int, edges_per_vertex: int = 4,
    seed: int = 0, w_lo: float = 1.0, w_hi: float = 10.0,
) -> GraphDelta:
    """Vertex-update ΔG (Fig. 5e): ``n_del`` existing vertices removed with
    all incident edges; ``n_add`` fresh vertices wired to random existing
    vertices with ``edges_per_vertex`` out- and in-edges each."""
    rng = np.random.default_rng(seed)
    ids = vertex_ids(edges)

    del_vs = rng.choice(ids, size=min(n_del, len(ids) // 4), replace=False).astype(np.int64)
    del_mask = edges.src.isin(del_vs) | edges.dst.isin(del_vs)
    deleted = edges[del_mask][["src", "dst"]].reset_index(drop=True)

    new_ids = (ids.max() + 1 + np.arange(n_add)).astype(np.int64)
    survivors = ids[~np.isin(ids, del_vs)]
    src, dst = [], []
    for v in new_ids:
        outs = rng.choice(survivors, size=edges_per_vertex)
        ins = rng.choice(survivors, size=edges_per_vertex)
        src += [v] * edges_per_vertex + list(ins)
        dst += list(outs) + [v] * edges_per_vertex
    added = pd.DataFrame(
        {
            "src": np.array(src, np.int64),
            "dst": np.array(dst, np.int64),
            "w": rng.uniform(w_lo, w_hi, size=len(src)).round(3),
        }
    )
    added = added[added.src != added.dst].drop_duplicates(["src", "dst"])
    return GraphDelta(
        added=added.reset_index(drop=True),
        deleted=deleted,
        added_vertices=new_ids,
        deleted_vertices=np.sort(del_vs),
    )
