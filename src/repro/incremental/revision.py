"""Revision-message deduction (§II-B, §V) from memoized converged states.

Two algorithm classes, mirroring Ingress's memoization policies:

* **sum** (accumulative, invertible — PageRank, PHP): in the accumulative
  model a converged vertex ``u`` has forwarded total mass ``x*_u − x0_u``
  along each out-edge per unit of prepared weight. A prepared-weight change
  ``w_old → w_new`` on ``(u,v)`` is therefore revised by one injected delta
  ``(x*_u − x0_u) · (w_new − w_old)`` at ``v`` (cancellation when negative,
  compensation when positive). Diffing *prepared* edges captures PageRank's
  out-degree side effects for free. New vertices contribute their root
  messages. :func:`sum_injections` works on arrays (one gather of the
  sources' old states, one ``np.unique`` and ``np.bincount`` per target)
  and returns arrays, which Layph's round reads; :func:`sum_revision`
  gives Ingress the same deltas as an id-indexed Series.

* **min** (selective, non-invertible — SSSP, BFS): deletions cannot be
  inverted; instead we derive the dependency tree from the converged states
  (parent = the support edge achieving ``x*_v``), trim the subtree under any
  vertex whose chosen parent edge disappeared or grew (KickStarter-style),
  and seed re-relaxation from intact in-neighbors plus inserted edges.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.engine.algorithms import Algorithm
from repro.graphs.schema import ranges

INF = float("inf")
_EPS = 1e-9
#: A min seed (or candidate edge) counts as an improvement only when it beats
#: its target's state by more than this.
SEED_TOL = 1e-12


# --------------------------------------------------------------------------
# sum workloads
# --------------------------------------------------------------------------

def prepared_edge_diff(old_prepared, new_prepared) -> pd.DataFrame:
    """Per-(src,dst) prepared-weight diff of two edge tables (frames, or
    dicts of ``src, dst, w`` arrays), each holding a pair at most once.

    Columns ``src, dst, w_old, w_new`` (NaN on the missing side) restricted
    to pairs whose weight changed, appeared, or disappeared, in (src, dst)
    order.
    """
    old, new = old_prepared, new_prepared
    src = np.concatenate([np.asarray(old["src"], np.int64), np.asarray(new["src"], np.int64)])
    dst = np.concatenate([np.asarray(old["dst"], np.int64), np.asarray(new["dst"], np.int64)])
    w = np.concatenate([np.asarray(old["w"], np.float64), np.asarray(new["w"], np.float64)])
    is_new = np.arange(len(src)) >= len(old["src"])
    o = np.lexsort((is_new, dst, src))
    src, dst, w, is_new = src[o], dst[o], w[o], is_new[o]
    first = np.ones(len(src), bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    pair = np.cumsum(first) - 1
    w_old = np.full(int(first.sum()), np.nan)
    w_new = w_old.copy()
    w_old[pair[~is_new]] = w[~is_new]
    w_new[pair[is_new]] = w[is_new]
    with np.errstate(invalid="ignore"):
        changed = np.isnan(w_old) | np.isnan(w_new) | (np.abs(w_new - w_old) > _EPS)
    return pd.DataFrame(
        {"src": src[first][changed], "dst": dst[first][changed],
         "w_old": w_old[changed], "w_new": w_new[changed]}, copy=False,
    )


def sum_revision(
    old_prepared: pd.DataFrame,
    new_prepared: pd.DataFrame,
    states: pd.Series,
    algo: Algorithm,
    *,
    new_vertices: np.ndarray | None = None,
) -> pd.Series:
    """Injected revision deltas, id-indexed and aggregated per target: the
    Series form of :func:`sum_injections`, for a caller that indexes its
    messages by id.

    The two frames are prepared edges before and after ΔG: the whole
    graphs, or the out-edge runs of the same sources in both (the runs of
    every source ΔG names, :meth:`GraphDelta.sources`), since no other
    prepared weight changes.
    """
    targets, deltas = sum_injections(
        prepared_edge_diff(old_prepared, new_prepared), states, algo, new_vertices=new_vertices
    )
    return pd.Series(deltas, index=targets)


def sum_injections(
    diff: pd.DataFrame,
    states: pd.Series,
    algo: Algorithm,
    *,
    new_vertices: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The revision deltas of a prepared-edge ``diff`` (see
    :func:`prepared_edge_diff`): ``(x*_u − x0_u) · dw`` at ``v`` per changed
    edge ``(u, v)``, plus the root messages of ``new_vertices``, summed per
    target id. A target whose sum is exactly 0 is dropped: its message
    would change no state, yet fire every out-edge.

    Returns the sorted, unique target ids and their deltas as arrays. A
    source outside ``states`` forwarded no mass. Each target adds its terms
    in turn, diff rows first and in diff order, then its root message."""
    w_old, w_new = diff.w_old.to_numpy(float), diff.w_new.to_numpy(float)
    dw = np.where(np.isnan(w_new), 0.0, w_new) - np.where(np.isnan(w_old), 0.0, w_old)
    # Position -1 (a source without a state) reads the appended 0.
    at = states.index.get_indexer(diff.src.to_numpy(np.int64))
    mass = np.append(states.to_numpy(float) - algo.zero_state, 0.0)[at]
    targets, terms = diff.dst.to_numpy(np.int64), mass * dw
    if new_vertices is not None and len(new_vertices):
        roots = algo.root_messages(np.asarray(new_vertices, np.int64))
        new = roots.index.isin(new_vertices)
        targets = np.concatenate([targets, roots.index.to_numpy(np.int64)[new]])
        terms = np.concatenate([terms, roots.to_numpy(float)[new]])
    targets, group = np.unique(targets, return_inverse=True)
    # astype: bincount returns integer zeros for an empty input, even weighted.
    deltas = np.bincount(group, terms, minlength=len(targets)).astype(float, copy=False)
    keep = deltas != 0
    return targets[keep], deltas[keep]


# --------------------------------------------------------------------------
# min workloads
# --------------------------------------------------------------------------

def min_parents(prepared: pd.DataFrame, states: pd.Series, algo: Algorithm) -> pd.DataFrame:
    """Dependency tree: chosen parent edge per vertex (columns id, parent).

    A vertex supported by its root message has no parent and is never
    trimmed. Among in-edges achieving ``x_u + w == x_v`` the smallest src id
    is chosen (deterministic, KickStarter-style single dependency).
    """
    x_src = states.reindex(prepared.src).to_numpy()
    x_dst = states.reindex(prepared.dst).to_numpy()
    with np.errstate(invalid="ignore"):  # inf-state vertices compare to NaN
        achieves = np.abs(x_src + prepared.w.to_numpy() - x_dst) <= _EPS
    achieves &= np.isfinite(x_dst)
    cand = prepared[achieves][["src", "dst"]]
    parents = (
        cand.groupby("dst").src.min().rename("parent").rename_axis("id").reset_index()
    )
    roots = pd.Series(algo.roots, dtype=float)
    with np.errstate(invalid="ignore"):
        held = np.abs(states.reindex(roots.index).to_numpy(float) - roots.to_numpy()) <= _EPS
    return parents[~parents.id.isin(roots.index[held])].reset_index(drop=True)


def min_trim_set(parents: pd.DataFrame, seeds: np.ndarray) -> np.ndarray:
    """All dependency-tree descendants of ``seeds`` (inclusive), ascending.

    A frontier walk over the parent edges sorted by parent: each level's
    children are the runs of its vertices, found by ``searchsorted``.
    """
    seeds = np.asarray(seeds, np.int64)
    par, child = parents.parent.to_numpy(np.int64), parents.id.to_numpy(np.int64)
    ids = np.unique(np.concatenate([par, child, seeds]))
    o = np.argsort(par, kind="stable")
    child = np.searchsorted(ids, child[o])  # as positions in ids
    # The children of ids[i] are child[start[i]:end[i]].
    start, end = np.searchsorted(par[o], ids), np.searchsorted(par[o], ids, side="right")
    seen = np.zeros(len(ids), bool)
    frontier = np.searchsorted(ids, seeds)
    seen[frontier] = True
    while len(frontier):
        kids = child[ranges(start[frontier], end[frontier] - start[frontier])]
        frontier = kids[~seen[kids]]
        seen[frontier] = True
    return ids[seen]


def min_revision(
    diff: pd.DataFrame,
    old_prepared: pd.DataFrame,
    new_prepared: pd.DataFrame,
    states: pd.Series,
    algo: Algorithm,
    *,
    extra_seeds: np.ndarray | None = None,
) -> tuple[np.ndarray, pd.Series, int]:
    """Trim set + re-relaxation seed messages + activation count.

    ``diff`` is the :func:`prepared_edge_diff` of ``old_prepared`` and
    ``new_prepared``, which the caller takes from the rows it knows changed.
    Returns ``(reset_ids, seed_messages, activations)``. Seed messages are
    min-aggregated candidates ``x_u + w`` over new-graph edges from intact
    vertices into the reset region, plus candidates along inserted /
    lowered edges (weights read from ``diff.w_new``), plus root messages of
    reset roots. Each candidate evaluation is one F application and is
    counted. Only the seeds that beat their target's revised state (+inf
    for a reset id and for an id outside ``states``) by more than
    :data:`SEED_TOL` are returned: any other seed changes no state.
    """
    # Edge deleted or weight increased -> the old support may be invalid.
    worse = diff[diff.w_new.isna() | (diff.w_new > diff.w_old)]
    parents = min_parents(old_prepared, states, algo)
    dep = worse.merge(parents, left_on=["src", "dst"], right_on=["parent", "id"])
    seeds = dep.dst.unique().astype(np.int64)
    if extra_seeds is not None and len(extra_seeds):
        # Conservative extra invalidation roots (e.g. vertices whose layered
        # role changed so their old supports are no longer represented).
        seeds = np.union1d(seeds, np.asarray(extra_seeds, np.int64))
    reset = min_trim_set(parents, seeds) if len(seeds) else np.empty(0, np.int64)
    reset_set = set(int(r) for r in reset)

    x = states.copy()
    x.loc[x.index.isin(reset_set)] = INF

    # Support edges from intact vertices into the reset region.
    into = new_prepared[
        new_prepared.dst.isin(reset_set) & ~new_prepared.src.isin(reset_set)
    ]
    # Edge inserted or weight lowered anywhere (improvement candidates).
    better = diff[diff.w_old.isna() | (diff.w_new < diff.w_old)]
    low = better[~better.src.isin(reset_set)]
    cand = pd.concat(
        [into, pd.DataFrame({"src": low.src, "dst": low.dst, "w": low.w_new})],
        ignore_index=True,
    )
    acts = len(cand)
    m = (x.reindex(cand.src).to_numpy() + cand.w.to_numpy())
    seed_msgs = pd.Series(m, index=cand.dst.to_numpy(np.int64))
    seed_msgs = seed_msgs[np.isfinite(seed_msgs.to_numpy())]
    root_rows = pd.Series(
        {v: m0 for v, m0 in algo.roots.items() if v in reset_set}, dtype=float
    )
    seed_msgs = pd.concat([seed_msgs, root_rows])
    seed_msgs = seed_msgs.groupby(level=0).min()
    target = x.reindex(seed_msgs.index, fill_value=INF).to_numpy(float)
    return reset, seed_msgs[seed_msgs.to_numpy() < target - SEED_TOL], acts
