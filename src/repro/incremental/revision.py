"""Revision-message deduction (§II-B, §V) from memoized converged states.

Two algorithm classes, mirroring Ingress's memoization policies:

* **sum** (accumulative, invertible — PageRank, PHP): in the accumulative
  model a converged vertex ``u`` has forwarded total mass ``x*_u − x0_u``
  along each out-edge per unit of prepared weight. A prepared-weight change
  ``w_old → w_new`` on ``(u,v)`` is therefore revised by one injected delta
  ``(x*_u − x0_u) · (w_new − w_old)`` at ``v`` (cancellation when negative,
  compensation when positive). Diffing *prepared* edges captures PageRank's
  out-degree side effects for free. Every vertex without an old state (new
  to the graph, or back in its vertex set) contributes its root message.
  :func:`sum_injections` works on arrays (one gather of the sources' old
  states, then :func:`injection_totals`: one ``np.unique`` and
  ``np.bincount`` per target) and returns arrays; :func:`sum_revision`
  gives Ingress the same deltas as an id-indexed Series, and Layph's round
  gathers its old states by slot and calls :func:`injection_totals` on
  slots.

* **min** (selective, non-invertible — SSSP, BFS): deletions cannot be
  inverted; instead we derive the dependency tree from the converged states
  (parent = the support edge achieving ``x*_v``), trim the subtree under any
  vertex whose chosen parent edge disappeared or grew (KickStarter-style),
  and seed re-relaxation from intact in-neighbors plus inserted edges.
  :func:`min_revision_at` does all three on position arrays, with
  ``np.minimum.at`` for the parents and the seeds; Layph's shortcut pass
  calls it on cells. :func:`min_revision` maps ids to positions for
  Layph's ``L_up`` round, Ingress and KickStarter.
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

def prepared_edge_diff(old_prepared, new_prepared, *, carry=()) -> pd.DataFrame:
    """Per-(src,dst) prepared-weight diff of two edge tables (frames, or
    dicts of ``src, dst, w`` arrays), each holding a pair at most once.

    Columns ``src, dst, w_old, w_new`` (NaN on the missing side) restricted
    to pairs whose weight changed, appeared, or disappeared, in (src, dst)
    order. The ``carry`` columns, which both tables hold and which are the
    same for a pair on both sides (the layered graph's slot columns),
    follow, read from either side.
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
    kept = np.flatnonzero(first)[changed]
    carried = {
        c: np.concatenate([np.asarray(old[c]), np.asarray(new[c])])[o[kept]] for c in carry
    }
    return pd.DataFrame(
        {"src": src[kept], "dst": dst[kept],
         "w_old": w_old[changed], "w_new": w_new[changed], **carried}, copy=False,
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
    target id by :func:`injection_totals`. A source outside ``states``
    forwarded no mass."""
    # Position -1 (a source without a state) reads the appended 0.
    at = states.index.get_indexer(diff.src.to_numpy(np.int64))
    mass = np.append(states.to_numpy(float) - algo.zero_state, 0.0)[at]
    new = np.asarray([] if new_vertices is None else new_vertices, np.int64)
    r, msgs = root_terms(algo, new)
    return injection_totals(diff.dst.to_numpy(np.int64), mass * weight_change(diff), new[r], msgs)


def weight_change(diff: pd.DataFrame) -> np.ndarray:
    """``w_new − w_old`` per row of a prepared-edge diff, a missing side 0."""
    w_old, w_new = diff.w_old.to_numpy(float), diff.w_new.to_numpy(float)
    return np.where(np.isnan(w_new), 0.0, w_new) - np.where(np.isnan(w_old), 0.0, w_old)


def root_terms(algo: Algorithm, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions in ``ids`` whose vertex has a root message
    (``algo.root_messages``), and the messages."""
    if not len(ids):
        return np.empty(0, np.int64), np.empty(0)
    roots = algo.root_messages(ids)
    at = pd.Index(ids).get_indexer(roots.index)
    return at[at >= 0], roots.to_numpy(float)[at >= 0]


def injection_totals(
    targets: np.ndarray, terms: np.ndarray, roots: np.ndarray, root_msgs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The revision deltas summed per target: the diff's ``terms`` at
    ``targets``, then the root messages ``root_msgs`` at ``roots``. A
    target whose sum is exactly 0 is dropped: its message would change no
    state, yet fire every out-edge.

    Returns the sorted, unique targets and their deltas as arrays. Each
    target adds its terms in turn, diff rows first and in diff order, then
    its root message. Targets are ids or slots alike."""
    targets, group = np.unique(np.concatenate([targets, roots]), return_inverse=True)
    terms = np.concatenate([terms, root_msgs])
    # astype: bincount returns integer zeros for an empty input, even weighted.
    deltas = np.bincount(group, terms, minlength=len(targets)).astype(float, copy=False)
    keep = deltas != 0
    return targets[keep], deltas[keep]


# --------------------------------------------------------------------------
# min workloads
# --------------------------------------------------------------------------

def dependency_parents(old, x, roots) -> np.ndarray:
    """Each position's parent over the prepared edges ``old = (src, dst,
    w)``, ``len(x)`` for none: the smallest source position among the edges
    that achieve its finite state in ``x`` within ``_EPS``. A root of
    ``roots = (at, value)`` holding its root value has none."""
    src, dst, w = old
    at, value = roots
    with np.errstate(invalid="ignore"):  # inf - inf is NaN: achieves nothing
        achieves = (np.abs(x[src] + w - x[dst]) <= _EPS) & np.isfinite(x[dst])
        held = np.abs(x[at] - value) <= _EPS
    parent = np.full(len(x), len(x))
    np.minimum.at(parent, dst[achieves], src[achieves])
    parent[at[held]] = len(x)
    return parent


def dependency_trim(parent: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """The mask of the positions ``seeds`` and their descendants under
    ``parent``: a frontier walk over the children sorted by parent."""
    n = len(parent)
    seen = np.zeros(n, bool)
    seen[seeds] = True
    frontier = np.flatnonzero(seen)
    if len(frontier):
        child = np.flatnonzero(parent < n)
        child = child[np.argsort(parent[child], kind="stable")]
        # The children of p are child[bound[p]:bound[p + 1]].
        bound = np.searchsorted(parent[child], np.arange(n + 1))
        while len(frontier):
            kids = child[ranges(bound[frontier], bound[frontier + 1] - bound[frontier])]
            frontier = kids[~seen[kids]]
            seen[frontier] = True
    return seen


def min_revision_at(diff, old, new, x, roots, *, extra_seeds=None):
    """The min revision on positions ``0..len(x)-1``. ``diff`` is ``(src,
    dst, w_old, w_new)`` (NaN on the missing side), ``old`` and ``new`` the
    prepared edges ``(src, dst, w)`` before and after ΔG, ``x`` the
    converged states (+inf for none) and ``roots`` ``(at, value)``.

    Trims the targets of deleted or raised parent edges
    (:func:`dependency_parents`) and ``extra_seeds``, with all their
    descendants. Seeds are one ``np.minimum.at`` of ``x_u + w`` over the new
    edges from intact positions into trimmed ones and the inserted or
    lowered edges from intact sources (each one counted F application), and
    of every root's value; those below the revised state by more than
    :data:`SEED_TOL` are kept. So a root seeds when the trim resets it and
    when it has no old state (+inf: a source that ΔG deleted and brought
    back), but not while it holds its value. Every caller ranks positions
    in id order (a sorted universe, or cells in (sub, id) order within a
    row), so the smallest parent position breaks ties by the smallest src
    id.

    Returns ``(reset, seed_at, seed_val, activations)``, positions ascending.
    """
    src, dst, w_old, w_new = diff
    nsrc, ndst, nw = new
    at, value = roots
    with np.errstate(invalid="ignore"):
        worse = np.isnan(w_new) | (w_new > w_old)
        better = np.isnan(w_old) | (w_new < w_old)
    parent = dependency_parents(old, x, roots)
    cut = dst[worse & (parent[dst] == src)]
    reset = dependency_trim(parent, cut if extra_seeds is None else np.r_[cut, extra_seeds])
    x = np.where(reset, INF, x)
    into, low = reset[ndst] & ~reset[nsrc], better & ~reset[src]
    seed = np.full(len(x), INF)
    np.minimum.at(seed, ndst[into], x[nsrc[into]] + nw[into])
    np.minimum.at(seed, dst[low], x[src[low]] + w_new[low])
    np.minimum.at(seed, at, value)
    seed_at = np.flatnonzero(seed < x - SEED_TOL)
    acts = int(np.count_nonzero(into) + np.count_nonzero(low))
    return np.flatnonzero(reset), seed_at, seed[seed_at], acts


def min_revision(
    diff: pd.DataFrame,
    old_prepared: pd.DataFrame,
    new_prepared: pd.DataFrame,
    states: pd.Series,
    algo: Algorithm,
    *,
    extra_seeds: np.ndarray | None = None,
) -> tuple[np.ndarray, pd.Series, int]:
    """Trim set + re-relaxation seed messages + activation count, by id:
    :func:`min_revision_at` over the sorted ids of every state, root, extra
    seed and table endpoint (an id outside ``states`` has no state). ``diff``
    is the :func:`prepared_edge_diff` of the two prepared tables, which the
    caller takes from the rows it knows changed; tables are read by column
    name. Returns ``(reset_ids, seeds, activations)``, seeds by ascending id.
    """
    parts = [states.index, list(algo.roots), [] if extra_seeds is None else extra_seeds] + [
        t[c] for t in (diff, old_prepared, new_prepared) for c in ("src", "dst")
    ]
    # Hashing, then sorting the distinct ids, is several times faster than
    # np.unique's argsort of every id.
    at, ids = pd.factorize(np.concatenate([np.asarray(p, np.int64) for p in parts]), sort=True)
    s_at, r_at, e_at, dsrc, ddst, osrc, odst, nsrc, ndst = np.split(
        at, np.cumsum([len(p) for p in parts])[:-1])
    x = np.full(len(ids), INF)
    x[s_at] = states.to_numpy(float)
    reset, seed_at, seed_val, acts = min_revision_at(
        (dsrc, ddst, np.asarray(diff["w_old"], float), np.asarray(diff["w_new"], float)),
        (osrc, odst, np.asarray(old_prepared["w"], float)),
        (nsrc, ndst, np.asarray(new_prepared["w"], float)),
        x, (r_at, np.array(list(algo.roots.values()), float)), extra_seeds=e_at,
    )
    return ids[reset], pd.Series(seed_val, index=ids[seed_at]), acts
