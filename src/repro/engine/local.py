"""Local (numpy) vertex-centric kernel.

This is the compute core that ``layph.dispatch.per_subgraph`` runs *inside
each dense subgraph* (in the driver, or one Spark task each) — the paper's
per-subgraph local iterations (shortcut deduction §IV-A2, message upload
§V-A) — and the reference push engine that the superstep loop must agree
with.

Everything operates on *prepared* edges (see ``engine.algorithms``): min
workloads relax ``m + w`` under ``min``; sum workloads propagate deltas
``m · w`` under ``+``. Activations are counted exactly as the paper counts
them: one per F application (one per out-edge of an active vertex per
iteration).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.engine.algorithms import Algorithm

INF = float("inf")


@dataclass
class LocalRun:
    """Result of one local convergence."""

    states: pd.Series  # id -> converged x
    arrivals: pd.Series  # id -> G-aggregate of everything received this run
    activations: int
    iterations: int


def _arrays(prepared: pd.DataFrame, ids: np.ndarray):
    idx = pd.Series(np.arange(len(ids)), index=ids)
    src = idx.reindex(prepared.src).to_numpy()
    dst = idx.reindex(prepared.dst).to_numpy()
    if np.isnan(src).any() or np.isnan(dst).any():
        raise ValueError("prepared edges reference ids outside the vertex set")
    return src.astype(np.int64), dst.astype(np.int64), prepared.w.to_numpy(float)


def converge(
    prepared: pd.DataFrame,
    x0: pd.Series,
    m0: pd.Series,
    algo: Algorithm,
    *,
    tol: float | None = None,
    max_iter: int = 100_000,
) -> LocalRun:
    """Run the accumulative engine to convergence on one (sub)graph.

    ``x0`` indexes the *complete* local vertex set; ``m0`` is a sparse
    id-indexed series of initial messages (root messages for a batch run,
    revision messages for an incremental one — including negative deltas
    for sum-cancellations). Every vertex forwards; the caller restricts the
    edge set to restrict propagation scope.
    """
    tol = algo.tol if tol is None else tol
    ids = x0.index.to_numpy(np.int64)
    x = x0.to_numpy(float).copy()
    n = len(ids)
    src, dst, w = _arrays(prepared, ids)
    order = np.argsort(src, kind="stable")
    src, dst, w = src[order], dst[order], w[order]

    pend = np.full(n, INF if algo.is_min else 0.0)
    recv = pend.copy()  # aggregate of everything received (for uploads)
    pos = pd.Series(np.arange(n), index=ids)
    m0 = m0[m0.index.isin(x0.index)]
    mpos = pos.reindex(m0.index).to_numpy(np.int64)
    acts = 0
    iters = 0

    if algo.is_min:
        np.minimum.at(pend, mpos, m0.to_numpy(float))
        np.minimum.at(recv, mpos, m0.to_numpy(float))
        improved = pend < x
        x = np.minimum(x, pend)
        pend = np.where(improved, pend, INF)
        while iters < max_iter:
            active = pend < INF
            if not active.any():
                break
            mask = active[src]
            acts += int(mask.sum())
            iters += 1
            if not mask.any():
                break
            cand = pend[src[mask]] + w[mask]
            nxt = np.full(n, INF)
            np.minimum.at(nxt, dst[mask], cand)
            np.minimum.at(recv, dst[mask], cand)
            improved = nxt < x
            x = np.minimum(x, nxt)
            pend = np.where(improved, nxt, INF)
    else:
        np.add.at(pend, mpos, m0.to_numpy(float))
        np.add.at(recv, mpos, m0.to_numpy(float))
        x = x + pend
        while iters < max_iter:
            active = np.abs(pend) > tol
            if not active.any():
                break
            mask = active[src]
            acts += int(mask.sum())
            iters += 1
            nxt = np.zeros(n)
            if mask.any():
                np.add.at(nxt, dst[mask], pend[src[mask]] * w[mask])
            np.add.at(recv, dst[mask], pend[src[mask]] * w[mask])
            x = x + nxt
            pend = nxt

    return LocalRun(
        states=pd.Series(x, index=ids),
        arrivals=pd.Series(recv, index=ids),
        activations=acts,
        iterations=iters,
    )


def shortcut_weights(
    prepared: pd.DataFrame,
    entries: np.ndarray,
    vertex_ids: np.ndarray,
    algo: Algorithm,
    *,
    tol: float | None = None,
    max_iter: int = 100_000,
) -> tuple[pd.DataFrame, int]:
    """Automated shortcut deduction (Def. 3 / Eq. 6).

    Injects the ⊗-identity unit message at every entry simultaneously (one
    matrix row per entry) and propagates through the subgraph's prepared
    edges with the user's own F and G until quiescence. Returns the dense
    shortcut table ``(entry, dst, w)`` — min workloads keep finite weights,
    sum workloads keep weights above ``tol`` (including cycle self-weights
    ``w(e,e)``, which the layered engine needs) — plus the activation count.
    """
    tol = algo.tol if tol is None else tol
    ids = np.asarray(vertex_ids, np.int64)
    entries = np.asarray(entries, np.int64)
    k, n = len(entries), len(ids)
    if k == 0 or len(prepared) == 0:
        return pd.DataFrame(columns=["entry", "dst", "w"]), 0
    src, dst, w = _arrays(prepared, ids)
    pos = pd.Series(np.arange(n), index=ids)
    epos = pos.reindex(entries).to_numpy(np.int64)
    rows = np.arange(k)

    acts = 0
    if algo.is_min:
        best = np.full((k, n), INF)
        pend = np.full((k, n), INF)
        pend[rows, epos] = 0.0  # the unit message (identity of +)
        for _ in range(max_iter):
            active = pend < INF
            mask_cols = active[:, src]  # (k, m) — which (entry, edge) fire
            n_fire = int(mask_cols.sum())
            if n_fire == 0:
                break
            acts += n_fire
            cand = np.where(mask_cols, pend[:, src] + w[None, :], INF)
            nxt = np.full((k, n), INF)
            np.minimum.at(nxt, (rows[:, None], dst[None, :]), cand)
            improved = nxt < best
            best = np.minimum(best, nxt)
            pend = np.where(improved, nxt, INF)
        weights = best
        keep = np.isfinite(weights)
    else:
        acc = np.zeros((k, n))
        pend = np.zeros((k, n))
        pend[rows, epos] = 1.0  # the unit message (identity of ·)
        for _ in range(max_iter):
            active = np.abs(pend) > tol
            mask_cols = active[:, src]
            n_fire = int(mask_cols.sum())
            if n_fire == 0:
                break
            acts += n_fire
            moved = np.where(mask_cols, pend[:, src] * w[None, :], 0.0)
            nxt = np.zeros((k, n))
            np.add.at(nxt, (rows[:, None], dst[None, :]), moved)
            acc += nxt
            pend = nxt
        weights = acc
        keep = np.abs(weights) > tol

    e_idx, v_idx = np.nonzero(keep)
    out = pd.DataFrame(
        {"entry": entries[e_idx], "dst": ids[v_idx], "w": weights[e_idx, v_idx]}
    )
    # A min self-shortcut (cycle distance) can never improve any state, so
    # drop it; a sum self-shortcut carries real cycle mass and must be kept.
    if algo.is_min:
        out = out[out.entry != out.dst]
    return out.sort_values(["entry", "dst"]).reset_index(drop=True), acts


def _sc_matrix(
    old_sc: pd.DataFrame, entries: np.ndarray, pos: pd.Series, n: int, default: float
) -> np.ndarray:
    """Load an (entries × vertices) shortcut-weight matrix from table rows."""
    k = len(entries)
    D = np.full((k, n), default)
    epos = {int(e): i for i, e in enumerate(entries)}
    rows = old_sc[old_sc.entry.isin(epos) & old_sc.dst.isin(pos.index)]
    ei = np.array([epos[int(e)] for e in rows.entry], dtype=np.int64)
    vi = pos.reindex(rows.dst).to_numpy(np.int64)
    D[ei, vi] = rows.w.to_numpy(float)
    return D


def shortcut_update_sum(
    new_edges: pd.DataFrame,
    entries: np.ndarray,
    old_sc: pd.DataFrame,
    changed: pd.DataFrame,  # src, dst, w_old, w_new (NaN = absent)
    algo: Algorithm,
    *,
    tol: float | None = None,
    max_iter: int = 100_000,
) -> tuple[pd.DataFrame, int]:
    """Incremental shortcut update for sum workloads (§IV-B weight update).

    Exact delta correction: the mass an entry ``e`` pushed through vertex
    ``u`` per unit injection is ``D_old[e,u]`` (+1 when ``u == e``), so a
    prepared-weight change ``dw`` on ``(u,v)`` corrects every entry row by
    injecting ``(D_old[e,u] + 1_{u=e}) · dw`` at ``v`` and propagating over
    the NEW subgraph edges. Entries without an old row (newly promoted)
    start from a fresh unit injection.
    """
    tol = algo.tol if tol is None else tol
    entries = np.asarray(entries, np.int64)
    ids = np.unique(
        np.concatenate(
            [
                new_edges.src.to_numpy(np.int64),
                new_edges.dst.to_numpy(np.int64),
                entries,
                old_sc.dst.to_numpy(np.int64),
                changed.src.to_numpy(np.int64),
                changed.dst.to_numpy(np.int64),
            ]
        )
    )
    k, n = len(entries), len(ids)
    if k == 0:
        return pd.DataFrame(columns=["entry", "dst", "w"]), 0
    pos = pd.Series(np.arange(n), index=ids)
    D = _sc_matrix(old_sc, entries, pos, n, 0.0)
    epos = pos.reindex(entries).to_numpy(np.int64)
    had_old = np.isin(entries, old_sc.entry.unique())

    pend = np.zeros((k, n))
    unit = np.zeros((k, n))
    unit[np.arange(k), epos] = 1.0
    for _, r in changed.iterrows():
        u, v = int(r.src), int(r.dst)
        dw = (0.0 if np.isnan(r.w_new) else r.w_new) - (0.0 if np.isnan(r.w_old) else r.w_old)
        if u not in pos.index or v not in pos.index:
            continue
        through = (D[:, pos[u]] + unit[:, pos[u]]) * had_old  # old mass via u
        pend[:, pos[v]] += through * dw
    D += pend  # injected corrections are arrivals
    # Fresh unit injections for entries with no old row (not an arrival).
    fresh = ~had_old
    if fresh.any():
        D[fresh, :] = 0.0
        pend[fresh, :] = 0.0
        pend[fresh, epos[fresh]] = 1.0

    src, dst, w = _arrays(new_edges, ids) if len(new_edges) else (
        np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0),
    )
    acts = 0
    rows_k = np.arange(k)
    for _ in range(max_iter):
        active = np.abs(pend) > tol
        mask = active[:, src] if len(src) else np.zeros((k, 0), bool)
        n_fire = int(mask.sum())
        if n_fire == 0:
            break
        acts += n_fire
        moved = np.where(mask, pend[:, src] * w[None, :], 0.0)
        nxt = np.zeros((k, n))
        np.add.at(nxt, (rows_k[:, None], dst[None, :]), moved)
        D += nxt
        pend = nxt

    keep = np.abs(D) > tol
    e_idx, v_idx = np.nonzero(keep)
    out = pd.DataFrame({"entry": entries[e_idx], "dst": ids[v_idx], "w": D[e_idx, v_idx]})
    return out.sort_values(["entry", "dst"]).reset_index(drop=True), acts


def shortcut_update_min(
    new_edges: pd.DataFrame,
    entries: np.ndarray,
    old_sc: pd.DataFrame,
    changed: pd.DataFrame,  # src, dst, w_old, w_new (NaN = absent)
    algo: Algorithm,
    *,
    tol: float | None = None,
) -> tuple[pd.DataFrame, int]:
    """Incremental shortcut update for min workloads.

    Per entry, detect whether any changed edge can possibly affect its
    shortcut tree (its old distance used a deleted/raised edge, or an
    added/lowered edge offers an improvement); recompute only the affected
    entries' rows, keep the rest verbatim.
    """
    entries = np.asarray(entries, np.int64)
    if len(entries) == 0:
        return pd.DataFrame(columns=["entry", "dst", "w"]), 0
    ids = np.unique(
        np.concatenate(
            [
                new_edges.src.to_numpy(np.int64),
                new_edges.dst.to_numpy(np.int64),
                entries,
                old_sc.dst.to_numpy(np.int64),
            ]
        )
    )
    pos = pd.Series(np.arange(len(ids)), index=ids)
    D = _sc_matrix(old_sc, entries, pos, len(ids), INF)
    epos = pos.reindex(entries).to_numpy(np.int64)
    D[np.arange(len(entries)), epos] = np.minimum(D[np.arange(len(entries)), epos], 0.0)
    had_old = np.isin(entries, old_sc.entry.unique())

    affected = ~had_old
    for _, r in changed.iterrows():
        u, v = int(r.src), int(r.dst)
        du = D[:, pos[u]] if u in pos.index else np.full(len(entries), INF)
        dv = D[:, pos[v]] if v in pos.index else np.full(len(entries), INF)
        with np.errstate(invalid="ignore"):
            if np.isnan(r.w_new) or (not np.isnan(r.w_old) and r.w_new > r.w_old):
                affected |= np.abs(du + r.w_old - dv) <= 1e-9  # old support used it
            if np.isnan(r.w_old) or (not np.isnan(r.w_new) and r.w_new < r.w_old):
                affected |= (du + (0 if np.isnan(r.w_new) else r.w_new)) < dv - 1e-12
    if not affected.any():
        return old_sc[["entry", "dst", "w"]].reset_index(drop=True), 0

    # Reconstruct the OLD subgraph edge list from the diff so each affected
    # entry can be updated incrementally (trim + re-relax) instead of from
    # scratch — this is the paper's incremental weight update (§IV-B).
    from dataclasses import replace as dc_replace

    from repro.incremental.revision import min_revision

    old_edges = new_edges.merge(
        changed[["src", "dst"]], on=["src", "dst"], how="left", indicator=True
    )
    old_edges = old_edges[old_edges._merge == "left_only"][["src", "dst", "w"]]
    restored = changed[~changed.w_old.isna()].rename(columns={"w_old": "w"})
    old_edges = pd.concat(
        [old_edges, restored[["src", "dst", "w"]]], ignore_index=True
    )

    acts = 0
    parts = [old_sc[old_sc.entry.isin(entries[~affected])][["entry", "dst", "w"]]]
    for i in np.flatnonzero(affected):
        e = int(entries[i])
        if not had_old[i]:
            fresh, a = shortcut_weights(new_edges, np.array([e]), ids, algo, tol=tol)
            acts += a
            parts.append(fresh)
            continue
        states_e = pd.Series(D[i], index=ids)
        algo_e = dc_replace(algo, roots={e: 0.0}, uniform_root=None, source=e)
        reset, seeds, a = min_revision(old_edges, new_edges, states_e, algo_e)
        acts += a
        x = states_e.copy()
        x.loc[x.index.isin(set(int(r) for r in reset))] = INF
        run = converge(new_edges, x, seeds, algo_e, tol=tol)
        acts += run.activations
        row = run.states
        row = row[np.isfinite(row.to_numpy(float))]
        row = row[~((row.index == e) & (row.to_numpy() == 0.0))]
        parts.append(pd.DataFrame({"entry": e, "dst": row.index, "w": row.to_numpy()}))

    out = pd.concat(parts, ignore_index=True)
    return out.sort_values(["entry", "dst"]).reset_index(drop=True), acts
