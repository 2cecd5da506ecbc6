"""Local (numpy) vertex-centric kernels, run in the driver.

This is the compute core of Layph's per-subgraph phases — shortcut
deduction (§IV-A2), shortcut update (§IV-B) and message upload (§V-A) —
and the reference push engine that the superstep loop must agree with.
Subgraphs are disjoint and intra edges never leave their subgraph, so the
union of the affected subgraphs is a block-diagonal graph: the upload is
one :func:`converge` over that union, and shortcut deduction and the sum
update are one :func:`shortcut_pass` over every (subgraph, entry) row.

Everything operates on *prepared* edges (see ``engine.algorithms``): min
workloads relax ``m + w`` under ``min``; sum workloads propagate deltas
``m · w`` under ``+``. Activations are counted exactly as the paper counts
them: one per F application (one per out-edge of an active vertex per
iteration). Reaching ``max_iter`` with messages still pending raises
``RuntimeError`` rather than returning unconverged states.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.engine import batch
from repro.engine.algorithms import Algorithm

INF = float("inf")


@dataclass
class LocalRun:
    """Result of one local convergence."""

    states: pd.Series  # id -> converged x
    arrivals: pd.Series  # id -> G-aggregate of everything received this run
    activations: int
    iterations: int


def _over_cap(where: str, max_iter: int) -> RuntimeError:
    return RuntimeError(f"{where}: messages still pending after max_iter={max_iter}")


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
        while True:
            active = pend < INF
            if not active.any():
                break
            mask = active[src]
            if iters == max_iter:
                if mask.any():
                    raise _over_cap("converge", max_iter)
                break
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
        while True:
            active = np.abs(pend) > tol
            if not active.any():
                break
            mask = active[src]
            if iters == max_iter:
                if mask.any():
                    raise _over_cap("converge", max_iter)
                break
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


# -- the flattened shortcut pass --------------------------------------------

_TABLES = (  # the pass's input tables and the columns it reads besides ``sub``
    ["src", "dst", "w"],  # prepared intra edges
    ["id"],  # entries
    ["entry", "dst", "w"],  # old shortcut rows
    ["src", "dst", "w_old", "w_new"],  # changed prepared weights (NaN = absent)
)


def _grouped(subs: np.ndarray, df: pd.DataFrame | None, cols: list[str]):
    """The rows of ``df`` whose ``sub`` is in ``subs`` (sorted, unique),
    sub-major with table order kept inside each subgraph.

    Returns ``(columns, bounds)``: ``columns[0]`` is each row's position in
    ``subs``, followed by the named columns; ``subs[i]``'s rows are
    ``bounds[i]:bounds[i + 1]``. ``None`` is a table without rows.
    """
    if df is None:
        return [np.empty(0, np.int64)] * (len(cols) + 1), np.zeros(len(subs) + 1, np.int64)
    sub = df["sub"].to_numpy(np.int64)
    p = np.searchsorted(subs, sub)
    hit = p < len(subs)
    hit[hit] = subs[p[hit]] == sub[hit]
    rows = np.flatnonzero(hit)
    rows = rows[np.argsort(p[rows], kind="stable")]
    cols = [p[rows]] + [df[c].to_numpy()[rows] for c in cols]
    return cols, np.searchsorted(cols[0], np.arange(len(subs) + 1))


def _block(df: pd.DataFrame | None, cols: list[str]):
    """:func:`_grouped` for a table that is all one subgraph (no ``sub``)."""
    if df is None:
        return [np.empty(0, np.int64)] * (len(cols) + 1), np.zeros(2, np.int64)
    return [np.zeros(len(df), np.int64)] + [df[c].to_numpy() for c in cols], np.array([0, len(df)])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concat(arange(s, s + c) for s, c in zip(starts, counts))``."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def _chunks(sizes: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive ``[lo, hi)`` ranges whose summed ``sizes`` stay within
    ``batch.DRIVER_MAX_EDGES``; an item above the limit forms its own range."""
    bounds, total = [0], 0
    for i, c in enumerate(sizes.tolist()):
        if total and total + c > batch.DRIVER_MAX_EDGES:
            bounds.append(i)
            total = 0
        total += c
    bounds.append(len(sizes))
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _propagate(acc, pend, src, dst, w, algo, tol, max_iter) -> tuple[np.ndarray, int]:
    """Iterate F/G over the copied edges until no cell fires; ``acc``
    G-aggregates every arrival. Sum messages are summed with ``np.bincount``
    in edge-copy order, so each cell adds its arrivals in edge order."""
    n, acts = len(acc), 0
    for it in itertools.count():
        active = pend < INF if algo.is_min else np.abs(pend) > tol
        fire = active[src]
        n_fire = int(np.count_nonzero(fire))
        if n_fire == 0:
            return acc, acts
        if it == max_iter:
            raise _over_cap("shortcut_pass", max_iter)
        acts += n_fire
        s, d = src[fire], dst[fire]
        if algo.is_min:
            nxt = np.full(n, INF)
            np.minimum.at(nxt, d, pend[s] + w[fire])
            pend = np.where(nxt < acc, nxt, INF)
            acc = np.minimum(acc, nxt)
        else:
            nxt = np.bincount(d, pend[s] * w[fire], minlength=n)
            acc = acc + nxt
            pend = nxt


def _pass_chunk(n_subs, E, R, O, C, algo, tol, max_iter):
    """One block-diagonal pass over the subgraphs ``0..n_subs-1`` of a chunk.

    ``E`` (sub, src, dst, w), ``R`` (sub, id), ``O`` (sub, entry, dst, w)
    and ``C`` (sub, src, dst, w_old, w_new) are column lists grouped
    sub-major. Returns ``(sub, entry, dst, w, activations)`` of the kept
    cells.
    """
    esub, esrc, edst, ew = E
    rsub, rid = R
    osub, oentry, odst, ow = O
    csub, csrc, cdst, cw_old, cw_new = C[:3] + [a.astype(float) for a in C[3:]]
    # Vertex universe: per subgraph, every id its tables name, ascending.
    # A (sub, id) pair is keyed sub * |ids| + the id's rank among all ids.
    parts = [esrc, edst, rid, odst, csrc, cdst, oentry]
    cuts = np.cumsum([len(a) for a in parts])[:-1]
    psub = np.concatenate([esub, esub, rsub, osub, csub, csub, osub]).astype(np.int64)
    codes, uniq = pd.factorize(np.concatenate(parts).astype(np.int64), sort=True)
    keys = psub * len(uniq) + codes
    rkey, okey = (np.split(keys, cuts)[i] for i in (2, 6))  # entries, old entries
    vkeys = np.unique(keys[: cuts[-1]])  # old entry ids are looked up, not vertices
    voff = np.searchsorted(vkeys // len(uniq), np.arange(n_subs + 1))
    vid = uniq[vkeys % len(uniq)]
    # Each table id's position inside its own subgraph's block of vertices.
    lsrc, ldst, lent, lodst, lcsrc, lcdst, _ = np.split(
        np.searchsorted(vkeys, keys) - voff[psub], cuts
    )

    # One row of |ids_s| cells per entry, sub-major, entries in table order.
    nrow = np.diff(voff)[rsub]
    row_base = np.cumsum(nrow) - nrow
    n_cells = int(nrow.sum())
    ecell = row_base + lent
    rbound = np.searchsorted(rsub, np.arange(n_subs + 1))
    k = np.diff(rbound)

    is_min = algo.is_min
    acc = np.full(n_cells, INF if is_min else 0.0)
    pend = acc.copy()
    had_old = np.isin(rkey, okey)
    if len(okey):
        # Old rows of current entries load into their cells.
        order = np.argsort(rkey, kind="stable")
        at = np.minimum(np.searchsorted(rkey[order], okey), len(order) - 1)
        found = rkey[order[at]] == okey
        g = order[at[found]]
        acc[row_base[g] + lodst[found]] = ow[found]
    if len(csub):
        # A prepared-weight change dw on (u, v) injects (D[e, u] + 1_{u=e})·dw
        # at v in every old row e, in changed-row order.
        dw = np.where(np.isnan(cw_new), 0.0, cw_new) - np.where(np.isnan(cw_old), 0.0, cw_old)
        cnt = k[csub]
        c = np.repeat(np.arange(len(csub)), cnt)
        g = _ranges(rbound[csub], cnt)
        u = row_base[g] + lcsrc[c]
        unit = (ecell[g] == u).astype(float)
        np.add.at(pend, row_base[g] + lcdst[c], (acc[u] + unit) * had_old[g] * dw[c])
        acc += pend  # injected corrections are arrivals
    # Rows without an old row start from a fresh unit injection (not an arrival).
    fresh = np.repeat(~had_old, nrow)
    acc[fresh] = INF if is_min else 0.0
    pend[fresh] = INF if is_min else 0.0
    pend[ecell[~had_old]] = 0.0 if is_min else 1.0  # identity of ⊗

    # Every entry row gets its own copy of its subgraph's intra edges.
    cnt = np.diff(np.searchsorted(esub, np.arange(n_subs + 1)))[rsub]
    c = np.repeat(np.arange(len(rid)), cnt)
    e = _ranges(np.searchsorted(esub, rsub), cnt)
    src_cell, dst_cell = row_base[c] + lsrc[e], row_base[c] + ldst[e]
    w = ew[e].astype(float)
    del c, e  # one int64 per copied edge each; free them before the loop
    acc, acts = _propagate(acc, pend, src_cell, dst_cell, w, algo, tol, max_iter)

    keep = np.isfinite(acc) if is_min else np.abs(acc) > tol
    cells = np.flatnonzero(keep)
    g = np.searchsorted(row_base, cells, side="right") - 1
    dst = vid[voff[rsub[g]] + cells - row_base[g]]
    entry = rid[g].astype(np.int64)
    # A min self-shortcut (cycle distance) can never improve any state, so
    # drop it; a sum self-shortcut carries real cycle mass and must be kept.
    own = (entry == dst) if is_min else np.zeros(len(cells), bool)
    return rsub[g][~own], entry[~own], dst[~own], acc[cells][~own], acts


def shortcut_pass(
    edges: pd.DataFrame,  # sub, src, dst, w
    entries: pd.DataFrame,  # sub, id
    algo: Algorithm,
    *,
    old: pd.DataFrame | None = None,  # sub, entry, dst, w
    changed: pd.DataFrame | None = None,  # sub, src, dst, w_old, w_new (NaN = absent)
    tol: float | None = None,
    max_iter: int = 100_000,
) -> tuple[pd.DataFrame, int]:
    """Shortcut tables of every subgraph in ``entries``, as one flattened
    pass over all of them.

    Deduction (Def. 3 / Eq. 6) injects the ⊗-identity unit message at every
    entry and propagates it with the user's own F and G through the
    subgraph's prepared ``edges`` until quiescence: min workloads keep
    finite weights, sum workloads keep weights above ``tol`` (including
    cycle self-weights ``w(e,e)``, which the layered engine needs).

    Passing ``old`` and ``changed`` (sum workloads only) makes it the
    incremental weight update of §IV-B, an exact delta correction: the mass
    an entry ``e`` pushed through ``u`` per unit injection is ``D_old[e,u]``
    (+1 when ``u == e``), so a prepared-weight change ``dw`` on ``(u,v)``
    corrects every entry row by injecting ``(D_old[e,u] + 1_{u=e}) · dw`` at
    ``v`` and propagating over the NEW subgraph edges. Entries without an
    old row (newly promoted) start from a fresh unit injection.

    Layout: each entry row is a block of ``|ids_s|`` cells (sub-major,
    entries in table order, vertex ids ascending) and gets one copy of its
    subgraph's edges, so one loop propagates every row of every subgraph.
    Subgraphs are taken in ``sub`` order, in chunks whose copied-edge count
    (Σ entries × intra edges) stays within ``batch.DRIVER_MAX_EDGES``.

    Returns ``(sub, entry, dst, w)`` rows sorted by ``sub, entry, dst``,
    plus the activation count.
    """
    subs = np.unique(entries["sub"].to_numpy(np.int64))
    tables = [
        _grouped(subs, df, cols) for df, cols in zip([edges, entries, old, changed], _TABLES)
    ]
    sub, entry, dst, w, acts = _run_pass(subs, tables, algo, tol, max_iter)
    return pd.DataFrame({"sub": sub, "entry": entry, "dst": dst, "w": w}), acts


def _run_pass(subs, tables, algo, tol, max_iter):
    """:func:`shortcut_pass` on grouped ``tables``, chunk by chunk. Returns
    the ``(sub, entry, dst, w)`` arrays sorted by ``sub, entry, dst``, and
    the activations."""
    tol = algo.tol if tol is None else tol
    if algo.is_min and (len(tables[2][0][0]) or len(tables[3][0][0])):
        raise ValueError("the shortcut pass updates sum shortcut tables only")
    copies = np.diff(tables[1][1]) * np.diff(tables[0][1])  # entries × intra edges
    out = [[np.empty(0, np.int64)] * 3 + [np.empty(0)]]
    acts = 0
    for lo, hi in _chunks(copies):
        chunk = [
            [cols[0][b[lo]:b[hi]] - lo] + [c[b[lo]:b[hi]] for c in cols[1:]]
            for cols, b in tables
        ]
        *cols, a = _pass_chunk(hi - lo, *chunk, algo, tol, max_iter)
        cols[0] = subs[lo:hi][cols[0]]
        out.append(cols)
        acts += a
    sub, entry, dst, w = (np.concatenate(c) for c in zip(*out))
    order = np.lexsort((dst, entry, sub))
    return sub[order], entry[order], dst[order], w[order], acts


def _one_subgraph(edges, entries, algo, old, changed, tol, max_iter):
    """:func:`shortcut_pass` on one subgraph's tables (no ``sub`` column).
    Returns its ``(entry, dst, w)`` rows and the activations."""
    entries = pd.DataFrame({"id": np.asarray(entries, np.int64)})
    tables = [_block(df, cols) for df, cols in zip([edges, entries, old, changed], _TABLES)]
    _, entry, dst, w, acts = _run_pass(np.zeros(1, np.int64), tables, algo, tol, max_iter)
    return pd.DataFrame({"entry": entry, "dst": dst, "w": w}), acts


def shortcut_weights(
    prepared: pd.DataFrame,
    entries: np.ndarray,
    vertex_ids: np.ndarray,
    algo: Algorithm,
    *,
    tol: float | None = None,
    max_iter: int = 100_000,
) -> tuple[pd.DataFrame, int]:
    """Automated shortcut deduction (Def. 3 / Eq. 6) inside one subgraph
    whose vertex set is ``vertex_ids``: :func:`shortcut_pass` on one block.

    Returns the shortcut table ``(entry, dst, w)`` plus the activation count.
    """
    ids = np.asarray(vertex_ids, np.int64)
    if not (np.isin(prepared.src, ids).all() and np.isin(prepared.dst, ids).all()):
        raise ValueError("prepared edges reference ids outside the vertex set")
    return _one_subgraph(prepared, entries, algo, None, None, tol, max_iter)


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
    """Incremental shortcut update for sum workloads (§IV-B weight update)
    inside one subgraph: :func:`shortcut_pass` on one block with the old
    rows ``(entry, dst, w)`` and the prepared-weight ``changed`` rows.
    """
    return _one_subgraph(new_edges, entries, algo, old_sc, changed, tol, max_iter)


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
