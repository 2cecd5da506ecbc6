"""Local (numpy) vertex-centric kernels, run in the driver.

This is the compute core of Layph's per-subgraph phases — shortcut
deduction (§IV-A2), shortcut update (§IV-B) and message upload (§V-A).
Each maps its tables to positions and runs ``batch.propagate``, the kernel
behind the superstep loop's driver backend. Subgraphs are disjoint and
intra edges never leave their subgraph, so the union of the affected
subgraphs is a block-diagonal graph: the upload is one :func:`converge`
over that union, and shortcut deduction and the min and sum updates are
one :func:`shortcut_pass` over every (subgraph, entry) row.

Everything operates on *prepared* edges (see ``engine.algorithms``): min
workloads relax ``m + w`` under ``min``; sum workloads propagate deltas
``m · w`` under ``+``. Activations are counted exactly as the paper counts
them: one per F application (one per out-edge of an active vertex per
superstep). A superstep counts only when it sends messages. Reaching
``max_iter`` with messages still pending raises ``RuntimeError`` rather
than returning unconverged states.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pandas as pd

from repro.engine import batch
from repro.engine.algorithms import Algorithm
from repro.incremental.revision import min_revision, prepared_edge_diff

INF = float("inf")


@dataclass
class LocalRun:
    """Result of one local convergence."""

    states: pd.Series  # id -> converged x
    arrivals: pd.Series  # id -> G-aggregate of everything received this run
    activations: int
    iterations: int  # supersteps that sent messages


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

    The messages are G-aggregated per id and folded into ``x0``; only a min
    message that improves its state, or a sum message above ``tol``, is
    active on the first superstep. Then one ``batch.propagate`` runs over
    the edges sorted by source.
    """
    tol = algo.tol if tol is None else tol
    ids = pd.Index(x0.index.to_numpy(np.int64))
    src, dst = batch.positions(ids, prepared.src), batch.positions(ids, prepared.dst)
    if (src < 0).any() or (dst < 0).any():
        raise ValueError("prepared edges reference ids outside the vertex set")
    order = np.argsort(src, kind="stable")
    x = x0.to_numpy(float)
    at = batch.positions(ids, m0.index)
    seeds = np.full(len(ids), INF if algo.is_min else 0.0)
    (np.minimum if algo.is_min else np.add).at(seeds, at[at >= 0], m0.to_numpy(float)[at >= 0])
    if algo.is_min:
        pend = np.where(seeds < x, seeds, np.nan)
        x = np.minimum(x, seeds)
    else:
        pend = np.where(np.abs(seeds) > tol, seeds, np.nan)
        x = x + seeds
    x, recv, acts, steps = batch.propagate(
        x, pend, src[order], dst[order], prepared.w.to_numpy(float)[order], algo, tol,
        max_iter, f"converge: messages still pending after max_iter={max_iter}", recv=seeds,
    )
    return LocalRun(
        states=pd.Series(x, index=ids),
        arrivals=pd.Series(recv, index=ids),
        activations=acts,
        iterations=steps,
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


def _cell_edges(table, rows, rsub, row_base, n_subs):
    """One copy of a sub-major edge table (sub, src, dst, w; vertices as
    positions inside their subgraph) per entry row in ``rows``: the copies'
    ``(src, dst, w)`` on cell ids, row by row in table order."""
    sub, src, dst, w = table
    bounds = np.searchsorted(sub, np.arange(n_subs + 1))
    cnt = np.diff(bounds)[rsub[rows]]
    c, e = np.repeat(rows, cnt), _ranges(bounds[rsub[rows]], cnt)
    return row_base[c] + src[e], row_base[c] + dst[e], w[e].astype(float)


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
    # Each table id's position among all vertices, and inside its own
    # subgraph's block of vertices.
    gpos = np.searchsorted(vkeys, keys)
    lsrc, ldst, lent, lodst, lcsrc, lcdst, _ = np.split(gpos - voff[psub], cuts)
    new = [esub, lsrc, ldst, ew]  # the intra edges, vertices as positions

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
    if is_min:  # every entry holds 0 in its own cell, so a cycle back cannot re-fire it
        acc[ecell] = 0.0
    # The rows that propagate: every row for sum, new or affected rows for min.
    live = ~had_old if is_min else np.ones(len(rid), bool)
    if len(csub):
        # Each changed edge (u, v) meets every row of its subgraph.
        cnt = k[csub]
        c = np.repeat(np.arange(len(csub)), cnt)
        g = _ranges(rbound[csub], cnt)
        u, v = row_base[g] + lcsrc[c], row_base[g] + lcdst[c]
        if is_min:
            # A row is affected if its old tree used a deleted or raised
            # edge, or an added or lowered edge improves it.
            with np.errstate(invalid="ignore"):
                worse = np.isnan(cw_new) | (cw_new > cw_old)
                better = np.isnan(cw_old) | (cw_new < cw_old)
                hit = worse[c] & (np.abs(acc[u] + cw_old[c] - acc[v]) <= 1e-9)
                hit |= better[c] & (acc[u] + cw_new[c] < acc[v] - 1e-12)
            live[g[hit]] = True
        else:
            # A prepared-weight change dw on (u, v) injects
            # (D[e, u] + 1_{u=e})·dw at v in every old row e, in changed-row order.
            dw = np.where(np.isnan(cw_new), 0.0, cw_new) - np.where(np.isnan(cw_old), 0.0, cw_old)
            unit = (ecell[g] == u).astype(float)
            np.add.at(pend, v, (acc[u] + unit) * had_old[g] * dw[c])
            acc += pend  # injected corrections are arrivals

    acts = 0
    trim = np.flatnonzero(live & had_old) if is_min else []
    if len(trim):
        # The subgraphs' old edges: the unchanged new ones plus the old
        # weights of the changed ones.
        gsrc, gdst, gcsrc, gcdst = (np.split(gpos, cuts)[i] for i in (0, 1, 4, 5))
        same = ~np.isin(gsrc * len(vkeys) + gdst, gcsrc * len(vkeys) + gcdst)
        restored = ~np.isnan(cw_old)
        old_sub = np.concatenate([esub[same], csub[restored]])
        by_sub = np.argsort(old_sub, kind="stable")
        old = [old_sub[by_sub]] + [
            np.concatenate(p)[by_sub]
            for p in ([lsrc[same], lcsrc[restored]], [ldst[same], lcdst[restored]],
                      [ew[same].astype(float), cw_old[restored]])
        ]

        def frame(table):
            src, dst, w = _cell_edges(table, trim, rsub, row_base, n_subs)
            return pd.DataFrame({"src": src, "dst": dst, "w": w})

        ids = _ranges(row_base[trim], nrow[trim])
        old_cells, new_cells = frame(old), frame(new)
        # Trim and seed every affected old row at once, each entry cell a root at 0.
        reset, seeds, acts = min_revision(
            prepared_edge_diff(old_cells, new_cells), old_cells, new_cells,
            pd.Series(acc[ids], index=ids),
            replace(algo, roots=dict.fromkeys(ecell[trim].tolist(), 0.0)),
        )
        del old_cells, new_cells  # freed before the propagation
        acc[reset] = INF
        at, s = seeds.index.to_numpy(np.int64), seeds.to_numpy(float)
        up = s < acc[at]  # converge's first-superstep rule
        pend[at[up]] = acc[at[up]] = s[up]

    # Every live row gets its own copy of its subgraph's intra edges.
    src_cell, dst_cell, w = _cell_edges(new, np.flatnonzero(live), rsub, row_base, n_subs)
    # Rows without an old row start from a fresh unit injection (for sum,
    # pending mass and not an arrival).
    pend[ecell[~had_old]] = 0.0 if is_min else 1.0  # identity of ⊗

    active = pend < INF if is_min else np.abs(pend) > tol
    acc, _, a, _ = batch.propagate(
        acc, np.where(active, pend, np.nan), src_cell, dst_cell, w, algo, tol, max_iter,
        f"shortcut_pass: messages still pending after max_iter={max_iter}",
    )

    # A sum cell at or below tol is dropped, negative ones too: prepared
    # weights are >= 0, so a negative cell is only the delta correction's
    # error from cells cut at tol, never shortcut mass.
    keep = np.isfinite(acc) if is_min else acc > tol
    cells = np.flatnonzero(keep)
    g = np.searchsorted(row_base, cells, side="right") - 1
    dst = vid[voff[rsub[g]] + cells - row_base[g]]
    entry = rid[g].astype(np.int64)
    # A min self-shortcut (cycle distance) can never improve any state, so
    # drop it; a sum self-shortcut carries real cycle mass and must be kept.
    own = (entry == dst) if is_min else np.zeros(len(cells), bool)
    return rsub[g][~own], entry[~own], dst[~own], acc[cells][~own], acts + a


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

    Passing ``old`` and ``changed`` makes it the incremental weight update
    of §IV-B, which runs the user's own incremental algorithm inside each
    row. Old rows load into their cells; entries without an old row (newly
    promoted) start from a fresh unit injection.

    * Sum: an exact delta correction. The mass an entry ``e`` pushed
      through ``u`` per unit injection is ``D_old[e,u]`` (+1 when
      ``u == e``), so a prepared-weight change ``dw`` on ``(u,v)`` corrects
      every row by injecting ``(D_old[e,u] + 1_{u=e}) · dw`` at ``v`` and
      propagating over the NEW subgraph edges.
    * Min: a row is affected when a changed edge can touch its old tree
      (its old distance used a deleted or raised edge, or an added or
      lowered edge improves it). One ``min_revision`` over the affected
      rows' cells, each entry cell a root at 0, trims them KickStarter-style
      and seeds their re-relaxation; unaffected rows keep their old cells
      and cost no activation.

    Layout: each entry row is a block of ``|ids_s|`` cells (sub-major,
    entries in table order, vertex ids ascending) and each row that
    propagates gets one copy of its subgraph's edges, so one loop
    propagates every row of every subgraph.
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
