"""Local (numpy) vertex-centric kernels, run in the driver.

This is the compute core of Layph's per-subgraph phases — shortcut
deduction (§IV-A2), shortcut update (§IV-B) and message upload (§V-A).
Each maps its tables to positions and runs ``batch.propagate``, the kernel
behind the superstep loop's driver backend. Subgraphs are disjoint and
intra edges never leave their subgraph, so the union of the affected
subgraphs is a block-diagonal graph: the upload is one
:func:`converge_at` run over that union, on positions (the seeding rule
:func:`converge` applies to id-indexed input), and shortcut deduction and
the min and sum updates are
one :func:`shortcut_pass` over every (subgraph, entry) row. That pass is
the only way into the shortcut work; a single subgraph is a table whose
``sub`` column holds one value. Its cells are laid out from a membership
in (sub, id) order that the caller keeps (the layered graph's members, in
the one order it holds them, frozen across ΔG), so a call looks its table
ids up instead of deriving a vertex universe from them — by slot, one
gather of a dense array, when the layered graph keys its cells by slot
(``Members.by_slot``) — and a sum update
copies edges only for the rows that hold an active cell: the pass costs
about what its ``propagate`` costs; a min update hands its changed edges
to one ``revision.min_revision_at`` on cells, with no frame between.

Everything operates on *prepared* edges (see ``engine.algorithms``): min
workloads relax ``m + w`` under ``min``; sum workloads propagate deltas
``m · w`` under ``+``. Activations are counted exactly as the paper counts
them: one per F application (one per out-edge of an active vertex per
superstep). A superstep counts only when it sends messages. Every run
stops at ``batch.MAX_SUPERSTEPS``, read by ``propagate``: reaching it with
messages still pending raises ``RuntimeError`` rather than returning
unconverged states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.engine import batch
from repro.engine.algorithms import Algorithm
from repro.graphs.schema import ranges
from repro.incremental.revision import SEED_TOL, min_revision_at

INF = float("inf")


@dataclass
class LocalRun:
    """Result of one local convergence."""

    states: pd.Series  # id -> converged x
    arrivals: pd.Series  # id -> G-aggregate of everything received this run
    activations: int
    iterations: int  # supersteps that sent messages


def converge(prepared: pd.DataFrame, x0: pd.Series, m0: pd.Series, algo: Algorithm) -> LocalRun:
    """Run the accumulative engine to convergence on one (sub)graph.

    ``x0`` indexes the *complete* local vertex set; ``m0`` is a sparse
    id-indexed series of initial messages (root messages for a batch run,
    revision messages for an incremental one — including negative deltas
    for sum-cancellations). Every vertex forwards; the caller restricts the
    edge set to restrict propagation scope. Messages to ids outside ``x0``
    are dropped; an edge endpoint outside it raises ``ValueError``.

    Maps ids to positions and runs :func:`converge_at` over the edges
    sorted by source. Raises ``RuntimeError`` when messages are still
    pending after ``batch.MAX_SUPERSTEPS`` supersteps.
    """
    ids = pd.Index(x0.index.to_numpy(np.int64))
    src, dst = batch.positions(ids, prepared.src), batch.positions(ids, prepared.dst)
    if (src < 0).any() or (dst < 0).any():
        raise ValueError("prepared edges reference ids outside the vertex set")
    order = np.argsort(src, kind="stable")
    at = batch.positions(ids, m0.index)
    seeded = at >= 0
    x, arrivals, acts, steps = converge_at(
        x0.to_numpy(float), at[seeded], m0.to_numpy(float)[seeded],
        src[order], dst[order], prepared.w.to_numpy(float)[order], algo,
    )
    return LocalRun(
        states=pd.Series(x, index=ids),
        arrivals=pd.Series(arrivals, index=ids),
        activations=acts,
        iterations=steps,
    )


def converge_at(x, at, m, src, dst, w, algo: Algorithm):
    """:func:`converge` on positions: the states ``x``, the messages ``m``
    at the positions ``at`` and the edges ``(src, dst, w)``, every position
    inside ``x``. Returns ``(x, arrivals, activations, supersteps)``,
    ``arrivals`` the G-aggregate of the messages and of everything received.

    The seeding rule: the messages are G-aggregated per position and folded
    into ``x``; only a min message that improves its state, or a sum
    message above ``algo.tol``, is active on the first superstep. Then one
    ``batch.propagate`` runs over the edges in the given order, so each
    position sums its arrivals in edge order.
    """
    seeds = np.full(len(x), INF if algo.is_min else 0.0)
    (np.minimum if algo.is_min else np.add).at(seeds, at, m)
    if algo.is_min:
        pend = np.where(seeds < x, seeds, np.nan)
        x = np.minimum(x, seeds)
    else:
        pend = np.where(np.abs(seeds) > algo.tol, seeds, np.nan)
        x = x + seeds
    return batch.propagate(x, pend, src, dst, w, algo, recv=seeds)


# -- the flattened shortcut pass --------------------------------------------

_TABLES = (  # the columns the pass reads of each table besides ``sub``
    ["src", "dst", "w"],  # prepared intra edges
    ["entry", "dst", "w"],  # old shortcut rows
    ["src", "dst", "w_old", "w_new"],  # changed prepared weights (NaN = absent)
)


def _grouped(subs: np.ndarray, table, cols: list[str]):
    """The rows of ``table`` whose ``sub`` is in ``subs`` (sorted, unique),
    sub-major with table order kept inside each subgraph.

    Returns ``(columns, bounds)``: ``columns[0]`` is each row's position in
    ``subs``, followed by the named columns; ``subs[i]``'s rows are
    ``bounds[i]:bounds[i + 1]``. ``None`` is a table without rows.
    """
    if table is None:
        return [np.empty(0, np.int64)] * (len(cols) + 1), np.zeros(len(subs) + 1, np.int64)
    sub = np.asarray(table["sub"], np.int64)
    at = np.full(max(sub.max(initial=-1), subs.max(initial=-1)) + 2, -1)  # sub -1 reads -1
    at[subs] = np.arange(len(subs))
    p = at[sub]
    rows = np.flatnonzero(p >= 0)
    # Positions in the smallest unsigned type: numpy sorts them stably by
    # radix up to 16 bits, several times faster than int64.
    rows = rows[np.argsort(p[rows].astype(np.min_scalar_type(len(subs))), kind="stable")]
    cols = [p[rows]] + [np.asarray(table[c])[rows] for c in cols]
    return cols, np.searchsorted(cols[0], np.arange(len(subs) + 1))


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


def _cell_edges(table, rows, rsub, rb, n_subs):
    """One copy of a sub-major edge table (sub, src, dst and its weight
    columns; vertices as cell positions) per entry row in ``rows``: the
    copies' ``(src, dst, *weights)`` on cells, row by row in table order."""
    sub, src, dst, *ws = table
    bounds = np.searchsorted(sub, np.arange(n_subs + 1))
    cnt = np.diff(bounds)[rsub[rows]]
    c, e = np.repeat(rows, cnt), ranges(bounds[rsub[rows]], cnt)
    return (rb[c] + src[e], rb[c] + dst[e], *(np.asarray(w[e], float) for w in ws))


def _pass_chunk(cells, blo, bn, R, E, O, C, algo):
    """One block-diagonal pass over the subgraphs ``0..len(blo)-1`` of a chunk.

    Subgraph ``i`` holds the ``bn[i]`` positions of ``cells`` from
    ``blo[i]``. ``R`` (sub, entry), ``E`` (sub, src, dst, w), ``O`` (sub,
    entry, dst, w) and ``C`` (sub, src, dst, w_old, w_new) are column lists
    grouped sub-major, subgraphs as chunk positions and vertices as
    positions in ``cells``; ``R`` is in cell order, and an old entry that is
    no member is -1. Returns ``(sub, entry, dst, w, activations)`` of the
    kept cells, in (sub, entry, dst) order. Cells lie in (sub, id) order
    within a row, so ``min_revision_at``'s smallest position is the
    smallest id.
    """
    n_subs = len(blo)
    rsub, rat = R
    _, esrc, edst, _ = E
    _, oentry, odst, ow = O
    csub, csrc, cdst, cw_old, cw_new = C = C[:3] + [a.astype(float) for a in C[3:]]
    # One row per entry, holding its subgraph's block of cells: the cell of
    # row r and the vertex at position p is rb[r] + p.
    nrow = bn[rsub]
    row_base = np.cumsum(nrow) - nrow
    rb = row_base - blo[rsub]
    n_cells = int(nrow.sum())
    ecell = rb + rat
    rbound = np.searchsorted(rsub, np.arange(n_subs + 1))
    k = np.diff(rbound)

    is_min, tol = algo.is_min, algo.tol
    acc = np.full(n_cells, INF if is_min else 0.0)
    pend = acc.copy()
    # Old rows of current entries load into their cells.
    row_of = np.full(len(cells.id) + 1, -1)  # position -1, no member, is no row
    row_of[rat] = np.arange(len(rat))
    g = row_of[oentry]
    found = g >= 0
    had_old = np.zeros(len(rat), bool)
    had_old[g[found]] = True
    acc[rb[g[found]] + odst[found]] = ow[found]
    if is_min:  # every entry holds 0 in its own cell, so a cycle back cannot re-fire it
        acc[ecell] = 0.0
        live = ~had_old  # new or affected rows propagate
    if len(csub):
        # Each changed edge (u, v) meets every row of its subgraph.
        cnt = k[csub]
        c = np.repeat(np.arange(len(csub)), cnt)
        g = ranges(rbound[csub], cnt)
        u, v = rb[g] + csrc[c], rb[g] + cdst[c]
        if is_min:
            # A row is affected if its old tree used a deleted or raised
            # edge, or an added or lowered edge improves it.
            with np.errstate(invalid="ignore"):
                worse = np.isnan(cw_new) | (cw_new > cw_old)
                better = np.isnan(cw_old) | (cw_new < cw_old)
                hit = worse[c] & (np.abs(acc[u] + cw_old[c] - acc[v]) <= 1e-9)
                hit |= better[c] & (acc[u] + cw_new[c] < acc[v] - SEED_TOL)
            live[g[hit]] = True
        else:
            # A prepared-weight change dw on (u, v) injects
            # (D[e, u] + 1_{u=e})·dw at v in every old row e, in changed-row order.
            dw = np.where(np.isnan(cw_new), 0.0, cw_new) - np.where(np.isnan(cw_old), 0.0, cw_old)
            unit = rat[g] == csrc[c]
            np.add.at(pend, v, (acc[u] + unit) * had_old[g] * dw[c])
            acc += pend  # injected corrections are arrivals

    acts = 0
    trim = np.flatnonzero(live & had_old) if is_min else []
    if len(trim):
        def copies(table, keep=slice(None)):  # one copy per affected row
            return _cell_edges([c[keep] for c in table], trim, rsub, rb, n_subs)

        # The old edges are the unchanged new ones plus the changed ones' old
        # weights. Trim and seed every affected old row at once, each entry
        # cell a root at 0; the copies are freed before the propagation.
        n = len(cells.id)
        same, restored = ~np.isin(esrc * n + edst, csrc * n + cdst), ~np.isnan(cw_old)
        reset, at, seeds, acts = min_revision_at(
            copies(C), [np.r_[a, b] for a, b in zip(copies(E, same), copies(C[:4], restored))],
            copies(E), acc, (ecell[trim], np.zeros(len(trim))),
        )
        acc[reset] = INF
        pend[at] = acc[at] = seeds

    # Rows without an old row start from a fresh unit injection (for sum,
    # pending mass and not an arrival).
    pend[ecell[~had_old]] = 0.0 if is_min else 1.0  # identity of ⊗
    active = pend < INF if is_min else np.abs(pend) > tol
    if not is_min:  # a sum row holding no active cell sends nothing
        live = np.zeros(len(rat), bool)
        live[np.searchsorted(row_base, np.flatnonzero(active), "right") - 1] = True
    # Every live row gets its own copy of its subgraph's intra edges.
    src_cell, dst_cell, w = _cell_edges(E, np.flatnonzero(live), rsub, rb, n_subs)
    pend = np.where(active, pend, np.nan)
    acc, _, a, _ = batch.propagate(acc, pend, src_cell, dst_cell, w, algo)

    # A sum cell at or below tol is dropped, negative ones too: prepared
    # weights are >= 0, so a negative cell is only the delta correction's
    # error from cells cut at tol, never shortcut mass.
    cell = np.flatnonzero(np.isfinite(acc) if is_min else acc > tol)
    g = np.searchsorted(row_base, cell, side="right") - 1
    at, dst = rat[g], cell - rb[g]
    if is_min:
        # A min self-shortcut (cycle distance) can never improve any state,
        # so drop it; a sum self-shortcut carries real cycle mass and is kept.
        other = at != dst
        cell, at, dst = cell[other], at[other], dst[other]
    return cells.sub[at], cells.id[at], cells.id[dst], acc[cell], acts + a


def _check_members(cells, at: np.ndarray, sub: np.ndarray) -> None:
    """Raise unless each looked-up position ``at`` is a member of ``sub``."""
    if (cells.sub_at(at) != sub).any():
        raise ValueError("shortcut tables name an id outside its subgraph's cells")


def shortcut_pass(
    edges,  # sub, src, dst, w
    entries,  # sub, id
    algo: Algorithm,
    *,
    cells,  # members in (sub, id) order: Members.sub_major()
    old=None,  # sub, entry, dst, w
    changed=None,  # sub, src, dst, w_old, w_new (NaN = absent)
) -> tuple[pd.DataFrame, int]:
    """Shortcut tables of every subgraph in ``entries``, as one flattened
    pass over all of them.

    Deduction (Def. 3 / Eq. 6) injects the ⊗-identity unit message at every
    entry and propagates it with the user's own F and G through the
    subgraph's prepared ``edges`` until quiescence: min workloads keep
    finite weights, sum workloads keep weights above ``algo.tol`` (including
    cycle self-weights ``w(e,e)``, which the layered engine needs).

    Passing ``old`` and ``changed`` makes it the incremental weight update
    of §IV-B, which runs the user's own incremental algorithm inside each
    row. Old rows load into their cells; entries without an old row (newly
    promoted) start from a fresh unit injection.

    * Sum: an exact delta correction. The mass an entry ``e`` pushed
      through ``u`` per unit injection is ``D_old[e,u]`` (+1 when
      ``u == e``), so a prepared-weight change ``dw`` on ``(u,v)`` corrects
      every row by injecting ``(D_old[e,u] + 1_{u=e}) · dw`` at ``v`` and
      propagating over the NEW subgraph edges. Only the rows that then hold
      a cell above ``algo.tol`` (a fresh row holds its unit) get edges: the
      others send nothing and keep their corrected cells.
    * Min: a row is affected when a changed edge can touch its old tree
      (its old distance used a deleted or raised edge, or an added or
      lowered edge improves it). One ``min_revision_at`` on the affected
      rows' cells (``changed`` copied per row, each entry cell a root at 0)
      trims them KickStarter-style and seeds their re-relaxation; unaffected
      rows keep their old cells and cost no activation.

    Tables are frames or dicts of column arrays. Layout: ``cells`` (a
    :class:`repro.layph.structure.Members` in (sub, id) order) lays out each
    subgraph's vertices as one block; every id a table names must be a
    member of the table row's subgraph (``ValueError`` otherwise), and a
    member no table names only adds cells that never fire. Each entry is
    one row of its subgraph's block of cells, rows in (sub, entry) order,
    and each row that propagates gets one copy of its subgraph's edges, so
    one loop propagates every row of every subgraph. Subgraphs are taken in
    ``sub`` order, in chunks whose copied-edge count (Σ entries × intra
    edges) stays within ``batch.DRIVER_MAX_EDGES``.

    Returns ``(sub, entry, dst, w)`` rows sorted by ``sub, entry, dst``
    (the cells' own order), plus the activation count.
    """
    # One row per entry, in cell order: by subgraph, then entry id.
    at = cells.index(entries["id"])
    _check_members(cells, at, np.asarray(entries["sub"]))
    rat = np.sort(at)
    subs, rsub = np.unique(cells.sub[rat], return_inverse=True)
    rbound = np.searchsorted(rsub, np.arange(len(subs) + 1))
    (E, eb), (O, ob), (C, cb) = (
        _grouped(subs, t, cols) for t, cols in zip([edges, old, changed], _TABLES)
    )
    # Table ids to positions in cells, in one lookup. An old row's entry is
    # only looked up: it may be no member (-1) and then loads no row.
    ids = [E[1], E[2], O[2], C[1], C[2], O[1]]
    cut = np.cumsum([len(a) for a in ids])
    at = cells.index(np.concatenate(ids))
    _check_members(cells, at[:cut[-2]], subs[np.concatenate([E[0], E[0], O[0], C[0], C[0]])])
    E[1], E[2], O[2], C[1], C[2], O[1] = np.split(at, cut[:-1])
    blo = np.searchsorted(cells.sub, subs)
    bn = np.searchsorted(cells.sub, subs, "right") - blo

    copies = np.diff(rbound) * np.diff(eb)  # entries × intra edges
    out = [[np.empty(0, np.int64)] * 3 + [np.empty(0)]]
    acts = 0
    for lo, hi in _chunks(copies):
        chunk = [
            [cols[0][b[lo]:b[hi]] - lo] + [c[b[lo]:b[hi]] for c in cols[1:]]
            for cols, b in [([rsub, rat], rbound), (E, eb), (O, ob), (C, cb)]
        ]
        *cols, a = _pass_chunk(cells, blo[lo:hi], bn[lo:hi], *chunk, algo)
        out.append(cols)
        acts += a
    sub, entry, dst, w = (np.concatenate(c) for c in zip(*out))
    return pd.DataFrame({"sub": sub, "entry": entry, "dst": dst, "w": w}, copy=False), acts
