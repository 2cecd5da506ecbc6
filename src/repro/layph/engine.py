"""The Layph incremental engine (§III workflow, §V processing).

Per ΔG batch, four phases (timed separately for the Fig. 7 breakdown):

1. ``layered_update`` — apply ΔG to the layered graph; recompute roles and
   the shortcut tables of *affected subgraphs only* (§IV-B).
2. ``upload``   — deduce revision messages and propagate them locally inside
   the affected subgraphs up to their boundary vertices (§V-A).
3. ``upper``    — global iterative computation restricted to L_up (§V-B):
   channel-aware sum loop or trim+relax min loop over cross edges and
   shortcuts.
4. ``assign``   — push the external messages accumulated at entry vertices
   down to interior vertices through shortcuts in one hop (§V-C).

The engine keeps one float array of states over the layered graph's slots
(``layph.slots``) across rounds: a slot is a fixed position per vertex id,
and ``update_layered`` keeps the round's vertex set as a per-slot mask.
A vertex that enters the set (new, or back after it left) starts from the
zero state, and in a sum round a real one gets its root message. The sum
round runs by slot from the revision to the assignment: the revision
gathers its sources' old states by slot, the upload, the L_up loop
(``LayeredGraph.upper``, by position) and the assignment
(``LayeredGraph.assignment_runs``) read slot columns, and the one
id-indexed Series is :meth:`LayphEngine.states`. Ids appear only where a
traced call site reads them: the upload's member frame and injections.
The min round translates at its boundary: it runs over the vertex set
sorted by id and writes its states back by slot. Both
workloads assign through :func:`assign`, one gather of each entry's run of
the cross-layer table and one G-aggregate (``np.bincount`` for sum,
``np.minimum.at`` for min), over slots.

Min workloads exploit idempotence: entry caches are *recomputed* from the
converged L_up states, one ``np.minimum.at`` over the cross rows, and
interior states are rebuilt by ``min_e(cache_e + w(e, v))`` — but only for
subgraphs whose caches or shortcuts changed, which is Layph's propagation
constraint.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine import batch
from repro.engine.algorithms import Algorithm
from repro.engine.local import converge
from repro.graphs.schema import source_rows
from repro.graphs.updates import GraphDelta
from repro.incremental.revision import (
    injection_totals, min_revision, prepared_edge_diff, root_terms, weight_change,
)
from repro.layph.layered import LayeredGraph, build_layered, update_layered
from repro.layph.slots import Messages
from repro.layph.upload import upload_messages
from repro.layph.upper import upper_min_loop, upper_sum_loop
from repro.metrics import PhaseTimer, RunStats

INF = float("inf")


def compute_caches_min(lg: LayeredGraph, x: np.ndarray, index: pd.Index) -> pd.Series:
    """Entry caches (Eq. 9, min form) from the states ``x`` over ``index``,
    by sorted entry id: per entry, the best *external* support — the least
    ``x_u + w`` over its cross in-rows — and the root value at a forced
    entry; +inf where neither exists."""
    entries = pd.Index(np.sort(lg.entry_ids))
    cross = lg.sub < 0
    src, at, w = lg.src[cross], batch.positions(entries, lg.dst[cross]), lg.w[cross]
    into = at >= 0
    cache = np.full(len(entries), INF)
    np.minimum.at(cache, at[into], x[batch.positions(index, src[into])] + w[into])
    roots = lg.algo.roots
    at = batch.positions(entries, list(roots))
    np.minimum.at(cache, at[at >= 0], np.fromiter(roots.values(), float)[at >= 0])
    return pd.Series(cache, index=entries)


def assign(
    lg: LayeredGraph, entries: np.ndarray, values: np.ndarray, algo: Algorithm
) -> tuple[np.ndarray, int]:
    """Assignment (§V-C): push the values of the sorted, unique entry slots
    ``entries`` down their rows of the cross-layer table
    (``lg.assignment_runs``) in one hop.

    Returns, per slot of ``lg``, the G-aggregate of ``value ⊗ w`` over the
    rows reaching it (sum: Σ value · w, else 0; min: the least value + w,
    else +inf), and the rows read, one activation each."""
    entry, dst, w = lg.assignment_runs
    rows = source_rows(entry, entries)
    val = values[np.searchsorted(entries, entry[rows])]
    d, w = dst[rows], w[rows]
    if algo.is_min:
        out = np.full(len(lg.slots), INF)
        np.minimum.at(out, d, val + w)
    else:
        out = np.bincount(d, val * w, minlength=len(lg.slots))
    return out, len(rows)


class LayphEngine:
    """Stateful Layph runtime: offline build once, then per-ΔG increments,
    every phase at ``algo.tol``. The states are one float array over the
    layered graph's slots (``layph.slots``), kept across rounds."""

    def __init__(
        self,
        spark: SparkSession,
        edges: pd.DataFrame,
        algo: Algorithm,
        *,
        membership: pd.DataFrame | None = None,
        replicate: bool = True,
    ):
        self.spark = spark
        self.algo = algo
        self._build_args = dict(membership=membership, replicate=replicate)
        self._edges0 = edges
        self.lg: LayeredGraph | None = None
        self.x: np.ndarray | None = None  # states by slot; read only in the vertex set
        self.caches: pd.Series | None = None  # min workloads only
        self.offline_stats = RunStats()
        self.batch_stats = RunStats()

    # ------------------------------------------------------------------
    def initialize(self) -> "LayphEngine":
        """Offline layering (§IV-A) + initial batch convergence on the
        layer graph (proxies are semantics-preserving, so real-vertex states
        equal the batch run on the original graph)."""
        with PhaseTimer(self.offline_stats, "offline"):
            self.lg, acts = build_layered(self._edges0, self.algo, **self._build_args)
            self.offline_stats.activations += acts
        with PhaseTimer(self.batch_stats, "batch"):
            at = _by_id(self.lg)
            ids = self.lg.slots.ids[at]
            # Proxies are auxiliary relay vertices: they carry NO root
            # messages (a proxy with a PageRank root would inject extra mass).
            real = ids[~self.lg.slots.proxy[at]]
            run = converge(
                self.lg.layer_edges, self.algo.initial_states(ids),
                self.algo.root_messages(real), self.algo,
            )
            self.x = np.full(len(self.lg.slots), self.algo.zero_state)
            self.x[at] = run.states.to_numpy()
            self.batch_stats.activations += run.activations
        if self.algo.is_min:
            self.caches = compute_caches_min(self.lg, self.x[at], pd.Index(ids))
        return self

    def layer_states(self) -> pd.Series:
        """States of the vertex set, proxies included, by id."""
        at = _by_id(self.lg)
        return pd.Series(self.x[at], index=self.lg.slots.ids[at])

    def states(self) -> pd.Series:
        """Converged states of real (non-proxy) vertices, by id."""
        at = _by_id(self.lg, real=True)
        return pd.Series(self.x[at], index=self.lg.slots.ids[at])

    # ------------------------------------------------------------------
    def run_delta(self, delta: GraphDelta) -> tuple[pd.Series, RunStats]:
        """Incremental computation I_A(A(G), ΔG) on the layered graph."""
        stats = RunStats()
        with PhaseTimer(stats, "layered_update"):
            new_lg, diff, affected, acts = update_layered(self.lg, delta)
            stats.activations += acts

        # The states over the new slots: a slot that enters the vertex set
        # (new, or back after it left) starts from the zero state.
        slots, old = new_lg.slots, self.lg
        x = slots.pad(self.x, self.algo.zero_state)
        entrants = new_lg.universe & ~slots.pad(old.universe, False)
        x[entrants] = self.algo.zero_state
        if self.algo.is_sum:
            x = self._run_sum(new_lg, diff, x, entrants, stats)
        else:
            x = self._run_min(new_lg, affected, x, stats)

        self.lg, self.x = new_lg, x
        return self.states(), stats

    # ------------------------------------------------------------------
    def _run_sum(self, new_lg, diff, x, entrants, stats) -> np.ndarray:
        """One sum round by slot on the states ``x``, which it updates and
        returns. Every real vertex that enters the vertex set gets its root
        message."""
        algo = self.algo
        with PhaseTimer(stats, "upload"):
            # A diff row's source ends a row of the old or the new table, so
            # it holds its old state or, entering, the zero state: no mass.
            s_src, s_dst = diff["s_src"].to_numpy(), diff["s_dst"].to_numpy()
            mass = x[s_src] - algo.zero_state
            new = np.flatnonzero(entrants & ~new_lg.slots.proxy)
            r, msgs = root_terms(algo, new_lg.slots.ids[new])
            v, val = injection_totals(s_dst, mass * weight_change(diff), new[r], msgs)
            inside = new_lg.universe[v]
            member = inside & (new_lg.members.at(v) >= 0)
            outlier = inside & ~member

            is_entry, is_exit = new_lg.roles
            x, uploads, acts = upload_messages(
                self.spark, new_lg.intra_edges, new_lg.members.frame(), is_entry | is_exit, x,
                pd.Series(val[member], index=new_lg.slots.ids[v[member]]), algo,
                new_lg.members, v[member],
            )
            stats.activations += acts
            x[v[outlier]] += val[outlier]

        with PhaseTimer(stats, "upper"):
            up = new_lg.upper
            x_up, entries, dcache = upper_sum_loop(
                self.spark, up, x[up.slots], Messages(v[outlier], val[outlier]), uploads,
                new_lg.members.slot[is_entry], algo, stats=stats,
            )
            x[up.slots] = x_up

        with PhaseTimer(stats, "assign"):
            add, rows = assign(new_lg, entries, dcache, algo)
            stats.activations += rows
            x += add
        return x

    # ------------------------------------------------------------------
    def _run_min(self, new_lg, affected, xs, stats) -> np.ndarray:
        """One min round on the states ``xs`` by slot, which it updates and
        returns: trim and relax on L_up, then rebuild the interiors of the
        subgraphs whose caches or shortcuts changed. It runs by id over the
        vertex set, sorted: slots are translated at its boundary."""
        algo, old_lg = self.algo, self.lg
        by_id = _by_id(new_lg)
        index = pd.Index(new_lg.slots.ids[by_id])
        x = xs[by_id]
        pos = np.full(len(new_lg.slots), -1)  # slot -> position in index
        pos[by_id] = np.arange(len(by_id))
        old_at = _by_id(old_lg)
        old_x = pd.Series(self.x[old_at], index=old_lg.slots.ids[old_at])
        with PhaseTimer(stats, "upload"):
            old_up, new_up = old_lg.upper_graph, new_lg.upper_graph
            # Vertices newly on the boundary lost the representation of their
            # old (interior) supports — conservatively invalidate them.
            promoted = np.setdiff1d(new_lg.boundary_ids, old_lg.boundary_ids)
            promoted = promoted[batch.positions(index, promoted) >= 0]
            reset, seeds, dacts = min_revision(
                prepared_edge_diff(old_up, new_up), old_up, new_up, old_x, algo,
                extra_seeds=promoted,
            )
            stats.activations += dacts

        with PhaseTimer(stats, "upper"):
            up = np.sort(pos[new_lg.upper.slots])
            x[up[np.isin(index[up], reset)]] = INF
            # A seed off L_up is an isolated root: nothing relays its value.
            at = batch.positions(index, seeds.index)
            off = (at >= 0) & ~np.isin(at, up)
            x[at[off]] = np.minimum(x[at[off]], seeds.to_numpy()[off])
            x_up = upper_min_loop(
                self.spark, new_lg.upper_graph, pd.Series(x[up], index=index[up]), seeds, algo,
                stats=stats,
            )
            x[up] = x_up.to_numpy()  # sorted by id, as index[up] is

        with PhaseTimer(stats, "assign"):
            caches = compute_caches_min(new_lg, x, index)
            entries, cache = caches.index.to_numpy(), caches.to_numpy()
            # An entry whose cache moved, or that is on one side only (+inf
            # on the other), marks its subgraph.
            old_e = self.caches.index.to_numpy()
            ids = np.union1d(old_e, entries)
            a, b = np.full(len(ids), INF), np.full(len(ids), INF)
            a[np.searchsorted(ids, entries)] = cache
            b[np.searchsorted(ids, old_e)] = self.caches.to_numpy()
            with np.errstate(invalid="ignore"):
                same = (a == b) | (np.abs(a - b) <= 1e-9)
            cache_subs = new_lg.members.sub_of(ids[~same])
            target_subs = np.union1d(np.asarray(affected, np.int64), cache_subs[cache_subs >= 0])

            if len(target_subs):
                # A proxy whose links all vanished has no state to rebuild.
                members = new_lg.members
                boundary = new_lg.roles[0] | new_lg.roles[1]
                inner = members.slot[~boundary]
                at = pos[inner[np.isin(members.sub[~boundary], target_subs)]]
                at = at[at >= 0]
                # Members keep id order among their slots: the sorted entry
                # slots run as ``entries`` do.
                e_slots = np.sort(members.slot[new_lg.roles[0]])
                pick = np.isin(new_lg.members.sub_of(entries), target_subs)
                best, rows = assign(new_lg, e_slots[pick], cache[pick], algo)
                stats.activations += rows
                x[at] = best[by_id[at]]
            self.caches = caches
        xs[by_id] = x
        return xs


def _by_id(lg: LayeredGraph, *, real: bool = False) -> np.ndarray:
    """The slots of ``lg``'s vertex set in id order; with ``real``, less
    the proxies."""
    order = lg.slots.order
    keep = lg.universe & ~lg.slots.proxy if real else lg.universe
    return order[keep[order]]
