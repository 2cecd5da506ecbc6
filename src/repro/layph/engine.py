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

Both rounds map ids to positions once, over the sorted vertex universe of
G ⊕ ΔG: :meth:`LayphEngine.run_delta` aligns the states to it, each round
updates one float array from the upload to the assignment, and the one
id-indexed Series is built at the end. In a sum round the revision
returns its targets and deltas as arrays and the L_up loop returns its
states and the entry Δcache as arrays; Series exist in between only where
a layer function takes them: the upload's states and injections (it
returns its member states and uploads as Series), the revision's old
states, and the L_up loop's states and seeds. Both workloads assign through
:func:`assign`, one gather of each entry's run of the cross-layer table
and one G-aggregate (``np.bincount`` for sum, ``np.minimum.at`` for min).

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
from repro.incremental.ingress import align_states, new_vertex_universe
from repro.incremental.revision import min_revision, prepared_edge_diff, sum_injections
from repro.layph.layered import LayeredGraph, build_layered, update_layered
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
    lg: LayeredGraph, entries: np.ndarray, values: np.ndarray, index: pd.Index, algo: Algorithm
) -> tuple[np.ndarray, int]:
    """Assignment (§V-C): push the values of the sorted, unique ``entries``
    down their rows of the cross-layer table (``lg.assignment_runs``) in one
    hop.

    Returns, per position of ``index``, the G-aggregate of ``value ⊗ w``
    over the rows reaching it (sum: Σ value · w, else 0; min: the least
    value + w, else +inf), and the rows read, one activation each. A
    target outside ``index`` is read and dropped."""
    entry, dst, w = lg.assignment_runs
    rows = source_rows(entry, entries)
    val = values[np.searchsorted(entries, entry[rows])]
    d = batch.positions(index, dst[rows])
    inside = d >= 0
    d, val, w = d[inside], val[inside], w[rows][inside]
    if algo.is_min:
        out = np.full(len(index), INF)
        np.minimum.at(out, d, val + w)
    else:
        out = np.bincount(d, val * w, minlength=len(index))
    return out, len(rows)


class LayphEngine:
    """Stateful Layph runtime: offline build once, then per-ΔG increments,
    every phase at ``algo.tol``."""

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
        self.x: pd.Series | None = None  # states over the sorted layer universe (+proxies)
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
            ids = self.algo.with_source(self.lg.vertex_ids)
            # Proxies are auxiliary relay vertices: they carry NO root
            # messages (a proxy with a PageRank root would inject extra mass).
            real = np.setdiff1d(ids, self.lg.proxies.proxy)
            run = converge(
                self.lg.layer_edges, self.algo.initial_states(ids),
                self.algo.root_messages(real), self.algo,
            )
            self.x = run.states
            self.batch_stats.activations += run.activations
        if self.algo.is_min:
            self.caches = compute_caches_min(self.lg, self.x.to_numpy(), self.x.index)
        return self

    def states(self) -> pd.Series:
        """Converged states of real (non-proxy) vertices, by id."""
        ids = self.x.index
        real = ~np.isin(ids.to_numpy(), self.lg.proxies.proxy)
        return pd.Series(self.x.to_numpy()[real], index=ids[real])

    # ------------------------------------------------------------------
    def run_delta(self, delta: GraphDelta) -> tuple[pd.Series, RunStats]:
        """Incremental computation I_A(A(G), ΔG) on the layered graph."""
        stats = RunStats()
        with PhaseTimer(stats, "layered_update"):
            new_lg, diff, affected, acts = update_layered(self.lg, delta)
            stats.activations += acts

        # Ingress's vertex universe over the layer graph (proxies persist),
        # mapped to positions once: both rounds work on one float array.
        ids = new_vertex_universe(new_lg.vertex_ids, delta, self.algo)
        x = align_states(self.x, ids, self.algo)
        index, x = x.index, x.to_numpy(float, copy=True)
        if self.algo.is_sum:
            x = self._run_sum(new_lg, diff, x, index, delta, stats)
        else:
            x = self._run_min(new_lg, affected, x, index, stats)

        self.lg, self.x = new_lg, pd.Series(x, index=index)
        return self.states(), stats

    # ------------------------------------------------------------------
    def _run_sum(self, new_lg, diff, x, index, delta, stats) -> np.ndarray:
        """One sum round: upload, upper and assign on the aligned states
        ``x`` over ``index``, which it updates and returns."""
        algo = self.algo
        with PhaseTimer(stats, "upload"):
            v, val = sum_injections(diff, self.x, algo, new_vertices=delta.added_vertices)
            at = batch.positions(index, v)
            member = (at >= 0) & (new_lg.members.index(v) >= 0)
            outlier = (at >= 0) & ~member

            is_entry, is_exit = new_lg.roles
            mstates, uploads, acts = upload_messages(
                self.spark, new_lg.intra_edges, new_lg.members.frame(), is_entry | is_exit,
                pd.Series(x, index=index), pd.Series(val[member], index=v[member]), algo,
            )
            stats.activations += acts
            m = batch.positions(index, mstates.index)
            x[m[m >= 0]] = mstates.to_numpy()[m >= 0]
            x[at[outlier]] += val[outlier]

        with PhaseTimer(stats, "upper"):
            up = batch.positions(index, new_lg.upper_vertex_ids)
            up = up[up >= 0]
            x_up, entries, dcache = upper_sum_loop(
                self.spark, new_lg.upper_graph, pd.Series(x[up], index=index[up]),
                pd.Series(val[outlier], index=v[outlier]), uploads, new_lg.entry_ids, algo,
                stats=stats,
            )
            x[up] = x_up  # in index[up]'s order, sorted by id as the loop requires

        with PhaseTimer(stats, "assign"):
            add, rows = assign(new_lg, entries, dcache, index, algo)
            stats.activations += rows
            x += add
        return x

    # ------------------------------------------------------------------
    def _run_min(self, new_lg, affected, x, index, stats) -> np.ndarray:
        """One min round on the aligned states ``x`` over ``index``, which it
        updates and returns: trim and relax on L_up, then rebuild the
        interiors of the subgraphs whose caches or shortcuts changed."""
        algo, old_lg = self.algo, self.lg
        with PhaseTimer(stats, "upload"):
            old_up, new_up = old_lg.upper_graph, new_lg.upper_graph
            # Vertices newly on the boundary lost the representation of their
            # old (interior) supports — conservatively invalidate them.
            promoted = np.setdiff1d(new_lg.boundary_ids, old_lg.boundary_ids)
            promoted = promoted[batch.positions(index, promoted) >= 0]
            reset, seeds, dacts = min_revision(
                prepared_edge_diff(old_up, new_up), old_up, new_up, self.x, algo,
                extra_seeds=promoted,
            )
            stats.activations += dacts

        with PhaseTimer(stats, "upper"):
            up = batch.positions(index, new_lg.upper_vertex_ids)
            up = up[up >= 0]
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
                interior = new_lg.interior_ids
                at = batch.positions(index, interior)
                at = at[np.isin(new_lg.members.sub_of(interior), target_subs) & (at >= 0)]
                pick = np.isin(new_lg.members.sub_of(entries), target_subs)
                best, rows = assign(new_lg, entries[pick], cache[pick], index, algo)
                stats.activations += rows
                x[at] = best[at]
            self.caches = caches
        return x

