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

Min workloads exploit idempotence: entry caches are *recomputed* from the
converged L_up states and interior states are rebuilt by
``min_e(cache_e + w(e, v))`` — but only for subgraphs whose caches or
shortcuts changed, which is Layph's propagation constraint.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine.algorithms import Algorithm
from repro.engine.local import converge
from repro.graphs.updates import GraphDelta
from repro.incremental.ingress import align_states, new_vertex_universe
from repro.incremental.revision import min_revision, prepared_edge_diff, sum_injections
from repro.layph.layered import LayeredGraph, build_layered, update_layered
from repro.layph.upload import upload_messages
from repro.layph.upper import upper_min_loop, upper_sum_loop
from repro.metrics import PhaseTimer, RunStats

INF = float("inf")


def _series_min(a: pd.Series, b: pd.Series) -> pd.Series:
    """Element-wise min of two id-indexed series over the union index."""
    idx = a.index.union(b.index)
    return pd.Series(
        np.minimum(a.reindex(idx, fill_value=INF), b.reindex(idx, fill_value=INF)),
        index=idx,
    )


def compute_caches_min(lg: LayeredGraph, x: pd.Series) -> pd.Series:
    """Entry caches (Eq. 9, min form): per entry, the best *external* support
    — min over original L_up in-edges of ``x_u + w``, plus the root value."""
    entries = lg.entry_ids
    entry_set = set(entries)
    into = lg.up_edges[lg.up_edges.dst.isin(entry_set)]
    cand = pd.Series(
        x.reindex(into.src).to_numpy(float) + into.w.to_numpy(float),
        index=into.dst.to_numpy(np.int64),
    )
    cache = cand.groupby(level=0).min().reindex(entries, fill_value=INF)
    roots = pd.Series(
        {v: m for v, m in lg.algo.roots.items() if v in entry_set}, dtype=float
    )
    if len(roots):
        cache = _series_min(cache, roots).reindex(entries)
    return cache.sort_index()


class LayphEngine:
    """Stateful Layph runtime: offline build once, then per-ΔG increments."""

    def __init__(
        self,
        spark: SparkSession,
        edges: pd.DataFrame,
        algo: Algorithm,
        *,
        membership: pd.DataFrame | None = None,
        replicate: bool = True,
        tol: float | None = None,
    ):
        self.spark = spark
        self.algo = algo
        self.tol = algo.tol if tol is None else tol
        self._build_args = dict(membership=membership, replicate=replicate, tol=self.tol)
        self._edges0 = edges
        self.lg: LayeredGraph | None = None
        self.x: pd.Series | None = None  # states over layer universe (+proxies)
        self.caches: pd.Series | None = None  # min workloads only
        self.offline_stats = RunStats()
        self.batch_stats = RunStats()

    # ------------------------------------------------------------------
    def initialize(self) -> "LayphEngine":
        """Offline layering (§IV-A) + initial batch convergence on the
        layer graph (proxies are semantics-preserving, so real-vertex states
        equal the batch run on the original graph)."""
        with PhaseTimer(self.offline_stats, "offline"):
            self.lg, acts = build_layered(
                self.spark, self._edges0, self.algo, **self._build_args
            )
            self.offline_stats.activations += acts
        with PhaseTimer(self.batch_stats, "batch"):
            ids = self.lg.vertex_ids
            if self.algo.source is not None and self.algo.source not in ids:
                ids = np.unique(np.append(ids, self.algo.source))
            # Proxies are auxiliary relay vertices: they carry NO root
            # messages (a proxy with a PageRank root would inject extra mass).
            real = np.setdiff1d(ids, self.lg.proxies.proxy)
            run = converge(
                self.lg.layer_edges,
                self.algo.initial_states(ids),
                self.algo.root_messages(real),
                self.algo,
                tol=self.tol,
            )
            self.x = run.states
            self.batch_stats.activations += run.activations
        if self.algo.is_min:
            self.caches = compute_caches_min(self.lg, self.x)
        return self

    def states(self) -> pd.Series:
        """Converged states of real (non-proxy) vertices."""
        return self.x[~self.x.index.isin(self.lg.proxies.proxy)].sort_index()

    # ------------------------------------------------------------------
    def run_delta(self, delta: GraphDelta) -> tuple[pd.Series, RunStats]:
        """Incremental computation I_A(A(G), ΔG) on the layered graph."""
        stats = RunStats()
        old_lg, old_x = self.lg, self.x

        with PhaseTimer(stats, "layered_update"):
            new_lg, diff, affected, acts = update_layered(
                self.spark, old_lg, delta, tol=self.tol
            )
            stats.activations += acts

        # Ingress's vertex universe over the layer graph (proxies persist).
        ids = new_vertex_universe(new_lg.vertex_ids, delta, self.algo)
        x = align_states(old_x, ids, self.algo)

        if self.algo.is_sum:
            x = self._run_sum(new_lg, diff, old_x, x, delta, stats)
        else:
            x = self._run_min(old_lg, new_lg, diff, affected, x, delta, stats)

        self.lg, self.x = new_lg, x
        return self.states(), stats

    # ------------------------------------------------------------------
    def _run_sum(self, new_lg, diff, old_x, x, delta, stats) -> pd.Series:
        algo = self.algo
        with PhaseTimer(stats, "upload"):
            inj = sum_injections(diff, old_x, algo, new_vertices=delta.added_vertices)
            inj = inj[inj.index.isin(x.index)]

            is_member = inj.index.isin(new_lg.members.id)
            member_inj, outlier_inj = inj[is_member], inj[~is_member]

            is_entry, is_exit = new_lg.roles
            mstates, uploads, acts = upload_messages(
                self.spark, new_lg.intra_edges, new_lg.members.frame(), is_entry | is_exit,
                x, member_inj, algo, tol=self.tol,
            )
            stats.activations += acts
            x.update(mstates)
            if len(outlier_inj):
                x.loc[outlier_inj.index] = x.loc[outlier_inj.index] + outlier_inj

        with PhaseTimer(stats, "upper"):
            upv = np.intersect1d(new_lg.upper_vertex_ids, x.index.to_numpy())
            x_up, dcache = upper_sum_loop(
                self.spark, new_lg.upper_graph, x.reindex(upv),
                outlier_inj, uploads, new_lg.entry_ids, algo, stats=stats, tol=self.tol,
            )
            x.update(x_up)

        with PhaseTimer(stats, "assign"):
            if len(dcache):
                sc = new_lg.assignment_shortcuts
                j = sc.merge(dcache.rename("m"), left_on="entry", right_index=True)
                stats.activations += len(j)
                if len(j):
                    add = (j.m * j.w).groupby(j.dst).sum()
                    add = add[add.index.isin(x.index)]
                    x.loc[add.index] = x.loc[add.index] + add
        return x

    # ------------------------------------------------------------------
    def _run_min(self, old_lg, new_lg, diff, affected, x, delta, stats) -> pd.Series:
        algo = self.algo
        with PhaseTimer(stats, "upload"):
            old_up = old_lg.upper_graph[["src", "dst", "w"]]
            new_up = new_lg.upper_graph[["src", "dst", "w"]]
            # Vertices newly on the boundary lost the representation of their
            # old (interior) supports — conservatively invalidate them.
            old_b = set(old_lg.boundary_ids)
            new_b = set(new_lg.boundary_ids)
            promoted = np.array(sorted((new_b - old_b) & set(x.index)), np.int64)
            reset, seeds, dacts = min_revision(
                prepared_edge_diff(old_up, new_up), old_up, new_up, self.x, algo,
                extra_seeds=promoted,
            )
            stats.activations += dacts

        with PhaseTimer(stats, "upper"):
            upv = np.intersect1d(new_lg.upper_vertex_ids, x.index.to_numpy())
            x_up = x.reindex(upv)
            x_up.loc[x_up.index.isin(set(int(r) for r in reset))] = INF
            seeds = seeds[seeds.index.isin(upv)]
            x_up = upper_min_loop(
                self.spark, new_lg.upper_graph, x_up, seeds, algo, stats=stats
            )
            x.update(x_up)

        with PhaseTimer(stats, "assign"):
            caches = compute_caches_min(new_lg, x)
            old_c = self.caches if self.caches is not None else pd.Series(dtype=float)
            idx = caches.index.union(old_c.index)
            a = caches.reindex(idx, fill_value=INF).to_numpy(float)
            b = old_c.reindex(idx, fill_value=INF).to_numpy(float)
            with np.errstate(invalid="ignore"):
                same = (a == b) | (np.abs(a - b) <= 1e-9)
            changed_entries = idx.to_numpy(np.int64)[~same]
            cache_subs = new_lg.members.sub_of(changed_entries)
            target_subs = np.union1d(np.asarray(affected, np.int64), cache_subs[cache_subs >= 0])

            if len(target_subs):
                interior = new_lg.interior_ids
                # A proxy whose links all vanished has no state to rebuild.
                interior = interior[
                    np.isin(new_lg.members.sub_of(interior), target_subs)
                    & np.isin(interior, x.index)
                ]
                sc = new_lg.assignment_shortcuts
                sc = sc[sc["sub"].isin(target_subs)]
                j = sc.merge(caches.rename("c"), left_on="entry", right_index=True)
                stats.activations += len(j)
                val = (j.c + j.w).groupby(j.dst).min()
                fresh = val.reindex(interior, fill_value=INF)
                x.loc[fresh.index] = fresh.to_numpy()
            self.caches = caches
        return x

