"""Ingress-class incremental engine on the flat (non-layered) graph.

This is the system Layph is built on top of (§VI: Layph = Ingress +
layered graph). Given the old converged states and ΔG it deduces revision
messages (``incremental.revision``) and propagates them with the same
superstep loop used for batch runs — min workloads first trim the
dependency tree, sum workloads inject cancellation/compensation deltas.

As Ingress does, a round deduces its revision from the edges ΔG changes
only. A prepared weight depends only on its source's out-edge run, so the
prepared diff is taken between the old and new runs of the sources ΔG
names (:func:`changed_runs`), never between two whole graphs. What stays
O(|E|) per round: ``apply_delta``'s copy of the edge table, one prepare of
the new graph (the propagation runs on it), the vertex universe, and, for
min workloads, the dependency parents over the whole old graph.

Each round reports two phases: ``revision`` (apply ΔG, prepare, diff and
deduce the revision messages) and ``propagate`` (the superstep loop).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine.algorithms import Algorithm
from repro.engine.batch import superstep_loop
from repro.graphs.schema import (
    EDGE_COLUMNS,
    canonical_edges,
    edge_frame,
    source_rows,
    vertex_ids,
)
from repro.graphs.updates import GraphDelta, apply_delta
from repro.incremental.revision import min_revision, prepared_edge_diff, sum_revision
from repro.metrics import PhaseTimer, RunStats

INF = float("inf")


def new_vertex_universe(ids: np.ndarray, delta: GraphDelta, algo: Algorithm) -> np.ndarray:
    """Vertex set of G ⊕ ΔG from the sorted endpoint ``ids`` of its edges:
    ΔG's added vertices and the source join them even if isolated, and
    ΔG's deleted vertices leave. Every engine keeps this one rule."""
    ids = algo.with_source(np.union1d(ids, np.asarray(delta.added_vertices, np.int64)))
    if len(delta.deleted_vertices):
        ids = np.setdiff1d(ids, delta.deleted_vertices)
    return ids


def align_states(
    old_states: pd.Series, ids: np.ndarray, algo: Algorithm
) -> pd.Series:
    """Old states restricted/extended to the new vertex universe."""
    x = old_states.reindex(ids)
    return x.fillna(algo.zero_state)


def changed_runs(
    old_edges: pd.DataFrame, new_prepared: pd.DataFrame, delta: GraphDelta, algo: Algorithm
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """The prepared out-edge runs of the sources ΔG names
    (:meth:`GraphDelta.sources`), before and after ΔG.

    ``old_edges`` is the canonical old graph and ``new_prepared`` the
    prepared new one, both src-sorted. Every other run is the same in both
    graphs, so the :func:`prepared_edge_diff` of the two results equals
    that of the two whole prepared graphs, row for row.
    """
    keys = delta.sources()
    src, dst, w = (old_edges[c].to_numpy() for c in EDGE_COLUMNS)
    rows = source_rows(src, keys)
    old = edge_frame(*algo.prepare_rows(src[rows], dst[rows], w[rows]), copy=False)
    rows = source_rows(new_prepared.src.to_numpy(), keys)
    new = edge_frame(*(new_prepared[c].to_numpy()[rows] for c in EDGE_COLUMNS), copy=False)
    return old, new


def ingress_incremental(
    spark: SparkSession,
    old_edges: pd.DataFrame,
    delta: GraphDelta,
    old_states: pd.Series,
    algo: Algorithm,
    *,
    tol: float | None = None,
) -> tuple[pd.Series, RunStats]:
    """I_A(A(G), ΔG) — returns the states of A(G ⊕ ΔG) plus run stats."""
    stats = RunStats()
    with PhaseTimer(stats, "revision"):
        old_edges = canonical_edges(old_edges)
        new_edges = apply_delta(old_edges, delta)
        new_prepared = algo.prepare(new_edges)
        old_runs, new_runs = changed_runs(old_edges, new_prepared, delta, algo)
        ids = new_vertex_universe(vertex_ids(new_edges), delta, algo)
        x = align_states(old_states, ids, algo)

        if algo.is_sum:
            inj = sum_revision(
                old_runs, new_runs, old_states, algo, new_vertices=delta.added_vertices,
            )
            inj = inj[inj.index.isin(ids)]
            x.loc[inj.index] = x.loc[inj.index] + inj
            pend = inj
        else:
            reset, seeds, acts = min_revision(
                prepared_edge_diff(old_runs, new_runs), algo.prepare(old_edges), new_prepared,
                old_states, algo,
            )
            stats.activations += acts
            x.loc[x.index.isin(set(int(r) for r in reset))] = INF
            seeds = seeds[seeds.index.isin(ids)]
            x.loc[seeds.index] = np.minimum(x.loc[seeds.index], seeds)
            pend = seeds

    with PhaseTimer(stats, "propagate"):
        out, stats = superstep_loop(spark, x, pend, new_prepared, algo, tol=tol, stats=stats)
    return out.x, stats
