"""Ingress-class incremental engine on the flat (non-layered) graph.

This is the system Layph is built on top of (§VI: Layph = Ingress +
layered graph). Given the old converged states and ΔG it deduces revision
messages (``incremental.revision``) and propagates them with the same
superstep loop used for batch runs — min workloads first trim the
dependency tree, sum workloads inject cancellation/compensation deltas.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine.algorithms import Algorithm
from repro.engine.batch import superstep_loop
from repro.graphs.schema import vertex_ids
from repro.graphs.updates import GraphDelta, apply_delta
from repro.incremental.revision import min_revision, sum_revision
from repro.metrics import PhaseTimer, RunStats

INF = float("inf")


def new_vertex_universe(
    new_edges: pd.DataFrame, delta: GraphDelta, algo: Algorithm
) -> np.ndarray:
    """Vertex set of G ⊕ ΔG (roots included even if isolated)."""
    ids = vertex_ids(new_edges)
    if algo.source is not None:
        ids = np.union1d(ids, [algo.source])
    if len(delta.deleted_vertices):
        ids = np.setdiff1d(ids, delta.deleted_vertices)
    return ids


def align_states(
    old_states: pd.Series, ids: np.ndarray, algo: Algorithm
) -> pd.Series:
    """Old states restricted/extended to the new vertex universe."""
    x = old_states.reindex(ids)
    return x.fillna(algo.zero_state)


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
    with PhaseTimer(stats, "total"):
        new_edges = apply_delta(old_edges, delta)
        old_prepared = algo.prepare(old_edges)
        new_prepared = algo.prepare(new_edges)
        ids = new_vertex_universe(new_edges, delta, algo)
        x = align_states(old_states, ids, algo)

        if algo.is_sum:
            inj = sum_revision(
                old_prepared, new_prepared, old_states, algo,
                new_vertices=delta.added_vertices,
            )
            inj = inj[inj.index.isin(ids)]
            x.loc[inj.index] = x.loc[inj.index] + inj
            pend = inj
        else:
            reset, seeds, acts = min_revision(old_prepared, new_prepared, old_states, algo)
            stats.activations += acts
            x.loc[x.index.isin(set(int(r) for r in reset))] = INF
            seeds = seeds[seeds.index.isin(ids)]
            seeds = seeds[seeds.to_numpy() < x.reindex(seeds.index).to_numpy() + 1e-12]
            x.loc[seeds.index] = np.minimum(x.loc[seeds.index], seeds)
            pend = seeds

        out, stats = superstep_loop(spark, x, pend, new_prepared, algo, tol=tol, stats=stats)
    return out.x, stats
