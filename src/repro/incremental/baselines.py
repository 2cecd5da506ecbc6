"""Behavioral models of the competitor systems (see DESIGN.md §5.2).

The real competitors are C++ systems; we reproduce each one's published
*algorithmic strategy* so that edge activations (the paper's own
hardware-independent metric) are comparable across systems. Runtimes are
comparable except KickStarter's: every other model runs the superstep loop
of ``engine.batch``, in the driver when the graph fits (``on_driver``),
while KickStarter's pull loop (``_pull_min_jacobi``) always runs as Spark
jobs, so compare KickStarter by activations only.

* ``restart``      — recompute A(G ⊕ ΔG) from scratch (paper's Restart).
* ``ingress``      — delta-based async propagation (the engine Layph extends).
* ``kickstarter``  — min only: dependency-tree trim + *pull-style* Jacobi
  recomputation over the affected region (each round rescans all in-edges
  of every affected vertex — KickStarter's tag/recompute behavior, which
  activates more edges than precise push). Its trim takes the prepared
  diff from the runs of the sources ΔG names, as ``ingress`` does, and it
  reports the same ``revision`` and ``propagate`` phases.
* ``risgraph``     — min only: per-update safe/unsafe classification (safe
  inserts short-circuit at the cost of one F each) before Ingress-style
  push propagation.
* ``graphbolt``    — sum only: iteration-synchronous dependency replay;
  modeled by propagating far smaller deltas (tol/100) — GraphBolt refines
  every memoized iteration, firing changed vertices' edges long after the
  change magnitude stopped mattering.
* ``dzig``         — sum only: GraphBolt + sparsity awareness; modeled with
  a tol/10 cut — between GraphBolt and Ingress.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as Fn

from repro.engine import batch
from repro.engine.algorithms import Algorithm
from repro.engine.batch import run_batch
from repro.graphs.schema import canonical_edges, edges_to_spark
from repro.graphs.updates import GraphDelta, apply_delta
from repro.incremental.ingress import (
    align_states,
    changed_runs,
    ingress_incremental,
    new_vertex_universe,
)
from repro.incremental.revision import min_revision, prepared_edge_diff
from repro.metrics import PhaseTimer, RunStats

INF = float("inf")


def restart(spark, old_edges, delta, old_states, algo, *, tol=None):
    """Recompute from scratch on the updated graph."""
    new_edges = apply_delta(old_edges, delta)
    return run_batch(spark, new_edges, algo, tol=tol)


def kickstarter(
    spark: SparkSession,
    old_edges: pd.DataFrame,
    delta: GraphDelta,
    old_states: pd.Series,
    algo: Algorithm,
    *,
    tol: float | None = None,
) -> tuple[pd.Series, RunStats]:
    """Trimmed-approximation + pull-Jacobi recomputation (min workloads)."""
    assert algo.is_min, "KickStarter supports single-dependency (min) workloads only"
    stats = RunStats()
    with PhaseTimer(stats, "revision"):
        old_edges = canonical_edges(old_edges)
        new_edges = apply_delta(old_edges, delta)
        new_prepared = algo.prepare(new_edges)
        old_runs, new_runs = changed_runs(old_edges, new_prepared, delta, algo)
        ids = new_vertex_universe(new_edges, delta, algo)
        x = align_states(old_states, ids, algo)

        reset, seeds, acts = min_revision(
            prepared_edge_diff(old_runs, new_runs), algo.prepare(old_edges), new_prepared,
            old_states, algo,
        )
        stats.activations += acts
        x.loc[x.index.isin(set(int(r) for r in reset))] = INF

        affected = np.union1d(reset, seeds.index.to_numpy(np.int64))
        affected = affected[np.isin(affected, ids)]
    with PhaseTimer(stats, "propagate"):
        x = _pull_min_jacobi(spark, new_prepared, x, affected, algo, stats)
    return x, stats


def _pull_min_jacobi(
    spark: SparkSession,
    prepared: pd.DataFrame,
    x: pd.Series,
    affected: np.ndarray,
    algo: Algorithm,
    stats: RunStats,
    max_iters: int = 10_000,
) -> pd.Series:
    """Spark pull loop: every affected vertex recomputes from ALL in-edges
    each round; vertices whose value changes add their out-neighbors to the
    affected set. Counts one activation per in-edge scanned."""
    old_parts = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", str(batch.LOOP_PARTITIONS))
    try:
        edges = edges_to_spark(spark, prepared).persist()
        states = spark.createDataFrame(
            pd.DataFrame({"id": x.index.to_numpy(np.int64), "x": x.to_numpy(float)})
        ).localCheckpoint(eager=True)
        roots = spark.createDataFrame(
            pd.DataFrame(
                {"rid": list(algo.roots) or [-1], "rval": list(algo.roots.values()) or [0.0]}
            )
        )
        aff = spark.createDataFrame(  # typed, as the set may be empty
            pd.DataFrame({"aid": np.asarray(affected, np.int64)}), schema="aid long"
        ).localCheckpoint(eager=True)
        for _ in range(max_iters):
            if aff.isEmpty():
                break
            scan = edges.join(aff, edges.dst == Fn.col("aid")).persist()
            stats.activations += scan.count()
            stats.supersteps += 1
            src_states = states.select(Fn.col("id").alias("sid"), Fn.col("x").alias("sx"))
            cand = (
                scan.join(src_states, scan.src == Fn.col("sid"))
                .groupBy(Fn.col("dst").alias("cid"))
                .agg(Fn.min(Fn.col("sx") + Fn.col("w")).alias("cx"))
            )
            recompute = (
                aff.join(cand, Fn.col("aid") == Fn.col("cid"), "left")
                .join(roots, Fn.col("aid") == Fn.col("rid"), "left")
                .select(
                    Fn.col("aid"),
                    Fn.least(
                        Fn.coalesce(Fn.col("cx"), Fn.lit(INF)),
                        Fn.coalesce(Fn.col("rval"), Fn.lit(INF)),
                    ).alias("nx"),
                )
            )
            merged = states.join(recompute, states.id == Fn.col("aid"), "left").select(
                "id",
                Fn.coalesce(Fn.col("nx"), Fn.col("x")).alias("x"),
                (Fn.col("nx").isNotNull() & (Fn.col("nx") < Fn.col("x"))).alias("changed"),
            ).persist()
            changed = merged.where("changed").select(Fn.col("id").alias("cid2"))
            new_aff = (
                edges.join(changed, edges.src == Fn.col("cid2"))
                .select(Fn.col("dst").alias("aid"))
                .union(changed.select(Fn.col("cid2").alias("aid")))
                .distinct()
            )
            nxt_states = merged.select("id", "x").localCheckpoint(eager=True)
            nxt_aff = new_aff.localCheckpoint(eager=True)
            scan.unpersist()
            merged.unpersist()
            states, aff = nxt_states, nxt_aff
        pdf = states.toPandas()
        edges.unpersist()
        return pd.Series(pdf.x.to_numpy(), index=pdf.id.to_numpy(np.int64)).sort_index()
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old_parts)


def risgraph(spark, old_edges, delta, old_states, algo, *, tol=None):
    """Safe/unsafe classification, then Ingress-style push (min workloads)."""
    assert algo.is_min, "RisGraph supports single-dependency (min) workloads only"
    states, stats = ingress_incremental(spark, old_edges, delta, old_states, algo, tol=tol)
    # One F application per unit update for the safe/unsafe check.
    stats.activations += delta.size
    return states, stats


def graphbolt(spark, old_edges, delta, old_states, algo, *, tol=None):
    """Iteration-synchronous memoized replay model (sum workloads)."""
    assert algo.is_sum, "GraphBolt provides PageRank/PHP-style workloads only"
    eff = (tol if tol is not None else algo.tol) * 1e-2
    return ingress_incremental(spark, old_edges, delta, old_states, algo, tol=eff)


def dzig(spark, old_edges, delta, old_states, algo, *, tol=None):
    """Sparsity-aware replay model (sum workloads)."""
    assert algo.is_sum, "DZiG provides PageRank/PHP-style workloads only"
    eff = (tol if tol is not None else algo.tol) * 1e-1
    return ingress_incremental(spark, old_edges, delta, old_states, algo, tol=eff)


#: System registry: name -> (runner, supported aggregate kinds).
SYSTEMS = {
    "restart": (restart, {"min", "sum"}),
    "kickstarter": (kickstarter, {"min"}),
    "risgraph": (risgraph, {"min"}),
    "graphbolt": (graphbolt, {"sum"}),
    "dzig": (dzig, {"sum"}),
    "ingress": (ingress_incremental, {"min", "sum"}),
}
