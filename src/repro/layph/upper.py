"""Iterative computation on the upper layer L_up (§V-B).

Min workloads run a plain superstep relaxation over the combined L_up graph
(original cross edges + entry→boundary shortcuts) — min is idempotent, so no
message provenance is needed; entry caches are recomputed from the converged
states afterwards.

Sum workloads need the channel discipline derived in DESIGN.md §6: a message
that arrived via a *shortcut* already had its interior effects applied (the
shortcut weight sums every interior path), so it may only be forwarded along
original edges; a message arriving via an *original* edge is forwarded along
original edges AND shortcuts, and accumulates into the entry's Δcache for
the assignment phase (Eq. 9). Uploaded messages enter in the shortcut
channel (their interior effects were served by the local upload phase).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as Fn
from pyspark.sql.types import (
    BooleanType,
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.engine import batch
from repro.engine.algorithms import Algorithm
from repro.metrics import RunStats

INF = float("inf")

_UPEDGE_SCHEMA = StructType(
    [
        StructField("src", LongType(), False),
        StructField("dst", LongType(), False),
        StructField("w", DoubleType(), False),
        StructField("etype", LongType(), False),  # 0 original, 1 shortcut
    ]
)

_UPSTATE_SCHEMA = StructType(
    [
        StructField("id", LongType(), False),
        StructField("x", DoubleType(), True),
        StructField("po", DoubleType(), True),  # pending, original channel
        StructField("ps", DoubleType(), True),  # pending, shortcut channel
        StructField("dc", DoubleType(), False),  # Δcache (entries only)
        StructField("is_entry", BooleanType(), False),
    ]
)


def upper_min_loop(
    spark: SparkSession,
    up_graph: pd.DataFrame,  # src, dst, w, etype
    x_up: pd.Series,
    seeds: pd.Series,
    algo: Algorithm,
    *,
    stats: RunStats,
    max_supersteps: int = 10_000,
) -> pd.Series:
    """Min relaxation over L_up. ``x_up`` must already have trimmed vertices
    reset to +inf; ``seeds`` are the revision seed messages."""
    from repro.engine.batch import (
        states_to_spark,
        states_to_series,
        superstep_loop,
    )

    seeds = seeds[seeds.index.isin(x_up.index)]
    # Strictly-improving seeds only: an equal-value seed is a no-op whose
    # propagation would only burn activations.
    keep = seeds.to_numpy() < x_up.reindex(seeds.index).to_numpy() - 1e-12
    seeds = seeds[keep]
    if len(seeds) == 0:
        return x_up
    x = x_up.copy()
    x.loc[seeds.index] = np.minimum(x.loc[seeds.index], seeds)
    states = states_to_spark(spark, x, seeds)
    edges = spark.createDataFrame(
        up_graph[["src", "dst", "w"]], schema=None
    )
    out, _ = superstep_loop(
        states, edges, algo, stats=stats, max_supersteps=max_supersteps
    )
    return states_to_series(out)


def upper_sum_loop(
    spark: SparkSession,
    up_graph: pd.DataFrame,  # src, dst, w, etype
    x_up: pd.Series,
    pend_orig: pd.Series,
    pend_sc: pd.Series,
    entry_ids: np.ndarray,
    algo: Algorithm,
    *,
    stats: RunStats,
    tol: float | None = None,
    max_supersteps: int = 10_000,
) -> tuple[pd.Series, pd.Series]:
    """Channel-aware sum propagation on L_up.

    ``pend_orig`` seeds (injections at outliers / new vertices) must already
    be applied to ``x_up`` by the caller; ``pend_sc`` seeds (uploads) were
    applied by the local upload phase. Returns ``(states, Δcache)``.
    """
    tol = algo.tol if tol is None else tol
    pend_orig = pend_orig[pend_orig.abs() > 0] if len(pend_orig) else pend_orig
    pend_sc = pend_sc[pend_sc.abs() > 0] if len(pend_sc) else pend_sc
    if len(pend_orig) == 0 and len(pend_sc) == 0:
        return x_up, pd.Series(dtype=float)
    old_parts = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", str(batch.LOOP_PARTITIONS))
    try:
        edges = spark.createDataFrame(up_graph, schema=_UPEDGE_SCHEMA).persist()
        ids = x_up.index.to_numpy(np.int64)
        entry_set = set(int(e) for e in entry_ids)
        pdf = pd.DataFrame(
            {
                "id": ids,
                "x": x_up.to_numpy(float),
                "po": pend_orig.reindex(ids).to_numpy(float),
                "ps": pend_sc.reindex(ids).to_numpy(float),
                "dc": 0.0,
                "is_entry": np.isin(ids, np.asarray(list(entry_set) or [-1], np.int64)),
            }
        )
        # NaN must become SQL NULL regardless of whether Arrow is enabled
        # (plain conversion keeps NaN as a float, breaking isNotNull()).
        pdf["po"] = pdf.po.astype(object).where(pdf.po.notna(), None)
        pdf["ps"] = pdf.ps.astype(object).where(pdf.ps.notna(), None)
        states = spark.createDataFrame(pdf, schema=_UPSTATE_SCHEMA).localCheckpoint(
            eager=True
        )
        e_orig = edges.where("etype = 0")
        e_sc = edges.where("etype = 1")
        for _ in range(max_supersteps):
            act = states.where(Fn.col("po").isNotNull() | Fn.col("ps").isNotNull())
            both = Fn.coalesce("po", Fn.lit(0.0)) + Fn.coalesce("ps", Fn.lit(0.0))
            msgs_o = act.join(e_orig, act.id == e_orig.src).select(
                Fn.col("dst").alias("mid"), (both * Fn.col("w")).alias("m")
            )
            act_o = states.where(Fn.col("po").isNotNull())
            msgs_s = act_o.join(e_sc, act_o.id == e_sc.src).select(
                Fn.col("dst").alias("mid"), (Fn.col("po") * Fn.col("w")).alias("m")
            )
            msgs_o = msgs_o.persist()
            msgs_s = msgs_s.persist()
            n_o, n_s = msgs_o.count(), msgs_s.count()
            if n_o + n_s == 0:
                msgs_o.unpersist()
                msgs_s.unpersist()
                break
            stats.activations += n_o + n_s
            stats.supersteps += 1
            agg_o = msgs_o.groupBy("mid").agg(Fn.sum("m").alias("ao"))
            agg_s = msgs_s.groupBy("mid").agg(Fn.sum("m").alias("as_"))
            j = states.join(agg_o, states.id == agg_o.mid, "left").drop("mid")
            j = j.join(agg_s, j.id == agg_s.mid, "left").drop("mid")
            new = j.select(
                "id",
                (
                    Fn.col("x")
                    + Fn.coalesce("ao", Fn.lit(0.0))
                    + Fn.coalesce("as_", Fn.lit(0.0))
                ).alias("x"),
                Fn.when(Fn.abs(Fn.col("ao")) > tol, Fn.col("ao")).alias("po"),
                Fn.when(Fn.abs(Fn.col("as_")) > tol, Fn.col("as_")).alias("ps"),
                (
                    Fn.col("dc")
                    + Fn.when(
                        Fn.col("is_entry"), Fn.coalesce("ao", Fn.lit(0.0))
                    ).otherwise(Fn.lit(0.0))
                ).alias("dc"),
                "is_entry",
            )
            nxt = new.localCheckpoint(eager=True)
            msgs_o.unpersist()
            msgs_s.unpersist()
            states = nxt
        out = states.select("id", "x", "dc").toPandas()
        edges.unpersist()
        x = pd.Series(out.x.to_numpy(), index=out.id.to_numpy(np.int64)).sort_index()
        dc = pd.Series(out.dc.to_numpy(), index=out.id.to_numpy(np.int64)).sort_index()
        dc = dc[dc.index.isin(entry_set) & (dc.abs() > 0)]
        return x, dc
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old_parts)
