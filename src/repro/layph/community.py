"""Dense-subgraph candidate discovery: size-capped label propagation (§IV-A1).

The paper uses Louvain with a size threshold K; we use mode-based label
propagation over the undirected view in Spark DataFrames (DESIGN.md §5.3)
— on our planted-partition datasets LPA recovers community blocks well,
and a deterministic chunk-split enforces the K cap exactly as the paper's
threshold does. The density test (Def. 2) is applied afterwards, on the
candidate layout in ``layph.layered``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as Fn

from repro.graphs.schema import edges_to_spark


def lpa_communities(
    spark: SparkSession,
    edges: pd.DataFrame,
    *,
    n_iters: int = 4,
    K: int = 1000,
    min_size: int = 4,
) -> pd.DataFrame:
    """Label propagation over the undirected view; returns (id, sub).

    Each round every vertex adopts the most frequent label among its
    neighbors (ties -> smaller label). Communities larger than ``K`` are
    split into id-ordered chunks of ``K``; communities smaller than
    ``min_size`` are dropped (their vertices become upper-layer outliers).
    """
    e = edges_to_spark(spark, edges)
    und = (
        e.select("src", "dst").union(e.select(Fn.col("dst"), Fn.col("src")))
        .distinct()
        .persist()
    )
    labels = (
        und.select(Fn.col("src").alias("id")).distinct()
        .withColumn("lbl", Fn.col("id"))
        .localCheckpoint(eager=True)
    )
    for _ in range(n_iters):
        nbr = und.join(labels, und.dst == labels.id).select(
            Fn.col("src").alias("v"), Fn.col("lbl")
        )
        counts = nbr.groupBy("v", "lbl").agg(Fn.count("*").alias("cnt"))
        # max count, ties broken toward the smaller label
        pick = counts.groupBy("v").agg(
            Fn.max(Fn.struct(Fn.col("cnt"), (-Fn.col("lbl")).alias("neg"))).alias("m")
        ).select(Fn.col("v").alias("id"), (-Fn.col("m.neg")).alias("lbl"))
        labels = (
            labels.select("id").join(pick, "id", "left")
            .select("id", Fn.coalesce("lbl", Fn.col("id")).alias("lbl"))
            .localCheckpoint(eager=True)
        )
    pdf = labels.toPandas().astype(np.int64)
    und.unpersist()
    return _cap_sizes(pdf.rename(columns={"lbl": "sub"}), K=K, min_size=min_size)


def _cap_sizes(membership: pd.DataFrame, *, K: int, min_size: int) -> pd.DataFrame:
    """Relabel to dense 0..N-1 sub ids, split >K communities, drop tiny ones."""
    out = membership.sort_values(["sub", "id"]).reset_index(drop=True)
    out["rank"] = out.groupby("sub").cumcount()
    out["chunk"] = out["rank"] // K
    key = out["sub"].astype(str) + "_" + out["chunk"].astype(str)
    out["sub"] = pd.factorize(key)[0].astype(np.int64)
    sizes = out.groupby("sub").id.transform("size")
    out = out[sizes >= min_size]
    out["sub"] = pd.factorize(out["sub"])[0].astype(np.int64)
    return out[["id", "sub"]].reset_index(drop=True)


def planted_communities(membership: pd.DataFrame, *, K: int = 1000, min_size: int = 4) -> pd.DataFrame:
    """Use generator ground truth as the community assignment (fast path for
    tests/benchmarks where discovery quality is not the variable under study)."""
    return _cap_sizes(membership.copy(), K=K, min_size=min_size)
