"""Global iterative computation as a Spark DataFrame superstep loop.

Each superstep is one Catalyst-planned round: active vertices join the
(prepared, cached) edge relation to generate messages (F), messages are
group-by-aggregated per destination (G), and states fold the aggregate in.
``localCheckpoint`` truncates lineage every superstep so hundred-iteration
runs do not blow up the planner.

This engine is the Restart baseline, computes the initial converged states
every incremental engine starts from, and is the loop behind Ingress, the
competitor models and both of Layph's upper-layer loops. The L_up sum loop
adds the original/shortcut message channels of DESIGN.md §6, which live
here too (see ``superstep_loop``).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as Fn
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.engine.algorithms import Algorithm
from repro.graphs.schema import vertex_ids
from repro.metrics import RunStats

STATE_SCHEMA = StructType(
    [
        StructField("id", LongType(), False),
        StructField("x", DoubleType(), True),
        StructField("pend", DoubleType(), True),
    ]
)

#: States of the channel-aware sum loop on L_up: ``pend`` is the pending
#: mass that arrived over original edges, ``pend_sc`` the mass that arrived
#: over shortcuts, ``recv`` the running sum of original-channel arrivals
#: (an entry's Δcache, Eq. 9).
CHANNEL_STATE_SCHEMA = StructType(
    STATE_SCHEMA.fields
    + [
        StructField("pend_sc", DoubleType(), True),
        StructField("recv", DoubleType(), False),
    ]
)

#: Shuffle partitions used inside superstep loops — graphs at our SF are
#: small; AQE coalesces further. Overridable for the thread-scaling study.
LOOP_PARTITIONS = 8


def states_to_spark(
    spark: SparkSession, x: pd.Series, pend: pd.Series, pend_sc: pd.Series | None = None
) -> DataFrame:
    """Build the (id, x, pend) state relation from id-indexed series.

    ``pend`` is sparse: ids absent from it are inactive (NULL pend). Passing
    ``pend_sc`` (the shortcut channel, same rule) builds the channel states
    of ``CHANNEL_STATE_SCHEMA`` with ``recv`` zero.
    """
    pdf = pd.DataFrame({"id": x.index.to_numpy(np.int64), "x": x.to_numpy(float)})
    pendings = {"pend": pend} if pend_sc is None else {"pend": pend, "pend_sc": pend_sc}
    for col, s in pendings.items():
        pdf = pdf.merge(
            pd.DataFrame({"id": s.index.to_numpy(np.int64), col: s.to_numpy(float)}),
            on="id",
            how="left",
        )
        # NaN must become SQL NULL regardless of whether Arrow is enabled.
        pdf[col] = pdf[col].astype(object).where(pdf[col].notna(), None)
    if pend_sc is None:
        return spark.createDataFrame(pdf, schema=STATE_SCHEMA)
    pdf["recv"] = 0.0
    return spark.createDataFrame(pdf, schema=CHANNEL_STATE_SCHEMA)


def initial_states(spark: SparkSession, edges: pd.DataFrame, algo: Algorithm) -> DataFrame:
    """X⁰ with root messages M⁰ applied and pending (Eq. 1 start)."""
    ids = vertex_ids(edges)
    if algo.source is not None and algo.source not in ids:
        ids = np.unique(np.append(ids, algo.source))
    x0 = algo.initial_states(ids)
    m0 = algo.root_messages(ids)
    if algo.is_min:
        x = x0.copy()
        x.loc[m0.index] = np.minimum(x.loc[m0.index], m0)
        pend = m0[m0 <= x0.reindex(m0.index)]
    else:
        x = x0.add(m0.reindex(x0.index).fillna(0.0))
        pend = m0
    return states_to_spark(spark, x, pend)


def superstep_loop(
    states: DataFrame,
    edges: DataFrame,
    algo: Algorithm,
    *,
    tol: float | None = None,
    max_supersteps: int = 10_000,
    stats: RunStats | None = None,
) -> tuple[DataFrame, RunStats]:
    """Iterate (F, G) until no messages remain. Returns converged states.

    ``edges`` must be prepared and is cached here. Activation accounting:
    ``messages.count()`` per superstep — one row per F application.

    A sum workload whose ``edges`` carry an ``etype`` column (0 original,
    1 shortcut) runs the L_up channel rule of DESIGN.md §6 on channel states
    (``states_to_spark`` with ``pend_sc``): mass that arrived over a
    shortcut already served the subgraph interior, so it leaves over
    original edges only; mass that arrived over an original edge leaves
    over both and adds to ``recv``. Min is idempotent and ignores ``etype``.
    """
    spark = states.sparkSession
    tol = algo.tol if tol is None else tol
    stats = stats or RunStats()
    channels = algo.is_sum and "etype" in edges.columns
    pend, m, w, zero = Fn.col("pend"), Fn.col("m"), Fn.col("w"), Fn.lit(0.0)
    is_active = pend.isNotNull()
    if algo.is_min:
        msg_val = pend + w
        aggs = [Fn.min("m").alias("m")]
        new_cols = [
            Fn.least(Fn.col("x"), m).alias("x"),
            Fn.when(m < Fn.col("x"), m).alias("pend"),
        ]
    elif not channels:
        msg_val = pend * w
        aggs = [Fn.sum("m").alias("m")]
        new_cols = [
            (Fn.col("x") + Fn.coalesce(m, zero)).alias("x"),
            Fn.when(Fn.abs(m) > Fn.lit(tol), m).alias("pend"),
        ]
    else:
        pend_sc, m_sc, orig = Fn.col("pend_sc"), Fn.col("m_sc"), Fn.col("etype") == 0
        is_active = is_active | pend_sc.isNotNull()
        # Shortcuts carry only original-channel mass.
        sends = orig | pend.isNotNull()
        both = Fn.coalesce(pend, zero) + Fn.coalesce(pend_sc, zero)
        msg_val = Fn.when(orig, both * w).otherwise(pend * w)
        aggs = [Fn.sum(Fn.when(orig, m)).alias("m"), Fn.sum(Fn.when(~orig, m)).alias("m_sc")]
        new_cols = [
            (Fn.col("x") + Fn.coalesce(m, zero) + Fn.coalesce(m_sc, zero)).alias("x"),
            Fn.when(Fn.abs(m) > Fn.lit(tol), m).alias("pend"),
            Fn.when(Fn.abs(m_sc) > Fn.lit(tol), m_sc).alias("pend_sc"),
            (Fn.col("recv") + Fn.coalesce(m, zero)).alias("recv"),
        ]
    msg_cols = [Fn.col("dst").alias("mid"), msg_val.alias("m")]
    old_parts = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", str(LOOP_PARTITIONS))
    edges = edges.persist()
    states = states.localCheckpoint(eager=True)
    try:
        for _ in range(max_supersteps):
            active = states.where(is_active)
            msgs = active.join(edges, active.id == edges.src)
            if channels:
                msgs = msgs.where(sends).select(*msg_cols, "etype")
            else:
                msgs = msgs.select(*msg_cols)
            msgs = msgs.persist()
            n_msgs = msgs.count()
            if n_msgs == 0:
                msgs.unpersist()
                break
            stats.activations += n_msgs
            stats.supersteps += 1
            agg = msgs.groupBy("mid").agg(*aggs)
            j = states.join(agg, states.id == agg.mid, "left")
            states = j.select("id", *new_cols).localCheckpoint(eager=True)
            msgs.unpersist()
    finally:
        edges.unpersist()
        spark.conf.set("spark.sql.shuffle.partitions", old_parts)
    return states, stats


def run_batch(
    spark: SparkSession,
    edges: pd.DataFrame,
    algo: Algorithm,
    *,
    tol: float | None = None,
) -> tuple[pd.Series, RunStats]:
    """Batch computation A(G) from scratch (also the Restart baseline).

    Returns converged states as an id-indexed pandas Series plus run stats.
    """
    prepared = algo.prepare(edges)
    states = initial_states(spark, edges, algo)
    edges_df = spark.createDataFrame(
        prepared,
        schema=StructType(
            [
                StructField("src", LongType(), False),
                StructField("dst", LongType(), False),
                StructField("w", DoubleType(), False),
            ]
        ),
    )
    out, stats = superstep_loop(states, edges_df, algo, tol=tol)
    pdf = out.select("id", "x").toPandas()
    return pd.Series(pdf.x.to_numpy(), index=pdf.id.to_numpy(np.int64)).sort_index(), stats


def states_to_series(states: DataFrame) -> pd.Series:
    """Collect a state relation to an id-indexed series (driver-side)."""
    pdf = states.select("id", "x").toPandas()
    return pd.Series(pdf.x.to_numpy(), index=pdf.id.to_numpy(np.int64)).sort_index()
