"""Global iterative computation: the superstep loop, run in the driver or on
Spark by one size rule.

Each superstep, active vertices send an F message along every out-edge of
the (prepared) edge relation, messages are G-aggregated per destination,
and states fold the aggregate in. Inputs that fit (``on_driver``) run in
the driver through :func:`propagate`, the numpy kernel that every local
phase of ``engine.local`` shares; larger ones run as one Catalyst-planned
round per superstep, with ``localCheckpoint`` truncating lineage so
hundred-iteration runs do not blow up the planner. Both backends keep the
contract spelled out in ``superstep_loop``.

This loop is the Restart baseline, computes the initial converged states
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
from repro.graphs.schema import EDGE_COLUMNS, EDGE_SCHEMA, vertex_ids
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

_CHANNEL_EDGE_SCHEMA = StructType(
    EDGE_SCHEMA.fields + [StructField("etype", LongType(), False)]  # 0 original, 1 shortcut
)

#: Shuffle partitions used inside Spark superstep loops — graphs at our SF
#: are small; AQE coalesces further. Overridable for the thread-scaling study.
LOOP_PARTITIONS = 8

#: Largest edge count whose superstep loop runs in the driver instead of as
#: Spark jobs: the largest input the driver backend was measured on. It is
#: neither a speed crossover nor a memory guard; numpy was faster at every
#: size, and the Spark backend's driver process peaked no lower (DESIGN.md
#: §5.6). Overridable, like ``LOOP_PARTITIONS``; 0 sends every non-empty
#: loop to Spark. ``engine.local.shortcut_pass`` also reads it, as the most
#: copied edges one chunk of its flattened pass may hold.
DRIVER_MAX_EDGES = 2_000_000

#: The one iteration cap: every (F, G) loop (``propagate``, the Spark
#: backend and KickStarter's pull loop) raises ``RuntimeError`` when it
#: would run superstep ``MAX_SUPERSTEPS + 1``, rather than return states
#: that have not converged. Read at call time, like ``DRIVER_MAX_EDGES``.
MAX_SUPERSTEPS = 10_000


def on_driver(n_rows: int) -> bool:
    """The size rule: a loop over ``n_rows`` edges runs in the driver process.

    Reads ``DRIVER_MAX_EDGES`` at call time.
    """
    return n_rows <= DRIVER_MAX_EDGES


def initial_states(edges: pd.DataFrame, algo: Algorithm) -> tuple[pd.Series, pd.Series]:
    """X⁰ with root messages M⁰ applied, and M⁰ pending (Eq. 1 start)."""
    ids = algo.with_source(vertex_ids(edges))
    x0 = algo.initial_states(ids)
    m0 = algo.root_messages(ids)
    if algo.is_min:
        x = x0.copy()
        x.loc[m0.index] = np.minimum(x.loc[m0.index], m0)
        pend = m0[m0 <= x0.reindex(m0.index)]
    else:
        x = x0.add(m0.reindex(x0.index).fillna(0.0))
        pend = m0
    return x, pend


def superstep_loop(
    spark: SparkSession,
    x: pd.Series,
    pend: pd.Series,
    edges: pd.DataFrame,
    algo: Algorithm,
    *,
    pend_sc: pd.Series | None = None,
    stats: RunStats | None = None,
) -> tuple[pd.DataFrame, RunStats]:
    """Iterate (F, G) until no messages remain.

    Returns ``(states, stats)``; ``states`` is an id-indexed frame, sorted
    by id, with the converged ``x``, plus ``recv`` when the channel rule is
    on. Both backends keep one contract:

    * ``x`` covers the whole state set, its index sorted by id, and
      already includes ``pend`` (and ``pend_sc``); ``edges`` (``src, dst,
      w``) must be prepared.
    * Every id of the state set present in ``pend`` is active on superstep
      1, even when its value is 0 or does not improve ``x``.
    * Activations count one per message sent. Messages to ids outside the
      state set are counted, then dropped.
    * A sum aggregate a vertex receives is folded into its state and
      sent on only when its magnitude is above ``algo.tol``, the one
      tolerance of the run.
    * A superstep is counted only when it sends messages.
    * Reaching ``MAX_SUPERSTEPS`` with messages still pending raises
      ``RuntimeError`` rather than returning unconverged states.

    A sum workload whose ``edges`` carry an ``etype`` column (0 original,
    1 shortcut) runs the L_up channel rule of DESIGN.md §6, with
    ``pend_sc`` pending in the shortcut channel: mass that arrived over a
    shortcut already served the subgraph interior, so it leaves over
    original edges only; mass that arrived over an original edge leaves
    over both and adds to ``recv``. Min is idempotent and ignores ``etype``.

    ``edges`` of at most ``DRIVER_MAX_EDGES`` rows run in the driver, larger
    ones on Spark.
    """
    if not x.index.is_monotonic_increasing:
        raise ValueError("superstep_loop: the states' index must be sorted by id")
    stats = stats or RunStats()
    if algo.is_sum and "etype" in edges.columns:
        pend_sc = pd.Series(dtype=float) if pend_sc is None else pend_sc
    else:
        pend_sc = None
    if on_driver(len(edges)):
        states = _driver_loop(x, pend, pend_sc, edges, algo, stats)
    else:
        states = _spark_loop(spark, x, pend, pend_sc, edges, algo, stats)
    return states, stats


def positions(ids: pd.Index, keys) -> np.ndarray:
    """The position of each of ``keys`` in the unique ``ids``; −1 where absent."""
    return ids.get_indexer(np.asarray(keys, np.int64))


def propagate(x, pend, src, dst, w, algo, *, split=None, pend_sc=None, recv=None):
    """The one (F, G) kernel, over position arrays, until no message
    remains. Returns ``(x, recv, activations, supersteps)``.

    ``converge``, the shortcut pass and the driver backend of
    ``superstep_loop`` each map ids to positions, pick who is active on
    superstep 1 and call this. ``pend`` holds the pending messages, NaN
    where inactive; it is not folded into ``x`` here. Edges are taken in
    the caller's order, so each destination sums its arrivals in edge
    order; a ``dst`` of −1 lies outside the state set. Activations,
    supersteps, the ``algo.tol`` cut, the channel rule and the cap,
    ``MAX_SUPERSTEPS``, follow ``superstep_loop``'s contract.
    ``recv``, when given, G-aggregates every original-channel arrival onto
    its starting values.

    A ``split`` turns the channel rule on, with ``pend_sc`` pending in the
    shortcut channel: the edges are two runs, the original edges
    ``[:split]`` and the shortcuts ``[split:]``, and each superstep gathers
    each run once.
    """
    n, tol = len(x), algo.tol
    channels = split is not None
    inside = dst >= 0
    dropped = not inside.all()
    acts = steps = 0
    while True:
        active = ~np.isnan(pend)
        if channels:
            # Original edges carry both channels' mass; shortcuts carry only
            # original-channel mass.
            has_sc = ~np.isnan(pend_sc)
            fire, fire_sc = (active | has_sc)[src[:split]], active[src[split:]]
            n_msgs = int(np.count_nonzero(fire)) + int(np.count_nonzero(fire_sc))
        else:
            fire = active[src]
            n_msgs = int(np.count_nonzero(fire))
        if n_msgs == 0:
            return x, recv, acts, steps
        if steps == MAX_SUPERSTEPS:
            raise RuntimeError(f"messages still pending after MAX_SUPERSTEPS={MAX_SUPERSTEPS}")
        steps += 1
        acts += n_msgs
        if dropped:  # split is None without channels: fire covers every edge
            fire &= inside[:split]
            if channels:
                fire_sc &= inside[split:]
        if algo.is_min:
            s, d, ws = src[fire], dst[fire], w[fire]
            m = np.full(n, np.inf)
            np.minimum.at(m, d, pend[s] + ws)
            pend = np.where(m < x, m, np.nan)
            x = np.minimum(x, m)
        elif not channels:
            s, d, ws = src[fire], dst[fire], w[fire]
            # An id that received nothing sums to 0, never above tol (≥ 0).
            m = np.bincount(d, pend[s] * ws, minlength=n)
            x = x + m
            pend = np.where(np.abs(m) > tol, m, np.nan)
        else:
            p = np.where(active, pend, 0.0)
            both = p + np.where(has_sc, pend_sc, 0.0)
            s, d, ws = src[:split][fire], dst[:split][fire], w[:split][fire]
            m = np.bincount(d, both[s] * ws, minlength=n)
            s, d, ws = src[split:][fire_sc], dst[split:][fire_sc], w[split:][fire_sc]
            m_sc = np.bincount(d, p[s] * ws, minlength=n)
            x = x + m + m_sc
            pend = np.where(np.abs(m) > tol, m, np.nan)
            pend_sc = np.where(np.abs(m_sc) > tol, m_sc, np.nan)
        if recv is not None:
            recv = np.minimum(recv, m) if algo.is_min else recv + m


def _driver_loop(x, pend, pend_sc, edges, algo, stats):
    """numpy backend: ids mapped to positions in ``x``'s own (sorted)
    index, then one :func:`propagate`; the states come back on that index.
    Pending values are NaN where inactive, as the Spark states hold NULL.
    With channels, the edges are ordered stably by ``etype`` (a no-op for
    ``layph.layered.upper_graph``, which lays out its cross rows first), so
    the kernel gets each channel as one run in table order."""
    ids = x.index
    n = len(ids)

    def pending(s: pd.Series) -> np.ndarray:
        at = positions(ids, s.index)
        p = np.full(n, np.nan)
        p[at[at >= 0]] = s.to_numpy(float)[at >= 0]
        return p

    src, dst = positions(ids, edges.src), positions(ids, edges.dst)
    sends = np.flatnonzero(src >= 0)  # ids outside the state set never send (the join drops them)
    channels = pend_sc is not None
    split = None
    if channels:
        etype = edges.etype.to_numpy()[sends]
        sends = sends[np.argsort(etype, kind="stable")]
        split = int(np.count_nonzero(etype == 0))
    xs, recv, acts, steps = propagate(
        x.to_numpy(float), pending(pend), src[sends], dst[sends], edges.w.to_numpy(float)[sends],
        algo, split=split, pend_sc=pending(pend_sc) if channels else None,
        recv=np.zeros(n) if channels else None,
    )
    stats.activations += acts
    stats.supersteps += steps
    return pd.DataFrame({"x": xs, "recv": recv} if channels else {"x": xs}, index=ids, copy=False)


def _states_to_spark(
    spark: SparkSession, x: pd.Series, pend: pd.Series, pend_sc: pd.Series | None
) -> DataFrame:
    """The (id, x, pend) state relation from id-indexed series.

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


def _spark_loop(spark, x, pend, pend_sc, edges, algo, stats):
    """Spark backend: one message join, ``count()``, ``groupBy`` and state
    join per superstep; ``edges`` is cached for the loop."""
    channels, tol = pend_sc is not None, algo.tol
    states = _states_to_spark(spark, x, pend, pend_sc)
    if channels:
        edges = spark.createDataFrame(edges[EDGE_COLUMNS + ["etype"]], schema=_CHANNEL_EDGE_SCHEMA)
    else:
        edges = spark.createDataFrame(edges[EDGE_COLUMNS], schema=EDGE_SCHEMA)
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
    steps = 0
    try:
        while True:
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
            if steps == MAX_SUPERSTEPS:
                msgs.unpersist()
                raise RuntimeError(f"messages still pending after MAX_SUPERSTEPS={MAX_SUPERSTEPS}")
            steps += 1
            stats.activations += n_msgs
            stats.supersteps += 1
            agg = msgs.groupBy("mid").agg(*aggs)
            j = states.join(agg, states.id == agg.mid, "left")
            states = j.select("id", *new_cols).localCheckpoint(eager=True)
            msgs.unpersist()
    finally:
        edges.unpersist()
        spark.conf.set("spark.sql.shuffle.partitions", old_parts)
    cols = ["x", "recv"] if channels else ["x"]
    pdf = states.select("id", *cols).toPandas()
    return pdf[cols].set_axis(pdf.id.to_numpy(np.int64)).sort_index()


def run_batch(
    spark: SparkSession,
    edges: pd.DataFrame,
    algo: Algorithm,
) -> tuple[pd.Series, RunStats]:
    """Batch computation A(G) from scratch (also the Restart baseline).

    Returns converged states as an id-indexed pandas Series plus run stats.
    """
    x, pend = initial_states(edges, algo)
    states, stats = superstep_loop(spark, x, pend, algo.prepare(edges), algo)
    return states.x, stats
