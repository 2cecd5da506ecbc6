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

Both loops are thin adapters over ``engine.batch.superstep_loop``, which
applies the channel rule whenever a sum workload's edges carry ``etype``,
at ``algo.tol``; ``spark`` only reaches that loop's Spark backend. The sum
loop hands back arrays: the states in the order of its input (sorted by
id, as ``superstep_loop`` requires), and the entry Δcache filtered by one
position lookup of the entries in the loop's own index.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine import batch
from repro.engine.algorithms import Algorithm
from repro.metrics import RunStats


def upper_min_loop(
    spark: SparkSession,
    up_graph: pd.DataFrame,  # src, dst, w, etype
    x_up: pd.Series,
    seeds: pd.Series,
    algo: Algorithm,
    *,
    stats: RunStats,
) -> pd.Series:
    """Min relaxation over L_up. ``x_up`` must already have trimmed vertices
    reset to +inf; ``seeds`` are the revision seed messages, which
    ``min_revision`` returns only where they improve a state."""
    seeds = seeds[seeds.index.isin(x_up.index)]
    if len(seeds) == 0:
        return x_up
    x = x_up.copy()
    x.loc[seeds.index] = np.minimum(x.loc[seeds.index], seeds)
    out, _ = batch.superstep_loop(spark, x, seeds, up_graph, algo, stats=stats)
    return out.x


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel-aware sum propagation on L_up.

    ``x_up``'s index must be sorted by id. ``pend_orig`` seeds (injections
    at outliers / new vertices) must already be applied to ``x_up`` by the
    caller; ``pend_sc`` seeds (uploads) were applied by the local upload
    phase. Returns ``(states, entries, dcache)`` as arrays: the converged
    states in ``x_up``'s order, and the Δcache, the nonzero original-channel
    arrivals at ``entry_ids``, by sorted entry id.
    """
    if len(pend_orig) == 0 and len(pend_sc) == 0:
        return x_up.to_numpy(float), np.empty(0, np.int64), np.empty(0)
    out, _ = batch.superstep_loop(
        spark, x_up, pend_orig, up_graph, algo, pend_sc=pend_sc, stats=stats
    )
    recv = out["recv"].to_numpy(float)
    is_entry = np.zeros(len(recv), bool)
    at = batch.positions(out.index, entry_ids)
    is_entry[at[at >= 0]] = True
    got = np.flatnonzero(is_entry & (np.abs(recv) > 0))
    return out["x"].to_numpy(float), out.index.to_numpy(np.int64)[got], recv[got]
