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
at ``algo.tol``; ``spark`` only reaches that loop's Spark backend.
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
    max_supersteps: int = 10_000,
) -> pd.Series:
    """Min relaxation over L_up. ``x_up`` must already have trimmed vertices
    reset to +inf; ``seeds`` are the revision seed messages, which
    ``min_revision`` returns only where they improve a state."""
    seeds = seeds[seeds.index.isin(x_up.index)]
    if len(seeds) == 0:
        return x_up
    x = x_up.copy()
    x.loc[seeds.index] = np.minimum(x.loc[seeds.index], seeds)
    out, _ = batch.superstep_loop(
        spark, x, seeds, up_graph, algo, stats=stats, max_supersteps=max_supersteps
    )
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
    max_supersteps: int = 10_000,
) -> tuple[pd.Series, pd.Series]:
    """Channel-aware sum propagation on L_up.

    ``pend_orig`` seeds (injections at outliers / new vertices) must already
    be applied to ``x_up`` by the caller; ``pend_sc`` seeds (uploads) were
    applied by the local upload phase. Returns ``(states, Δcache)``, the
    Δcache being the original-channel arrivals at ``entry_ids``.
    """
    if len(pend_orig) == 0 and len(pend_sc) == 0:
        return x_up, pd.Series(dtype=float)
    out, _ = batch.superstep_loop(
        spark, x_up, pend_orig, up_graph, algo,
        pend_sc=pend_sc, stats=stats, max_supersteps=max_supersteps,
    )
    dc = _nonzero(out.recv)
    return out.x, dc[np.isin(dc.index.to_numpy(), entry_ids)]


def _nonzero(s: pd.Series) -> pd.Series:
    """The entries of ``s`` whose value is not 0 (nor NaN)."""
    v = s.to_numpy(float)
    keep = np.abs(v) > 0
    return pd.Series(v[keep], index=s.index[keep])
