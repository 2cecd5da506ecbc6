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

The min loop is a thin adapter over ``engine.batch.superstep_loop``. The
sum loop runs by slot: an :class:`UpperGraph` (``LayeredGraph.upper``)
whose rows are positions of the L_up vertices, the states as an array over
them and the pending messages as ``layph.slots.Messages``. In the driver it
runs ``batch.propagate``'s channel rule on those positions, with no id
lookup; above ``batch.DRIVER_MAX_EDGES`` it hands the same graph, by id, to
``superstep_loop``'s Spark backend. It runs at ``algo.tol`` and hands back
arrays: the states in the order of its input, and the entry Δcache, the
nonzero original-channel arrivals at the entries, by entry slot.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine import batch
from repro.engine.algorithms import Algorithm
from repro.layph.slots import Messages
from repro.metrics import RunStats


@dataclass(frozen=True)
class UpperGraph:
    """L_up by position: vertex ``i`` is slot ``slots[i]`` (ascending) and id
    ``ids[i]``; ``pos`` maps a slot to its position, -1 off L_up (slot -1
    included). The rows ``(src, dst, w)`` are positions, the original cross
    edges ``[:split]`` and the shortcuts ``[split:]``, each in table order."""

    slots: np.ndarray
    ids: np.ndarray
    pos: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    split: int

    def __len__(self) -> int:
        return len(self.src)


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
    up_graph: UpperGraph,
    x_up: np.ndarray,
    pend_orig: Messages,
    pend_sc: Messages,
    entry_ids: np.ndarray,
    algo: Algorithm,
    *,
    stats: RunStats,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel-aware sum propagation on L_up, by slot: ``x_up`` holds the
    states of ``up_graph``'s vertices in its order, and the pending
    messages and ``entry_ids`` name slots. ``pend_orig`` seeds (injections
    at outliers / new vertices) must already be applied to ``x_up`` by the
    caller; ``pend_sc`` seeds (uploads) were applied by the local upload
    phase. Runs ``propagate``'s channel rule on ``up_graph``'s positions in
    the driver, ``superstep_loop``'s Spark backend by id above
    ``batch.DRIVER_MAX_EDGES``. Returns ``(states, entries, dcache)`` as
    arrays: the converged states in ``x_up``'s order, and the Δcache, the
    nonzero original-channel arrivals at ``entry_ids``, by sorted entry
    slot.
    """
    if len(pend_orig) == 0 and len(pend_sc) == 0:
        return x_up, np.empty(0, np.int64), np.empty(0)
    g, n = up_graph, len(up_graph.slots)

    def pending(msgs: Messages) -> np.ndarray:  # NaN where inactive
        at = g.pos[msgs.at]
        p = np.full(n, np.nan)
        p[at[at >= 0]] = msgs.m[at >= 0]
        return p

    if batch.on_driver(len(g)):
        xs, recv, acts, steps = batch.propagate(
            x_up, pending(pend_orig), g.src, g.dst, g.w, algo,
            split=g.split, pend_sc=pending(pend_sc), recv=np.zeros(n),
        )
        stats.activations += acts
        stats.supersteps += steps
    else:
        # Spark's states are by id, sorted. A row's target off L_up (-1)
        # gets an id no state holds: its messages are counted, then dropped.
        o = np.argsort(g.ids, kind="stable")
        outside = g.ids.max(initial=-1) + 1
        edges = pd.DataFrame({
            "src": g.ids[g.src], "dst": np.where(g.dst >= 0, g.ids[g.dst], outside), "w": g.w,
            "etype": np.repeat(np.array([0, 1], np.int64), [g.split, len(g) - g.split]),
        })

        def by_id(msgs: Messages) -> pd.Series:
            p = pending(msgs)
            on = ~np.isnan(p)
            return pd.Series(p[on], index=g.ids[on])

        out, _ = batch.superstep_loop(
            spark, pd.Series(x_up[o], index=g.ids[o]), by_id(pend_orig), edges, algo,
            pend_sc=by_id(pend_sc), stats=stats,
        )
        xs, recv = np.empty(n), np.empty(n)
        xs[o], recv[o] = out["x"].to_numpy(float), out["recv"].to_numpy(float)
    is_entry = np.zeros(n, bool)
    at = g.pos[entry_ids]
    is_entry[at[at >= 0]] = True
    got = np.flatnonzero(is_entry & (np.abs(recv) > 0))
    return xs, g.slots[got], recv[got]
