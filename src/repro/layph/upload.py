"""Revision-message upload (§V-A): local convergence inside the subgraphs.

Revision deltas targeting subgraph members are propagated *inside* their
subgraph until quiescence. The subgraphs are independent (Eq. 7 note):
they are disjoint and intra edges never leave them, so the upload is one
:func:`repro.engine.local.converge_at` run over the union of the injected
subgraphs, on positions. The layered graph keeps its members in (sub, id)
order, so each injected subgraph is one block of member rows: the run's
vertices are those blocks, sliced with ``graphs.schema.ranges``, and the
intra endpoints map to them by one id lookup. Member states absorb the
local effects; boundary vertices additionally report the G-aggregate of
everything they received — the uploaded initial messages for the L_up
iteration. It runs in the driver at ``algo.tol``; the ``spark`` argument
is unused and kept at position 0 because ``perfbench/tracing.py`` reads
the later arguments by position (the member frame at 2, the injections
at 5).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine import batch
from repro.engine.algorithms import Algorithm
from repro.engine.local import converge_at
from repro.graphs.schema import ranges


def upload_messages(
    spark: SparkSession,
    intra_edges: pd.DataFrame,  # src, dst, w, sub — full intra table
    members: pd.DataFrame,  # id, sub, in (sub, id) order
    is_boundary: np.ndarray,  # per row of ``members``
    states: pd.Series,
    injections: pd.Series,  # id-indexed
    algo: Algorithm,
) -> tuple[pd.Series, pd.Series, int]:
    """Run the local upload phase on every sub that received injections.

    Returns ``(member_states, uploads, activations)`` — updated states for
    every member of an affected sub, in member order, and the uploaded
    (aggregated) message per boundary vertex of those subs. Injections at
    ids that are no member are dropped; a member without a state starts
    from ``algo.zero_state``.
    """
    mid, sub = members.id.to_numpy(np.int64), members["sub"].to_numpy(np.int64)
    by_id = pd.Index(mid)
    at = by_id.get_indexer(injections.index.to_numpy(np.int64))
    seeded = at >= 0
    inj_subs = np.unique(sub[at[seeded]])
    if len(inj_subs) == 0:
        return pd.Series(dtype=float), pd.Series(dtype=float), 0

    # The run's vertices: the injected subgraphs' blocks of member rows.
    lo = np.searchsorted(sub, inj_subs)
    rows = ranges(lo, np.searchsorted(sub, inj_subs, "right") - lo)
    local = np.full(len(mid) + 1, -1)  # member row -> run position; row -1 reads -1
    local[rows] = np.arange(len(rows))
    ids = mid[rows]
    # Position -1 (an id without a state) reads the appended zero state.
    x0 = np.append(states.to_numpy(float), algo.zero_state)[batch.positions(states.index, ids)]

    # Their intra rows, in table order, (src, dst): every arrival at a vertex
    # comes from its own block, whose positions ascend with id, so each
    # vertex already sums its arrivals in the order of the sort by source
    # position that converge makes.
    esub = intra_edges["sub"].to_numpy(np.int64)
    hit = np.zeros(max(esub.max(initial=-1), inj_subs[-1]) + 1, bool)
    hit[inj_subs] = True
    e = np.flatnonzero(hit[esub])
    src, dst = (intra_edges[c].to_numpy(np.int64)[e] for c in ("src", "dst"))
    ends = local[by_id.get_indexer(np.concatenate([src, dst]))]
    x, arrivals, acts, _ = converge_at(
        x0, local[at[seeded]], injections.to_numpy(float)[seeded],
        ends[:len(e)], ends[len(e):], intra_edges.w.to_numpy(float)[e], algo,
    )

    b = is_boundary[rows]
    up = arrivals[b]
    keep = np.abs(up) > 0 if algo.is_sum else np.isfinite(up)
    return pd.Series(x, index=ids), pd.Series(up[keep], index=ids[b][keep]), acts
