"""Revision-message upload (§V-A): local convergence inside the subgraphs.

Revision deltas targeting subgraph members are propagated *inside* their
subgraph until quiescence. The subgraphs are independent (Eq. 7 note):
they are disjoint and intra edges never leave them, so the upload is one
:func:`repro.engine.local.converge` call over the union of the injected
subgraphs, its vertices in the order of the member frame, which the
layered graph keeps in (sub, id) order. Member states absorb the local
effects; boundary vertices additionally report the G-aggregate of
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
from repro.engine.local import converge
from repro.graphs.schema import EDGE_COLUMNS


def upload_messages(
    spark: SparkSession,
    intra_edges: pd.DataFrame,  # src, dst, w, sub — full intra table
    members: pd.DataFrame,  # id, sub, in (sub, id) order
    is_boundary: np.ndarray,  # per row of ``members``
    states: pd.Series,
    injections: pd.Series,  # id-indexed, member targets only
    algo: Algorithm,
) -> tuple[pd.Series, pd.Series, int]:
    """Run the local upload phase on every sub that received injections.

    Returns ``(member_states, uploads, activations)`` — updated states for
    every member of an affected sub, and the uploaded (aggregated) message
    per boundary vertex of those subs.
    """
    mid, sub = members.id.to_numpy(np.int64), members["sub"].to_numpy(np.int64)
    inj_subs = np.unique(sub[np.isin(mid, injections.index.to_numpy(np.int64))])
    if len(inj_subs) == 0:
        return pd.Series(dtype=float), pd.Series(dtype=float), 0

    # Subgraphs are disjoint and intra edges stay inside them, so one run
    # over the union of the injected subgraphs is every per-subgraph run,
    # its vertices in the members' (sub, id) order. ``converge``
    # G-aggregates the injections and drops those of other ids.
    rows = np.flatnonzero(np.isin(sub, inj_subs))
    ids = mid[rows]
    # Position -1 (an id without a state) reads the appended zero state.
    x0 = np.append(states.to_numpy(float), algo.zero_state)[batch.positions(states.index, ids)]
    e = np.isin(intra_edges["sub"].to_numpy(np.int64), inj_subs)
    edges = pd.DataFrame({c: intra_edges[c].to_numpy()[e] for c in EDGE_COLUMNS}, copy=False)
    run = converge(edges, pd.Series(x0, index=ids), injections, algo)

    b = is_boundary[rows]
    up = run.arrivals.to_numpy()[b]
    keep = np.abs(up) > 0 if algo.is_sum else np.isfinite(up)
    return run.states, pd.Series(up[keep], index=ids[b][keep]), run.activations
