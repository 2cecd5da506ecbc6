"""Revision-message upload (§V-A): local convergence inside the subgraphs.

Revision deltas targeting subgraph members are propagated *inside* their
subgraph until quiescence. The subgraphs are independent (Eq. 7 note):
they are disjoint and intra edges never leave them, so the upload is one
:func:`repro.engine.local.converge` call over the union of the injected
subgraphs. Member states absorb the local effects; boundary vertices
additionally report the G-aggregate of everything they received — the
uploaded initial messages for the L_up iteration. It runs in the driver;
the ``spark`` argument is unused and kept because ``perfbench/tracing.py``
reads the later arguments by position.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine.algorithms import Algorithm
from repro.engine.local import converge


def upload_messages(
    spark: SparkSession,
    intra_edges: pd.DataFrame,  # src, dst, w, sub — full intra table
    members: pd.DataFrame,  # id, sub
    boundary: pd.DataFrame,  # id, sub
    states: pd.Series,
    injections: pd.Series,  # id-indexed, member targets only
    algo: Algorithm,
    *,
    tol: float | None = None,
) -> tuple[pd.Series, pd.Series, int]:
    """Run the local upload phase on every sub that received injections.

    Returns ``(member_states, uploads, activations)`` — updated states for
    every member of an affected sub, and the uploaded (aggregated) message
    per boundary vertex of those subs.
    """
    sub_of = members.set_index("id")["sub"]
    inj_subs = np.unique(sub_of.reindex(injections.index).dropna().to_numpy(np.int64))
    if len(inj_subs) == 0:
        return pd.Series(dtype=float), pd.Series(dtype=float), 0

    # Subgraphs are disjoint and intra edges stay inside them, so one run
    # over the union of the injected subgraphs is every per-subgraph run.
    # Members are sub-major, table order kept inside each subgraph.
    mem = members[members["sub"].isin(inj_subs)]
    mem = mem.iloc[np.argsort(mem["sub"].to_numpy(), kind="stable")]
    ids = mem.id.to_numpy(np.int64)
    x0 = pd.Series(states.reindex(ids).fillna(algo.zero_state).to_numpy(float), index=ids)
    m0 = injections[injections.index.isin(ids)]
    m0 = m0.groupby(level=0).sum() if algo.is_sum else m0.groupby(level=0).min()
    edges = intra_edges[intra_edges["sub"].isin(inj_subs)]
    run = converge(edges, x0, m0, algo, tol=tol)

    bnd = boundary[boundary["sub"].isin(inj_subs)]
    bnd = bnd.iloc[np.argsort(bnd["sub"].to_numpy(), kind="stable")]
    up = run.arrivals.reindex(bnd.id.to_numpy(np.int64))
    up = up[up.abs() > 0] if algo.is_sum else up[np.isfinite(up.to_numpy(float))]
    return run.states, up, run.activations
