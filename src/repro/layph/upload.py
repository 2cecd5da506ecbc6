"""Revision-message upload (§V-A): local per-subgraph convergence.

Revision deltas targeting subgraph members are propagated *inside* the
subgraph until quiescence, one :func:`repro.layph.dispatch.per_subgraph`
kernel call per affected subgraph (they are independent, Eq. 7 note). Member
states absorb the local effects; boundary vertices additionally report the
G-aggregate of everything they received — the uploaded initial messages for
the L_up iteration. It runs in the driver; the ``spark`` argument is unused
and kept because ``perfbench/tracing.py`` reads the later arguments by
position.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine.algorithms import Algorithm
from repro.engine.local import converge
from repro.layph.dispatch import per_subgraph


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

    inj = injections[injections.index.isin(set(members.id))]
    tables = {
        "edges": intra_edges[["sub", "src", "dst", "w"]],
        "states": members[["sub", "id"]].assign(
            x=states.reindex(members.id).fillna(algo.zero_state).to_numpy(float)
        ),
        "injections": pd.DataFrame(
            {"sub": sub_of.reindex(inj.index).to_numpy(np.int64),
             "id": inj.index.to_numpy(np.int64), "m": inj.to_numpy(float)}
        ),
        "boundary": boundary[["sub", "id"]],
    }
    eff_tol = algo.tol if tol is None else tol

    def kernel(t):
        st, ij = t["states"], t["injections"]
        x0 = pd.Series(st.x.to_numpy(float), index=st.id.to_numpy(np.int64))
        m0 = pd.Series(ij.m.to_numpy(float), index=ij.id.to_numpy(np.int64))
        m0 = m0.groupby(level=0).sum() if algo.is_sum else m0.groupby(level=0).min()
        run = converge(t["edges"], x0, m0, algo, tol=eff_tol)
        up = run.arrivals.reindex(t["boundary"].id.to_numpy(np.int64))
        if algo.is_sum:
            up = up[up.abs() > 0]
        else:
            up = up[np.isfinite(up.to_numpy(float))]
        frames = {
            "states": pd.DataFrame({"id": run.states.index, "x": run.states.to_numpy()}),
            "uploads": pd.DataFrame({"id": up.index, "m": up.to_numpy()}),
        }
        return frames, run.activations

    out, acts = per_subgraph(inj_subs, tables, kernel)
    st, up = out["states"], out["uploads"]
    member_states = pd.Series(st.x.to_numpy(float), index=st.id.to_numpy(np.int64))
    uploads = pd.Series(up.m.to_numpy(float), index=up.id.to_numpy(np.int64))
    return member_states, uploads, acts
