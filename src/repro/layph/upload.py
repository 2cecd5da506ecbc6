"""Revision-message upload (§V-A): local convergence inside the subgraphs.

Revision deltas targeting subgraph members are propagated *inside* their
subgraph until quiescence. The subgraphs are independent (Eq. 7 note):
they are disjoint and intra edges never leave them, so the upload is one
:func:`repro.engine.local.converge_at` run over the union of the injected
subgraphs, on positions. The layered graph keeps its members in (sub, id)
order, so each injected subgraph is one block of member rows: the run's
vertices are those blocks, sliced with ``graphs.schema.ranges``, and the
intra endpoints, slots, map to them by one gather of the membership's
dense slot → row array. Member states absorb the local effects; boundary
vertices additionally report the G-aggregate of everything they received
— the uploaded initial messages for the L_up iteration. It runs in the
driver at ``algo.tol``. The ``spark`` argument and the member frame are
unused: ``perfbench/tracing.py`` reads the arguments by position (the
member frame at 2, the injections by id at 5), so the engine passes those
by id beside its slots, which follow at 7 and 8.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine.algorithms import Algorithm
from repro.engine.local import converge_at
from repro.graphs.schema import ranges
from repro.layph.slots import Messages
from repro.layph.structure import Members


def upload_messages(
    spark: SparkSession,
    intra_edges: dict,  # src, dst (slots), w, sub — full intra table
    members: pd.DataFrame,  # id, sub, in (sub, id) order
    is_boundary: np.ndarray,  # per row of ``members``
    states: np.ndarray,  # by slot
    injections: pd.Series,  # id-indexed
    algo: Algorithm,
    cells: Members,
    at: np.ndarray,
) -> tuple[np.ndarray, Messages, int]:
    """Run the local upload phase on every sub that received injections.

    ``cells`` is the layered graph's :class:`Members`, placed on slots
    (``members`` names the same rows by id), and ``at`` the slot of each
    of the ``injections``; ``intra_edges`` names slots, and ``states`` is
    the float array over slots, which the upload updates in place for
    every member of an injected sub. Injections at a slot that is no
    member are dropped.

    Returns ``(states, uploads, activations)``: the uploads are the
    G-aggregate of everything each boundary member of those subs received,
    as :class:`Messages` by slot.
    """
    sub, inj = cells.sub, injections.to_numpy(float)
    seed = cells.at(at)
    seeded = seed >= 0
    inj_subs = np.unique(sub[seed[seeded]])
    if len(inj_subs) == 0:
        return states, Messages(np.empty(0, np.int64), np.empty(0)), 0

    # The run's vertices: the injected subgraphs' blocks of member rows.
    lo = np.searchsorted(sub, inj_subs)
    rows = ranges(lo, np.searchsorted(sub, inj_subs, "right") - lo)
    local = np.full(len(sub) + 1, -1)  # member row -> run position; row -1 reads -1
    local[rows] = np.arange(len(rows))

    # Their intra rows, in table order, (src, dst): every arrival at a vertex
    # comes from its own block, whose positions ascend with id, so each
    # vertex already sums its arrivals in the order of the sort by source
    # position that converge makes.
    esub = np.asarray(intra_edges["sub"], np.int64)
    hit = np.zeros(max(esub.max(initial=-1), inj_subs[-1]) + 1, bool)
    hit[inj_subs] = True
    e = np.flatnonzero(hit[esub])
    ends = local[cells.at(np.concatenate([intra_edges["src"][e], intra_edges["dst"][e]]))]
    x, arrivals, acts, _ = converge_at(
        states[cells.slot[rows]], local[seed[seeded]], inj[seeded],
        ends[:len(e)], ends[len(e):], np.asarray(intra_edges["w"], float)[e], algo,
    )
    states[cells.slot[rows]] = x

    b = is_boundary[rows]
    up = arrivals[b]
    keep = np.abs(up) > 0 if algo.is_sum else np.isfinite(up)
    return states, Messages(cells.slot[rows[b][keep]], up[keep]), acts
