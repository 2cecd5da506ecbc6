"""Shortcut deduction and update: one flattened pass over the subgraphs.

The subgraphs are disjoint, so shortcut calculation "can be parallelized
well" (§IV): their intra edges form a block-diagonal graph, and
:func:`repro.engine.local.shortcut_pass` deduces every entry row of every
subgraph in one numpy loop. During layered-graph update (§IV-B) the same
pass updates the rows of the ΔG-affected subgraphs only, for min and sum
workloads alike. :func:`compute_shortcuts` runs that pass as it is, and
:func:`update_shortcuts` runs it on the entries of the affected subgraphs.

Membership is frozen across ΔG, so the pass takes it as its cells: the
layered graph's members (``LayeredGraph.members``, in its one (sub, id)
order), and during an update the old graph's, which still hold the members
ΔG deletes. The tables are frames or dicts of column arrays, and name
vertices by whatever key the cells look up: the layered graph hands over
slot arrays with its members keyed by slot (``Members.by_slot``), and
gets back rows by slot.

Both run in the driver, at the workload's one tolerance ``algo.tol``, and
stay separate names because ``perfbench/tracing.py`` times each at its call
site. :func:`compute_shortcuts` takes no ``spark``; :func:`update_shortcuts`
keeps an unused one at position 0 because the tracer reads its later
arguments by position (the old shortcut table, a frame, at position 3, and
its ``subs`` keyword) and reads the returned table as a frame.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine.algorithms import Algorithm
from repro.engine.local import shortcut_pass
from repro.layph.structure import Members


def compute_shortcuts(
    intra_edges,  # src, dst, w, sub
    entries,  # id, sub
    algo: Algorithm,
    *,
    cells: Members,
) -> tuple[pd.DataFrame, int]:
    """Shortcut tables of every subgraph with entries, plus total
    activations.

    Returns a frame with columns ``sub, entry, dst, w`` covering, per Def. 3,
    every (entry, subgraph-vertex) pair reachable through subgraph edges.
    """
    return shortcut_pass(intra_edges, entries, algo, cells=cells)


def update_shortcuts(
    spark: SparkSession,
    intra_edges,  # src, dst, w, sub (NEW layer state)
    entries,  # id, sub (NEW roles)
    old_shortcuts: pd.DataFrame,  # sub, entry, dst, w
    changed,  # src, dst, w_old, w_new, sub
    algo: Algorithm,
    *,
    subs: np.ndarray,
    cells: Members,
) -> tuple[pd.DataFrame, int]:
    """Incremental shortcut update for the affected subgraphs ``subs``
    (§IV-B), as one flattened pass: sum rows are corrected by exact delta
    injection, min rows are recomputed only where a changed edge can touch
    their old tree. A subgraph without entries gets no shortcut rows.
    """
    mine = np.isin(np.asarray(entries["sub"]), subs)
    entries = {c: np.asarray(entries[c])[mine] for c in ("sub", "id")}
    return shortcut_pass(
        intra_edges, entries, algo, cells=cells, old=old_shortcuts, changed=changed
    )
