"""Shortcut deduction and update: one flattened pass over the subgraphs.

The subgraphs are disjoint, so shortcut calculation "can be parallelized
well" (§IV): their intra edges form a block-diagonal graph, and
:func:`repro.engine.local.shortcut_pass` deduces every entry row of every
subgraph in one numpy loop. During layered-graph update (§IV-B) the same
pass corrects the sum rows of the ΔG-affected subgraphs only; min rows are
updated by one ``shortcut_update_min`` call per affected subgraph. Both
entry points run in the driver; their ``spark`` argument is unused and kept
because ``perfbench/tracing.py`` reads the later arguments by position.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine.algorithms import Algorithm
from repro.engine.local import shortcut_pass, shortcut_update_min

#: An empty shortcut table with the column types of a filled one.
_NO_SHORTCUTS = pd.DataFrame(
    {"sub": np.empty(0, np.int64), "entry": np.empty(0, np.int64),
     "dst": np.empty(0, np.int64), "w": np.empty(0)}
)


def compute_shortcuts(
    spark: SparkSession,
    intra_edges: pd.DataFrame,  # columns src, dst, w, sub
    entries: pd.DataFrame,  # columns id, sub
    algo: Algorithm,
    *,
    subs: np.ndarray | None = None,
    tol: float | None = None,
) -> tuple[pd.DataFrame, int]:
    """Shortcut tables for ``subs`` (default: all), plus total activations.

    Returns a frame with columns ``sub, entry, dst, w`` covering, per Def. 3,
    every (entry, subgraph-vertex) pair reachable through subgraph edges.
    """
    if subs is not None:
        entries = entries[entries["sub"].isin(subs)]
    return shortcut_pass(intra_edges, entries, algo, tol=tol)


def update_shortcuts(
    spark: SparkSession,
    intra_edges: pd.DataFrame,  # src, dst, w, sub (NEW layer state)
    entries: pd.DataFrame,  # id, sub (NEW roles)
    old_shortcuts: pd.DataFrame,  # sub, entry, dst, w
    changed: pd.DataFrame,  # src, dst, w_old, w_new, sub
    algo: Algorithm,
    *,
    subs: np.ndarray,
    tol: float | None = None,
) -> tuple[pd.DataFrame, int]:
    """Incremental shortcut update for the affected subgraphs (§IV-B).

    Sum workloads correct every entry row by exact delta injection, in one
    flattened pass; min workloads recompute only entries whose old shortcut
    tree can be touched by a changed edge, one kernel call per affected
    subgraph. A subgraph without entries gets no shortcut rows.
    """
    entries = entries[entries["sub"].isin(subs)]
    if algo.is_sum:
        return shortcut_pass(
            intra_edges, entries, algo, old=old_shortcuts, changed=changed, tol=tol
        )
    eff_tol = algo.tol if tol is None else tol
    # Split each input table by subgraph once; a subgraph a table has no rows
    # for gets that table's typed empty slice.
    subs = np.unique(entries["sub"].to_numpy(np.int64))
    tables = []
    for df, cols in (
        (intra_edges, ["src", "dst", "w"]),
        (old_shortcuts, ["entry", "dst", "w"]),
        (changed, ["src", "dst", "w_old", "w_new"]),
    ):
        df = df[df["sub"].isin(subs)]
        by_sub = {s: g[cols].reset_index(drop=True) for s, g in df.groupby("sub")}
        tables.append((by_sub, df[cols].iloc[:0]))
    parts, acts = [], 0
    for s, ents in entries.groupby("sub"):
        edges, old, chg = (by_sub.get(s, empty) for by_sub, empty in tables)
        sc, a = shortcut_update_min(
            edges, ents["id"].to_numpy(np.int64), old, chg, algo, tol=eff_tol
        )
        acts += int(a)
        if len(sc):
            parts.append(sc.assign(sub=np.int64(s)))
    if not parts:
        return _NO_SHORTCUTS.copy(), acts
    sc = pd.concat(parts, ignore_index=True)[list(_NO_SHORTCUTS.columns)]
    return sc.astype(_NO_SHORTCUTS.dtypes.to_dict()), acts
