"""Shortcut deduction: one kernel call per dense subgraph.

The subgraphs are disjoint, so shortcut calculation "can be parallelized
well" (§IV) — each subgraph's intra edges and entries go to the local kernel
through :func:`repro.layph.dispatch.per_subgraph`. The same dispatch
recomputes only the ΔG-affected subgraphs during layered-graph update (§IV-B).
Both entry points run in the driver; their ``spark`` argument is unused and
kept because ``perfbench/tracing.py`` reads the later arguments by position.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine.algorithms import Algorithm
from repro.engine.local import (
    shortcut_update_min,
    shortcut_update_sum,
    shortcut_weights,
)
from repro.layph.dispatch import per_subgraph

_SC_COLUMNS = ["sub", "entry", "dst", "w"]


def _shortcut_table(out: dict[str, pd.DataFrame]) -> pd.DataFrame:
    sc = out.get("sc", pd.DataFrame(columns=_SC_COLUMNS))
    return sc.astype({"sub": np.int64, "entry": np.int64, "dst": np.int64})


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
    # A subgraph without entries gets no shortcut rows.
    wanted = entries["sub"] if subs is None else np.intersect1d(subs, entries["sub"])
    eff_tol = algo.tol if tol is None else tol

    def kernel(t):
        edges, ents = t["edges"], t["entries"].id.to_numpy(np.int64)
        ids = np.unique(
            np.concatenate([edges.src.to_numpy(np.int64), edges.dst.to_numpy(np.int64), ents])
        )
        sc, acts = shortcut_weights(edges, ents, ids, algo, tol=eff_tol)
        return {"sc": sc}, acts

    out, acts = per_subgraph(
        wanted,
        {"edges": intra_edges[["sub", "src", "dst", "w"]], "entries": entries[["sub", "id"]]},
        kernel,
    )
    return _shortcut_table(out), acts


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

    Sum workloads correct every entry row by exact delta injection; min
    workloads recompute only entries whose old shortcut tree can be touched
    by a changed edge. One kernel call per affected subgraph with entries.
    """
    eff_tol = algo.tol if tol is None else tol
    fn = shortcut_update_min if algo.is_min else shortcut_update_sum

    def kernel(t):
        ents = t["entries"].id.to_numpy(np.int64)
        sc, acts = fn(t["edges"], ents, t["old"], t["changed"], algo, tol=eff_tol)
        return {"sc": sc}, acts

    # A subgraph without entries gets no shortcut rows.
    out, acts = per_subgraph(
        np.intersect1d(subs, entries["sub"]),
        {
            "edges": intra_edges[["sub", "src", "dst", "w"]],
            "entries": entries[["sub", "id"]],
            "old": old_shortcuts[_SC_COLUMNS],
            "changed": changed[["sub", "src", "dst", "w_old", "w_new"]],
        },
        kernel,
    )
    return _shortcut_table(out), acts
