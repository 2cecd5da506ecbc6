"""Ingress-class incremental engine on the flat (non-layered) graph.

This is the system Layph is built on top of (§VI: Layph = Ingress +
layered graph). Given the old converged states and ΔG it deduces revision
messages (``incremental.revision``) and propagates them with the same
superstep loop used for batch runs — min workloads first trim the
dependency tree, sum workloads inject cancellation/compensation deltas.

As Ingress does, a round deduces its revision from the edges ΔG changes
only. A prepared weight depends only on its source's out-edge run, so the
prepared diff is taken between the old and new runs of the sources ΔG
names (:func:`changed_runs`), never between two whole graphs. What stays
O(|E|) per round: ``apply_delta``'s copy of the edge table, one prepare of
the new graph (the propagation runs on it), the vertex universe, and, for
min workloads, the dependency parents over the whole old graph.

Each round reports two phases: ``revision`` (:func:`flat_revision`: apply
ΔG, prepare, diff and deduce the revision messages; KickStarter's trim runs
the same step) and ``propagate`` (the superstep loop).
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine.algorithms import Algorithm
from repro.engine.batch import superstep_loop
from repro.graphs.schema import (
    EDGE_COLUMNS,
    canonical_edges,
    edge_frame,
    source_rows,
    vertex_ids,
)
from repro.graphs.updates import GraphDelta, apply_delta
from repro.incremental.revision import min_revision, prepared_edge_diff, sum_revision
from repro.metrics import PhaseTimer, RunStats

INF = float("inf")


def new_vertex_universe(ids: np.ndarray, delta: GraphDelta, algo: Algorithm) -> np.ndarray:
    """Vertex set of G ⊕ ΔG from the sorted endpoint ``ids`` of its edges:
    ΔG's added vertices and the source join them even if isolated, and
    ΔG's deleted vertices leave. Every engine keeps this one rule."""
    ids = algo.with_source(np.union1d(ids, np.asarray(delta.added_vertices, np.int64)))
    if len(delta.deleted_vertices):
        ids = np.setdiff1d(ids, delta.deleted_vertices)
    return ids


def align_states(
    old_states: pd.Series, ids: np.ndarray, algo: Algorithm
) -> pd.Series:
    """Old states restricted/extended to the new vertex universe ``ids``:
    one gather, an id without an old state taking ``algo.zero_state``."""
    # Position -1 (an id without an old state) reads the appended zero state.
    at = old_states.index.get_indexer(ids)
    return pd.Series(np.append(old_states.to_numpy(float), algo.zero_state)[at], index=ids)


def changed_runs(
    old_edges: pd.DataFrame, new_prepared: pd.DataFrame, delta: GraphDelta, algo: Algorithm
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """The prepared out-edge runs of the sources ΔG names
    (:meth:`GraphDelta.sources`), before and after ΔG.

    ``old_edges`` is the canonical old graph and ``new_prepared`` the
    prepared new one, both src-sorted. Every other run is the same in both
    graphs, so the :func:`prepared_edge_diff` of the two results equals
    that of the two whole prepared graphs, row for row.
    """
    keys = delta.sources()
    src, dst, w = (old_edges[c].to_numpy() for c in EDGE_COLUMNS)
    rows = source_rows(src, keys)
    old = edge_frame(*algo.prepare_rows(src[rows], dst[rows], w[rows]), copy=False)
    rows = source_rows(new_prepared.src.to_numpy(), keys)
    new = edge_frame(*(new_prepared[c].to_numpy()[rows] for c in EDGE_COLUMNS), copy=False)
    return old, new


def flat_revision(
    old_edges: pd.DataFrame, delta: GraphDelta, old_states: pd.Series, algo: Algorithm,
    stats: RunStats,
) -> tuple[pd.DataFrame, pd.Series, pd.Series, np.ndarray]:
    """The revision step of a round on the flat graph, shared by Ingress
    and KickStarter: apply ΔG, prepare G ⊕ ΔG, align the old states to its
    vertex universe, and deduce the revision messages from the runs of the
    sources ΔG names (:func:`changed_runs`).

    Returns ``(new_prepared, x, messages, reset)``: the prepared new graph;
    the aligned states, with every vertex the min trim resets at +inf; the
    sum injections or min seeds at vertices of G ⊕ ΔG, not yet applied to
    ``x``; and the reset ids (none for sum). The trim's activations are
    added to ``stats``.
    """
    old_edges = canonical_edges(old_edges)
    new_edges = apply_delta(old_edges, delta)
    new_prepared = algo.prepare(new_edges)
    old_runs, new_runs = changed_runs(old_edges, new_prepared, delta, algo)
    ids = new_vertex_universe(vertex_ids(new_edges), delta, algo)
    x = align_states(old_states, ids, algo)
    if algo.is_sum:
        reset = np.empty(0, np.int64)
        msgs = sum_revision(old_runs, new_runs, old_states, algo, new_vertices=delta.added_vertices)
    else:
        reset, msgs, acts = min_revision(
            prepared_edge_diff(old_runs, new_runs), algo.prepare(old_edges), new_prepared,
            old_states, algo,
        )
        stats.activations += acts
        x.loc[x.index.isin(reset)] = INF
    return new_prepared, x, msgs[msgs.index.isin(ids)], reset


def ingress_incremental(
    spark: SparkSession,
    old_edges: pd.DataFrame,
    delta: GraphDelta,
    old_states: pd.Series,
    algo: Algorithm,
    *,
    tol: float | None = None,
) -> tuple[pd.Series, RunStats]:
    """I_A(A(G), ΔG) — returns the states of A(G ⊕ ΔG) plus run stats; a
    ``tol`` given replaces ``algo.tol`` for the round."""
    if tol is not None:
        algo = replace(algo, tol=tol)
    stats = RunStats()
    with PhaseTimer(stats, "revision"):
        new_prepared, x, pend, _ = flat_revision(old_edges, delta, old_states, algo, stats)
        old = x.loc[pend.index]
        x.loc[pend.index] = old + pend if algo.is_sum else np.minimum(old, pend)

    with PhaseTimer(stats, "propagate"):
        out, stats = superstep_loop(spark, x, pend, new_prepared, algo, stats=stats)
    return out.x, stats
