"""Behavioral models of the competitor systems (see DESIGN.md §5.2).

The real competitors are C++ systems; we reproduce each one's published
*algorithmic strategy* so that edge activations (the paper's own
hardware-independent metric) are comparable across systems. So are
runtimes: every other model runs the superstep loop of ``engine.batch``, in
the driver when the graph fits (``on_driver``), and KickStarter's pull loop
(``_pull_min_jacobi``) is numpy in the driver at every size.

* ``restart``      — recompute A(G ⊕ ΔG) from scratch (paper's Restart).
* ``ingress``      — delta-based async propagation (the engine Layph extends).
* ``kickstarter``  — min only: dependency-tree trim + *pull-style* Jacobi
  recomputation over the affected region (each round rescans all in-edges
  of every affected vertex — KickStarter's tag/recompute behavior, which
  activates more edges than precise push). Its trim takes the prepared
  diff from the runs of the sources ΔG names through Ingress's own
  revision step (``ingress.flat_revision``), and it reports the same
  ``revision`` and ``propagate`` phases.
* ``risgraph``     — min only: per-update safe/unsafe classification (safe
  inserts short-circuit at the cost of one F each) before Ingress-style
  push propagation.
* ``graphbolt``    — sum only: iteration-synchronous dependency replay;
  modeled as Ingress on a copy of ``algo`` at ``algo.tol / 100`` — GraphBolt
  refines every memoized iteration, firing changed vertices' edges long
  after the change magnitude stopped mattering.
* ``dzig``         — sum only: GraphBolt + sparsity awareness; modeled as
  Ingress at ``algo.tol / 10`` — between GraphBolt and Ingress.

Every other runner runs at ``algo.tol``, the workload's one tolerance.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pandas as pd

from repro.engine.algorithms import Algorithm
from repro.engine.batch import positions, run_batch
from repro.graphs.schema import source_rows
from repro.graphs.updates import GraphDelta, apply_delta
from repro.incremental.ingress import flat_revision, ingress_incremental
from repro.metrics import PhaseTimer, RunStats

INF = float("inf")


def restart(spark, old_edges, delta, old_states, algo):
    """Recompute from scratch on the updated graph."""
    return run_batch(spark, apply_delta(old_edges, delta), algo)


def kickstarter(
    spark,
    old_edges: pd.DataFrame,
    delta: GraphDelta,
    old_states: pd.Series,
    algo: Algorithm,
) -> tuple[pd.Series, RunStats]:
    """Trimmed-approximation + pull-Jacobi recomputation (min workloads)."""
    assert algo.is_min, "KickStarter supports single-dependency (min) workloads only"
    stats = RunStats()
    with PhaseTimer(stats, "revision"):
        new_prepared, x, seeds, reset = flat_revision(old_edges, delta, old_states, algo, stats)
        affected = np.union1d(reset, seeds.index.to_numpy(np.int64))
        affected = affected[np.isin(affected, x.index)]
    with PhaseTimer(stats, "propagate"):
        x = _pull_min_jacobi(new_prepared, x, affected, algo, stats)
    return x, stats


def _pull_min_jacobi(
    prepared: pd.DataFrame,
    x: pd.Series,
    affected: np.ndarray,
    algo: Algorithm,
    stats: RunStats,
    max_iters: int = 10_000,
) -> pd.Series:
    """Pull loop in the driver: every affected vertex recomputes
    ``min(root, min(x_u + w))`` from ALL its in-edges each round, against
    the states of the round before; vertices whose value falls add
    themselves and their out-neighbours to the next affected set. Counts
    one activation per in-edge scanned and one superstep per round.

    Every endpoint of ``prepared`` must be in ``x``'s index. Reaching
    ``max_iters`` with the affected set non-empty raises ``RuntimeError``.
    """
    ids = pd.Index(x.index.to_numpy(np.int64))
    src, dst = positions(ids, prepared.src), positions(ids, prepared.dst)
    w = prepared.w.to_numpy(float)
    by_dst, by_src = np.argsort(dst, kind="stable"), np.argsort(src, kind="stable")
    in_dst, in_src, in_w = dst[by_dst], src[by_dst], w[by_dst]
    out_src, out_dst = src[by_src], dst[by_src]
    root = np.full(len(ids), INF)
    at = positions(ids, list(algo.roots))
    root[at[at >= 0]] = np.asarray(list(algo.roots.values()), float)[at >= 0]
    xs = x.to_numpy(float).copy()
    aff = np.unique(positions(ids, affected))
    rounds = 0
    while len(aff):
        if rounds == max_iters:
            raise RuntimeError(
                f"_pull_min_jacobi: affected vertices left after max_iters={max_iters}"
            )
        rounds += 1
        rows = source_rows(in_dst, aff)
        stats.activations += len(rows)
        stats.supersteps += 1
        cand = np.full(len(ids), INF)
        np.minimum.at(cand, in_dst[rows], xs[in_src[rows]] + in_w[rows])
        nx = np.minimum(cand[aff], root[aff])
        changed = aff[nx < xs[aff]]
        xs[aff] = nx
        aff = np.union1d(changed, out_dst[source_rows(out_src, changed)])
    return pd.Series(xs, index=ids).sort_index()


def risgraph(spark, old_edges, delta, old_states, algo):
    """Safe/unsafe classification, then Ingress-style push (min workloads)."""
    assert algo.is_min, "RisGraph supports single-dependency (min) workloads only"
    states, stats = ingress_incremental(spark, old_edges, delta, old_states, algo)
    # One F application per unit update for the safe/unsafe check.
    stats.activations += delta.size
    return states, stats


def graphbolt(spark, old_edges, delta, old_states, algo):
    """Iteration-synchronous memoized replay model (sum workloads)."""
    assert algo.is_sum, "GraphBolt provides PageRank/PHP-style workloads only"
    fine = replace(algo, tol=algo.tol * 1e-2)
    return ingress_incremental(spark, old_edges, delta, old_states, fine)


def dzig(spark, old_edges, delta, old_states, algo):
    """Sparsity-aware replay model (sum workloads)."""
    assert algo.is_sum, "DZiG provides PageRank/PHP-style workloads only"
    fine = replace(algo, tol=algo.tol * 1e-1)
    return ingress_incremental(spark, old_edges, delta, old_states, fine)


#: System registry: name -> (runner, supported aggregate kinds).
SYSTEMS = {
    "restart": (restart, {"min", "sum"}),
    "kickstarter": (kickstarter, {"min"}),
    "risgraph": (risgraph, {"min"}),
    "graphbolt": (graphbolt, {"sum"}),
    "dzig": (dzig, {"sum"}),
    "ingress": (ingress_incremental, {"min", "sum"}),
}
