"""Shared experiment plumbing: workload setup and system runners.

Timing protocol (mirrors the paper's): every incremental system starts from
the same converged batch states (computed once, untimed); the measured
response time covers the full incremental reaction to ΔG — for Layph that
includes the layered-graph update, upload, upper iteration and assignment
phases; the *offline* layering is excluded here and charged separately in
the overhead experiment (Fig. 11b).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine import algorithms as alg
from repro.engine.local import converge
from repro.graphs.generators import dataset
from repro.graphs.schema import vertex_ids
from repro.graphs.updates import (
    GraphDelta,
    random_edge_delta,
    random_vertex_delta,
)
from repro.incremental.baselines import SYSTEMS
from repro.layph.engine import LayphEngine

ALL_SYSTEMS = ["restart", "kickstarter", "risgraph", "graphbolt", "dzig", "ingress", "layph"]


def make_algo(name: str, source: int = 0, tol: float = 1e-6) -> alg.Algorithm:
    """Build a workload from ``alg.ALGORITHMS``; the iteration workloads take
    the registry's paper-faithful damping d = 0.85."""
    if name not in alg.ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(alg.ALGORITHMS)}")
    return alg.ALGORITHMS[name](source=source, tol=tol)


def systems_for(algo: alg.Algorithm, requested: list[str]) -> list[str]:
    """Filter to the systems that support this workload class, exactly as
    the paper does (KickStarter/RisGraph: traversal only; GraphBolt/DZiG:
    iteration only)."""
    kind = "min" if algo.is_min else "sum"
    out = []
    for s in requested:
        if s == "layph":
            out.append(s)
        elif s in SYSTEMS and kind in SYSTEMS[s][1]:
            out.append(s)
    return out


@dataclass
class Workload:
    name: str
    edges: pd.DataFrame
    membership: pd.DataFrame
    algo: alg.Algorithm
    old_states: pd.Series
    delta: GraphDelta


def batch_states(edges: pd.DataFrame, algo: alg.Algorithm) -> pd.Series:
    """Shared converged starting point (verified local kernel)."""
    ids = algo.with_source(vertex_ids(edges))
    return converge(
        algo.prepare(edges), algo.initial_states(ids), algo.root_messages(ids), algo
    ).states


def make_workload(
    ds: str,
    algo_name: str,
    *,
    sf: float,
    seed: int = 0,
    n_add: int | None = None,
    n_del: int | None = None,
    delta_kind: str = "edges",
    tol: float = 1e-6,
) -> Workload:
    """Dataset + algorithm + converged states + ΔG.

    Default ΔG size scales the paper's 5000/|E| ratio to our |E| but is
    floored so the batch is non-trivial at small SF.
    """
    edges, membership = dataset(ds, sf=sf, seed=seed)
    algo = make_algo(algo_name, tol=tol)
    old = batch_states(edges, algo)
    if n_add is None:
        n_add = max(5, len(edges) // 2000)
    if n_del is None:
        n_del = n_add
    if delta_kind == "edges":
        delta = random_edge_delta(edges, n_add=n_add, n_del=n_del, seed=seed + 1)
    else:
        delta = random_vertex_delta(edges, n_add=n_add, n_del=n_del, seed=seed + 1)
    return Workload(ds, edges, membership, algo, old, delta)


def build_layph(spark: SparkSession, w: Workload, *, replicate: bool = True) -> LayphEngine:
    """Offline-build a Layph engine for the workload (untimed here)."""
    return LayphEngine(
        spark, w.edges, w.algo, membership=w.membership, replicate=replicate
    ).initialize()


def run_system(
    spark: SparkSession,
    system: str,
    w: Workload,
    *,
    layph_engine: LayphEngine | None = None,
) -> dict:
    """Run one system on the workload's ΔG; returns a result row."""
    t0 = time.perf_counter()
    if system == "layph":
        eng = layph_engine if layph_engine is not None else build_layph(spark, w)
        t0 = time.perf_counter()  # exclude offline build
        _, stats = eng.run_delta(w.delta)
    else:
        runner, _ = SYSTEMS[system]
        _, stats = runner(spark, w.edges, w.delta, w.old_states, w.algo)
    dt = time.perf_counter() - t0
    return {
        "dataset": w.name,
        "algo": w.algo.name,
        "system": system,
        "seconds": round(dt, 3),
        "activations": int(stats.activations),
        "supersteps": int(stats.supersteps),
    }


def normalize(rows: pd.DataFrame, by: str = "layph") -> pd.DataFrame:
    """Add time/activation columns normalized to the ``by`` system (Fig. 5/6)."""
    out = rows.copy()
    base = out[out.system == by].set_index(["dataset", "algo"])
    key = list(zip(out.dataset, out.algo))
    out["norm_time"] = (
        out.seconds.to_numpy() / base.seconds.reindex(key).to_numpy()
    ).round(3)
    out["norm_acts"] = (
        out.activations.to_numpy() / np.maximum(1, base.activations.reindex(key).to_numpy())
    ).round(3)
    return out
