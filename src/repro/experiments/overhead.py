"""T8 (= Fig. 11): additional space cost and offline-time amortization.

(a) shortcut storage as a fraction of the original edge count, per dataset;
(b) cumulative time of Layph (offline layering + k incremental rounds) vs
Ingress (k incremental rounds), PageRank on UK — the paper's crossover after
~9 rounds.
"""
from __future__ import annotations

import time

import pandas as pd
from pyspark.sql import SparkSession

from repro.experiments.common import build_layph, make_workload
from repro.graphs.updates import apply_delta, random_edge_delta
from repro.incremental.ingress import ingress_incremental
from repro.layph.engine import LayphEngine


def run_space(
    spark: SparkSession,
    *,
    sf: float = 0.02,
    datasets: list[str] | None = None,
    algo: str = "sssp",
    seed: int = 0,
) -> pd.DataFrame:
    rows = []
    for ds in datasets or ["uk_lite", "it_lite", "sk_lite", "wb_lite"]:
        w = make_workload(ds, algo, sf=sf, seed=seed)
        eng = build_layph(spark, w)
        s = eng.lg.sizes()
        rows.append(
            {
                "dataset": ds,
                "orig_edges": s["orig_edges"],
                "shortcut_rows": s["shortcut_rows"],
                "extra_space_pct": round(100 * s["extra_space_ratio"], 2),
            }
        )
        print(f"  {rows[-1]}", flush=True)
    return pd.DataFrame(rows)


def run_amortization(
    spark: SparkSession,
    *,
    sf: float = 0.02,
    ds: str = "uk_lite",
    algo_name: str = "pagerank",
    rounds: int = 9,
    seed: int = 0,
) -> pd.DataFrame:
    """Cumulative Layph (incl. offline) vs cumulative Ingress over rounds."""
    w = make_workload(ds, algo_name, sf=sf, seed=seed)
    t0 = time.perf_counter()
    eng = LayphEngine(
        spark, w.edges, w.algo, membership=w.membership
    ).initialize()
    offline = time.perf_counter() - t0

    rows = []
    lay_cum, ing_cum = offline, 0.0
    cur_edges, cur_states = w.edges, w.old_states
    for r in range(1, rounds + 1):
        delta = random_edge_delta(cur_edges, n_add=5, n_del=5, seed=seed + 10 * r)
        t0 = time.perf_counter()
        eng.run_delta(delta)
        lay_cum += time.perf_counter() - t0
        t0 = time.perf_counter()
        cur_states, _ = ingress_incremental(spark, cur_edges, delta, cur_states, w.algo)
        ing_cum += time.perf_counter() - t0
        cur_edges = apply_delta(cur_edges, delta)
        rows.append(
            {
                "round": r,
                "layph_offline_s": round(offline, 3),
                "layph_cum_s": round(lay_cum, 3),
                "ingress_cum_s": round(ing_cum, 3),
                "layph_wins": lay_cum < ing_cum,
            }
        )
        print(f"  {rows[-1]}", flush=True)
    return pd.DataFrame(rows)


def run(
    spark: SparkSession,
    *,
    sf: float = 0.02,
    rounds: int = 9,
    algo_name: str = "pagerank",
    seed: int = 0,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Both halves of the table: ``(run_space, run_amortization)``."""
    space = run_space(spark, sf=sf, seed=seed)
    amort = run_amortization(spark, sf=sf, algo_name=algo_name, rounds=rounds, seed=seed)
    return space, amort


def report(space: pd.DataFrame, amort: pd.DataFrame) -> str:
    lines = ["-- extra space --", "dataset orig_edges shortcut_rows extra_space_pct"]
    for _, r in space.iterrows():
        lines.append(f"{r.dataset} {r.orig_edges} {r.shortcut_rows} {r.extra_space_pct}%")
    lines.append("\n-- amortization (uk_lite) --")
    lines.append("round layph_cum(incl offline) ingress_cum layph_wins")
    for _, r in amort.iterrows():
        lines.append(f"{r['round']} {r.layph_cum_s}s {r.ingress_cum_s}s {r.layph_wins}")
    return "\n".join(lines)
