"""T5 (= Fig. 9): scaling with worker parallelism.

A shared ``local[*]`` session cannot change its worker-thread count, so the
in-session sweep varies the superstep loop's shuffle-partition count as a
parallelism proxy, with every superstep loop held on Spark
(``DRIVER_MAX_EDGES`` = 0). ``python -m repro.experiments T5_threads_proxy
--threads k`` gives a true ``local[k]`` run instead: its session starts with
k worker threads and the sweep is just ``partition_counts=[k]`` (one process
per k). The flattened shortcut pass reads the same limit, so under 0 it runs
one chunk per subgraph, still in the driver.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.engine import batch as batch_mod
from repro.experiments.common import build_layph, make_workload, run_system, systems_for


def run(
    spark: SparkSession,
    *,
    sf: float = 0.02,
    ds: str = "uk_lite",
    algos: list[str] | None = None,
    systems: list[str] | None = None,
    partition_counts: list[int] | None = None,
    seed: int = 0,
    tol: float = 1e-6,
) -> pd.DataFrame:
    algos = algos or ["sssp", "pagerank"]
    rows = []
    saved = batch_mod.LOOP_PARTITIONS, batch_mod.DRIVER_MAX_EDGES
    batch_mod.DRIVER_MAX_EDGES = 0
    try:
        for algo_name in algos:
            req = systems or (
                ["kickstarter", "risgraph", "ingress", "layph"]
                if algo_name in ("sssp", "bfs")
                else ["graphbolt", "dzig", "ingress", "layph"]
            )
            w = make_workload(ds, algo_name, sf=sf, seed=seed, tol=tol)
            eng = build_layph(spark, w)
            for parts in partition_counts or [1, 2, 4, 8]:
                batch_mod.LOOP_PARTITIONS = parts
                for system in systems_for(w.algo, req):
                    if system == "layph":
                        # run_delta mutates the engine — give every
                        # partition setting a pristine copy of the state.
                        import copy

                        e = copy.copy(eng)
                        e.lg, e.x = eng.lg, eng.x.copy()
                        e.caches = None if eng.caches is None else eng.caches.copy()
                        r = run_system(spark, system, w, layph_engine=e)
                    else:
                        r = run_system(spark, system, w)
                    r["partitions"] = parts
                    rows.append(r)
                    print(f"  {r}", flush=True)
    finally:
        batch_mod.LOOP_PARTITIONS, batch_mod.DRIVER_MAX_EDGES = saved
    return pd.DataFrame(rows)


def report(df: pd.DataFrame) -> str:
    lines = ["algo system partitions seconds"]
    for _, r in df.iterrows():
        lines.append(f"{r.algo} {r.system} {r.partitions} {r.seconds}")
    return "\n".join(lines)
