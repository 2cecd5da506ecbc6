"""T5 benchmark (Fig. 9): parallelism proxy — superstep shuffle partitions.

True local[k] scaling lives in jobs/exp_threads.py (needs its own JVM per k);
here the in-session proxy varies the loop partition count, with every loop
held on Spark (``DRIVER_MAX_EDGES`` = 0).
"""
import pytest

from repro.engine import batch as batch_mod
from repro.incremental.baselines import SYSTEMS


@pytest.mark.parametrize("partitions", [1, 4, 8])
def test_ingress_sssp_partitions(benchmark, spark, workloads, partitions):
    w = workloads("uk_lite", "sssp")
    runner, _ = SYSTEMS["ingress"]
    saved = batch_mod.LOOP_PARTITIONS, batch_mod.DRIVER_MAX_EDGES

    def run():
        batch_mod.LOOP_PARTITIONS, batch_mod.DRIVER_MAX_EDGES = partitions, 0
        try:
            return runner(spark, w.edges, w.delta, w.old_states, w.algo)
        finally:
            batch_mod.LOOP_PARTITIONS, batch_mod.DRIVER_MAX_EDGES = saved

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.parametrize("partitions", [1, 8])
def test_layph_sssp_partitions(benchmark, spark, workloads, layph_engines, partitions):
    import copy

    w = workloads("uk_lite", "sssp")
    eng = layph_engines("uk_lite", "sssp")
    saved = batch_mod.LOOP_PARTITIONS, batch_mod.DRIVER_MAX_EDGES

    def run():
        batch_mod.LOOP_PARTITIONS, batch_mod.DRIVER_MAX_EDGES = partitions, 0
        try:
            e = copy.copy(eng)
            e.lg, e.x = eng.lg, eng.x.copy()
            e.caches = None if eng.caches is None else eng.caches.copy()
            return e.run_delta(w.delta)
        finally:
            batch_mod.LOOP_PARTITIONS, batch_mod.DRIVER_MAX_EDGES = saved

    benchmark.pedantic(run, rounds=1, iterations=1)
