"""Experiment harnesses produce well-formed tables (tiny scale)."""
import numpy as np
import pandas as pd
import pytest

from repro.experiments import batch_size, breakdown, datasets_table, overall
from repro.experiments.common import (
    ALL_SYSTEMS,
    build_layph,
    make_algo,
    make_workload,
    normalize,
    run_system,
    systems_for,
)

SF = 0.003
TOL = 1e-4


def test_datasets_table_shape():
    df = datasets_table.run(sf=SF)
    assert set(df.dataset) == {"uk_lite", "it_lite", "sk_lite", "wb_lite"}
    assert (df.vertices > 0).all() and (df.edges > 0).all()
    assert "Table" not in datasets_table.report(df)  # plain rows


def test_make_algo_uses_registry_defaults():
    from repro.engine import algorithms as alg

    assert make_algo("pagerank", tol=1e-4) == alg.pagerank(d=0.85, tol=1e-4)
    assert make_algo("php", source=3) == alg.php(source=3, d=0.85)
    assert make_algo("bfs", source=2) == alg.bfs(source=2)
    with pytest.raises(ValueError, match="unknown algorithm 'wcc'"):
        make_algo("wcc")


def test_systems_for_respects_workload_class():
    mn = systems_for(make_algo("sssp"), ALL_SYSTEMS)
    sm = systems_for(make_algo("pagerank"), ALL_SYSTEMS)
    assert "graphbolt" not in mn and "dzig" not in mn
    assert "kickstarter" not in sm and "risgraph" not in sm
    assert "layph" in mn and "layph" in sm and "restart" in mn


def test_make_workload_defaults():
    w = make_workload("uk_lite", "sssp", sf=SF, tol=TOL)
    assert w.delta.size > 0
    assert len(w.old_states) > 0
    assert w.algo.name == "sssp"


def test_normalize_sets_layph_to_one():
    rows = pd.DataFrame(
        [
            {"dataset": "d", "algo": "a", "system": "layph", "seconds": 2.0,
             "activations": 10, "supersteps": 1},
            {"dataset": "d", "algo": "a", "system": "ingress", "seconds": 4.0,
             "activations": 30, "supersteps": 1},
        ]
    )
    out = normalize(rows)
    lay = out[out.system == "layph"].iloc[0]
    ing = out[out.system == "ingress"].iloc[0]
    assert lay.norm_time == 1.0 and ing.norm_time == 2.0 and ing.norm_acts == 3.0


def test_run_system_layph_and_ingress(spark):
    w = make_workload("uk_lite", "sssp", sf=SF, tol=TOL)
    eng = build_layph(spark, w)
    lay = run_system(spark, "layph", w, layph_engine=eng)
    ing = run_system(spark, "ingress", w)
    for r in (lay, ing):
        assert r["seconds"] > 0 and r["activations"] >= 0
    assert lay["system"] == "layph" and ing["system"] == "ingress"


def test_overall_run_one_cell(spark):
    df = overall.run(
        spark, sf=SF, datasets=["uk_lite"], algos=["sssp"],
        systems=["ingress", "layph"], tol=TOL,
    )
    assert set(df.system) == {"ingress", "layph"}
    assert (df[df.system == "layph"].norm_time == 1.0).all()
    rep = overall.report(df)
    assert "Speedup of Layph" in rep


def test_breakdown_run_one_algo(spark):
    df = breakdown.run(spark, sf=SF, algos=["sssp"], tol=TOL)
    row = df.iloc[0]
    total_pct = sum(row[f"{p}_pct"] for p in breakdown.PHASES)
    assert 99.0 <= total_pct <= 101.0
    assert "layered_update" in breakdown.report(df)


def test_batch_size_speedup_columns(spark):
    df = batch_size.run(
        spark, sf=SF, algos=["sssp"], systems=["ingress"], ratios=[1e-3], tol=TOL
    )
    assert {"speedup", "act_ratio", "batch_size"} <= set(df.columns)
    assert (df.batch_size >= 2).all()
