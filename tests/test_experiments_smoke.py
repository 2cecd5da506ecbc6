"""Experiment harnesses produce well-formed tables (tiny scale)."""
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro.experiments import __main__ as cli
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


def test_registry_names_are_the_results_files():
    results = Path(__file__).resolve().parents[1] / "results"
    assert set(cli.TABLES) == {p.stem for p in results.glob("*.txt")}


def test_unknown_table_exits_nonzero_and_names_the_tables(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["T9_nothing"])
    assert e.value.code != 0
    err = capsys.readouterr().err
    assert "T9_nothing" in err and all(name in err for name in cli.TABLES)


def _no_table(name, spark, given):
    raise AssertionError(f"{name} ran")


@pytest.mark.parametrize(
    "argv",
    [
        ["T1_datasets", "--sf", "0.003", "--tol", "1e-4"],
        ["T7_replication", "--tol", "1e-4"],
        ["T6_batch_size", "--tol", "1e-4"],
        ["T3_vertex_updates", "--systems", "layph"],
        ["T5_threads_proxy", "--systems", "layph"],
        ["all", "--algos", "sssp"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_flag_the_table_does_not_take_is_rejected(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_table", _no_table)
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code != 0
    assert f"{argv[0]} does not take {argv[-2]}" in capsys.readouterr().err


def test_tol_is_set_only_where_the_committed_tables_set_it():
    """T2 and T3 ran at tol 1e-5; every other table at its library default."""
    with_tol = {name for name, t in cli.TABLES.items() if "tol" in t.args}
    assert with_tol == {"T2_overall_main", "T2_overall_extra", "T3_vertex_updates"}
    assert all(t.args["tol"] == 1e-5 for t in cli.TABLES.values() if "tol" in t.args)
    assert "tol" not in cli.DEFAULTS


def _no_session(master=None):
    raise AssertionError("a SparkSession was started")


class _Builder:
    """Stands in for ``SparkSession.builder``; records the master it is given."""

    def __init__(self):
        self.master_given = None

    def appName(self, name):
        return self

    def config(self, key, value):
        return self

    def master(self, master):
        self.master_given = master
        return self

    def getOrCreate(self):
        sc = SimpleNamespace(master=self.master_given, setLogLevel=lambda level: None)
        return SimpleNamespace(sparkContext=sc, stop=lambda: None)


def test_lazy_session_starts_on_the_given_master(monkeypatch):
    from pyspark.sql import SparkSession

    monkeypatch.setenv("PYSPARK_SUBMIT_ARGS", "--master local[2] pyspark-shell")
    monkeypatch.setattr(SparkSession, "getActiveSession", lambda: None)
    monkeypatch.setattr(SparkSession, "builder", _Builder())
    assert cli.LazySpark("local[1]").sparkContext.master == "local[1]"


def test_lazy_session_leaves_a_running_session_running(monkeypatch):
    from pyspark.sql import SparkSession

    stopped = []
    running = SimpleNamespace(
        sparkContext=SimpleNamespace(master="local[*]"), stop=lambda: stopped.append(1)
    )
    monkeypatch.setattr(SparkSession, "getActiveSession", lambda: running)
    monkeypatch.setattr(cli, "get_spark", _no_session)
    spark = cli.LazySpark(None)
    assert spark.sparkContext is running.sparkContext
    spark.stop()
    assert not stopped
    with pytest.raises(RuntimeError, match=r"already running, not on local\[1\]"):
        cli.LazySpark("local[1]").sparkContext


def test_breakdown_table_starts_no_session(monkeypatch, capsys):
    monkeypatch.setattr(cli, "get_spark", _no_session)
    assert cli.main(["T4_breakdown", "--sf", "0.003", "--algos", "sssp", "--tol", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "algo total layered_update(%) upload(%) upper(%) assign(%)" in out
    assert "\nsssp " in out


def test_all_runs_every_table_past_a_failure(monkeypatch, tmp_path, capsys):
    def ok(spark, *, sf):
        return sf

    def broken(spark, *, sf):
        raise ValueError("broken table")

    monkeypatch.setattr(cli, "get_spark", _no_session)
    tables = {
        "A": cli.Table(broken, str, ("sf",)),
        "B": cli.Table(ok, lambda sf: f"sf={sf}", ("sf",)),
    }
    monkeypatch.setattr(cli, "TABLES", tables)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["all", "--sf", "0.5"]) == 1
    out = capsys.readouterr().out
    assert out.index("=== A ===") < out.index("FAILED") < out.index("=== B ===") < out.index("ok")
    assert (tmp_path / "results" / "B.txt").read_text() == "sf=0.5\n"
    assert (tmp_path / "results" / "A.txt").exists()
