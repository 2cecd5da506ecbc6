"""Metrics plumbing + the provided TPC-H-lite generators."""
import time

from repro import synth_data
from repro.metrics import PhaseTimer, RunStats


def test_runstats_add_phase_accumulates():
    s = RunStats()
    s.add_phase("upper", 1.0)
    s.add_phase("upper", 0.5)
    assert s.phase_seconds["upper"] == 1.5


def test_runstats_merge():
    a = RunStats(activations=5, supersteps=2)
    a.add_phase("x", 1.0)
    b = RunStats(activations=3, supersteps=1)
    b.add_phase("x", 2.0)
    b.add_phase("y", 4.0)
    a.merge(b)
    assert a.activations == 8 and a.supersteps == 3
    assert a.phase_seconds == {"x": 3.0, "y": 4.0}


def test_phase_timer_records_wall_time():
    s = RunStats()
    with PhaseTimer(s, "p"):
        time.sleep(0.01)
    assert s.phase_seconds["p"] >= 0.01
    assert s.wall_seconds >= 0.01


def test_zipf_keys_are_skewed(spark):
    df = synth_data.zipf_keys(spark, n=5000, n_keys=100, alpha=1.5).toPandas()
    counts = df.k.value_counts()
    assert counts.iloc[0] > 5 * counts.iloc[-1]


def test_uniform_keys_cover_range(spark):
    df = synth_data.uniform_keys(spark, n=2000, n_keys=50).toPandas()
    assert df.k.min() >= 1 and df.k.max() <= 50
    assert df.k.nunique() > 40


def test_customer_part_shapes(spark):
    c = synth_data.customer(spark, sf=0.002).toPandas()
    p = synth_data.part(spark, sf=0.002).toPandas()
    assert c.c_custkey.is_unique and p.p_partkey.is_unique
    assert set(c.columns) >= {"c_custkey", "c_nationkey", "c_acctbal"}
