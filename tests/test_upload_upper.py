"""Unit tests for the upload phase and the channel-aware upper loop."""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.layph.upload import upload_messages
from repro.layph.upper import upper_min_loop, upper_sum_loop
from repro.metrics import RunStats

INF = float("inf")


def test_upload_empty_injections(spark):
    intra = pd.DataFrame({"src": [0], "dst": [1], "w": [1.0], "sub": [0]})
    members = pd.DataFrame({"id": [0, 1], "sub": [0, 0]})
    is_boundary = np.array([True, False])  # per member row
    st, up, acts = upload_messages(
        spark, intra, members, is_boundary, pd.Series({0: 1.0, 1: 2.0}),
        pd.Series(dtype=float), alg.pagerank(d=0.5),
    )
    assert len(st) == 0 and len(up) == 0 and acts == 0


def test_upload_propagates_locally_and_reports_boundary(spark):
    """chain 0 -> 1 -> 2 (2 is boundary); inject at 0; upload = arrival at 2."""
    intra = pd.DataFrame(
        {"src": [0, 1], "dst": [1, 2], "w": [0.5, 0.5], "sub": [0, 0]}
    )
    members = pd.DataFrame({"id": [0, 1, 2], "sub": [0, 0, 0]})
    is_boundary = np.array([False, False, True])  # per member row
    x = pd.Series({0: 1.0, 1: 1.0, 2: 1.0})
    algo = alg.pagerank(d=0.5, tol=1e-10)
    st, up, acts = upload_messages(
        spark, intra, members, is_boundary, x, pd.Series({0: 1.0}), algo
    )
    # states: x0 += 1, x1 += 0.5, x2 += 0.25
    assert abs(st[0] - 2.0) < 1e-9 and abs(st[1] - 1.5) < 1e-9 and abs(st[2] - 1.25) < 1e-9
    assert abs(up[2] - 0.25) < 1e-9
    assert acts > 0


def test_upload_min_aggregates_boundary_arrivals(spark):
    intra = pd.DataFrame(
        {"src": [0, 1], "dst": [1, 2], "w": [1.0, 2.0], "sub": [0, 0]}
    )
    members = pd.DataFrame({"id": [0, 1, 2], "sub": [0, 0, 0]})
    is_boundary = np.array([False, False, True])  # per member row
    x = pd.Series({0: 10.0, 1: 10.0, 2: 10.0})
    algo = alg.sssp(source=0)
    st, up, _ = upload_messages(
        spark, intra, members, is_boundary, x, pd.Series({0: 3.0}), algo
    )
    assert st[0] == 3.0 and st[1] == 4.0 and st[2] == 6.0
    assert up[2] == 6.0


def test_upper_min_loop_no_seeds_short_circuits(spark):
    up = pd.DataFrame({"src": [0], "dst": [1], "w": [1.0], "etype": [0]})
    x = pd.Series({0: 0.0, 1: 1.0})
    stats = RunStats()
    out = upper_min_loop(
        spark, up, x, pd.Series(dtype=float), alg.sssp(source=0), stats=stats
    )
    pd.testing.assert_series_equal(out, x)  # no seed: zero supersteps
    assert stats.supersteps == 0


def test_upper_min_loop_relaxes(spark):
    up = pd.DataFrame(
        {"src": [0, 1], "dst": [1, 2], "w": [1.0, 1.0], "etype": [0, 1]}
    )
    x = pd.Series({0: 0.0, 1: 5.0, 2: 9.0})
    stats = RunStats()
    out = upper_min_loop(
        spark, up, x, pd.Series({1: 1.0}), alg.sssp(source=0), stats=stats
    )
    assert out[1] == 1.0 and out[2] == 2.0
    assert stats.supersteps >= 1 and stats.activations >= 1


def test_upper_sum_loop_empty_pendings(spark):
    up = pd.DataFrame({"src": [0], "dst": [1], "w": [0.5], "etype": [0]})
    x = pd.Series({0: 1.0, 1: 1.0})
    stats = RunStats()
    xs, dc = upper_sum_loop(
        spark, up, x, pd.Series(dtype=float), pd.Series(dtype=float),
        np.array([1]), alg.pagerank(d=0.5), stats=stats,
    )
    pd.testing.assert_series_equal(xs, x)
    assert len(dc) == 0 and stats.supersteps == 0


def _upper_sum_on_each_backend(spark, on_each_backend, up, x, pend, pend_sc, entries):
    """upper_sum_loop on both backends; they agree on supersteps and
    activations, and on states and Δcache within 1e-12. Returns both runs'
    ``(xs, dc)``."""
    algo = alg.pagerank(d=0.5, tol=1e-9)

    def run():
        stats = RunStats()
        xs, dc = upper_sum_loop(spark, up, x, pend, pend_sc, entries, algo, stats=stats)
        return xs, dc, stats

    runs = on_each_backend(run)
    (d_xs, d_dc, d_st), (s_xs, s_dc, s_st) = runs["driver"], runs["spark"]
    assert (d_st.supersteps, d_st.activations) == (s_st.supersteps, s_st.activations)
    for d, s in ((d_xs, s_xs), (d_dc, s_dc)):
        pd.testing.assert_series_equal(d, s, check_exact=False, rtol=0, atol=1e-12)
    return [(xs, dc) for xs, dc, _ in runs.values()]


def test_upper_sum_loop_channels_and_dcache(spark, on_each_backend):
    """orig arrival at the entry is cached; shortcut arrivals are not."""
    # outlier 0 --orig--> entry 1 --shortcut--> exit 2 --orig--> entry 1?
    up = pd.DataFrame(
        {
            "src": [0, 1, 2],
            "dst": [1, 2, 3],
            "w": [0.5, 0.4, 0.5],
            "etype": [0, 1, 0],
        }
    )
    x = pd.Series(0.0, index=[0, 1, 2, 3])
    for xs, dc in _upper_sum_on_each_backend(
        spark, on_each_backend, up, x, pd.Series({0: 1.0}), pd.Series(dtype=float), np.array([1])
    ):
        assert abs(xs[1] - 0.5) < 1e-9  # orig arrival applied
        assert abs(xs[2] - 0.2) < 1e-9  # via shortcut
        assert abs(xs[3] - 0.1) < 1e-9  # exit forwards via orig edge
        assert abs(dc[1] - 0.5) < 1e-9  # cached for assignment


def test_upper_sum_shortcut_channel_not_reforwarded_through_shortcuts(spark, on_each_backend):
    """A shortcut arrival at an entry must NOT re-enter that sub's shortcuts."""
    # entry 1 --self shortcut w=0.5--> 1 : if ps re-fired shortcuts, mass
    # would amplify geometrically through the shortcut alone.
    up = pd.DataFrame(
        {"src": [0, 1], "dst": [1, 1], "w": [1.0, 0.5], "etype": [0, 1]}
    )
    x = pd.Series(0.0, index=[0, 1])
    for xs, dc in _upper_sum_on_each_backend(
        spark, on_each_backend, up, x, pd.Series({0: 1.0}), pd.Series(dtype=float), np.array([1])
    ):
        # one orig arrival (1.0) + one shortcut self-arrival (0.5), then stop:
        assert abs(xs[1] - 1.5) < 1e-9
        assert abs(dc[1] - 1.0) < 1e-9


def test_upper_sum_uploads_forward_only_via_orig(spark, on_each_backend):
    """ps seeds at an entry skip its shortcuts (interior already served)."""
    up = pd.DataFrame(
        {"src": [1, 1], "dst": [2, 3], "w": [0.4, 0.5], "etype": [1, 0]}
    )
    x = pd.Series(0.0, index=[1, 2, 3])
    for xs, dc in _upper_sum_on_each_backend(
        spark, on_each_backend, up, x, pd.Series(dtype=float), pd.Series({1: 1.0}), np.array([1])
    ):
        assert xs[2] == 0.0  # shortcut NOT fired for the upload
        assert abs(xs[3] - 0.5) < 1e-9  # orig edge fired
        assert len(dc) == 0


def test_loop_partitions_read_at_call_time(spark, monkeypatch):
    """Setting ``batch.LOOP_PARTITIONS`` (the T5 sweep, which also holds
    every loop on Spark) reaches the upper sum loop."""
    from repro.engine import batch

    conf_cls = type(spark.conf)
    real_set = conf_cls.set
    seen = []

    def spy(self, key, value):
        if key == "spark.sql.shuffle.partitions":
            seen.append(value)
        return real_set(self, key, value)

    monkeypatch.setattr(batch, "LOOP_PARTITIONS", 3)
    monkeypatch.setattr(batch, "DRIVER_MAX_EDGES", 0)
    monkeypatch.setattr(conf_cls, "set", spy)
    up = pd.DataFrame({"src": [0], "dst": [1], "w": [0.5], "etype": [0]})
    upper_sum_loop(
        spark, up, pd.Series(0.0, index=[0, 1]), pd.Series({0: 1.0}),
        pd.Series(dtype=float), np.array([1]), alg.pagerank(d=0.5), stats=RunStats(),
    )
    assert seen[0] == "3"


def test_upper_min_loop_honours_max_supersteps(spark, on_each_backend):
    """Reaching the cap with messages still pending is an error; reaching it
    as the last messages are delivered is not."""
    up = pd.DataFrame(
        {"src": [0, 1, 2], "dst": [1, 2, 3], "w": [1.0, 1.0, 1.0], "etype": [0, 0, 0]}
    )
    x = pd.Series(INF, index=[0, 1, 2, 3])

    def run(cap):
        return upper_min_loop(
            spark, up, x, pd.Series({0: 0.0}), alg.sssp(source=0), stats=RunStats(),
            max_supersteps=cap,
        )

    def both_caps():
        with pytest.raises(RuntimeError, match="max_supersteps=2"):
            run(2)
        return run(3)

    for out in on_each_backend(both_caps).values():
        assert out.tolist() == [0.0, 1.0, 2.0, 3.0]
