"""Unit tests for the upload phase and the channel-aware upper loop."""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.engine import batch
from repro.layph.upper import upper_min_loop
from repro.metrics import RunStats
from tests.blocks import upload_by_id, upper_sum_by_id

INF = float("inf")


def test_upload_empty_injections(spark):
    intra = pd.DataFrame({"src": [0], "dst": [1], "w": [1.0], "sub": [0]})
    members = pd.DataFrame({"id": [0, 1], "sub": [0, 0]})
    is_boundary = np.array([True, False])  # per member row
    x = pd.Series({0: 1.0, 1: 2.0})
    st, up, acts = upload_by_id(
        spark, intra, members, is_boundary, x, pd.Series(dtype=float), alg.pagerank(d=0.5),
    )
    pd.testing.assert_series_equal(st, x, check_exact=True)
    assert len(up) == 0 and acts == 0


def test_upload_propagates_locally_and_reports_boundary(spark):
    """chain 0 -> 1 -> 2 (2 is boundary); inject at 0; upload = arrival at 2."""
    intra = pd.DataFrame(
        {"src": [0, 1], "dst": [1, 2], "w": [0.5, 0.5], "sub": [0, 0]}
    )
    members = pd.DataFrame({"id": [0, 1, 2], "sub": [0, 0, 0]})
    is_boundary = np.array([False, False, True])  # per member row
    x = pd.Series({0: 1.0, 1: 1.0, 2: 1.0})
    algo = alg.pagerank(d=0.5, tol=1e-10)
    st, up, acts = upload_by_id(
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
    st, up, _ = upload_by_id(
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
    xs, entries, dc = upper_sum_by_id(
        spark, up, x, pd.Series(dtype=float), pd.Series(dtype=float),
        np.array([1]), alg.pagerank(d=0.5), stats=stats,
    )
    np.testing.assert_array_equal(xs, x.to_numpy())
    assert len(entries) == len(dc) == 0 and stats.supersteps == 0


def _upper_sum_on_each_backend(spark, on_each_backend, up, x, pend, pend_sc, entries):
    """upper_sum_loop on both backends; they agree on supersteps and
    activations, and on states and Δcache within 1e-12. Returns both runs'
    ``(xs, dc)`` as Series, by id."""
    algo = alg.pagerank(d=0.5, tol=1e-9)

    def run():
        stats = RunStats()
        xs, dc_ids, dc = upper_sum_by_id(spark, up, x, pend, pend_sc, entries, algo, stats=stats)
        return pd.Series(xs, index=x.index), pd.Series(dc, index=dc_ids), stats

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
    upper_sum_by_id(
        spark, up, pd.Series(0.0, index=[0, 1]), pd.Series({0: 1.0}),
        pd.Series(dtype=float), np.array([1]), alg.pagerank(d=0.5), stats=RunStats(),
    )
    assert seen[0] == "3"


def test_upper_min_loop_honours_max_supersteps(spark, on_each_backend, monkeypatch):
    """Reaching the cap with messages still pending is an error; reaching it
    as the last messages are delivered is not."""
    up = pd.DataFrame(
        {"src": [0, 1, 2], "dst": [1, 2, 3], "w": [1.0, 1.0, 1.0], "etype": [0, 0, 0]}
    )
    x = pd.Series(INF, index=[0, 1, 2, 3])

    def run(cap):
        monkeypatch.setattr(batch, "MAX_SUPERSTEPS", cap)
        return upper_min_loop(
            spark, up, x, pd.Series({0: 0.0}), alg.sssp(source=0), stats=RunStats()
        )

    def both_caps():
        with pytest.raises(RuntimeError, match="MAX_SUPERSTEPS=2$"):
            run(2)
        return run(3)

    for out in on_each_backend(both_caps).values():
        assert out.tolist() == [0.0, 1.0, 2.0, 3.0]


# -- the one iteration cap, on the loops the tests above do not cap ----------

_CHAIN = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3], "w": [0.5, 0.5, 0.5]})
_MASS = [1.0, 0.5, 0.25, 0.125]  # a unit at 0 down ``_CHAIN``: three supersteps


def _cap_upper_sum(spark, algo):
    x, _, _ = upper_sum_by_id(
        spark, _CHAIN.assign(etype=0), pd.Series([1.0, 0, 0, 0]), pd.Series({0: 1.0}),
        pd.Series(dtype=float), np.array([3]), algo, stats=RunStats(),
    )
    return x


def _cap_upload(spark, algo):
    members = pd.DataFrame({"id": range(4), "sub": 0})
    st, _, _ = upload_by_id(
        spark, _CHAIN.assign(sub=0), members, np.array([False, False, False, True]),
        pd.Series(0.0, index=range(4)), pd.Series({0: 1.0}), algo,
    )
    return st.sort_index().to_numpy()


def _cap_superstep(channels):
    def run(spark, algo):
        edges = _CHAIN.assign(etype=0) if channels else _CHAIN
        out, _ = batch.superstep_loop(
            spark, pd.Series([1.0, 0, 0, 0]), pd.Series({0: 1.0}), edges, algo
        )
        return out.x.to_numpy()
    return run


@pytest.mark.parametrize(
    "loop, backend",
    [
        (_cap_upper_sum, "driver"), (_cap_upper_sum, "spark"),
        (_cap_upload, "driver"),
        (_cap_superstep(False), "driver"), (_cap_superstep(False), "spark"),
        (_cap_superstep(True), "driver"), (_cap_superstep(True), "spark"),
    ],
    ids=[
        "upper_sum_loop-driver", "upper_sum_loop-spark", "upload-driver",
        "superstep_loop-driver", "superstep_loop-spark",
        "superstep_loop_channels-driver", "superstep_loop_channels-spark",
    ],
)
def test_every_loop_stops_at_the_one_cap(loop, backend, request, monkeypatch):
    """``batch.MAX_SUPERSTEPS`` one short of the chain's three supersteps
    raises; exactly three returns the converged states."""
    spark = request.getfixturevalue("no_spark" if backend == "driver" else "spark")
    if backend == "spark":
        monkeypatch.setattr(batch, "DRIVER_MAX_EDGES", 0)
    algo = alg.pagerank(tol=1e-9)  # the chain's weights stand for prepared ones
    monkeypatch.setattr(batch, "MAX_SUPERSTEPS", 2)
    with pytest.raises(RuntimeError, match="MAX_SUPERSTEPS=2$"):
        loop(spark, algo)
    monkeypatch.setattr(batch, "MAX_SUPERSTEPS", 3)  # exactly enough
    np.testing.assert_allclose(loop(spark, algo), _MASS, rtol=0, atol=1e-12)
