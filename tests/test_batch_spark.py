"""Spark superstep engine vs local kernel / references / DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.engine.batch import initial_states, run_batch, superstep_loop
from repro.graphs.generators import fig2_graph, planted_partition
from repro.graphs.schema import degrees
from repro.oracle import assert_equivalent
from repro.reference import (
    assert_states_close,
    bfs_reference,
    pagerank_reference,
    php_reference,
    sssp_reference,
)


def tiny_graph(seed=0, n=30):
    edges, _ = planted_partition(
        n_vertices=n, community_size_lo=6, community_size_hi=9,
        community_fraction=0.8, intra_out_deg=2.5, inter_edge_fraction=0.3, seed=seed,
    )
    return edges


def _batch(spark, on_each_backend, edges, algo):
    """run_batch on both backends; they agree exactly on supersteps and
    activations, and on states (exact for min, within 1e-12 for sum)."""
    runs = on_each_backend(lambda: run_batch(spark, edges, algo))
    _assert_same_run(runs, algo)
    return runs["spark"]


def _assert_same_run(runs, algo):
    (d_out, d_stats), (s_out, s_stats) = runs["driver"], runs["spark"]
    assert (d_stats.supersteps, d_stats.activations) == (s_stats.supersteps, s_stats.activations)
    same = pd.testing.assert_series_equal if isinstance(d_out, pd.Series) else pd.testing.assert_frame_equal
    same(d_out, s_out, **({} if algo.is_min else dict(check_exact=False, rtol=0, atol=1e-12)))


@pytest.mark.parametrize("seed", [0, 1])
def test_spark_sssp_matches_dijkstra(spark, on_each_backend, seed):
    edges = tiny_graph(seed)
    states, stats = _batch(spark, on_each_backend, edges, alg.sssp(source=0))
    assert_states_close(states, sssp_reference(edges, 0))
    assert stats.activations > 0 and stats.supersteps > 0


def test_spark_bfs_matches_reference(spark, on_each_backend):
    edges = tiny_graph(2)
    states, _ = _batch(spark, on_each_backend, edges, alg.bfs(source=0))
    assert_states_close(states, bfs_reference(edges, 0))


def test_spark_pagerank_matches_linear_solve(spark, on_each_backend):
    edges = tiny_graph(3)
    states, _ = _batch(spark, on_each_backend, edges, alg.pagerank(d=0.5, tol=1e-8))
    assert_states_close(states, pagerank_reference(edges, 0.5), atol=1e-4, rtol=1e-4)


def test_spark_php_matches_linear_solve(spark, on_each_backend):
    edges = tiny_graph(4)
    states, _ = _batch(spark, on_each_backend, edges, alg.php(source=1, d=0.6, tol=1e-8))
    assert_states_close(states, php_reference(edges, 1, 0.6), atol=1e-4, rtol=1e-4)


def test_spark_fig2_sssp(spark, on_each_backend):
    edges, _ = fig2_graph()
    states, _ = _batch(spark, on_each_backend, edges, alg.sssp(source=0))
    expected = pd.Series([0, 1, 4, 1, 2, 5, 6, 7, 7], index=range(9), dtype=float)
    assert_states_close(states, expected)


def _from_roots(spark, edges, algo, etype=None, pend_sc=None):
    """superstep_loop from the root messages; ``etype`` tags the edges."""
    x, pend = initial_states(edges, algo)
    prepared = algo.prepare(edges)
    if etype is not None:
        prepared = prepared.assign(etype=etype)
    out, stats = superstep_loop(spark, x, pend, prepared, algo, pend_sc=pend_sc)
    return x, out, stats


def test_channel_path_with_original_edges_only_equals_flat_path(spark, on_each_backend):
    """All-original edges and no shortcut mass reduce the channel rule to
    the flat sum loop, and ``recv`` then holds every arrival."""
    edges = tiny_graph(3)
    algo = alg.pagerank(d=0.5, tol=1e-8)

    def run():
        _, flat, s_flat = _from_roots(spark, edges, algo)
        x0, ch, s_ch = _from_roots(spark, edges, algo, etype=0, pend_sc=pd.Series(dtype=float))
        assert list(flat.columns) == ["x"] and list(ch.columns) == ["x", "recv"]
        pd.testing.assert_series_equal(ch.x, flat.x)
        assert (s_ch.supersteps, s_ch.activations) == (s_flat.supersteps, s_flat.activations)
        assert_states_close(ch.recv, ch.x - x0, atol=1e-12, rtol=1e-12)
        return ch, s_ch

    _assert_same_run(on_each_backend(run), algo)


def test_min_ignores_etype(spark, on_each_backend):
    """Min is idempotent, so shortcut tags change nothing."""
    edges = tiny_graph(0)
    algo = alg.sssp(source=0)
    etype = np.random.default_rng(0).integers(0, 2, len(edges))

    def run():
        _, flat, s_flat = _from_roots(spark, edges, algo)
        _, tagged, s_tag = _from_roots(spark, edges, algo, etype=etype)
        pd.testing.assert_frame_equal(tagged, flat)
        assert (s_tag.supersteps, s_tag.activations) == (s_flat.supersteps, s_flat.activations)
        return tagged, s_tag

    _assert_same_run(on_each_backend(run), algo)


def _chain(etype=None):
    """0 -> 1 -> 2 at weight 0.5, plus 0 -> 9 where 9 is outside the states."""
    e = pd.DataFrame({"src": [0, 1, 0], "dst": [1, 2, 9], "w": [0.5, 0.5, 0.5]})
    return e if etype is None else e.assign(etype=etype)


S = pd.Series
#: Edge cases of the loop contract: (algo, edges, x, pend, pend_sc,
#: expected (supersteps, activations)).
CONTRACT_CASES = {
    # A zero pending value is still active on superstep 1 and sends.
    "zero_pend": (alg.pagerank(d=0.5, tol=1e-9), _chain().iloc[:2], S(1.0, index=[0, 1, 2]),
                  S({0: 0.0}), None, (1, 1)),
    "zero_pend_shortcut_channel": (alg.pagerank(d=0.5, tol=1e-9), _chain([0, 0, 0]).iloc[:2],
                                   S(1.0, index=[0, 1, 2]), S(dtype=float), S({0: 0.0}), (1, 1)),
    # 0 -> 9 is counted, then dropped.
    "outside_ids_sum": (alg.pagerank(d=0.5, tol=1e-9), _chain(), S(0.0, index=[0, 1, 2]),
                        S({0: 1.0}), None, (2, 3)),
    "outside_ids_channels": (alg.pagerank(d=0.5, tol=1e-9), _chain([0, 1, 0]),
                             S(0.0, index=[0, 1, 2]), S({0: 1.0}), S(dtype=float), (2, 3)),
    "outside_ids_min": (alg.sssp(source=0), _chain(), S([0.0, 9.0, 9.0], index=[0, 1, 2]),
                        S({0: 0.0}), None, (2, 3)),
    # Vertex 2 has no out-edges: active, but sends nothing and counts nothing.
    "sink_active_sum": (alg.pagerank(d=0.5, tol=1e-9), _chain().iloc[:1],
                        S(0.0, index=[0, 1, 2]), S({0: 1.0, 2: 1.0}), None, (1, 1)),
    "sink_active_min": (alg.sssp(source=0), _chain().iloc[:1], S([0.0, 9.0, 0.0], index=[0, 1, 2]),
                        S({2: 0.0}), None, (0, 0)),
    # A min seed equal to its state is still active on superstep 1.
    "equal_min_seed": (alg.sssp(source=0), _chain().iloc[:2], S([0.0, 0.5, 9.0], index=[0, 1, 2]),
                       S({1: 0.5}), None, (1, 1)),
}


@pytest.mark.parametrize("case", list(CONTRACT_CASES))
def test_backends_keep_the_loop_contract(spark, on_each_backend, case):
    algo, edges, x, pend, pend_sc, expected = CONTRACT_CASES[case]

    def run():
        return superstep_loop(spark, x, pend, edges, algo, pend_sc=pend_sc)

    runs = on_each_backend(run)
    _assert_same_run(runs, algo)
    _, stats = runs["driver"]
    assert (stats.supersteps, stats.activations) == expected


def test_degrees_matches_duckdb(spark):
    """Degrees are SQL — check the pandas version against the DuckDB oracle."""
    edges = tiny_graph(5)
    got = spark.createDataFrame(degrees(edges))
    assert_equivalent(
        got,
        """
        WITH o AS (SELECT src AS id, COUNT(*) AS out_deg, SUM(w) AS out_wsum
                   FROM edges GROUP BY src),
             i AS (SELECT dst AS id, COUNT(*) AS in_deg FROM edges GROUP BY dst)
        SELECT COALESCE(o.id, i.id) AS id,
               COALESCE(out_deg, 0) AS out_deg,
               COALESCE(in_deg, 0) AS in_deg,
               COALESCE(out_wsum, 0.0) AS out_wsum
        FROM o FULL OUTER JOIN i ON o.id = i.id
        """,
        edges=edges,
    )


def test_pagerank_total_mass(spark):
    """Σ PR_v == n·(1-d) + d·(non-dangling mass) sanity via the oracle's sum."""
    edges = tiny_graph(8)
    states, _ = run_batch(spark, edges, alg.pagerank(d=0.5, tol=1e-9))
    ref = pagerank_reference(edges, 0.5)
    assert abs(states.sum() - ref.sum()) < 1e-3
