"""Spark superstep engine vs local kernel / references / DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.engine.batch import run_batch, states_to_series, states_to_spark, superstep_loop
from repro.graphs.generators import fig2_graph, planted_partition
from repro.graphs.schema import degrees, edges_to_spark, vertex_ids
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


@pytest.mark.parametrize("seed", [0, 1])
def test_spark_sssp_matches_dijkstra(spark, seed):
    edges = tiny_graph(seed)
    states, stats = run_batch(spark, edges, alg.sssp(source=0))
    assert_states_close(states, sssp_reference(edges, 0))
    assert stats.activations > 0 and stats.supersteps > 0


def test_spark_bfs_matches_reference(spark):
    edges = tiny_graph(2)
    states, _ = run_batch(spark, edges, alg.bfs(source=0))
    assert_states_close(states, bfs_reference(edges, 0))


def test_spark_pagerank_matches_linear_solve(spark):
    edges = tiny_graph(3)
    states, _ = run_batch(spark, edges, alg.pagerank(d=0.5, tol=1e-8))
    assert_states_close(states, pagerank_reference(edges, 0.5), atol=1e-4, rtol=1e-4)


def test_spark_php_matches_linear_solve(spark):
    edges = tiny_graph(4)
    states, _ = run_batch(spark, edges, alg.php(source=1, d=0.6, tol=1e-8))
    assert_states_close(states, php_reference(edges, 1, 0.6), atol=1e-4, rtol=1e-4)


def test_spark_fig2_sssp(spark):
    edges, _ = fig2_graph()
    states, _ = run_batch(spark, edges, alg.sssp(source=0))
    expected = pd.Series([0, 1, 4, 1, 2, 5, 6, 7, 7], index=range(9), dtype=float)
    assert_states_close(states, expected)


def _from_roots(spark, edges, algo, etype=None, pend_sc=None):
    """superstep_loop from the root messages; ``etype`` tags the edges."""
    ids = vertex_ids(edges)
    pend = algo.root_messages(ids)
    x = algo.initial_states(ids)
    x = np.minimum(x, pend.reindex(ids).fillna(x)) if algo.is_min else x.add(pend, fill_value=0.0)
    prepared = algo.prepare(edges)
    if etype is None:
        e = edges_to_spark(spark, prepared)
    else:
        e = spark.createDataFrame(prepared.assign(etype=etype))
    out, stats = superstep_loop(states_to_spark(spark, x, pend, pend_sc), e, algo)
    return x, out, stats


def test_channel_path_with_original_edges_only_equals_flat_path(spark):
    """All-original edges and no shortcut mass reduce the channel rule to
    the flat sum loop, and ``recv`` then holds every arrival."""
    edges = tiny_graph(3)
    algo = alg.pagerank(d=0.5, tol=1e-8)
    _, flat, s_flat = _from_roots(spark, edges, algo)
    x0, ch, s_ch = _from_roots(spark, edges, algo, etype=0, pend_sc=pd.Series(dtype=float))
    assert set(ch.columns) == {"id", "x", "pend", "pend_sc", "recv"}
    pd.testing.assert_series_equal(states_to_series(ch), states_to_series(flat))
    assert (s_ch.supersteps, s_ch.activations) == (s_flat.supersteps, s_flat.activations)
    pdf = ch.select("id", "recv").toPandas()
    recv = pd.Series(pdf.recv.to_numpy(), index=pdf.id.to_numpy(np.int64)).sort_index()
    assert_states_close(recv, states_to_series(ch) - x0, atol=1e-12, rtol=1e-12)


def test_min_ignores_etype(spark):
    """Min is idempotent, so shortcut tags change nothing."""
    edges = tiny_graph(0)
    algo = alg.sssp(source=0)
    _, flat, s_flat = _from_roots(spark, edges, algo)
    etype = np.random.default_rng(0).integers(0, 2, len(edges))
    _, tagged, s_tag = _from_roots(spark, edges, algo, etype=etype)
    pd.testing.assert_series_equal(states_to_series(tagged), states_to_series(flat))
    assert (s_tag.supersteps, s_tag.activations) == (s_flat.supersteps, s_flat.activations)


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
