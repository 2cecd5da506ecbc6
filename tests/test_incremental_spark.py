"""Incremental engines on Spark == batch on the updated graph (Eq. 4)."""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.engine.local import converge
from repro.graphs.generators import planted_partition
from repro.graphs.schema import vertex_ids
from repro.graphs.updates import GraphDelta, apply_delta, random_edge_delta, random_vertex_delta
from repro.incremental.baselines import SYSTEMS
from repro.incremental.ingress import ingress_incremental
from repro.reference import assert_states_close


def graph(seed=0, n=50):
    edges, _ = planted_partition(
        n_vertices=n, community_size_lo=8, community_size_hi=12,
        community_fraction=0.8, intra_out_deg=3.0, inter_edge_fraction=0.3, seed=seed,
    )
    return edges


def local_batch(edges, algo, extra_ids=(), tol=None):
    """Ground truth from the (already reference-verified) local kernel."""
    ids = algo.with_source(np.union1d(vertex_ids(edges), np.asarray(extra_ids, np.int64)))
    return converge(
        algo.prepare(edges), algo.initial_states(ids), algo.root_messages(ids),
        algo, tol=tol,
    ).states


def make_algo(name):
    if name == "sssp":
        return alg.sssp(source=0)
    if name == "bfs":
        return alg.bfs(source=0)
    if name == "pagerank":
        return alg.pagerank(d=0.5, tol=1e-7)
    return alg.php(source=0, d=0.5, tol=1e-7)


@pytest.mark.parametrize("name", ["sssp", "bfs", "pagerank", "php"])
@pytest.mark.parametrize("seed", [0, 1])
def test_ingress_equals_batch_on_updated_graph(spark, name, seed):
    edges = graph(seed)
    algo = make_algo(name)
    old = local_batch(edges, algo)
    delta = random_edge_delta(edges, n_add=5, n_del=5, seed=seed + 10)
    got, stats = ingress_incremental(spark, edges, delta, old, algo)
    expected = local_batch(apply_delta(edges, delta), algo)
    tol = (1e-9, 0) if algo.is_min else (2e-4, 1e-4)
    assert_states_close(got, expected, atol=tol[0], rtol=tol[1])
    assert stats.wall_seconds > 0


@pytest.mark.parametrize("system", ["restart", "kickstarter", "risgraph"])
def test_min_baselines_equal_batch(no_spark, system):
    edges = graph(3)
    algo = alg.sssp(source=0)
    old = local_batch(edges, algo)
    delta = random_edge_delta(edges, n_add=5, n_del=5, seed=42)
    runner, kinds = SYSTEMS[system]
    assert "min" in kinds
    got, stats = runner(no_spark, edges, delta, old, algo)
    expected = local_batch(apply_delta(edges, delta), algo)
    assert_states_close(got, expected)
    assert stats.activations > 0


def test_kickstarter_round_that_improves_no_state(no_spark):
    """An added edge into the source improves no state, so KickStarter's
    affected set is empty: the round keeps the old states and runs no
    superstep."""
    edges = graph(3)
    algo = alg.sssp(source=0)
    old = local_batch(edges, algo)
    taken = set(edges[edges.dst == 0].src.tolist()) | {0}
    u = next(int(v) for v in vertex_ids(edges) if v not in taken)
    delta = GraphDelta(
        added=pd.DataFrame({"src": [u], "dst": [0], "w": [1.0]}),
        deleted=edges.iloc[0:0][["src", "dst"]],
    )
    got, stats = SYSTEMS["kickstarter"][0](no_spark, edges, delta, old, algo)
    assert_states_close(got, old, atol=0, rtol=0)
    assert stats.supersteps == 0


@pytest.mark.parametrize("system", ["restart", "graphbolt", "dzig"])
def test_sum_baselines_equal_batch(spark, system):
    edges = graph(4)
    algo = alg.pagerank(d=0.5, tol=1e-7)
    old = local_batch(edges, algo)
    delta = random_edge_delta(edges, n_add=5, n_del=5, seed=43)
    runner, kinds = SYSTEMS[system]
    assert "sum" in kinds
    got, stats = runner(spark, edges, delta, old, algo)
    expected = local_batch(apply_delta(edges, delta), algo, tol=1e-10)
    assert_states_close(got, expected, atol=3e-4, rtol=1e-3)
    assert stats.activations > 0


def test_vertex_updates_ingress(spark):
    edges = graph(5, n=40)
    algo = alg.pagerank(d=0.5, tol=1e-7)
    old = local_batch(edges, algo)
    delta = random_vertex_delta(edges, n_add=3, n_del=2, seed=11)
    got, _ = ingress_incremental(spark, edges, delta, old, algo)
    new_edges = apply_delta(edges, delta)
    expected = local_batch(new_edges, algo, extra_ids=delta.added_vertices, tol=1e-10)
    expected = expected[~expected.index.isin(delta.deleted_vertices)]
    got = got[got.index.isin(expected.index)]
    assert_states_close(got, expected, atol=3e-4, rtol=1e-3)


def test_vertex_updates_min(spark):
    edges = graph(6, n=40)
    algo = alg.sssp(source=0)
    old = local_batch(edges, algo)
    delta = random_vertex_delta(edges, n_add=3, n_del=2, seed=12)
    got, _ = ingress_incremental(spark, edges, delta, old, algo)
    new_edges = apply_delta(edges, delta)
    expected = local_batch(new_edges, algo, extra_ids=delta.added_vertices)
    expected = expected[~expected.index.isin(delta.deleted_vertices)]
    got = got[got.index.isin(expected.index)]
    assert_states_close(got, expected)


def test_incremental_cheaper_than_restart(spark):
    """The whole point: small ΔG -> far fewer activations than Restart."""
    edges = graph(7, n=120)
    algo = alg.sssp(source=0)
    old = local_batch(edges, algo)
    delta = random_edge_delta(edges, n_add=2, n_del=2, seed=3)
    _, inc = ingress_incremental(spark, edges, delta, old, algo)
    _, rst = SYSTEMS["restart"][0](spark, edges, delta, old, algo)
    assert inc.activations < rst.activations
