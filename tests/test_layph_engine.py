"""Layph incremental == batch on the updated graph (Theorems 1 & 2)."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.graphs.generators import dataset, fig2_delta, fig2_graph
from repro.graphs.updates import GraphDelta, apply_delta, random_edge_delta, random_vertex_delta
from repro.incremental.ingress import ingress_incremental
from repro.layph.engine import LayphEngine
from repro.reference import assert_states_close
from tests.blocks import batch_run


def make_algo(name, source=0):
    return {
        "sssp": lambda: alg.sssp(source=source),
        "bfs": lambda: alg.bfs(source=source),
        "pagerank": lambda: alg.pagerank(d=0.5, tol=1e-7),
        "php": lambda: alg.php(source=source, d=0.5, tol=1e-7),
    }[name]()


def check(got, edges, algo, delta, extra=()):
    expected = batch_run(
        apply_delta(edges, delta), replace(algo, tol=1e-10), extra_ids=extra
    ).states
    if len(delta.deleted_vertices):
        expected = expected[~expected.index.isin(delta.deleted_vertices)]
        got = got[got.index.isin(expected.index)]
    if algo.is_min:
        assert_states_close(got, expected, atol=1e-9, rtol=0)
    else:
        assert_states_close(got, expected, atol=5e-4, rtol=1e-3)


# ---------------------------------------------------------------------------
# The paper's running example, end to end (Examples 2-6).
# ---------------------------------------------------------------------------

def test_fig2_full_walkthrough(spark):
    edges, membership = fig2_graph()
    algo = alg.sssp(source=0)
    eng = LayphEngine(spark, edges, algo, membership=membership, replicate=False)
    eng.initialize()

    # Example 4: initial converged states {0,1,4,1,2,5,6,7,7}
    assert_states_close(
        eng.states(), pd.Series([0, 1, 4, 1, 2, 5, 6, 7, 7], index=range(9), dtype=float)
    )
    # entry caches: v0 is the source (cache 0), v5's external support is
    # x_v4 + w(4,5) = 2 + 3 = 5.
    assert eng.caches[0] == 0.0 and eng.caches[5] == 5.0

    added, deleted = fig2_delta()
    got, stats = eng.run_delta(GraphDelta(added=added, deleted=deleted))

    # Example 6 final states: {0,1,3,1,4,7,8,9,9}
    assert_states_close(
        got, pd.Series([0, 1, 3, 1, 4, 7, 8, 9, 9], index=range(9), dtype=float)
    )
    # Example 3: updated shortcuts of G2
    sub2 = eng.lg.members.sub_of(np.array([0]))[0]
    sc = eng.lg.shortcuts[
        (eng.lg.shortcuts["sub"] == sub2) & (eng.lg.shortcuts.entry == 0)
    ]
    assert sc.set_index("dst").w.to_dict() == {1: 1.0, 2: 3.0, 3: 1.0, 4: 4.0}
    # all four phases ran and were timed
    for phase in ("layered_update", "upload", "upper", "assign"):
        assert phase in stats.phase_seconds
    assert stats.activations > 0


def test_fig2_only_affected_sub_recomputed(spark):
    """ΔG touches only G2 — G1's shortcut table must be byte-identical."""
    edges, membership = fig2_graph()
    algo = alg.sssp(source=0)
    eng = LayphEngine(spark, edges, algo, membership=membership, replicate=False)
    eng.initialize()
    sub1 = eng.lg.members.sub_of(np.array([5]))[0]
    before = eng.lg.shortcuts[eng.lg.shortcuts["sub"] == sub1].reset_index(drop=True)
    added, deleted = fig2_delta()
    eng.run_delta(GraphDelta(added=added, deleted=deleted))
    after = eng.lg.shortcuts[eng.lg.shortcuts["sub"] == sub1].reset_index(drop=True)
    pd.testing.assert_frame_equal(
        before.sort_values(["entry", "dst"]).reset_index(drop=True),
        after.sort_values(["entry", "dst"]).reset_index(drop=True),
    )


# ---------------------------------------------------------------------------
# Randomized equivalence across algorithms / datasets / deltas.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sssp", "bfs", "pagerank", "php"])
@pytest.mark.parametrize("seed", [0, 1])
def test_layph_equals_batch_uk(spark, name, seed):
    edges, membership = dataset("uk_lite", sf=0.003, seed=seed)
    algo = make_algo(name)
    eng = LayphEngine(spark, edges, algo, membership=membership).initialize()
    delta = random_edge_delta(edges, n_add=4, n_del=4, seed=seed + 50)
    got, _ = eng.run_delta(delta)
    check(got, edges, algo, delta)


@pytest.mark.parametrize("ds", ["it_lite", "sk_lite", "wb_lite"])
@pytest.mark.parametrize("name", ["sssp", "pagerank"])
def test_layph_equals_batch_other_datasets(spark, ds, name):
    edges, membership = dataset(ds, sf=0.003, seed=3)
    algo = make_algo(name)
    eng = LayphEngine(spark, edges, algo, membership=membership).initialize()
    delta = random_edge_delta(edges, n_add=5, n_del=5, seed=77)
    got, _ = eng.run_delta(delta)
    check(got, edges, algo, delta)


@pytest.mark.parametrize("name", ["sssp", "pagerank"])
def test_layph_multiple_rounds(spark, name):
    """Nine consecutive ΔG rounds stay correct (the Fig. 11b scenario)."""
    edges, membership = dataset("uk_lite", sf=0.003, seed=9)
    algo = make_algo(name)
    eng = LayphEngine(spark, edges, algo, membership=membership).initialize()
    cur = edges
    for r in range(4):
        delta = random_edge_delta(cur, n_add=3, n_del=3, seed=1000 + r)
        got, _ = eng.run_delta(delta)
        cur = apply_delta(cur, delta)
        check(got, cur, algo, GraphDelta(added=cur.iloc[0:0],
                                         deleted=cur.iloc[0:0][["src", "dst"]]))


@pytest.mark.parametrize("name", ["sssp", "pagerank"])
def test_layph_vertex_updates(spark, name):
    edges, membership = dataset("uk_lite", sf=0.003, seed=5)
    algo = make_algo(name)
    eng = LayphEngine(spark, edges, algo, membership=membership).initialize()
    delta = random_vertex_delta(edges, n_add=3, n_del=2, seed=21)
    got, _ = eng.run_delta(delta)
    check(got, edges, algo, delta, extra=delta.added_vertices)


def test_layph_without_replication(spark):
    edges, membership = dataset("uk_lite", sf=0.003, seed=6)
    algo = alg.sssp(source=0)
    eng = LayphEngine(spark, edges, algo, membership=membership, replicate=False)
    eng.initialize()
    delta = random_edge_delta(edges, n_add=4, n_del=4, seed=8)
    got, _ = eng.run_delta(delta)
    check(got, edges, algo, delta)


def test_layph_pure_insertions(spark):
    edges, membership = dataset("uk_lite", sf=0.003, seed=7)
    algo = alg.sssp(source=0)
    eng = LayphEngine(spark, edges, algo, membership=membership).initialize()
    delta = random_edge_delta(edges, n_add=8, n_del=0, seed=9)
    got, _ = eng.run_delta(delta)
    check(got, edges, algo, delta)


def test_layph_pure_deletions(spark):
    edges, membership = dataset("uk_lite", sf=0.003, seed=8)
    algo = alg.pagerank(d=0.5, tol=1e-7)
    eng = LayphEngine(spark, edges, algo, membership=membership).initialize()
    delta = random_edge_delta(edges, n_add=0, n_del=8, seed=10)
    got, _ = eng.run_delta(delta)
    check(got, edges, algo, delta)


@pytest.mark.parametrize("name", ["sssp", "pagerank"])
def test_driver_path_starts_no_spark_job(no_spark, name):
    """Inputs under the size rule's limit never touch Spark: two Layph rounds
    and two Ingress rounds run with a session that fails on any use."""
    edges, membership = dataset("uk_lite", sf=0.003, seed=9)
    algo = make_algo(name)
    eng = LayphEngine(no_spark, edges, algo, membership=membership).initialize()
    cur, x = edges, batch_run(edges, algo).states
    for r in range(2):
        delta = random_edge_delta(cur, n_add=3, n_del=3, seed=2000 + r)
        got, _ = eng.run_delta(delta)
        x, _ = ingress_incremental(no_spark, cur, delta, x, algo)
        cur = apply_delta(cur, delta)
        none = GraphDelta(added=cur.iloc[0:0], deleted=cur.iloc[0:0][["src", "dst"]])
        check(got, cur, algo, none)
        check(x, cur, algo, none)


@pytest.mark.parametrize("name", ["sssp", "pagerank"])
def test_backends_agree_end_to_end(spark, on_each_backend, name):
    """One Layph round and one Ingress round give the same states, supersteps
    and activations in the driver and on Spark."""
    edges, membership = dataset("uk_lite", sf=0.003, seed=4)
    algo = make_algo(name)
    delta = random_edge_delta(edges, n_add=3, n_del=3, seed=31)
    x = batch_run(edges, algo).states

    def run():
        eng = LayphEngine(spark, edges, algo, membership=membership).initialize()
        return eng.run_delta(delta), ingress_incremental(spark, edges, delta, x, algo)

    runs = on_each_backend(run)
    same = dict(check_exact=True) if algo.is_min else dict(check_exact=False, rtol=0, atol=1e-12)
    for (d_out, d_stats), (s_out, s_stats) in zip(runs["driver"], runs["spark"]):
        assert (d_stats.supersteps, d_stats.activations) == (s_stats.supersteps, s_stats.activations)
        pd.testing.assert_series_equal(d_out, s_out, **same)
        check(d_out, edges, algo, delta)


@pytest.mark.parametrize("name", ["sssp", "pagerank"])
def test_deleting_a_proxy_host(no_spark, name):
    """Deleting a replication host empties its proxies; a min round must not
    try to rebuild the state of a proxy that left the graph."""
    edges, membership = dataset("uk_lite", sf=0.002, seed=0)
    algo = make_algo(name)
    eng = LayphEngine(no_spark, edges, algo, membership=membership).initialize()
    host = int(eng.lg.proxies.host[0])
    inc = edges[(edges.src == host) | (edges.dst == host)][["src", "dst"]]
    delta = GraphDelta(added=edges.iloc[0:0], deleted=inc.reset_index(drop=True),
                       deleted_vertices=np.array([host]))
    got, _ = eng.run_delta(delta)
    check(got, edges, algo, delta)


def test_phase_activations_sum_to_the_round(no_spark):
    """PhaseTimer attributes every activation of a Layph round to one of its
    four phases."""
    edges, membership = dataset("uk_lite", sf=0.003, seed=9)
    for algo in (make_algo("pagerank"), make_algo("sssp")):
        eng = LayphEngine(no_spark, edges, algo, membership=membership).initialize()
        assert eng.offline_stats.phase_activations == {"offline": eng.offline_stats.activations}
        _, stats = eng.run_delta(random_edge_delta(edges, n_add=4, n_del=4, seed=3))
        d = stats.to_dict()
        assert set(d["phase_activations"]) == {"layered_update", "upload", "upper", "assign"}
        assert sum(d["phase_activations"].values()) == d["activations"] == stats.activations
        assert min(d["phase_activations"].values()) >= 0 and d["phase_activations"]["upper"] > 0
