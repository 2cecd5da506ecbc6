"""Local numpy kernel vs the independent pure-python references."""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.engine.local import converge
from repro.graphs.generators import dataset, fig2_graph, planted_partition
from repro.graphs.schema import vertex_ids
from repro.reference import (
    assert_states_close,
    bfs_reference,
    pagerank_reference,
    php_reference,
    sssp_reference,
)
from tests.blocks import one_block


def _run_local(edges, algo, tol=None):
    prepared = algo.prepare(edges)
    ids = algo.with_source(vertex_ids(edges))
    return converge(prepared, algo.initial_states(ids), algo.root_messages(ids), algo, tol=tol)


def small_graph(seed=0, n=40):
    edges, _ = planted_partition(
        n_vertices=n, community_size_lo=6, community_size_hi=10,
        community_fraction=0.8, intra_out_deg=3.0, inter_edge_fraction=0.3, seed=seed,
    )
    return edges


@pytest.mark.parametrize("seed", range(6))
def test_sssp_matches_dijkstra(seed):
    edges = small_graph(seed)
    run = _run_local(edges, alg.sssp(source=0))
    assert_states_close(run.states, sssp_reference(edges, 0))


@pytest.mark.parametrize("seed", range(6))
def test_bfs_matches_reference(seed):
    edges = small_graph(seed)
    run = _run_local(edges, alg.bfs(source=0))
    assert_states_close(run.states, bfs_reference(edges, 0))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("d", [0.5, 0.85])
def test_pagerank_matches_linear_solve(seed, d):
    edges = small_graph(seed)
    run = _run_local(edges, alg.pagerank(d=d, tol=1e-9))
    assert_states_close(run.states, pagerank_reference(edges, d), atol=1e-5, rtol=1e-4)


@pytest.mark.parametrize("seed", range(6))
def test_php_matches_linear_solve(seed):
    edges = small_graph(seed)
    run = _run_local(edges, alg.php(source=1, d=0.8, tol=1e-9))
    assert_states_close(run.states, php_reference(edges, 1, 0.8), atol=1e-5, rtol=1e-4)


def test_activations_positive_and_bounded():
    edges = small_graph(0)
    run = _run_local(edges, alg.sssp(source=0))
    assert run.activations > 0
    assert run.activations <= len(edges) * (run.iterations + 1)


def test_unreachable_vertices_stay_inf():
    edges = pd.DataFrame({"src": [0, 5], "dst": [1, 6], "w": [2.0, 1.0]})
    run = _run_local(edges, alg.sssp(source=0))
    assert run.states[1] == 2.0
    assert np.isinf(run.states[5]) and np.isinf(run.states[6])


def test_fig2_sssp_states():
    """Example 4: converged states on the paper's Fig. 2a graph."""
    edges, _ = fig2_graph()
    run = _run_local(edges, alg.sssp(source=0))
    expected = pd.Series([0, 1, 4, 1, 2, 5, 6, 7, 7], index=range(9), dtype=float)
    assert_states_close(run.states, expected)


def test_fig2_shortcuts_example2():
    """Example 2: shortcuts of G2 from entry v0 are {v1:1, v2:4, v3:1, v4:2}."""
    edges, membership = fig2_graph()
    g2 = membership[membership["sub"] == 2].id.to_numpy()
    sub_edges = edges[edges.src.isin(g2) & edges.dst.isin(g2)]
    algo = alg.sssp(source=0)
    sc, acts = one_block(algo.prepare(sub_edges), [0], algo)
    got = sc.set_index("dst").w.to_dict()
    assert got == {1: 1.0, 2: 4.0, 3: 1.0, 4: 2.0}
    assert acts > 0


def test_fig2_shortcuts_after_update_example3():
    """Example 3: after ΔG the G2 shortcuts become {v1:1, v2:3, v3:1, v4:4}."""
    from repro.graphs.generators import fig2_delta
    from repro.graphs.updates import GraphDelta, apply_delta

    edges, membership = fig2_graph()
    added, deleted = fig2_delta()
    new_edges = apply_delta(edges, GraphDelta(added=added, deleted=deleted))
    g2 = membership[membership["sub"] == 2].id.to_numpy()
    sub_edges = new_edges[new_edges.src.isin(g2) & new_edges.dst.isin(g2)]
    algo = alg.sssp(source=0)
    sc, _ = one_block(algo.prepare(sub_edges), [0], algo)
    assert sc.set_index("dst").w.to_dict() == {1: 1.0, 2: 3.0, 3: 1.0, 4: 4.0}


def test_shortcut_weights_sum_reproduce_unit_propagation():
    """Def. 3: propagating through shortcuts == iterating through edges."""
    edges = small_graph(3, n=20)
    algo = alg.pagerank(d=0.6, tol=1e-10)
    prepared = algo.prepare(edges)
    ids = vertex_ids(edges)
    entry = ids[0]
    sc, _ = one_block(prepared, [entry], algo, tol=1e-12)
    run = converge(
        prepared,
        pd.Series(0.0, index=ids),
        pd.Series({entry: 1.0}),
        algo,
        tol=1e-12,
    )
    # converge() aggregates the unit message into the entry's state; the
    # shortcut table only stores >=1-hop arrivals.
    expect = run.states.copy()
    expect[entry] -= 1.0
    got = pd.Series(0.0, index=ids)
    got.loc[sc.dst.to_numpy()] = sc.w.to_numpy()
    assert_states_close(got, expect, atol=1e-6)


def test_sum_converge_handles_negative_deltas():
    edges = small_graph(1, n=20)
    algo = alg.pagerank(d=0.7, tol=1e-10)
    prepared = algo.prepare(edges)
    ids = vertex_ids(edges)
    up = converge(prepared, pd.Series(0.0, index=ids), pd.Series({ids[0]: 1.0}), algo)
    dn = converge(prepared, up.states, pd.Series({ids[0]: -1.0}), algo)
    assert_states_close(dn.states, pd.Series(0.0, index=ids), atol=1e-5)


def test_dataset_presets_exist_and_are_deterministic():
    for name in ["uk_lite", "it_lite", "sk_lite", "wb_lite"]:
        e1, m1 = dataset(name, sf=0.005, seed=7)
        e2, m2 = dataset(name, sf=0.005, seed=7)
        pd.testing.assert_frame_equal(e1, e2)
        pd.testing.assert_frame_equal(m1, m2)
        assert len(e1) > 100
        assert m1["sub"].nunique() >= 2
