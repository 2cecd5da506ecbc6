"""The paper's running example (Fig. 2, Examples 1–6) as one test module.

Complements the engine-level fig2 tests: here every number quoted in the
paper's walk-through is asserted in one place.
"""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.engine.local import converge
from repro.graphs.generators import fig2_delta, fig2_graph
from repro.graphs.schema import vertex_ids
from repro.graphs.updates import GraphDelta, apply_delta
from repro.layph.engine import LayphEngine
from repro.layph.layered import build_layered
from repro.reference import assert_states_close, sssp_reference
from tests.blocks import one_block


@pytest.fixture(scope="module")
def fig2():
    edges, membership = fig2_graph()
    added, deleted = fig2_delta()
    return edges, membership, GraphDelta(added=added, deleted=deleted)


def test_example1_sssp_formulation(fig2):
    """Example 1a: F = m + w, G = min, roots at the source."""
    algo = alg.sssp(source=0)
    assert algo.aggregate == "min" and algo.identity == 0.0
    assert algo.roots == {0: 0.0}
    m = algo.combine(np.array([2.0]), np.array([3.0]))
    assert m[0] == 5.0


def test_example1_pagerank_formulation():
    """Example 1b: F = m · d/N_u, G = sum, m0 = 1 - d."""
    algo = alg.pagerank(d=0.85)
    assert algo.aggregate == "sum" and algo.uniform_root == pytest.approx(0.15)
    edges = pd.DataFrame({"src": [0, 0], "dst": [1, 2], "w": [1.0, 1.0]})
    prep = algo.prepare(edges)
    assert np.allclose(prep.w, 0.85 / 2)


def test_fig2a_converged_states(fig2):
    edges, _, _ = fig2
    assert_states_close(
        sssp_reference(edges, 0),
        pd.Series([0, 1, 4, 1, 2, 5, 6, 7, 7], index=range(9), dtype=float),
    )


def _fig2_layered(fig2):
    edges, membership, _ = fig2
    lg, _ = build_layered(edges, alg.pagerank(), membership=membership, replicate=False)
    return lg


def test_fig2_boundary_roles(fig2):
    lg = _fig2_layered(fig2)
    entry, exit_ = (set(lg.members.id[flags].tolist()) for flags in lg.roles)
    assert entry == {0, 5} and exit_ == {4, 5}


def test_fig2_both_subgraphs_dense(fig2):
    lg = _fig2_layered(fig2)
    n_in, n_out, n_e = lg.density_counts()
    subs = np.unique(lg.members.sub)
    assert len(subs) == 2 and (n_in * n_out < n_e)[subs].all()


def test_example2_shortcut_deduction(fig2):
    edges, membership, _ = fig2
    g2 = membership[membership["sub"] == 2].id.to_numpy()
    algo = alg.sssp(source=0)
    sub = edges[edges.src.isin(g2) & edges.dst.isin(g2)]
    sc, _ = one_block(algo.prepare(sub), [0], algo)
    assert sc.set_index("dst").w.to_dict() == {1: 1.0, 2: 4.0, 3: 1.0, 4: 2.0}
    # G1's shortcuts from v5: {v6:1, v7:2, v8:2}
    g1 = membership[membership["sub"] == 1].id.to_numpy()
    sub1 = edges[edges.src.isin(g1) & edges.dst.isin(g1)]
    sc1, _ = one_block(algo.prepare(sub1), [5], algo)
    assert sc1.set_index("dst").w.to_dict() == {6: 1.0, 7: 2.0, 8: 2.0}


def test_example3_incremental_shortcut_update(fig2):
    edges, membership, delta = fig2
    new_edges = apply_delta(edges, delta)
    g2 = membership[membership["sub"] == 2].id.to_numpy()
    algo = alg.sssp(source=0)
    sub = new_edges[new_edges.src.isin(g2) & new_edges.dst.isin(g2)]
    sc, _ = one_block(algo.prepare(sub), [0], algo)
    assert sc.set_index("dst").w.to_dict() == {1: 1.0, 2: 3.0, 3: 1.0, 4: 4.0}


def test_examples_4_to_6_full_incremental_run(spark, fig2):
    edges, membership, delta = fig2
    eng = LayphEngine(
        spark, edges, alg.sssp(source=0), membership=membership, replicate=False
    ).initialize()
    got, stats = eng.run_delta(delta)
    # Example 6: final states {0,1,3,1,4,7,8,9,9}
    assert_states_close(
        got, pd.Series([0, 1, 3, 1, 4, 7, 8, 9, 9], index=range(9), dtype=float)
    )
    # Example 5: v5's entry cache after the run is x_v4 + w(4,5) = 4 + 3 = 7.
    assert eng.caches[5] == 7.0


def test_fig2e_constrained_activations(spark, fig2):
    """The layered run must activate far fewer upper-layer edges than the
    flat updated graph has (Fig. 2c activates 10, Fig. 2e only 2)."""
    edges, membership, delta = fig2
    eng = LayphEngine(
        spark, edges, alg.sssp(source=0), membership=membership, replicate=False
    ).initialize()
    _, stats = eng.run_delta(delta)
    assert stats.supersteps <= 4  # the upper layer converges in a couple hops


def test_fig2_restart_on_updated_graph(fig2):
    edges, _, delta = fig2
    new_edges = apply_delta(edges, delta)
    algo = alg.sssp(source=0)
    ids = vertex_ids(new_edges)
    run = converge(algo.prepare(new_edges), algo.initial_states(ids),
                   algo.root_messages(ids), algo)
    assert_states_close(
        run.states, pd.Series([0, 1, 3, 1, 4, 7, 8, 9, 9], index=range(9), dtype=float)
    )
