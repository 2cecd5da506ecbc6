"""Incremental shortcut kernels == full recomputation (pure pandas)."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import algorithms as alg
from repro.graphs.generators import planted_partition
from repro.graphs.schema import canonical_edges, vertex_ids
from repro.graphs.updates import GraphDelta, apply_delta, random_edge_delta
from repro.incremental.revision import prepared_edge_diff
from tests.blocks import one_block


def sub_graph(seed, n=25):
    edges, _ = planted_partition(
        n_vertices=n, community_size_lo=max(8, n - 2), community_size_hi=n,
        community_fraction=1.0, intra_out_deg=3.0, inter_edge_fraction=0.0,
        portals_per_comm=1, seed=seed,
    )
    return edges


def _full(edges, entries, algo):
    sc, _ = one_block(algo.prepare(edges), entries, algo)
    return sc.set_index(["entry", "dst"]).w.sort_index()


def _changed(old_prep, new_prep):
    return prepared_edge_diff(old_prep, new_prep)


@pytest.mark.parametrize("seed", range(6))
def test_min_update_matches_full(seed):
    edges = sub_graph(seed)
    algo = alg.sssp(source=0)
    entries = vertex_ids(edges)[:4]
    old_sc, _ = one_block(algo.prepare(edges), entries, algo)
    delta = random_edge_delta(edges, n_add=3, n_del=3, seed=seed + 9)
    new_edges = apply_delta(edges, delta)
    ch = _changed(algo.prepare(edges), algo.prepare(new_edges))
    got, acts = one_block(algo.prepare(new_edges), entries, algo, old=old_sc, changed=ch)
    expect = _full(new_edges, entries, algo)
    pd.testing.assert_series_equal(
        got.set_index(["entry", "dst"]).w.sort_index(), expect, check_exact=False
    )


@pytest.mark.parametrize("seed", range(6))
def test_sum_update_matches_full(seed):
    edges = sub_graph(seed)
    algo = alg.pagerank(d=0.6, tol=1e-10)
    fine = replace(algo, tol=1e-12)
    entries = vertex_ids(edges)[:3]
    old_sc, _ = one_block(algo.prepare(edges), entries, fine)
    delta = random_edge_delta(edges, n_add=2, n_del=2, seed=seed + 5)
    new_edges = apply_delta(edges, delta)
    ch = _changed(algo.prepare(edges), algo.prepare(new_edges))
    got, _ = one_block(algo.prepare(new_edges), entries, fine, old=old_sc, changed=ch)
    expect = _full(new_edges, entries, fine)
    g = got.set_index(["entry", "dst"]).w.sort_index()
    idx = expect.index.union(g.index)
    np.testing.assert_allclose(
        g.reindex(idx, fill_value=0.0).to_numpy(),
        expect.reindex(idx, fill_value=0.0).to_numpy(),
        atol=1e-6,
    )


def test_min_update_no_change_is_noop():
    edges = sub_graph(1)
    algo = alg.sssp(source=0)
    entries = vertex_ids(edges)[:3]
    old_sc, _ = one_block(algo.prepare(edges), entries, algo)
    ch = pd.DataFrame(columns=["src", "dst", "w_old", "w_new"])
    got, acts = one_block(algo.prepare(edges), entries, algo, old=old_sc, changed=ch)
    assert acts == 0
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        old_sc.sort_values(["entry", "dst"]).reset_index(drop=True),
    )


def test_min_update_prunes_unaffected_entries():
    """A change unreachable from an entry must not recompute that entry."""
    # two disjoint chains from two entries
    edges = pd.DataFrame(
        {"src": [0, 1, 10, 11], "dst": [1, 2, 11, 12], "w": [1.0, 1.0, 1.0, 1.0]}
    )
    algo = alg.sssp(source=0)
    entries = np.array([0, 10])
    old_sc, _ = one_block(edges, entries, algo)
    # change inside the 10-chain only
    new_edges = apply_delta(
        edges,
        GraphDelta(
            added=pd.DataFrame({"src": [11], "dst": [13], "w": [1.0]}),
            deleted=pd.DataFrame(columns=["src", "dst"]),
        ),
    )
    ch = _changed(edges, new_edges)
    got, acts = one_block(new_edges, entries, algo, old=old_sc, changed=ch)
    # entry 0's rows identical, entry 10 gained dst 13
    g0 = got[got.entry == 0].set_index("dst").w.to_dict()
    assert g0 == {1: 1.0, 2: 2.0}
    assert 13 in got[got.entry == 10].dst.to_numpy()


def test_sum_update_new_entry_gets_full_row():
    edges = sub_graph(2)
    algo = alg.pagerank(d=0.6, tol=1e-10)
    fine = replace(algo, tol=1e-12)
    ids = vertex_ids(edges)
    old_entries = ids[:2]
    old_sc, _ = one_block(algo.prepare(edges), old_entries, fine)
    new_entries = ids[:3]  # one extra entry, graph unchanged
    ch = pd.DataFrame(columns=["src", "dst", "w_old", "w_new"])
    got, _ = one_block(algo.prepare(edges), new_entries, fine, old=old_sc, changed=ch)
    expect = _full(edges, new_entries, fine)
    g = got.set_index(["entry", "dst"]).w.sort_index()
    idx = expect.index.union(g.index)
    np.testing.assert_allclose(
        g.reindex(idx, fill_value=0.0).to_numpy(),
        expect.reindex(idx, fill_value=0.0).to_numpy(),
        atol=1e-6,
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), nadd=st.integers(0, 4), ndel=st.integers(0, 4))
def test_min_update_matches_full_hypothesis(seed, nadd, ndel):
    edges = sub_graph(seed % 50, n=15)
    algo = alg.bfs(source=0)
    entries = vertex_ids(edges)[:3]
    old_sc, _ = one_block(algo.prepare(edges), entries, algo)
    delta = random_edge_delta(edges, n_add=nadd, n_del=ndel, seed=seed)
    new_edges = apply_delta(edges, delta)
    if len(new_edges) == 0:
        return
    ch = _changed(algo.prepare(edges), algo.prepare(new_edges))
    got, _ = one_block(algo.prepare(new_edges), entries, algo, old=old_sc, changed=ch)
    expect = _full(new_edges, entries, algo)
    pd.testing.assert_series_equal(
        got.set_index(["entry", "dst"]).w.sort_index(), expect, check_exact=False
    )
