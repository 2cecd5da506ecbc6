"""Revision-message deduction (pure pandas — no Spark needed)."""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.engine.local import converge
from repro.graphs.generators import fig2_graph, planted_partition
from repro.graphs.updates import GraphDelta, apply_delta, random_edge_delta
from repro.incremental.revision import (
    min_parents,
    min_revision,
    min_trim_set,
    prepared_edge_diff,
    sum_revision,
)
from repro.reference import assert_states_close, pagerank_reference
from tests.blocks import batch_run


def small_graph(seed=0, n=40):
    edges, _ = planted_partition(
        n_vertices=n, community_size_lo=6, community_size_hi=10,
        community_fraction=0.8, intra_out_deg=3.0, inter_edge_fraction=0.3, seed=seed,
    )
    return edges


def test_prepared_edge_diff_classifies_adds_deletes_changes():
    old = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3], "w": [1.0, 2.0, 3.0]})
    new = pd.DataFrame({"src": [0, 2, 3], "dst": [1, 3, 4], "w": [1.0, 5.0, 1.0]})
    d = prepared_edge_diff(old, new).set_index(["src", "dst"])
    assert (1, 2) in d.index and np.isnan(d.loc[(1, 2), "w_new"])  # deleted
    assert (3, 4) in d.index and np.isnan(d.loc[(3, 4), "w_old"])  # added
    assert d.loc[(2, 3), "w_new"] == 5.0  # weight change
    assert (0, 1) not in d.index  # unchanged


def test_min_parents_on_fig2():
    edges, _ = fig2_graph()
    algo = alg.sssp(source=0)
    states = batch_run(edges, algo).states
    parents = min_parents(algo.prepare(edges), states, algo).set_index("id").parent
    # v0 is root-supported -> no parent; everyone else has exactly one.
    assert 0 not in parents.index
    assert parents[1] == 0 and parents[3] == 0
    assert parents[2] == 1
    assert parents[4] == 3  # supported by the (v3, v4) edge of Example 3
    assert parents[5] == 4 and parents[6] == 5


def test_min_trim_set_cascades():
    parents = pd.DataFrame({"id": [2, 3, 4, 5], "parent": [1, 2, 2, 4]})
    reset = min_trim_set(parents, np.array([2]))
    assert list(reset) == [2, 3, 4, 5]


def test_min_trim_set_empty_seed():
    parents = pd.DataFrame({"id": [2], "parent": [1]})
    assert len(min_trim_set(parents, np.array([], dtype=np.int64))) == 0


def _trim_set_ref(parents, seeds):
    """The reference the numpy frontier walk must equal: a Python set walk."""
    child_of = {}
    for c, p in zip(parents.id.tolist(), parents.parent.tolist()):
        child_of.setdefault(p, []).append(c)
    reset = frontier = set(int(s) for s in seeds)
    while frontier:
        frontier = {c for p in frontier for c in child_of.get(p, []) if c not in reset}
        reset = reset | frontier
    return sorted(reset)


@pytest.mark.parametrize("seed", range(5))
def test_min_trim_set_matches_set_walk(seed):
    edges = small_graph(seed, n=200)
    algo = alg.sssp(source=0)
    parents = min_parents(algo.prepare(edges), batch_run(edges, algo).states, algo)
    rng = np.random.default_rng(seed)
    seeds = rng.choice(np.r_[parents.id.to_numpy(), 10**6, 0], size=3 + seed)
    got = min_trim_set(parents.sample(frac=1.0, random_state=seed), seeds)
    assert got.dtype == np.int64 and got.tolist() == _trim_set_ref(parents, seeds)
    assert len(got) > len(set(seeds.tolist()))  # the walk went below the seeds


@pytest.mark.parametrize("seed", range(5))
def test_min_revision_then_local_propagation_matches_batch(seed):
    edges = small_graph(seed)
    algo = alg.sssp(source=0)
    states = batch_run(edges, algo).states
    delta = random_edge_delta(edges, n_add=4, n_del=4, seed=seed + 100)
    new_edges = apply_delta(edges, delta)

    old_p, new_p = algo.prepare(edges), algo.prepare(new_edges)
    reset, seeds, acts = min_revision(prepared_edge_diff(old_p, new_p), old_p, new_p, states, algo)
    x = states.copy()
    x.loc[x.index.isin(set(int(r) for r in reset))] = float("inf")
    run = converge(algo.prepare(new_edges), x, seeds, algo)
    assert_states_close(run.states, batch_run(new_edges, algo).states)
    assert acts >= 0


@pytest.mark.parametrize("seed", range(5))
def test_sum_revision_then_local_propagation_matches_batch(seed):
    edges = small_graph(seed)
    algo = alg.pagerank(d=0.8, tol=1e-10)
    states = batch_run(edges, algo).states
    delta = random_edge_delta(edges, n_add=4, n_del=4, seed=seed + 200)
    new_edges = apply_delta(edges, delta)

    inj = sum_revision(algo.prepare(edges), algo.prepare(new_edges), states, algo)
    run = converge(algo.prepare(new_edges), states, inj, algo)
    assert_states_close(run.states, pagerank_reference(new_edges, 0.8), atol=1e-5, rtol=1e-4)


def test_sum_revision_empty_when_no_changes():
    edges = small_graph(1)
    algo = alg.pagerank(d=0.8)
    states = batch_run(edges, algo).states
    inj = sum_revision(algo.prepare(edges), algo.prepare(edges), states, algo)
    assert len(inj) == 0


def test_sum_revision_covers_outdegree_side_effect():
    """Adding one out-edge to u changes the prepared weight of ALL of u's
    out-edges (PageRank d/N). The diff must contain every one of them."""
    edges = pd.DataFrame(
        {"src": [0, 0, 1, 2], "dst": [1, 2, 3, 3], "w": [1.0, 1.0, 1.0, 1.0]}
    )
    algo = alg.pagerank(d=0.5)
    new_edges = apply_delta(
        edges, GraphDelta(added=pd.DataFrame({"src": [0], "dst": [3], "w": [1.0]}),
                          deleted=pd.DataFrame(columns=["src", "dst"])),
    )
    diff = prepared_edge_diff(algo.prepare(edges), algo.prepare(new_edges))
    changed_from_0 = diff[diff.src == 0]
    assert set(changed_from_0.dst) == {1, 2, 3}


def test_php_revision_roundtrip():
    edges = small_graph(2)
    algo = alg.php(source=1, d=0.7, tol=1e-10)
    states = batch_run(edges, algo).states
    delta = random_edge_delta(edges, n_add=3, n_del=3, seed=9)
    new_edges = apply_delta(edges, delta)
    inj = sum_revision(algo.prepare(edges), algo.prepare(new_edges), states, algo)
    run = converge(algo.prepare(new_edges), states, inj, algo)
    from repro.reference import php_reference

    assert_states_close(run.states, php_reference(new_edges, 1, 0.7), atol=1e-5, rtol=1e-4)


_CHAIN = pd.DataFrame({"src": [0, 1], "dst": [1, 2], "w": [1.0, 4.0]})


@pytest.mark.parametrize("dst, w, kept", [
    (2, 5.0, False),  # equal to the target's state
    (2, 5.0 - 5e-13, False),  # better by at most SEED_TOL
    (2, 4.5, True),  # better
    (3, 2.0, True),  # at an id absent from the states
])
def test_min_revision_returns_only_improving_seeds(dst, w, kept):
    """One inserted edge 0 → dst: its seed ``0 + w`` is returned only when
    it beats the target's state by more than SEED_TOL."""
    algo = alg.sssp(source=0)
    states = pd.Series({0: 0.0, 1: 1.0, 2: 5.0})
    new = pd.concat([_CHAIN, pd.DataFrame({"src": [0], "dst": [dst], "w": [w]})], ignore_index=True)
    reset, seeds, acts = min_revision(prepared_edge_diff(_CHAIN, new), _CHAIN, new, states, algo)
    assert len(reset) == 0 and acts == 1
    assert seeds.to_dict() == ({dst: w} if kept else {})
