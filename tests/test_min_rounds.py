"""Min workloads over many rounds: Ingress and Layph against the reference.

The streams are random batches: edge batches on uk_lite, and vertex batches
on wb_lite whose uniform deletions hit the source, entry vertices and
replication hosts. Every round both engines must equal Dijkstra (SSSP) or
hop BFS on the current graph, less the deleted vertices. A source that ΔG
deletes and brings back must take its root value again.
"""
import numpy as np
import pytest

from repro.engine import algorithms as alg
from repro.graphs.generators import dataset
from repro.graphs.updates import GraphDelta, apply_delta, random_edge_delta, random_vertex_delta
from repro.incremental.baselines import kickstarter
from repro.incremental.ingress import ingress_incremental
from repro.layph.engine import LayphEngine
from repro.reference import assert_states_close, bfs_reference, sssp_reference

ROUNDS = 8
REFERENCE = {"sssp": sssp_reference, "bfs": bfs_reference}


def _batch(kind, cur, seed):
    if kind == "edges":
        n = max(5, len(cur) // 2000)
        return random_edge_delta(cur, n_add=n, n_del=n, seed=seed)
    return random_vertex_delta(cur, n_add=3, n_del=20, seed=seed)


def _check(got, want, dead):
    want = want[~want.index.isin(list(dead))]
    assert_states_close(got[got.index.isin(want.index)], want, atol=1e-9, rtol=0)


@pytest.mark.parametrize("name", sorted(REFERENCE))
@pytest.mark.parametrize("ds, kind, sf", [("uk_lite", "edges", 0.01), ("wb_lite", "vertices", 0.002)])
def test_min_rounds_match_the_reference(no_spark, ds, kind, sf, name):
    edges, membership = dataset(ds, sf=sf, seed=0)
    algo = alg.sssp(source=0) if name == "sssp" else alg.bfs(source=0)
    ref = REFERENCE[name]
    eng = LayphEngine(no_spark, edges, algo, membership=membership).initialize()
    cur, x, dead, hit = edges, ref(edges, 0), set(), set()
    for r in range(ROUNDS):
        delta = _batch(kind, cur, r)
        for role, ids in (("source", [0]), ("entry", eng.lg.entry_ids),
                          ("host", eng.lg.proxies.host)):
            if np.isin(delta.deleted_vertices, ids).any():
                hit.add(role)
        x, _ = ingress_incremental(no_spark, cur, delta, x, algo)
        got, _ = eng.run_delta(delta)
        cur = apply_delta(cur, delta)
        dead |= set(delta.deleted_vertices.tolist())
        want = ref(cur, 0)
        _check(x, want, dead)
        _check(got, want, dead)
    if kind == "vertices":
        assert hit == {"source", "entry", "host"}


def _source_deleted(edges):
    """ΔG deleting vertex 0 with every incident edge, and the ΔG that
    re-adds it with its old out-edges."""
    gone = edges[(edges.src == 0) | (edges.dst == 0)]
    outs = edges[edges.src == 0]
    none = edges.iloc[:0]
    return (
        GraphDelta(added=none[["src", "dst", "w"]], deleted=gone[["src", "dst"]],
                   deleted_vertices=np.array([0])),
        GraphDelta(added=outs[["src", "dst", "w"]], deleted=none[["src", "dst"]],
                   added_vertices=np.array([0])),
    )


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_a_re_added_source_is_seeded(no_spark, name):
    """Round 1 deletes the source, round 2 re-adds it: every engine equals
    the reference each round, and no state stays +inf after round 2."""
    edges, membership = dataset("uk_lite", sf=0.003, seed=0)
    algo = alg.sssp(source=0) if name == "sssp" else alg.bfs(source=0)
    ref = REFERENCE[name]
    eng = LayphEngine(no_spark, edges, algo, membership=membership).initialize()
    cur, x_in, x_ks = edges, ref(edges, 0), ref(edges, 0)
    for r, delta in enumerate(_source_deleted(edges)):
        got, _ = eng.run_delta(delta)
        x_in, _ = ingress_incremental(no_spark, cur, delta, x_in, algo)
        x_ks, _ = kickstarter(no_spark, cur, delta, x_ks, algo)
        cur = apply_delta(cur, delta)
        want = ref(cur, 0)
        dead = {0} if r == 0 else set()
        for x in (got, x_in, x_ks):
            _check(x, want, dead)
    assert np.isfinite(want).all() and len(got) == len(want)


def test_a_deleted_source_comes_back_isolated_at_its_root(no_spark):
    """The round after ΔG deleted the source, the source is back in the
    vertex set, isolated: Layph and Ingress both hold it at its root value,
    with states equal byte for byte."""
    edges, membership = dataset("uk_lite", sf=0.003, seed=0)
    algo = alg.sssp(source=0)
    eng = LayphEngine(no_spark, edges, algo, membership=membership).initialize()
    delete, _ = _source_deleted(edges)
    x = sssp_reference(edges, 0)
    cur = edges
    for delta in (delete, None):
        delta = delta or random_edge_delta(cur, n_add=5, n_del=5, seed=7)
        got, _ = eng.run_delta(delta)
        x, _ = ingress_incremental(no_spark, cur, delta, x, algo)
        cur = apply_delta(cur, delta)
    assert got[0] == x[0] == 0.0
    assert got.index.equals(x.index) and got.to_numpy().tobytes() == x.to_numpy().tobytes()
