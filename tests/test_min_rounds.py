"""Min workloads over many rounds: Ingress and Layph against the reference.

The streams are random batches: edge batches on uk_lite, and vertex batches
on wb_lite whose uniform deletions hit the source, entry vertices and
replication hosts. Every round both engines must equal Dijkstra (SSSP) or
hop BFS on the current graph, less the deleted vertices.
"""
import numpy as np
import pytest

from repro.engine import algorithms as alg
from repro.graphs.generators import dataset
from repro.graphs.updates import apply_delta, random_edge_delta, random_vertex_delta
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
