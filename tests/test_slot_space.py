"""Rounds on the slot space Layph keeps across rounds.

A sum round places ΔG by one slot lookup and reads every table by slot, so
the ids it looks up follow ΔG, not the graph. And a vertex that comes back
into a sum round's vertex set without an old state, after it lost all its
edges or was deleted, gets its root message in Layph and in Ingress alike.
"""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.engine.batch import run_batch
from repro.graphs.generators import dataset
from repro.graphs.updates import GraphDelta, apply_delta, random_edge_delta
from repro.incremental.ingress import ingress_incremental
from repro.layph import slots
from repro.layph.engine import LayphEngine
from repro.reference import assert_states_close, pagerank_reference, php_reference

NO_EDGES = pd.DataFrame({"src": np.empty(0, np.int64), "dst": np.empty(0, np.int64),
                         "w": np.empty(0)})


def _edges_only(added=NO_EDGES, deleted=NO_EDGES):
    return GraphDelta(added=added.reset_index(drop=True),
                      deleted=deleted[["src", "dst"]].reset_index(drop=True))


def _orphan_then_relink(edges, v):
    """ΔG 1 deletes every edge of ``v`` (``v`` is not deleted); ΔG 2 puts
    back one edge into it and one out of it."""
    inc = edges[(edges.src == v) | (edges.dst == v)]
    back = pd.concat([inc[inc.dst == v].iloc[:1], inc[inc.src == v].iloc[:1]])
    return [_edges_only(deleted=inc), _edges_only(added=back)]


def _source_deleted_then_edges(edges, source):
    """ΔG 1 deletes the source with its edges; ΔG 2 is a random edge batch,
    which brings the source back into the vertex set without a ΔG entry."""
    inc = edges[(edges.src == source) | (edges.dst == source)]
    gone = GraphDelta(added=NO_EDGES, deleted=inc[["src", "dst"]].reset_index(drop=True),
                      deleted_vertices=np.array([source]))
    return [gone, random_edge_delta(apply_delta(edges, gone), n_add=6, n_del=6, seed=3)]


@pytest.mark.parametrize("engine", ["layph", "ingress"])
@pytest.mark.parametrize("name", ["pagerank", "php"])
def test_a_vertex_back_in_the_vertex_set_gets_its_root_message(no_spark, name, engine):
    edges, membership = dataset("uk_lite", sf=0.003, seed=0)
    if name == "pagerank":
        algo = alg.pagerank(d=0.85, tol=1e-10)
        # A member, so Layph's upload carries its root message.
        v = int(np.intersect1d(membership.id, edges.src)[3])
        deltas, reference, check = _orphan_then_relink(edges, v), pagerank_reference, v
    else:
        algo = alg.php(source=0, d=0.85, tol=1e-10)
        deltas, check = _source_deleted_then_edges(edges, 0), 0
        reference = lambda e, d: php_reference(e, 0, d)  # noqa: E731
    if engine == "layph":
        eng = LayphEngine(no_spark, edges, algo, membership=membership).initialize()
    else:
        x, _ = run_batch(no_spark, edges, algo)
    cur = edges
    for r, delta in enumerate(deltas):
        if engine == "layph":
            got, _ = eng.run_delta(delta)
        else:
            x, _ = ingress_incremental(no_spark, cur, delta, x, algo)
            got = x
        cur = apply_delta(cur, delta)
        want = reference(cur, algo.damping)
        if r == 0:  # out of the vertex set
            assert check not in got.index
            continue
        assert got[check] > 0.1  # 1 − d for PageRank's vertex, 1 for the PHP source
        assert_states_close(got, want, atol=1e-6, rtol=0)


def test_a_sum_round_looks_up_ids_in_proportion_to_the_delta(no_spark, monkeypatch):
    """A sum round looks up no id by hash, and by slot only ΔG's vertices,
    the touched sources and their new out-edge runs (about seven edges a
    source on uk_lite): far below the table's size."""
    edges, membership = dataset("uk_lite", sf=0.01, seed=0)
    eng = LayphEngine(no_spark, edges, alg.pagerank(d=0.85, tol=1e-4),
                      membership=membership).initialize()
    looked_up = []
    real_get_indexer, real_find = pd.Index.get_indexer, slots.Slots.find

    def get_indexer(self, target, *a, **kw):
        looked_up.append(("hash", len(target)))
        return real_get_indexer(self, target, *a, **kw)

    def find(self, v):
        looked_up.append(("slot", len(v)))
        return real_find(self, v)

    monkeypatch.setattr(pd.Index, "get_indexer", get_indexer)
    monkeypatch.setattr(slots.Slots, "find", find)
    cur = edges
    for r in range(5):
        delta = random_edge_delta(cur, n_add=6, n_del=6, seed=80 + r)
        looked_up.clear()
        eng.run_delta(delta)
        cur = apply_delta(cur, delta)
        assert [kind for kind, _ in looked_up] == ["slot"], r
        n = sum(k for _, k in looked_up)
        assert 0 < n <= 16 * delta.size, (r, n, delta.size)
        assert n < 0.02 * len(eng.lg.src)
