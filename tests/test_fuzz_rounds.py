"""Multi-round differential fuzz: Layph and Ingress against the reference.

Small random graphs (8–40 vertices) with random memberships, some vertices
in singleton groups and some in none, run 3–4 rounds of mixed ΔG: edge
inserts (also re-linking ids the graph held before, orphaned or deleted),
deletes and weight changes, vertex adds and deletes (the source among the
candidates), an empty ΔG, and the source deleted or re-added. Every round
both engines must equal ``repro.reference`` on G ⊕ ΔG on all four
algorithms, the source included in every round but the one that deletes
it, less the other vertices deleted and not back (as ``perfbench/checks.py``
leaves them out): min exactly (1e-9), sum within a max abs error of 1e-6 at
tol 1e-10.
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import algorithms as alg
from repro.engine.batch import run_batch
from repro.graphs.schema import canonical_edges, vertex_ids
from repro.graphs.updates import GraphDelta, apply_delta
from repro.incremental.ingress import ingress_incremental
from repro.layph.engine import LayphEngine
from repro.reference import (
    assert_states_close, bfs_reference, pagerank_reference, php_reference, sssp_reference,
)

D, TOL = 0.85, 1e-10
SOURCE = 0
ALGOS = {
    "sssp": (lambda: alg.sssp(source=SOURCE), lambda e: sssp_reference(e, SOURCE)),
    "bfs": (lambda: alg.bfs(source=SOURCE), lambda e: bfs_reference(e, SOURCE)),
    "pagerank": (lambda: alg.pagerank(d=D, tol=TOL), lambda e: pagerank_reference(e, D)),
    "php": (lambda: alg.php(source=SOURCE, d=D, tol=TOL), lambda e: php_reference(e, SOURCE, D)),
}
KINDS = ["edges", "vertices", "empty", "source"]
#: Every loop runs in the driver at this size; any use of Spark would fail.
NO_SPARK = None
NO_EDGES = pd.DataFrame({"src": np.empty(0, np.int64), "dst": np.empty(0, np.int64),
                         "w": np.empty(0)})


def _weights(rng, n):
    return rng.uniform(1.0, 10.0, n).round(3)


def _graph(rng):
    """Edges over ids ``0..n-1``, dense inside groups, and the membership
    of the endpoints that belong to a group."""
    n, k = int(rng.integers(8, 41)), int(rng.integers(1, 5))
    group = rng.integers(-1, k, n)  # -1: in no group
    single = rng.random(n) < 0.15
    sub = np.where(single, k + np.arange(n), group)
    u, v = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    same = (sub[u] == sub[v]) & (sub[u] >= 0)
    pick = (u != v) & (rng.random((n, n)) < np.where(same, 0.5, 0.06))
    edges = canonical_edges(pd.DataFrame(
        {"src": u[pick], "dst": v[pick], "w": _weights(rng, int(pick.sum()))}))
    ids = vertex_ids(edges)
    keep = np.isin(np.arange(n), ids) & (sub >= 0)
    return edges, pd.DataFrame({"id": np.flatnonzero(keep), "sub": sub[keep]})


def _delta(rng, kind, cur, next_id, source_out, seen):
    """One ΔG of ``kind`` on the current graph ``cur``; ``seen`` holds every
    id the graph has held."""
    ids = vertex_ids(cur)
    src, dst = cur.src.to_numpy(), cur.dst.to_numpy()
    if kind == "empty":
        return GraphDelta(added=NO_EDGES, deleted=NO_EDGES[["src", "dst"]])
    if kind == "source" and source_out is not None:  # re-add it with its old out-edges
        outs = source_out[source_out.dst.isin(ids)]
        return GraphDelta(added=outs, deleted=NO_EDGES[["src", "dst"]],
                          added_vertices=np.array([SOURCE]))
    if kind in ("source", "vertices"):
        gone = np.array([SOURCE]) if kind == "source" else rng.choice(
            ids, min(len(ids) // 4, int(rng.integers(1, 3))), replace=False)
        hit = np.isin(src, gone) | np.isin(dst, gone)
        live = ids[~np.isin(ids, gone)]
        new = np.arange(next_id, next_id + (int(rng.integers(0, 3)) if kind == "vertices" else 0))
        a_src, a_dst = [], []
        for v in new:
            outs = rng.choice(live, int(rng.integers(0, 4)))
            ins = rng.choice(live, int(rng.integers(0, 4)))
            a_src += [v] * len(outs) + list(ins)
            a_dst += list(outs) + [v] * len(ins)
        added = pd.DataFrame({"src": np.array(a_src, np.int64), "dst": np.array(a_dst, np.int64)})
        added = added.drop_duplicates().assign(w=lambda f: _weights(rng, len(f)))
        return GraphDelta(added=added, deleted=cur.loc[hit, ["src", "dst"]],
                          added_vertices=new, deleted_vertices=np.asarray(gone, np.int64))
    # Edge inserts between current vertices and ones the graph held before
    # (orphaned or deleted, re-linked without a vertex update), deletes and
    # weight changes.
    n_del = min(len(cur) // 3, int(rng.integers(0, 4)))
    n_changed = min(len(cur) - n_del, int(rng.integers(0, 3)))
    rows = rng.choice(len(cur), n_del + n_changed, replace=False)
    changed = cur.iloc[rows[n_del:]][["src", "dst"]].assign(w=lambda f: _weights(rng, len(f)))
    have = set(zip(src.tolist(), dst.tolist()))
    pool = np.array(sorted(seen), np.int64)
    pairs = {(int(a), int(b)) for a, b in rng.choice(pool, (int(rng.integers(0, 5)), 2))}
    pairs = sorted(p for p in pairs if p[0] != p[1] and p not in have)
    fresh = pd.DataFrame(pairs, columns=["src", "dst"], dtype=np.int64)
    return GraphDelta(
        added=pd.concat([changed, fresh.assign(w=_weights(rng, len(fresh)))], ignore_index=True),
        deleted=cur.iloc[rows][["src", "dst"]],
    )


@pytest.mark.parametrize("name", sorted(ALGOS))
@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(KINDS), min_size=3, max_size=4),
)
def test_layph_and_ingress_equal_the_reference_every_round(name, seed, kinds):
    make, reference = ALGOS[name]
    algo = make()
    atol = 1e-9 if algo.is_min else 1e-6
    rng = np.random.default_rng(seed)
    edges, membership = _graph(rng)
    eng = LayphEngine(NO_SPARK, edges, algo, membership=membership).initialize()
    x, _ = run_batch(NO_SPARK, edges, algo)
    cur, dead, next_id, source_out = edges, set(), int(vertex_ids(edges).max()) + 1, None
    seen = set(vertex_ids(edges).tolist())
    for r, kind in enumerate(kinds):
        delta = _delta(rng, kind, cur, next_id, source_out, seen)
        if SOURCE in delta.deleted_vertices:
            source_out = cur.loc[cur.src == SOURCE, ["src", "dst", "w"]]
        elif SOURCE in delta.added_vertices:
            source_out = None
        next_id += len(delta.added_vertices)
        got, _ = eng.run_delta(delta)
        x, _ = ingress_incremental(NO_SPARK, cur, delta, x, algo)
        cur = apply_delta(cur, delta)
        now = set(vertex_ids(cur).tolist())
        seen |= now
        dead = (dead | set(delta.deleted_vertices.tolist())) - set(delta.added_vertices.tolist())
        rooted = algo.source is not None
        dead -= now | ({SOURCE} if rooted else set())  # back, or the source: checked
        want = reference(cur)
        want = want[~want.index.isin(list(dead))]
        # The round that deletes the source leaves it out of the vertex set
        # (``new_vertex_universe``'s rule); every later round brings it back.
        gone = rooted and SOURCE in delta.deleted_vertices
        if gone:
            want = want.drop(SOURCE)
        for engine, states in (("layph", got), ("ingress", x)):
            try:
                assert not rooted or (SOURCE in states.index) != gone
                assert_states_close(states, want, atol=atol, rtol=0)
            except AssertionError as e:
                raise AssertionError(f"{engine}, round {r} ({kind}): {e}") from None


def test_a_vertex_whose_only_edge_enters_the_php_source_keeps_its_state():
    """Preparing PHP drops the edges into its source. Vertex 3's only edge
    is one, yet 3 stays in Layph's vertex set, at 0, offline and after a
    round, as in Ingress and the reference."""
    edges = canonical_edges(pd.DataFrame(
        {"src": [0, 1, 2, 3], "dst": [1, 2, 1, 0], "w": [1.0, 2.0, 3.0, 4.0]}))
    make, reference = ALGOS["php"]
    algo = make()
    eng = LayphEngine(NO_SPARK, edges, algo, membership=pd.DataFrame({"id": [1, 2], "sub": 0}))
    x, _ = run_batch(NO_SPARK, edges, algo)
    assert_states_close(eng.initialize().states(), reference(edges), atol=1e-6, rtol=0)
    empty = GraphDelta(added=NO_EDGES, deleted=NO_EDGES[["src", "dst"]])
    got, _ = eng.run_delta(empty)
    x, _ = ingress_incremental(NO_SPARK, edges, empty, x, algo)
    assert got[3] == x[3] == 0.0
    assert_states_close(got, reference(edges), atol=1e-6, rtol=0)
