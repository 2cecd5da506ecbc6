"""ΔG generation and application (pure pandas)."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.generators import dataset
from repro.graphs.schema import canonical_edges, pair_order, source_rows, splice_runs, vertex_ids
from repro.graphs.updates import (
    GraphDelta,
    apply_delta,
    random_edge_delta,
    random_vertex_delta,
)


@pytest.fixture()
def edges():
    e, _ = dataset("uk_lite", sf=0.003, seed=0)
    return e


def test_apply_delta_add_and_delete(edges):
    delta = random_edge_delta(edges, n_add=10, n_del=10, seed=1)
    new = apply_delta(edges, delta)
    assert len(new) == len(edges)  # +10 -10
    new_pairs = set(zip(new.src, new.dst))
    for r in delta.added.itertuples():
        assert (r.src, r.dst) in new_pairs
    for r in delta.deleted.itertuples():
        assert (r.src, r.dst) not in new_pairs


def test_apply_delta_weight_change_semantics(edges):
    """delete+add of the same pair == weight update."""
    row = edges.iloc[0]
    delta = GraphDelta(
        added=pd.DataFrame({"src": [row.src], "dst": [row.dst], "w": [99.0]}),
        deleted=pd.DataFrame({"src": [row.src], "dst": [row.dst]}),
    )
    new = apply_delta(edges, delta)
    got = new[(new.src == row.src) & (new.dst == row.dst)]
    assert len(got) == 1 and got.iloc[0].w == 99.0
    assert len(new) == len(edges)


@pytest.mark.parametrize("seed", range(5))
def test_random_edge_delta_is_valid(edges, seed):
    delta = random_edge_delta(edges, n_add=20, n_del=20, seed=seed)
    assert len(delta.added) == 20 and len(delta.deleted) == 20
    existing = set(zip(edges.src, edges.dst))
    for r in delta.added.itertuples():
        assert (r.src, r.dst) not in existing  # truly new
        assert r.src != r.dst
    for r in delta.deleted.itertuples():
        assert (r.src, r.dst) in existing  # truly existing
    # deletions are unique
    assert not delta.deleted.duplicated(["src", "dst"]).any()


def test_random_edge_delta_deterministic(edges):
    d1 = random_edge_delta(edges, n_add=5, n_del=5, seed=7)
    d2 = random_edge_delta(edges, n_add=5, n_del=5, seed=7)
    pd.testing.assert_frame_equal(d1.added, d2.added)
    pd.testing.assert_frame_equal(d1.deleted, d2.deleted)


def test_random_vertex_delta_removes_all_incident_edges(edges):
    delta = random_vertex_delta(edges, n_add=2, n_del=3, seed=3)
    new = apply_delta(edges, delta)
    for v in delta.deleted_vertices:
        assert not ((new.src == v) | (new.dst == v)).any()
    for v in delta.added_vertices:
        assert ((new.src == v) | (new.dst == v)).any()
    assert delta.size == len(delta.added) + len(delta.deleted)


def test_canonical_edges_drops_self_loops_and_dups():
    pdf = pd.DataFrame(
        {"src": [1, 1, 2, 3], "dst": [1, 2, 3, 4], "w": [5.0, 1.0, 2.0, 3.0]}
    )
    out = canonical_edges(pd.concat([pdf, pdf.assign(w=9.0)]))
    assert len(out) == 3  # self loop dropped, dups deduped
    assert (out.w == 9.0).all()  # keep-last semantics


def test_vertex_ids_sorted_unique(edges):
    ids = vertex_ids(edges)
    assert (np.diff(ids) > 0).all()


def _pairs(src, dst, w=None):
    f = pd.DataFrame({"src": np.asarray(src, np.int64), "dst": np.asarray(dst, np.int64)})
    return f if w is None else f.assign(w=np.asarray(w, float))


def test_delta_rejects_a_pair_added_twice():
    with pytest.raises(ValueError, match="added lists"):
        GraphDelta(added=_pairs([1, 1], [2, 2], [1.0, 2.0]), deleted=_pairs([], []))


def test_delta_rejects_a_pair_deleted_twice():
    with pytest.raises(ValueError, match="deleted lists"):
        GraphDelta(added=_pairs([], [], []), deleted=_pairs([3, 3], [4, 4]))


def test_delta_rejects_an_added_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        GraphDelta(added=_pairs([5], [5], [1.0]), deleted=_pairs([], []))


def test_delta_rejects_an_added_edge_at_a_deleted_vertex():
    with pytest.raises(ValueError, match="deleted vertex"):
        GraphDelta(added=_pairs([1], [9], [1.0]), deleted=_pairs([], []),
                   deleted_vertices=np.array([9]))


def test_apply_delta_rejects_a_deleted_vertex_that_keeps_an_edge(edges):
    v = int(np.intersect1d(edges.src, edges.dst)[0])
    out_edges = edges[edges.src == v][["src", "dst"]].reset_index(drop=True)
    delta = GraphDelta(added=_pairs([], [], []), deleted=out_edges,
                       deleted_vertices=np.array([v]))
    with pytest.raises(ValueError, match="keeps an edge"):  # its in-edges stay
        apply_delta(edges, delta)
    full = edges[(edges.src == v) | (edges.dst == v)][["src", "dst"]].reset_index(drop=True)
    new = apply_delta(edges, GraphDelta(added=_pairs([], [], []), deleted=full,
                                        deleted_vertices=np.array([v])))
    assert not ((new.src == v) | (new.dst == v)).any()


@pytest.mark.parametrize("seed", range(3))
def test_apply_delta_equals_the_full_rebuild(edges, seed):
    """Rewriting only the touched sources' runs equals rebuilding the whole
    table, including an existing pair re-added and an absent pair deleted."""
    delta = random_edge_delta(edges, n_add=15, n_del=15, seed=seed)
    row = edges.iloc[seed * 7]
    added = pd.concat([delta.added, _pairs([row.src], [row.dst], [row.w + 1.0])])
    deleted = pd.concat([delta.deleted, _pairs([row.src], [10**6])])
    delta = GraphDelta(added=added.reset_index(drop=True), deleted=deleted.reset_index(drop=True))
    key = edges.src.to_numpy() * (2**32) + edges.dst.to_numpy()
    gone = deleted.src.to_numpy() * (2**32) + deleted.dst.to_numpy()
    want = canonical_edges(pd.concat([edges[~np.isin(key, gone)], added], ignore_index=True))
    pd.testing.assert_frame_equal(apply_delta(edges, delta), want)


#: A (src, dst)-sorted table whose runs are sources 2, 4, 5 and 7.
_RUNS = (np.array([2, 2, 4, 5, 5, 7]), np.array([1, 3, 0, 2, 6, 1]), np.arange(6.0))


@pytest.mark.parametrize("table, drop, new", [
    pytest.param((np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)), [],
                 ([3, 3, 8], [0, 4, 1], [10.0, 11.0, 12.0]), id="empty-table"),
    pytest.param(_RUNS, [2, 4, 5, 7], ([4, 6], [9, 0], [10.0, 11.0]), id="every-row-removed"),
    pytest.param(_RUNS, [4], ([0, 1, 4], [5, 2, 3], [10.0, 11.0, 12.0]),
                 id="new-source-before-the-first-run"),
    pytest.param(_RUNS, [5], ([5, 9, 9], [1, 0, 3], [10.0, 11.0, 12.0]),
                 id="new-source-after-the-last-run"),
    pytest.param(_RUNS, [2, 5], ([5], [4], [10.0]), id="touched-source-without-new-rows"),
])
def test_splice_runs_equals_the_sorted_union(table, drop, new):
    """Dropping the runs of ``drop`` and splicing in ``new`` gives the rows
    left plus the new rows, in (src, dst) order, each column moved with its
    row."""
    new = tuple(np.asarray(c, t) for c, t in zip(new, (np.int64, np.int64, float)))
    rows = source_rows(table[0], np.array(drop, np.int64))
    got = splice_runs(table, rows, new)
    left = np.ones(len(table[0]), bool)
    left[rows] = False
    union = [np.concatenate([c[left], n]) for c, n in zip(table, new)]
    o = pair_order(union[0], union[1])
    for g, want in zip(got, union):
        np.testing.assert_array_equal(g, want[o])
