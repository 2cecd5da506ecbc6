"""Revision-message deduction (numpy, with pandas references — no Spark
needed)."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.engine.algorithms import Algorithm
from repro.engine.local import converge
from repro.graphs.generators import fig2_graph, planted_partition
from repro.graphs.schema import ranges
from repro.graphs.updates import GraphDelta, apply_delta, random_edge_delta, random_vertex_delta
from repro.incremental.revision import (
    SEED_TOL,
    dependency_parents,
    dependency_trim,
    min_revision,
    prepared_edge_diff,
    sum_injections,
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


def _parents_by_id(prepared, states, algo):
    """:func:`dependency_parents` over the sorted ids of ``prepared`` and
    ``states``, mapped back to an id -> parent id Series."""
    ids = np.unique(np.r_[prepared.src, prepared.dst, states.index].astype(np.int64))
    x = np.full(len(ids), np.inf)
    x[np.searchsorted(ids, states.index)] = states.to_numpy(float)
    roots = (np.searchsorted(ids, list(algo.roots)), np.array(list(algo.roots.values()), float))
    old = (np.searchsorted(ids, prepared.src), np.searchsorted(ids, prepared.dst),
           prepared.w.to_numpy(float))
    parent = dependency_parents(old, x, roots)
    has = parent < len(ids)
    return pd.Series(ids[parent[has]], index=pd.Index(ids[has], name="id"), name="parent")


def test_min_parents_on_fig2():
    edges, _ = fig2_graph()
    algo = alg.sssp(source=0)
    states = batch_run(edges, algo).states
    parents = _parents_by_id(algo.prepare(edges), states, algo)
    # v0 is root-supported -> no parent; everyone else has exactly one.
    assert 0 not in parents.index
    assert parents[1] == 0 and parents[3] == 0
    assert parents[2] == 1
    assert parents[4] == 3  # supported by the (v3, v4) edge of Example 3
    assert parents[5] == 4 and parents[6] == 5


def test_min_trim_set_cascades():
    # Positions 0..5; 6 is "no parent". Parents: 2 <- 1, 3 <- 2, 4 <- 2, 5 <- 4.
    parent = np.array([6, 6, 1, 2, 2, 4])
    assert np.flatnonzero(dependency_trim(parent, np.array([2]))).tolist() == [2, 3, 4, 5]


def test_min_trim_set_empty_seed():
    parent = np.array([3, 3, 1])  # 2 <- 1
    assert not dependency_trim(parent, np.array([], dtype=np.int64)).any()


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
    prepared, states = algo.prepare(edges), batch_run(edges, algo).states
    parents = _parents_by_id(prepared, states, algo).reset_index()
    # The smallest-src tie-break of the id-level pandas parents, on sorted ids.
    pd.testing.assert_frame_equal(parents, _pandas_min_parents(prepared, states, algo),
                                  check_dtype=False)
    rng = np.random.default_rng(seed)
    seeds = rng.choice(np.r_[parents.id.to_numpy(), 10**6, 0], size=3 + seed)
    ids = np.unique(np.r_[parents.id, parents.parent, seeds])
    parent = np.full(len(ids), len(ids))
    parent[np.searchsorted(ids, parents.id)] = np.searchsorted(ids, parents.parent)
    got = ids[dependency_trim(parent, np.searchsorted(ids, seeds))]
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


def _pandas_sum_injections(diff, states, algo, new_vertices=None):
    """``sum_injections`` as a pandas ``reindex``/``concat``/``groupby``,
    the formulation the array version replaced, kept as its reference."""
    dw = diff.w_new.fillna(0.0).to_numpy() - diff.w_old.fillna(0.0).to_numpy()
    mass = (states - algo.zero_state).reindex(diff.src).fillna(0.0).to_numpy()
    inj = pd.Series(mass * dw, index=diff.dst.to_numpy(np.int64))
    if new_vertices is not None and len(new_vertices):
        roots = algo.root_messages(np.asarray(new_vertices, np.int64))
        roots = roots[roots.index.isin(new_vertices)]
        inj = pd.concat([inj, roots])
    inj = inj.groupby(level=0).sum()
    zero = inj.to_numpy() == 0
    return inj[~zero] if zero.any() else inj


def _assert_sum_injections_match_pandas(diff, states, algo, new_vertices=None):
    """Same targets as the pandas reference; byte-equal deltas where a
    target adds at most 2 terms. pandas' groupby sum is Kahan-compensated
    while ``sum_injections`` adds each target's terms in turn, so with 3 or
    more terms the last bits may differ: within 1e-15 relative there.
    Returns ``(targets, deltas, terms per target)``."""
    targets, deltas = sum_injections(diff, states, algo, new_vertices=new_vertices)
    want = _pandas_sum_injections(diff, states, algo, new_vertices)
    np.testing.assert_array_equal(targets, want.index.to_numpy(np.int64))
    nv = [] if new_vertices is None else list(new_vertices)
    terms = pd.Series(np.r_[diff.dst.to_numpy(np.int64), nv]).value_counts()
    terms = terms.reindex(targets).to_numpy()
    few = terms <= 2
    assert deltas[few].tobytes() == want.to_numpy()[few].tobytes()
    np.testing.assert_allclose(deltas[~few], want.to_numpy()[~few], rtol=1e-15, atol=0)
    return targets, deltas, terms


def test_sum_injections_cases_match_pandas():
    """Hand-made PageRank diff: a deleted source's mass read from the old
    states, a source without a state, a target hit by 3 rows, an exact
    cancellation, and new vertices with root messages (one also a target)."""
    algo = alg.pagerank(d=0.85)
    states = pd.Series({0: 0.65, 1: 0.4, 2: 0.35, 3: 0.5, 5: 0.2, 10: 0.5})
    diff = pd.DataFrame({
        "src": [0, 1, 1, 2, 3, 5, 8, 10],
        "dst": [7, 7, 12, 7, 6, 4, 4, 6],
        "w_old": [0.85 / 2, np.nan, np.nan, 0.4, 0.4, 0.85, np.nan, 0.2],
        "w_new": [0.85 / 3, 0.85 / 3, 0.85 / 3, np.nan, 0.2, np.nan, 0.85, 0.4],
    })
    new = np.array([11, 12])
    targets, deltas, terms = _assert_sum_injections_match_pandas(diff, states, algo, new)
    got = dict(zip(targets.tolist(), deltas.tolist()))
    # 5 was deleted: its old mass leaves along its old edge; 8 has no state.
    assert got[4] == 0.2 * -0.85
    assert 6 not in got  # 0.5 · (0.2 − 0.4) + 0.5 · (0.4 − 0.2) = 0 exactly
    assert got[11] == algo.uniform_root and got[12] == 0.4 * 0.85 / 3 + algo.uniform_root
    assert terms[targets.tolist().index(7)] == 3
    # An empty diff gives an empty float Series, as pandas did.
    empty = pd.DataFrame({"src": [0], "dst": [7], "w": [0.5]})
    want = _pandas_sum_injections(diff.iloc[:0], states, algo)
    pd.testing.assert_series_equal(sum_revision(empty, empty, states, algo), want)


@pytest.mark.parametrize("seed", range(4))
def test_sum_injections_match_pandas_on_vertex_batches(seed):
    """Vertex batches: deleted vertices' out-edges, added vertices' roots,
    and targets that several changed edges reach."""
    edges = small_graph(seed, n=200)
    algo = alg.pagerank(d=0.85, tol=1e-10)
    states = batch_run(edges, algo).states
    delta = random_vertex_delta(edges, n_add=3, n_del=3, seed=seed + 300)
    diff = prepared_edge_diff(algo.prepare(edges), algo.prepare(apply_delta(edges, delta)))
    _, _, terms = _assert_sum_injections_match_pandas(
        diff, states, algo, delta.added_vertices
    )
    assert len(terms) and terms.max() >= 3


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


# -- the array min revision against its pandas form -------------------------
# The id-level pandas bodies the position core replaced, kept verbatim (the
# module's INF and _EPS written out) as its reference.

def _pandas_min_parents(prepared: pd.DataFrame, states: pd.Series, algo: Algorithm) -> pd.DataFrame:
    """Dependency tree: chosen parent edge per vertex (columns id, parent).

    A vertex supported by its root message has no parent and is never
    trimmed. Among in-edges achieving ``x_u + w == x_v`` the smallest src id
    is chosen (deterministic, KickStarter-style single dependency).
    """
    x_src = states.reindex(prepared.src).to_numpy()
    x_dst = states.reindex(prepared.dst).to_numpy()
    with np.errstate(invalid="ignore"):  # inf-state vertices compare to NaN
        achieves = np.abs(x_src + prepared.w.to_numpy() - x_dst) <= 1e-9
    achieves &= np.isfinite(x_dst)
    cand = prepared[achieves][["src", "dst"]]
    parents = (
        cand.groupby("dst").src.min().rename("parent").rename_axis("id").reset_index()
    )
    roots = pd.Series(algo.roots, dtype=float)
    with np.errstate(invalid="ignore"):
        held = np.abs(states.reindex(roots.index).to_numpy(float) - roots.to_numpy()) <= 1e-9
    return parents[~parents.id.isin(roots.index[held])].reset_index(drop=True)


def _pandas_min_trim_set(parents: pd.DataFrame, seeds: np.ndarray) -> np.ndarray:
    """All dependency-tree descendants of ``seeds`` (inclusive), ascending.

    A frontier walk over the parent edges sorted by parent: each level's
    children are the runs of its vertices, found by ``searchsorted``.
    """
    seeds = np.asarray(seeds, np.int64)
    par, child = parents.parent.to_numpy(np.int64), parents.id.to_numpy(np.int64)
    ids = np.unique(np.concatenate([par, child, seeds]))
    o = np.argsort(par, kind="stable")
    child = np.searchsorted(ids, child[o])  # as positions in ids
    # The children of ids[i] are child[start[i]:end[i]].
    start, end = np.searchsorted(par[o], ids), np.searchsorted(par[o], ids, side="right")
    seen = np.zeros(len(ids), bool)
    frontier = np.searchsorted(ids, seeds)
    seen[frontier] = True
    while len(frontier):
        kids = child[ranges(start[frontier], end[frontier] - start[frontier])]
        frontier = kids[~seen[kids]]
        seen[frontier] = True
    return ids[seen]


def _pandas_min_revision(
    diff: pd.DataFrame,
    old_prepared: pd.DataFrame,
    new_prepared: pd.DataFrame,
    states: pd.Series,
    algo: Algorithm,
    *,
    extra_seeds: np.ndarray | None = None,
) -> tuple[np.ndarray, pd.Series, int]:
    """Trim set + re-relaxation seed messages + activation count.

    ``diff`` is the :func:`prepared_edge_diff` of ``old_prepared`` and
    ``new_prepared``, which the caller takes from the rows it knows changed.
    Returns ``(reset_ids, seed_messages, activations)``. Seed messages are
    min-aggregated candidates ``x_u + w`` over new-graph edges from intact
    vertices into the reset region, plus candidates along inserted /
    lowered edges (weights read from ``diff.w_new``), plus root messages of
    reset roots. Each candidate evaluation is one F application and is
    counted. Only the seeds that beat their target's revised state (+inf
    for a reset id and for an id outside ``states``) by more than
    :data:`SEED_TOL` are returned: any other seed changes no state.
    """
    # Edge deleted or weight increased -> the old support may be invalid.
    worse = diff[diff.w_new.isna() | (diff.w_new > diff.w_old)]
    parents = _pandas_min_parents(old_prepared, states, algo)
    dep = worse.merge(parents, left_on=["src", "dst"], right_on=["parent", "id"])
    seeds = dep.dst.unique().astype(np.int64)
    if extra_seeds is not None and len(extra_seeds):
        # Conservative extra invalidation roots (e.g. vertices whose layered
        # role changed so their old supports are no longer represented).
        seeds = np.union1d(seeds, np.asarray(extra_seeds, np.int64))
    reset = _pandas_min_trim_set(parents, seeds) if len(seeds) else np.empty(0, np.int64)
    reset_set = set(int(r) for r in reset)

    x = states.copy()
    x.loc[x.index.isin(reset_set)] = np.inf

    # Support edges from intact vertices into the reset region.
    into = new_prepared[
        new_prepared.dst.isin(reset_set) & ~new_prepared.src.isin(reset_set)
    ]
    # Edge inserted or weight lowered anywhere (improvement candidates).
    better = diff[diff.w_old.isna() | (diff.w_new < diff.w_old)]
    low = better[~better.src.isin(reset_set)]
    cand = pd.concat(
        [into, pd.DataFrame({"src": low.src, "dst": low.dst, "w": low.w_new})],
        ignore_index=True,
    )
    acts = len(cand)
    m = (x.reindex(cand.src).to_numpy() + cand.w.to_numpy())
    seed_msgs = pd.Series(m, index=cand.dst.to_numpy(np.int64))
    seed_msgs = seed_msgs[np.isfinite(seed_msgs.to_numpy())]
    root_rows = pd.Series(
        {v: m0 for v, m0 in algo.roots.items() if v in reset_set}, dtype=float
    )
    seed_msgs = pd.concat([seed_msgs, root_rows])
    seed_msgs = seed_msgs.groupby(level=0).min()
    target = x.reindex(seed_msgs.index, fill_value=np.inf).to_numpy(float)
    return reset, seed_msgs[seed_msgs.to_numpy() < target - SEED_TOL], acts


def _assert_min_revision_matches_pandas(diff, old, new, states, algo, extra_seeds=None):
    """Equal reset ids, byte-equal seed ids and values, equal activations.
    Returns the array version's result."""
    got = min_revision(diff, old, new, states, algo, extra_seeds=extra_seeds)
    want = _pandas_min_revision(diff, old, new, states, algo, extra_seeds=extra_seeds)
    assert got[0].dtype == np.int64 and got[0].tolist() == want[0].tolist()
    assert got[1].index.to_numpy().tobytes() == want[1].index.to_numpy(np.int64).tobytes()
    assert got[1].to_numpy().tobytes() == want[1].to_numpy(float).tobytes()
    assert got[2] == want[2]
    return got


@pytest.mark.parametrize("kind", ["edges", "vertices"])
@pytest.mark.parametrize("seed", range(5))
def test_min_revision_matches_pandas_on_planted_graphs(seed, kind):
    """SSSP and BFS on planted graphs under random edge and vertex deltas:
    deleted vertices keep their old states, added ones have none."""
    edges = small_graph(seed, n=200)
    if kind == "edges":
        delta = random_edge_delta(edges, n_add=8, n_del=8, seed=seed + 400)
    else:
        delta = random_vertex_delta(edges, n_add=4, n_del=4, seed=seed + 500)
    new_edges = apply_delta(edges, delta)
    trimmed = seeded = 0
    for algo in (alg.sssp(source=0), alg.bfs(source=0)):
        old_p, new_p = algo.prepare(edges), algo.prepare(new_edges)
        states = batch_run(edges, algo).states
        reset, seeds, _ = _assert_min_revision_matches_pandas(
            prepared_edge_diff(old_p, new_p), old_p, new_p, states, algo
        )
        trimmed, seeded = trimmed + len(reset), seeded + len(seeds)
    assert trimmed and seeded  # the delta cut a tree edge and re-seeded


# Ids 0, 5, 7, 9: 9 is reached at 2.0 through 5 and through 7.
_DIAMOND = pd.DataFrame({"src": [0, 0, 5, 7], "dst": [5, 7, 9, 9], "w": [1.0, 1.0, 1.0, 1.0]})
_DIAMOND_STATES = pd.Series({0: 0.0, 5: 1.0, 7: 1.0, 9: 2.0})


def _without(edges, src, dst):
    return edges[~((edges.src == src) & (edges.dst == dst))].reset_index(drop=True)


@pytest.mark.parametrize("cut, reset, seeds", [
    ((5, 9), [9], {9: 2.0}),  # the parent edge: 9 re-seeded from 7
    ((7, 9), [], {}),  # the other achieving edge: 9 keeps its parent 5
])
def test_min_revision_tie_break_matches_pandas(cut, reset, seeds):
    algo = alg.sssp(source=0)
    new = _without(_DIAMOND, *cut)
    got = _assert_min_revision_matches_pandas(
        prepared_edge_diff(_DIAMOND, new), _DIAMOND, new, _DIAMOND_STATES, algo
    )
    assert got[0].tolist() == reset and got[1].to_dict() == seeds


def test_min_revision_roots_match_pandas():
    """A root held at its root value has no parent, even along a 0-weight
    cycle back to it; a root whose state an edge supports below its root
    value is trimmed with that edge and re-seeded at its value."""
    edges = pd.DataFrame({"src": [0, 1, 1, 2], "dst": [1, 0, 2, 3], "w": [0.0, 0.0, 1.0, 1.0]})
    states = pd.Series({0: 0.0, 1: 0.0, 2: 1.0, 3: 2.0})
    algo = replace(alg.sssp(source=0), roots={0: 0.0, 3: 2.5})
    # Held: deleting the cycle edge into root 0 trims nothing.
    new = _without(edges, 1, 0)
    got = _assert_min_revision_matches_pandas(
        prepared_edge_diff(edges, new), edges, new, states, algo
    )
    assert len(got[0]) == 0 and len(got[1]) == 0
    # Reset: root 3 (state 2.0 through 2, root value 2.5) loses its parent edge.
    new = _without(edges, 2, 3)
    got = _assert_min_revision_matches_pandas(
        prepared_edge_diff(edges, new), edges, new, states, algo
    )
    assert got[0].tolist() == [3] and got[1].to_dict() == {3: 2.5}


def test_min_revision_extra_seeds_match_pandas():
    """Extra seeds trim their subtrees without any changed edge; one is an
    id without a state, and one is the held root, re-seeded at 0."""
    algo = alg.sssp(source=0)
    for extra in ([5], [5, 42], [0]):
        got = _assert_min_revision_matches_pandas(
            prepared_edge_diff(_DIAMOND, _DIAMOND), _DIAMOND, _DIAMOND, _DIAMOND_STATES, algo,
            extra_seeds=np.array(extra),
        )
        assert set(extra) <= set(got[0].tolist())
    assert got[0].tolist() == [0, 5, 7, 9] and got[1].to_dict() == {0: 0.0}


def test_min_revision_inserted_edge_to_an_absent_id_matches_pandas():
    algo = alg.sssp(source=0)
    new = pd.concat([_DIAMOND, pd.DataFrame({"src": [7], "dst": [50], "w": [3.0]})],
                    ignore_index=True)
    got = _assert_min_revision_matches_pandas(
        prepared_edge_diff(_DIAMOND, new), _DIAMOND, new, _DIAMOND_STATES, algo
    )
    assert len(got[0]) == 0 and got[1].to_dict() == {50: 4.0} and got[2] == 1


def test_min_revision_empty_diff_matches_pandas():
    algo = alg.sssp(source=0)
    diff = prepared_edge_diff(_DIAMOND, _DIAMOND)
    assert len(diff) == 0
    got = _assert_min_revision_matches_pandas(diff, _DIAMOND, _DIAMOND, _DIAMOND_STATES, algo)
    assert len(got[0]) == 0 and len(got[1]) == 0 and got[2] == 0
