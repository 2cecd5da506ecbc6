"""Ingress deduces its revision from the runs of the sources ΔG names.

The reference below is the whole-graph path that the run diff replaced:
prepare the whole old and new graph, diff them, deduce the revision,
propagate. Over a mixed schedule of rounds, ``ingress_incremental`` must
give the same states, activations, supersteps, reset sets and seeds, diff
no more rows than the old and new runs of ``GraphDelta.sources()`` hold,
and never sort a canonical frame in pandas. ``canonical_edges``' early
return on canonical input must equal its pandas path.
"""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.engine.batch import superstep_loop
from repro.experiments.common import batch_states
from repro.graphs.generators import dataset, planted_partition
from repro.graphs.schema import EDGE_COLUMNS, canonical_edges, source_rows, vertex_ids
from repro.graphs.updates import GraphDelta, apply_delta, random_edge_delta, random_vertex_delta
from repro.incremental import baselines, ingress, revision
from repro.incremental.ingress import align_states, ingress_incremental, new_vertex_universe
from repro.incremental.revision import min_revision, prepared_edge_diff, sum_revision
from repro.layph.engine import LayphEngine
from repro.metrics import RunStats
from repro.reference import assert_states_close, pagerank_reference, sssp_reference

INF = float("inf")
SOURCE = 0


# ---------------------------------------------------------------------------
# References: the whole-graph round and the pandas canonical form
# ---------------------------------------------------------------------------

def _whole_graph_round(spark, old_edges, delta, old_states, algo):
    """One Ingress round that prepares and diffs the two whole graphs.
    Returns ``(states, stats, (reset, seeds) or None)``."""
    new_edges = apply_delta(old_edges, delta)
    old_p, new_p = algo.prepare(old_edges), algo.prepare(new_edges)
    ids = new_vertex_universe(vertex_ids(new_edges), delta, algo)
    x = align_states(old_states, ids, algo)
    stats, revised = RunStats(), None
    if algo.is_sum:
        inj = sum_revision(old_p, new_p, old_states, algo, new_vertices=delta.added_vertices)
        inj = inj[inj.index.isin(ids)]
        x.loc[inj.index] = x.loc[inj.index] + inj
        pend = inj
    else:
        reset, seeds, acts = min_revision(
            prepared_edge_diff(old_p, new_p), old_p, new_p, old_states, algo
        )
        revised = (reset, seeds)
        stats.activations += acts
        x.loc[x.index.isin(set(int(r) for r in reset))] = INF
        seeds = seeds[seeds.index.isin(ids)]
        seeds = seeds[seeds.to_numpy() < x.reindex(seeds.index).to_numpy() + 1e-12]
        x.loc[seeds.index] = np.minimum(x.loc[seeds.index], seeds)
        pend = seeds
    out, stats = superstep_loop(spark, x, pend, new_p, algo, tol=algo.tol, stats=stats)
    return out.x, stats, revised


def _canonical_ref(pdf):
    pdf = pdf[EDGE_COLUMNS].astype({"src": np.int64, "dst": np.int64, "w": np.float64})
    pdf = pdf[pdf.src != pdf.dst]
    pdf = pdf.drop_duplicates(subset=["src", "dst"], keep="last")
    return pdf.sort_values(["src", "dst"], kind="mergesort").reset_index(drop=True)


# ---------------------------------------------------------------------------
# The ΔG schedule
# ---------------------------------------------------------------------------

def _edges(src, dst, w):
    return pd.DataFrame({"src": np.asarray(src, np.int64), "dst": np.asarray(dst, np.int64),
                         "w": np.asarray(w, float)})


_NO_EDGES = _edges([], [], [])


def _schedule(cur, r):
    """Round ``r``'s ΔG on the current graph."""
    live = vertex_ids(cur)
    if r == 0:  # edge inserts and deletes
        return random_edge_delta(cur, n_add=6, n_del=6, seed=500)
    if r == 1:  # reweights, and an edge into the source (PHP's prepare drops it)
        rows = cur.iloc[[len(cur) // 3, len(cur) // 2]]
        into = set(cur[cur.dst == SOURCE].src)
        v = int(next(u for u in live[::-1] if u != SOURCE and u not in into))
        return GraphDelta(
            added=_edges([*rows.src, v], [*rows.dst, SOURCE], [*(rows.w + 7.0), 2.5]),
            deleted=rows[["src", "dst"]].reset_index(drop=True),
        )
    if r == 2:  # vertex adds and deletes
        return random_vertex_delta(cur, n_add=2, n_del=2, seed=702)
    if r == 3:  # the SSSP/PHP source goes
        inc = cur[(cur.src == SOURCE) | (cur.dst == SOURCE)][["src", "dst"]]
        return GraphDelta(added=_NO_EDGES, deleted=inc.reset_index(drop=True),
                          deleted_vertices=np.array([SOURCE]))
    if r == 4:  # an empty ΔG
        return GraphDelta(added=_NO_EDGES, deleted=_NO_EDGES[["src", "dst"]])
    if r == 5:  # the deleted source comes back, wired both ways
        return GraphDelta(
            added=_edges([SOURCE, SOURCE, live[1], live[2]], [live[1], live[3], SOURCE, SOURCE],
                         [1.5, 2.5, 3.5, 4.5]),
            deleted=_NO_EDGES[["src", "dst"]], added_vertices=np.array([SOURCE]),
        )
    if r == 6:  # edges into the source deleted and added, beside random ones
        d = random_edge_delta(cur, n_add=4, n_del=4, seed=506)
        into = cur[cur.dst == SOURCE]
        taken = set(into.src) | set(d.added[d.added.dst == SOURCE].src)
        v = int(next(u for u in live if u != SOURCE and u not in taken))
        gone = into.iloc[:1][["src", "dst"]]
        gone = gone[~gone.set_index(["src", "dst"]).index.isin(
            d.deleted.set_index(["src", "dst"]).index)]
        return GraphDelta(
            added=pd.concat([d.added, _edges([v], [SOURCE], [1.25])], ignore_index=True),
            deleted=pd.concat([d.deleted, gone], ignore_index=True),
        )
    return random_edge_delta(cur, n_add=8, n_del=8, seed=500 + r)


ALGOS = {
    "sssp": alg.sssp(source=SOURCE, tol=1e-4),
    "bfs": alg.bfs(source=SOURCE, tol=1e-4),
    "pagerank": alg.pagerank(d=0.85, tol=1e-4),
    "php": alg.php(source=SOURCE, d=0.85, tol=1e-4),
}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(ALGOS))
def test_run_diff_round_equals_whole_graph_round(no_spark, monkeypatch, name):
    algo = ALGOS[name]
    edges, _ = dataset("uk_lite", sf=0.003, seed=0)
    assert (edges.dst == SOURCE).any() and (edges.src == SOURCE).any()

    diffs, revised, pandas_sorts = [], [], []
    diff0, min0 = revision.prepared_edge_diff, ingress.min_revision
    drop0 = pd.DataFrame.drop_duplicates

    def count_diff(old, new):
        diffs.append((len(old), len(new)))
        return diff0(old, new)

    def keep_revision(*a, **kw):
        revised.append(min0(*a, **kw))
        return revised[-1]

    def count_sorts(self, *a, **kw):
        if kw.get("subset") == ["src", "dst"]:  # canonical_edges' pandas path
            pandas_sorts.append(len(self))
        return drop0(self, *a, **kw)

    monkeypatch.setattr(revision, "prepared_edge_diff", count_diff)
    monkeypatch.setattr(ingress, "prepared_edge_diff", count_diff)
    monkeypatch.setattr(ingress, "min_revision", keep_revision)
    monkeypatch.setattr(pd.DataFrame, "drop_duplicates", count_sorts)

    cur = edges
    x_ref = x_got = batch_states(edges, algo)
    for r in range(8):
        delta = _schedule(cur, r)
        # Odd rounds hand both paths the old edges in a shuffled row order.
        old = cur.sample(frac=1.0, random_state=r) if r % 2 else cur
        x_ref, s_ref, rev_ref = _whole_graph_round(no_spark, old, delta, x_ref, algo)
        for log in (diffs, revised, pandas_sorts):
            log.clear()
        x_got, s_got = ingress_incremental(no_spark, old, delta, x_got, algo, tol=algo.tol)

        pd.testing.assert_series_equal(x_got, x_ref, check_exact=True)
        assert (s_got.activations, s_got.supersteps) == (s_ref.activations, s_ref.supersteps)
        if algo.is_min:
            (reset, seeds, _), = revised
            np.testing.assert_array_equal(reset, rev_ref[0])
            pd.testing.assert_series_equal(seeds, rev_ref[1], check_exact=True)
        # One diff a round, over no more rows than the runs of ΔG's sources.
        new = apply_delta(cur, delta)
        keys = delta.sources()
        old_runs = len(source_rows(cur.src.to_numpy(), keys))
        new_runs = len(source_rows(new.src.to_numpy(), keys))
        assert len(diffs) == 1 and diffs[0][0] <= old_runs and diffs[0][1] <= new_runs
        # Only the shuffled old edges go through pandas' sort.
        assert pandas_sorts == ([len(old)] if r % 2 else [])
        cur = new


def test_ingress_phases_sum_to_the_round(no_spark):
    """An Ingress round is its ``revision`` and ``propagate`` phases."""
    edges, _ = dataset("uk_lite", sf=0.003, seed=9)
    delta = random_edge_delta(edges, n_add=4, n_del=4, seed=3)
    for algo in (ALGOS["pagerank"], ALGOS["sssp"]):
        _, stats = ingress_incremental(no_spark, edges, delta, batch_states(edges, algo), algo)
        d = stats.to_dict()
        assert set(d["phase_seconds"]) == set(d["phase_activations"]) == {"revision", "propagate"}
        assert sum(d["phase_activations"].values()) == d["activations"]
        assert sum(d["phase_seconds"].values()) == pytest.approx(d["wall_seconds"])
        assert d["phase_activations"]["propagate"] > 0


def test_every_engine_keeps_an_isolated_added_vertex(no_spark):
    """A vertex ΔG adds without an edge is in the new vertex set of Ingress,
    KickStarter and Layph alike, at its reference value."""
    edges, membership = dataset("uk_lite", sf=0.003, seed=9)
    v = int(vertex_ids(edges).max()) + 1
    none = edges.iloc[0:0]
    delta = GraphDelta(added=none, deleted=none[["src", "dst"]], added_vertices=np.array([v]))
    for algo in (ALGOS["pagerank"], ALGOS["sssp"]):
        old = batch_states(edges, algo)
        got = {
            "ingress": ingress_incremental(no_spark, edges, delta, old, algo)[0],
            "layph": LayphEngine(no_spark, edges, algo, membership=membership)
            .initialize().run_delta(delta)[0],
        }
        if algo.is_min:
            got["kickstarter"] = baselines.kickstarter(no_spark, edges, delta, old, algo)[0]
            want = sssp_reference(edges, SOURCE, extra=(v,))[v]
        else:
            want = pagerank_reference(edges, algo.damping, extra=(v,))[v]
        assert {name: x[v] for name, x in got.items()} == pytest.approx(
            dict.fromkeys(got, want), abs=1e-12
        )


def test_kickstarter_diffs_runs_and_reports_phases(no_spark, monkeypatch):
    edges, _ = planted_partition(
        n_vertices=50, community_size_lo=8, community_size_hi=12, community_fraction=0.8,
        intra_out_deg=3.0, inter_edge_fraction=0.3, seed=3,
    )
    algo = ALGOS["sssp"]
    delta = random_edge_delta(edges, n_add=5, n_del=5, seed=42)
    diffs = []

    def count_diff(old, new):
        diffs.append((len(old), len(new)))
        return prepared_edge_diff(old, new)

    monkeypatch.setattr(baselines, "prepared_edge_diff", count_diff)
    got, stats = baselines.kickstarter(no_spark, edges, delta, batch_states(edges, algo), algo)
    assert_states_close(got, batch_states(apply_delta(edges, delta), algo), atol=1e-9)
    keys = delta.sources()
    assert diffs == [(len(source_rows(edges.src.to_numpy(), keys)),
                      len(source_rows(apply_delta(edges, delta).src.to_numpy(), keys)))]
    assert set(stats.phase_activations) == {"revision", "propagate"}
    assert sum(stats.phase_activations.values()) == stats.activations


def _frames():
    """Edge frames in and out of canonical form, with odd dtypes and index."""
    rng = np.random.default_rng(0)
    src = np.repeat(np.arange(6), 3)
    dst = np.tile([1, 4, 7], 6)
    keep = src != dst
    canon = _edges(src[keep], dst[keep], rng.uniform(1, 9, keep.sum()))
    perm = rng.permutation(len(canon))
    dup = pd.concat([canon, canon.iloc[[2, 5]].assign(w=[100.0, 200.0])], ignore_index=True)
    loops = pd.concat([canon, _edges([3, 5], [3, 5], [1.0, 2.0])], ignore_index=True)
    small = canon.astype({"src": np.int32, "dst": np.int32, "w": np.float32})
    extra = canon.assign(label="x", sub=7)[["sub", "w", "dst", "label", "src"]]
    return {
        "canonical": canon,
        "unsorted": canon.iloc[perm],
        "duplicates": dup,
        "self_loops": loops,
        "int32_float32": small,
        "extra_columns": extra,
        "index": canon.set_axis(np.arange(len(canon)) * 10 + 3),
        "empty": _NO_EDGES,
    }


@pytest.mark.parametrize("kind", list(_frames()))
def test_canonical_edges_early_return_equals_pandas_path(kind):
    pdf = _frames()[kind]
    before = pdf.copy()
    out = canonical_edges(pdf)
    pd.testing.assert_frame_equal(out, _canonical_ref(pdf), check_exact=True)
    assert out is not pdf and isinstance(out.index, pd.RangeIndex)
    assert list(out.columns) == EDGE_COLUMNS
    pd.testing.assert_frame_equal(pdf, before)
    # A fresh frame: writing to it leaves the input as it was.
    out.loc[:, "w"] = -1.0
    pd.testing.assert_frame_equal(pdf, before)
