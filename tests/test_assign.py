"""The assignment routine (§V-C) on a cross-layer table laid out as
``update_layered`` leaves it: the kept subgraphs' rows first, then the
fresh rows of the affected ones, so the entries' runs are not in entry
order. The assignment reads and returns slots; the checks translate them
to ids. The reference is the pandas merge and groupby the engine used
before, as it is for the min entry caches (Eq. 9) the assignment reads. A
layered graph whose subgraphs all fail Def. 2 has an empty cross-layer
table, and its rounds must still run and match the reference."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.graphs.generators import dataset
from repro.graphs.updates import apply_delta, random_edge_delta
from repro.layph.engine import LayphEngine, assign, compute_caches_min
from repro.layph.layered import build_layered
from repro.reference import assert_states_close, pagerank_reference, sssp_reference
from tests.blocks import singletons

INF = float("inf")


def _reference(table, interior, entries, values, index, algo):
    """Per target id in ``index``: the G-aggregate of ``value ⊗ w`` over the
    interior-target rows of ``entries``, and the number of rows joined."""
    sc = table[np.isin(table.dst.to_numpy(), interior)]
    j = sc.merge(pd.Series(values, index=entries).rename("m"), left_on="entry", right_index=True)
    if algo.is_min:
        want = (j.m + j.w).groupby(j.dst).min()
    else:
        want = (j.m * j.w).groupby(j.dst).sum()
    return want[want.index.isin(index)], len(j)


@pytest.mark.parametrize("name", ["pagerank", "sssp"])
def test_assign_equals_merge_groupby_on_an_updated_table(no_spark, name):
    algo = alg.pagerank(d=0.85, tol=1e-4) if name == "pagerank" else alg.sssp(source=0)
    edges, membership = dataset("uk_lite", sf=0.003, seed=7)
    lg, _ = build_layered(edges, algo, membership=membership)
    sc = lg.shortcut_slots
    subs = np.unique(sc["sub"].to_numpy())
    fresh = sc["sub"].isin(subs[: len(subs) // 2]).to_numpy()
    lg = replace(lg, shortcut_slots=pd.concat([sc[~fresh], sc[fresh]], ignore_index=True))

    in_table_order = lg.shortcuts.entry.to_numpy()[np.isin(lg.shortcuts.dst, lg.interior_ids)]
    assert (np.diff(in_table_order) < 0).any()  # runs out of entry order
    entry, dst, _ = lg.assignment_runs
    assert (np.diff(entry) >= 0).all() and len(entry) == len(in_table_order)
    # By slot, in the order of the entry ids: members keep id order.
    ids = lg.slots.ids
    np.testing.assert_array_equal(ids[entry], np.sort(in_table_order, kind="stable"))

    # Every other entry with rows, plus two slots without rows.
    rng = np.random.default_rng(0)
    without = np.setdiff1d(np.arange(len(ids)), entry)
    entries = np.unique(np.r_[np.unique(entry)[::2], without[[0, -1]]])
    values = rng.uniform(0.5, 2.0, len(entries))
    got, rows = assign(lg, entries, values, algo)
    want, n_joined = _reference(lg.shortcuts, lg.interior_ids, ids[entries], values, ids, algo)

    assert rows == n_joined > 0 and len(got) == len(ids)
    at = lg.slots.find(want.index)
    assert (at >= 0).all() and len(want) > 0
    if algo.is_min:
        np.testing.assert_array_equal(got[at], want.to_numpy())
    else:
        np.testing.assert_allclose(got[at], want.to_numpy(), rtol=1e-12, atol=0)
    rest = np.ones(len(ids), bool)
    rest[at] = False
    assert (got[rest] == (INF if algo.is_min else 0.0)).all()


def test_min_caches_equal_merge_groupby_after_a_deletion(no_spark):
    """Eq. 9, min form: per entry, the least ``x_u + w`` over its original
    L_up in-edges, and the root value at the forced source entry."""
    algo = alg.sssp(source=0)
    edges, membership = dataset("uk_lite", sf=0.003, seed=7)
    eng = LayphEngine(no_spark, edges, algo, membership=membership).initialize()
    delta = random_edge_delta(edges, n_add=4, n_del=4, seed=41)
    assert len(delta.deleted) > 0
    eng.run_delta(delta)
    lg, x = eng.lg, eng.layer_states()
    assert algo.source in lg.entry_ids

    cross = lg.upper_graph[lg.upper_graph.etype == 0]
    j = cross[cross.dst.isin(lg.entry_ids)].merge(
        x.rename("x_u"), left_on="src", right_index=True
    )
    want = (j.x_u + j.w).groupby(j.dst).min().reindex(np.sort(lg.entry_ids), fill_value=INF)
    assert want[algo.source] > 0.0  # only the root gives the source 0
    want[algo.source] = 0.0

    got = compute_caches_min(lg, x.to_numpy(), x.index)
    np.testing.assert_array_equal(got.index.to_numpy(), want.index.to_numpy())
    np.testing.assert_array_equal(got.to_numpy(), want.to_numpy())
    pd.testing.assert_series_equal(eng.caches, got)  # the round kept the same caches


@pytest.mark.parametrize("name", ["pagerank", "sssp"])
def test_rounds_run_on_an_empty_cross_layer_table(no_spark, name):
    algo = alg.pagerank(d=0.85, tol=1e-4) if name == "pagerank" else alg.sssp(source=0)
    edges, membership = dataset("uk_lite", sf=0.003, seed=7)
    eng = LayphEngine(no_spark, edges, algo, membership=singletons(membership)).initialize()
    assert len(eng.lg.shortcuts) == 0 and len(eng.lg.assignment_runs[0]) == 0

    got, rows = assign(eng.lg, np.array([0, 1]), np.array([1.0, 2.0]), algo)
    assert rows == 0 and (got == (INF if algo.is_min else 0.0)).all()

    cur = edges
    for r in range(1, 4):
        delta = random_edge_delta(cur, n_add=4, n_del=4, seed=40 + r)
        got, stats = eng.run_delta(delta)
        cur = apply_delta(cur, delta)
        assert stats.phase_activations["assign"] == 0
        if algo.is_min:
            want = sssp_reference(cur, 0)
            assert_states_close(got[got.index.isin(want.index)], want, atol=1e-9, rtol=0)
        else:
            want = pagerank_reference(cur, algo.damping)
            l1 = float(np.abs(got.reindex(want.index).to_numpy() - want.to_numpy()).sum())
            assert l1 <= (1 + r) * len(want) * algo.tol / (1 - algo.damping)
