"""The flattened per-subgraph passes equal one call per subgraph.

Subgraphs are disjoint, so one pass over their block-diagonal union must
give exactly what separate per-subgraph runs give: the same rows,
bit-identical weights and the summed activations. The one-subgraph calls
are in turn checked against the dense ``k × n`` kernels they replaced.
"""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.engine import batch, local
from repro.engine.local import converge, shortcut_pass
from repro.graphs.generators import planted_partition
from repro.graphs.updates import apply_delta, random_edge_delta
from repro.incremental.revision import prepared_edge_diff
from repro.layph.shortcuts import compute_shortcuts, update_shortcuts
from tests.blocks import one_block, table_cells, upload_by_id

INF = float("inf")
SC = ["entry", "dst", "w"]


# -- the dense kernels the pass replaced (reference) --------------------------

def _arrays(prepared, ids):
    ids = pd.Index(ids)
    src, dst = batch.positions(ids, prepared.src), batch.positions(ids, prepared.dst)
    assert (src >= 0).all() and (dst >= 0).all()
    return src, dst, prepared.w.to_numpy(float)


def _dense_weights(prepared, entries, ids, algo, tol):
    entries, ids = np.asarray(entries, np.int64), np.asarray(ids, np.int64)
    k, n = len(entries), len(ids)
    if k == 0 or len(prepared) == 0:
        return pd.DataFrame({c: [] for c in SC}), 0
    src, dst, w = _arrays(prepared, ids)
    pos = pd.Series(np.arange(n), index=ids)
    epos, rows, acts = pos.reindex(entries).to_numpy(np.int64), np.arange(k), 0
    if algo.is_min:
        best, pend = np.full((k, n), INF), np.full((k, n), INF)
        best[rows, epos] = pend[rows, epos] = 0.0  # the entry holds its 0 at once
        while True:
            fire = (pend < INF)[:, src]
            if not fire.any():
                break
            acts += int(fire.sum())
            nxt = np.full((k, n), INF)
            np.minimum.at(nxt, (rows[:, None], dst[None, :]),
                          np.where(fire, pend[:, src] + w[None, :], INF))
            pend = np.where(nxt < best, nxt, INF)
            best = np.minimum(best, nxt)
        keep = np.isfinite(best)
    else:
        best, pend = np.zeros((k, n)), np.zeros((k, n))
        pend[rows, epos] = 1.0
        best, acts = _dense_sum_loop(best, pend, src, dst, w, tol)
        keep = np.abs(best) > tol
    e_idx, v_idx = np.nonzero(keep)
    out = pd.DataFrame({"entry": entries[e_idx], "dst": ids[v_idx], "w": best[e_idx, v_idx]})
    if algo.is_min:
        out = out[out.entry != out.dst]
    return out.sort_values(["entry", "dst"]).reset_index(drop=True), acts


def _dense_sum_loop(acc, pend, src, dst, w, tol):
    rows, acts = np.arange(len(acc))[:, None], 0
    while True:
        fire = (np.abs(pend) > tol)[:, src]
        if not fire.any():
            return acc, acts
        acts += int(fire.sum())
        nxt = np.zeros_like(acc)
        np.add.at(nxt, (rows, dst[None, :]), np.where(fire, pend[:, src] * w[None, :], 0.0))
        acc += nxt
        pend = nxt


def _dense_update_sum(new_edges, entries, old_sc, changed, tol):
    entries = np.asarray(entries, np.int64)
    ids = np.unique(np.concatenate([
        new_edges.src, new_edges.dst, entries, old_sc.dst, changed.src, changed.dst,
    ]).astype(np.int64))
    k, n = len(entries), len(ids)
    pos = pd.Series(np.arange(n), index=ids)
    D = np.zeros((k, n))
    rows = old_sc[old_sc.entry.isin(entries)]
    D[pd.Index(entries).get_indexer(rows.entry), pos.reindex(rows.dst).to_numpy(np.int64)] = rows.w
    epos = pos.reindex(entries).to_numpy(np.int64)
    had_old = np.isin(entries, old_sc.entry.unique())
    pend, unit = np.zeros((k, n)), np.zeros((k, n))
    unit[np.arange(k), epos] = 1.0
    for _, r in changed.iterrows():
        u, v = pos[int(r.src)], pos[int(r.dst)]
        dw = (0.0 if np.isnan(r.w_new) else r.w_new) - (0.0 if np.isnan(r.w_old) else r.w_old)
        pend[:, v] += (D[:, u] + unit[:, u]) * had_old * dw
    D += pend
    D[~had_old, :], pend[~had_old, :] = 0.0, 0.0
    pend[~had_old, epos[~had_old]] = 1.0
    src, dst, w = _arrays(new_edges, ids)
    D, acts = _dense_sum_loop(D, pend, src, dst, w, tol)
    e_idx, v_idx = np.nonzero(np.abs(D) > tol)
    out = pd.DataFrame({"entry": entries[e_idx], "dst": ids[v_idx], "w": D[e_idx, v_idx]})
    return out.sort_values(["entry", "dst"]).reset_index(drop=True), acts


# -- fixture: five subgraphs, ids 100·sub + local id ---------------------------

def _block_edges(seed, base, n=14):
    e, _ = planted_partition(
        n_vertices=n, community_size_lo=n - 2, community_size_hi=n, community_fraction=1.0,
        intra_out_deg=3.0, inter_edge_fraction=0.0, portals_per_comm=1, seed=seed,
    )
    return e.assign(src=e.src + base, dst=e.dst + base)


def _graphs():
    """Old and new edges over the subgraphs 0, 1, 3 and 5; subgraph 2 has
    entries but no intra edges. Vertex 150 only ever sends (it is in no old
    shortcut row) and is deleted, so it appears only in ``changed``."""
    blocks = {0: _block_edges(1, 0), 1: _block_edges(2, 100), 3: _block_edges(4, 300),
              5: _block_edges(3, 500)}
    blocks[1] = pd.concat([blocks[1], pd.DataFrame({"src": [150], "dst": [101], "w": [2.0]})])
    old = pd.concat(blocks.values(), ignore_index=True)
    new = []
    for s, e in blocks.items():
        e = apply_delta(e, random_edge_delta(e, n_add=2, n_del=2, seed=10 + s))
        new.append(e[e.src != 150])
    return old, pd.concat(new, ignore_index=True)


def _with_sub(df, col="src"):
    return df.assign(sub=(df[col].to_numpy(np.int64) // 100))


OLD_ENTRIES = _with_sub(pd.DataFrame({"id": [2, 0, 5, 101, 103, 200, 201, 507, 502]}), "id")
# Subgraph 5 promotes 509, which has no old row; 3 stays without entries.
NEW_ENTRIES = _with_sub(pd.DataFrame({"id": [2, 0, 5, 101, 103, 200, 201, 507, 509, 502]}), "id")
ALGOS = {"sum": lambda: alg.pagerank(d=0.85, tol=1e-6), "min": lambda: alg.sssp(source=0)}


def _each_subgraph(fn, *tables):
    """Concatenate ``fn(sub, *slices)`` over the subgraphs with entries."""
    parts, acts = [], 0
    for s in np.unique(tables[1]["sub"]):
        sl = [t[t["sub"] == s].drop(columns="sub").reset_index(drop=True) for t in tables]
        sc, a = fn(*sl)
        parts.append(sc.assign(sub=np.int64(s))[["sub"] + SC])
        acts += a
    return pd.concat(parts, ignore_index=True), acts


def _assert_same(got, want):
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_exact=True,
        check_dtype=False,
    )


def _deduce(algo):
    old, _ = _graphs()
    prep = _with_sub(algo.prepare(old))

    def one(edges, ents):
        ids = np.unique(np.concatenate([edges.src, edges.dst, ents.id]))
        sc, a = one_block(edges, ents.id, algo)
        dense, dense_a = _dense_weights(edges, ents.id.to_numpy(), ids, algo, algo.tol)
        _assert_same(sc, dense)  # each one-subgraph call equals the dense kernel
        assert a == dense_a
        return sc, a

    return prep, one


@pytest.mark.parametrize("branch", ["sum", "min"])
def test_deduction_equals_one_subgraph_calls(no_spark, branch):
    algo = ALGOS[branch]()
    prep, one = _deduce(algo)
    want, want_acts = _each_subgraph(one, prep, OLD_ENTRIES)
    cells = table_cells(prep, OLD_ENTRIES)
    got, acts = shortcut_pass(prep, OLD_ENTRIES, algo, cells=cells)
    _assert_same(got, want)
    assert acts == want_acts > 0
    assert 2 not in set(got["sub"])  # entries but no intra edges: no rows
    sc, sc_acts = compute_shortcuts(prep, OLD_ENTRIES, algo, cells=cells)
    _assert_same(sc, want)
    assert sc_acts == acts


def _update_inputs(branch="sum"):
    algo = ALGOS[branch]()
    old, new = _graphs()
    old_prep, new_prep = algo.prepare(old), algo.prepare(new)
    old_prep = _with_sub(old_prep)
    old_sc, _ = shortcut_pass(
        old_prep, OLD_ENTRIES, algo, cells=table_cells(old_prep, OLD_ENTRIES)
    )
    changed = _with_sub(prepared_edge_diff(old_prep, new_prep))
    return algo, _with_sub(new_prep), old_sc, changed


def _update_cells(new_prep, old_sc, changed):
    return table_cells(new_prep, NEW_ENTRIES, old_sc, changed)


def test_sum_update_equals_one_subgraph_calls(no_spark):
    algo, new_prep, old_sc, changed = _update_inputs()
    assert 150 in set(changed.src) and 150 not in set(new_prep.src) | set(old_sc.dst)

    def one(edges, ents, old, ch):
        sc, a = one_block(edges, ents.id, algo, old=old, changed=ch)
        dense, dense_a = _dense_update_sum(edges, ents.id.to_numpy(), old, ch, algo.tol)
        _assert_same(sc, dense)
        assert a == dense_a
        return sc, a

    want, want_acts = _each_subgraph(one, new_prep, NEW_ENTRIES, old_sc, changed)
    cells = _update_cells(new_prep, old_sc, changed)
    got, acts = shortcut_pass(
        new_prep, NEW_ENTRIES, algo, cells=cells, old=old_sc, changed=changed
    )
    _assert_same(got, want)
    assert acts == want_acts > 0
    # The promoted entry has a full row; subgraph 2 keeps its (empty) rows.
    assert len(got[got.entry == 509]) > 0 and 2 not in set(got["sub"])
    # Subgraph 3 is affected but has no entries: it gets no rows.
    sc, sc_acts = update_shortcuts(
        no_spark, new_prep, NEW_ENTRIES, old_sc, changed, algo, subs=np.array([0, 1, 2, 3, 5]),
        cells=cells,
    )
    _assert_same(sc, want)
    assert sc_acts == acts


@pytest.mark.parametrize("limit", ["zero", "smallest", "two_blocks"])
def test_chunk_split_matches_one_pass(monkeypatch, limit):
    """Forcing the pass into several chunks changes nothing."""
    algo, new_prep, old_sc, changed = _update_inputs()
    min_algo, min_prep, min_old_sc, min_changed = _update_inputs("min")
    runs = [
        lambda: shortcut_pass(new_prep, NEW_ENTRIES, algo, old=old_sc, changed=changed,
                              cells=_update_cells(new_prep, old_sc, changed)),
        lambda: shortcut_pass(new_prep, OLD_ENTRIES, ALGOS["min"](),
                              cells=table_cells(new_prep, OLD_ENTRIES)),
        lambda: shortcut_pass(
            min_prep, NEW_ENTRIES, min_algo, old=min_old_sc, changed=min_changed,
            cells=_update_cells(min_prep, min_old_sc, min_changed),
        ),
    ]
    want = [run() for run in runs]
    k = NEW_ENTRIES.groupby("sub").size()
    m = new_prep.groupby("sub").size().reindex(k.index, fill_value=0)
    copies = sorted(int(c) for c in (k * m) if c)
    value = {"zero": 0, "smallest": copies[0], "two_blocks": copies[0] + copies[1]}[limit]
    monkeypatch.setattr(batch, "DRIVER_MAX_EDGES", value)
    calls = []
    chunk = local._pass_chunk
    monkeypatch.setattr(
        local, "_pass_chunk", lambda cells, blo, *a: calls.append(len(blo)) or chunk(cells, blo, *a)
    )
    for run, (want_sc, want_acts) in zip(runs, want):
        calls.clear()
        got, acts = run()
        assert len(calls) > 1 and sum(calls) == 4  # subgraphs 0, 1, 2, 5
        _assert_same(got, want_sc)
        assert acts == want_acts


def test_upload_equals_per_subgraph_converge(no_spark):
    """One upload over several subgraphs equals one ``converge`` per
    injected subgraph, with uploads read from the boundary arrivals."""
    algo = ALGOS["sum"]()
    old, _ = _graphs()
    intra = _with_sub(algo.prepare(old))
    members = _with_sub(pd.DataFrame({"id": np.unique(np.r_[old.src, old.dst])}), "id")
    is_boundary = (members.id % 7 == 0).to_numpy()
    boundary = members[is_boundary]
    states = pd.Series(0.01, index=members.id.to_numpy())
    inj = pd.Series({2: 0.5, 9: -0.25, 504: 0.125, 511: 1.0})  # subgraphs 0 and 5
    got_x, got_up, acts = upload_by_id(no_spark, intra, members, is_boundary, states, inj, algo)
    want_x, want_up, want_acts = [], [], 0
    for s in (0, 5):
        ids = members[members["sub"] == s].id.to_numpy()
        run = converge(intra[intra["sub"] == s], states.reindex(ids), inj[inj.index.isin(ids)], algo)
        up = run.arrivals.reindex(boundary[boundary["sub"] == s].id.to_numpy())
        want_x.append(run.states)
        want_up.append(up[up.abs() > 0])
        want_acts += run.activations
    # The injected subgraphs' members converged; every other member kept its state.
    want_x = pd.concat(want_x)
    want_x = pd.concat([want_x, states.drop(want_x.index)])
    pd.testing.assert_series_equal(got_x, want_x.reindex(got_x.index), check_exact=True)
    pd.testing.assert_series_equal(got_up, pd.concat(want_up), check_exact=True)
    assert acts == want_acts > 0 and len(got_up) > 0


# -- hard failure at the iteration cap ----------------------------------------

CHAIN = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3], "w": [0.5, 0.5, 0.5]})


@pytest.mark.parametrize("branch", ["sum", "min"])
def test_converge_raises_at_cap(branch, monkeypatch):
    algo = alg.pagerank(d=0.85, tol=1e-9) if branch == "sum" else alg.sssp(source=0)
    x0 = pd.Series(INF if algo.is_min else 0.0, index=range(4))
    m0 = pd.Series({0: 0.0 if algo.is_min else 1.0})
    monkeypatch.setattr(batch, "MAX_SUPERSTEPS", 1)
    with pytest.raises(RuntimeError, match="MAX_SUPERSTEPS=1$"):
        converge(CHAIN, x0, m0, algo)
    monkeypatch.setattr(batch, "MAX_SUPERSTEPS", 3)
    run = converge(CHAIN, x0, m0, algo)  # exactly enough
    assert run.iterations == 3 and run.activations == 3


@pytest.mark.parametrize("branch", ["sum", "min"])
def test_shortcut_pass_raises_at_cap(branch, monkeypatch):
    algo = alg.pagerank(d=0.85, tol=1e-9) if branch == "sum" else alg.sssp(source=0)
    edges, entries = CHAIN.assign(sub=0), pd.DataFrame({"id": [0], "sub": [0]})
    monkeypatch.setattr(batch, "MAX_SUPERSTEPS", 1)
    with pytest.raises(RuntimeError, match="MAX_SUPERSTEPS=1$"):
        shortcut_pass(edges, entries, algo, cells=table_cells(edges, entries))
    monkeypatch.setattr(batch, "MAX_SUPERSTEPS", 3)
    sc, acts = shortcut_pass(edges, entries, algo, cells=table_cells(edges, entries))
    assert sc.dst.tolist() == [1, 2, 3] and acts == 3
