"""The per-ΔG patch of the layered graph equals a full recompute.

The reference below is the pandas pipeline the patch replaced: prepare the
whole of G ⊕ ΔG, reroute every row through the frozen plan, classify roles
over every edge, split cross from intra edges, diff by an outer merge. Each
round, every table of the patched graph, its diff and its affected
subgraphs must equal that recompute on the same frozen membership and plan.
The slot space the graph keeps across rounds is checked the same way: its
slot columns, per-slot counts, vertex set and slot views, translated to
ids, must equal the same things rebuilt by id from the recomputed tables.
"""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.graphs.generators import dataset
from repro.graphs.schema import canonical_edges, vertex_ids
from repro.graphs.updates import GraphDelta, random_edge_delta, random_vertex_delta
from repro.incremental.ingress import new_vertex_universe
from repro.layph.layered import build_layered, update_layered
from repro.layph.shortcuts import compute_shortcuts
from tests.blocks import table_cells

_EPS = 1e-9


# ---------------------------------------------------------------------------
# Full-recompute reference (pandas)
# ---------------------------------------------------------------------------

def _apply_delta_ref(edges, delta):
    key = edges.src.to_numpy() * (2**32) + edges.dst.to_numpy()
    gone = delta.deleted.src.to_numpy() * (2**32) + delta.deleted.dst.to_numpy()
    return canonical_edges(pd.concat([edges[~np.isin(key, gone)], delta.added], ignore_index=True))


def _prepare_ref(algo, edges):
    if algo.name == "sssp":
        return edges.reset_index(drop=True)
    out_deg = edges.groupby("src").size()
    out_wsum = edges.groupby("src").w.sum()
    out = edges.copy()
    if algo.name == "pagerank":
        out["w"] = algo.damping / out_deg.reindex(out.src).to_numpy()
    else:
        out["w"] = algo.damping * out.w.to_numpy() / out_wsum.reindex(out.src).to_numpy()
        out = out[out.dst != algo.source]
    return canonical_edges(out)


def _apply_plan_ref(prepared, membership, plan, identity):
    sub_of = membership.set_index("id")["sub"]
    e = prepared.copy()
    s_sub = sub_of.reindex(e.src).to_numpy(float)
    d_sub = sub_of.reindex(e.dst).to_numpy(float)
    pin = plan[plan.direction == "in"].set_index(["host", "sub"]).proxy
    pout = plan[plan.direction == "out"].set_index(["host", "sub"]).proxy
    is_cross = np.isnan(s_sub) | (s_sub != d_sub)
    key_in = pd.MultiIndex.from_arrays(
        [e.src.to_numpy(np.int64), np.nan_to_num(d_sub, nan=-1).astype(np.int64)])
    prx_in = pin.reindex(key_in).to_numpy(float)
    m_in = ~np.isnan(prx_in) & ~np.isnan(d_sub) & is_cross
    key_out = pd.MultiIndex.from_arrays(
        [e.dst.to_numpy(np.int64), np.nan_to_num(s_sub, nan=-1).astype(np.int64)])
    prx_out = pout.reindex(key_out).to_numpy(float)
    m_out = ~np.isnan(prx_out) & ~np.isnan(s_sub) & is_cross & ~m_in
    r_in = e[m_in].assign(src=prx_in[m_in].astype(np.int64))
    r_out = e[m_out].assign(dst=prx_out[m_out].astype(np.int64))
    l_in = pd.DataFrame({"src": e.src.to_numpy()[m_in], "dst": prx_in[m_in].astype(np.int64)})
    l_out = pd.DataFrame({"src": prx_out[m_out].astype(np.int64), "dst": e.dst.to_numpy()[m_out]})
    links = pd.concat([l_in, l_out]).drop_duplicates().assign(w=identity)
    layer = canonical_edges(pd.concat([e[~(m_in | m_out)], r_in, r_out, links], ignore_index=True))
    mem = pd.concat(
        [membership, plan.rename(columns={"proxy": "id"})[["id", "sub"]]], ignore_index=True
    ).astype(np.int64)
    return layer, mem.sort_values(["sub", "id"]).reset_index(drop=True)


def _roles_ref(edges, membership, forced):
    sub_of = membership.set_index("id")["sub"]
    s = sub_of.reindex(edges.src).to_numpy(float)
    d = sub_of.reindex(edges.dst).to_numpy(float)
    cross = np.isnan(s) | np.isnan(d) | (s != d)
    into = pd.Series(edges.dst.to_numpy()[cross & ~np.isnan(d)]).value_counts()
    out = pd.Series(edges.src.to_numpy()[cross & ~np.isnan(s)]).value_counts()
    t = membership.reset_index(drop=True).copy()
    t["cross_in"] = into.reindex(t.id).fillna(0).to_numpy(np.int64)
    t["cross_out"] = out.reindex(t.id).fillna(0).to_numpy(np.int64)
    t["is_entry"] = (t.cross_in > 0) | t.id.isin(forced)
    t["is_exit"] = t.cross_out > 0
    return t


def _diff_ref(old, new):
    m = old.merge(new, on=["src", "dst"], how="outer", suffixes=("_old", "_new"))
    changed = m.w_old.isna() | m.w_new.isna() | ((m.w_new - m.w_old).abs() > _EPS)
    return m[changed][["src", "dst", "w_old", "w_new"]].reset_index(drop=True)


def _recompute(algo, base, real_members, plan, forced):
    layer, mem = _apply_plan_ref(_prepare_ref(algo, base), real_members, plan, algo.identity)
    sub_of = mem.set_index("id")["sub"]
    s = sub_of.reindex(layer.src).to_numpy(float)
    d = sub_of.reindex(layer.dst).to_numpy(float)
    same = ~np.isnan(s) & (s == d)
    intra = layer[same].assign(sub=s[same].astype(np.int64)).reset_index(drop=True)
    return layer, mem, _roles_ref(layer, mem, forced), intra, layer[~same].reset_index(drop=True)


def _affected_ref(old_roles, new_roles, old_mem, new_mem, diff):
    sub_of = new_mem.set_index("id")["sub"]
    ds = sub_of.reindex(diff.src).to_numpy(float)
    dd = sub_of.reindex(diff.dst).to_numpy(float)
    internal = ds[~np.isnan(ds) & (ds == dd)].astype(np.int64)
    cols = ["id", "sub", "is_entry", "is_exit"]
    m = old_roles[cols].merge(new_roles[cols], how="outer", indicator=True)
    moved = m[m._merge != "both"]["sub"].to_numpy(np.int64)
    gone = old_mem[~old_mem.id.isin(new_mem.id)]["sub"].to_numpy(np.int64)
    return np.unique(np.concatenate([internal, moved, gone]))


def _roles_of(lg):
    """The layered graph's members and role flags as one table."""
    is_entry, is_exit = lg.roles
    return lg.members.frame().assign(is_entry=is_entry, is_exit=is_exit)


def _rows_through(layer, plan):
    """Rerouted rows per plan row, counted on a finished layer table."""
    inward = plan.direction.to_numpy() == "in"
    p_in = pd.Series(np.flatnonzero(inward), index=plan.proxy.to_numpy()[inward])
    p_out = pd.Series(np.flatnonzero(~inward), index=plan.proxy.to_numpy()[~inward])
    rows = np.concatenate([p_in.reindex(layer.src).dropna(), p_out.reindex(layer.dst).dropna()])
    return np.bincount(rows.astype(np.int64), minlength=len(plan))


# ---------------------------------------------------------------------------
# The ΔG schedule
# ---------------------------------------------------------------------------

def _edges(src, dst, w):
    return pd.DataFrame({"src": np.asarray(src, np.int64), "dst": np.asarray(dst, np.int64),
                         "w": np.asarray(w, float)})


_NO_EDGES = _edges([], [], [])


def _drop(cur, vertices):
    vs = np.unique(np.asarray(vertices, np.int64))
    inc = cur[cur.src.isin(vs) | cur.dst.isin(vs)][["src", "dst"]]
    return GraphDelta(added=_NO_EDGES, deleted=inc.reset_index(drop=True), deleted_vertices=vs)


def _cut(cur, v, memo, key):
    """Delete every edge of ``v`` by edge deletions, ``v`` not deleted; the
    edges are kept in ``memo[key]`` to be restored."""
    inc = cur[(cur.src == v) | (cur.dst == v)]
    memo[key] = inc.reset_index(drop=True)
    return GraphDelta(added=_NO_EDGES, deleted=inc[["src", "dst"]].reset_index(drop=True))


def _schedule(cur, lg, dead, r, memo):
    """Round ``r``'s ΔG on the current graph: the hostile cases first, then
    random edge and vertex batches."""
    live = np.setdiff1d(vertex_ids(cur), list(dead))
    plan = lg.proxies.plan
    roles = _roles_of(lg)
    real = roles[roles.id < int(plan.proxy.min())] if len(plan) else roles
    if r == 0:  # the SSSP source
        return _drop(cur, [0])
    if r == 1:  # a plan host with both an 'in' and an 'out' proxy
        both = plan.groupby("host").direction.nunique()
        return _drop(cur, [int(both[both == 2].index[0])])
    if r == 2:  # an entry vertex
        return _drop(cur, [int(real[real.is_entry].id.iloc[0])])
    if r == 3:  # every member of one community
        sub = int(real["sub"].value_counts().index[-1])
        return _drop(cur, real[real["sub"] == sub].id.to_numpy())
    if r == 4:  # an empty ΔG
        return GraphDelta(added=_NO_EDGES, deleted=_NO_EDGES[["src", "dst"]])
    if r == 5:  # a deleted id comes back, wired both ways
        return GraphDelta(added=_edges([0, 0, live[1], live[2]], [live[1], live[3], 0, 0],
                                       [1.5, 2.5, 3.5, 4.5]),
                          deleted=_NO_EDGES[["src", "dst"]], added_vertices=np.array([0]))
    if r == 6:  # a weight change
        row = cur.iloc[len(cur) // 2]
        return GraphDelta(added=_edges([row.src], [row.dst], [row.w + 7.0]),
                          deleted=_edges([row.src], [row.dst], [0.0])[["src", "dst"]])
    if r == 7:  # adding a pair that already exists, deleting one that does not
        row = cur.iloc[len(cur) // 3]
        taken = set(cur[cur.src == live[0]].dst)
        absent = (int(live[0]), int(next(v for v in live[1:] if v not in taken)))
        return GraphDelta(added=_edges([row.src], [row.dst], [row.w + 3.0]),
                          deleted=_edges([absent[0]], [absent[1]], [0.0])[["src", "dst"]])
    hosts = set(plan.host.tolist())
    if r == 8:  # a real vertex, no plan host, loses every edge and stays
        return _cut(cur, int(next(v for v in live[::-1] if v not in hosts)), memo, "orphan")
    if r == 9:  # ... and an edge insert reaches it again
        e = memo["orphan"]
        return GraphDelta(added=e.iloc[[0, -1]].drop_duplicates().reset_index(drop=True),
                          deleted=_NO_EDGES[["src", "dst"]])
    if r == 10:  # a plan host loses every link, its proxies with it
        return _cut(cur, int(next(h for h in plan.host if h in set(live))), memo, "host")
    if r == 11:  # ... and regains them all
        return GraphDelta(added=memo["host"], deleted=_NO_EDGES[["src", "dst"]])
    if r % 3 == 2:
        return random_vertex_delta(cur, n_add=2, n_del=2, seed=700 + r)
    return random_edge_delta(cur, n_add=6, n_del=6, seed=500 + r)


def _check(lg, algo, base, real0, plan, dead):
    real = real0[~real0.id.isin(list(dead))].reset_index(drop=True)
    layer, mem, roles, intra, up = _recompute(algo, base, real, plan, lg.forced_entries)
    pd.testing.assert_frame_equal(lg.base_edges, base)
    pd.testing.assert_frame_equal(lg.layer_edges, layer)
    ids = lg.slots.ids
    intra_ids = pd.DataFrame({"src": ids[lg.intra_edges["src"]], "dst": ids[lg.intra_edges["dst"]],
                              "w": lg.intra_edges["w"], "sub": lg.intra_edges["sub"]})
    pd.testing.assert_frame_equal(intra_ids, intra)
    cross = lg.upper_graph[lg.upper_graph.etype == 0][["src", "dst", "w"]]
    pd.testing.assert_frame_equal(cross.reset_index(drop=True), up)
    pd.testing.assert_frame_equal(lg.members.frame(), mem)
    pd.testing.assert_frame_equal(_roles_of(lg), roles[["id", "sub", "is_entry", "is_exit"]])
    np.testing.assert_array_equal(lg.cross_in, roles.cross_in.to_numpy())
    np.testing.assert_array_equal(lg.cross_out, roles.cross_out.to_numpy())
    np.testing.assert_array_equal(lg.link_count, _rows_through(layer, plan))
    return layer, mem, roles, intra, up


def _check_slots(lg, algo, layer, roles, up, delta, held):
    """The kept slot space against a rebuild by id: every id held so far
    keeps its slot, the slot columns and per-slot counts match the table,
    the vertex set follows ``new_vertex_universe``'s rule, and every slot
    view, translated to ids, equals the same view built from the tables by
    id."""
    slots = lg.slots
    ids = slots.ids
    np.testing.assert_array_equal(ids[:len(held)], held)  # no slot moves
    assert len(np.unique(ids)) == len(ids)
    np.testing.assert_array_equal(ids[slots.order], np.sort(ids))
    np.testing.assert_array_equal(slots.proxy, np.isin(ids, lg.proxies.proxy))
    np.testing.assert_array_equal(slots.find(ids), np.arange(len(ids)))
    np.testing.assert_array_equal(ids[lg.s_src], lg.src)
    np.testing.assert_array_equal(ids[lg.s_dst], lg.dst)
    m = lg.members
    np.testing.assert_array_equal(ids[m.slot], m.id)
    np.testing.assert_array_equal(m.at(m.slot), np.arange(len(m.id)))
    assert (m.at(np.setdiff1d(np.arange(len(ids)), m.slot)) == -1).all()

    # The per-slot row counts and the vertex set, from scratch.
    base = lg.base_edges
    dropped = base.src.to_numpy()[~algo.kept(base.dst.to_numpy())]
    want = np.bincount(slots.find(np.concatenate([layer.src, layer.dst, dropped])),
                       minlength=len(ids))
    np.testing.assert_array_equal(lg.ends, want)
    ends = np.unique(np.concatenate([layer.src, layer.dst, dropped]))
    universe = (algo.with_source(ends) if delta is None
                else new_vertex_universe(ends, delta, algo))
    np.testing.assert_array_equal(np.sort(ids[lg.universe]), universe)

    # L_up: every boundary member and every other endpoint, in the vertex
    # set; its rows are the cross rows, then the shortcuts to the boundary.
    boundary = roles[roles.is_entry | roles.is_exit].id.to_numpy()
    g = lg.upper
    want = np.intersect1d(np.union1d(np.setdiff1d(ends, roles.id), boundary), universe)
    np.testing.assert_array_equal(np.sort(g.ids), want)
    np.testing.assert_array_equal(ids[g.slots], g.ids)
    assert (np.diff(g.slots) > 0).all()
    np.testing.assert_array_equal(g.pos[g.slots], np.arange(len(g.slots)))
    assert (g.src >= 0).all() and (g.dst >= 0).all()  # every endpoint is on L_up
    sc = lg.shortcuts
    to_b = np.isin(sc.dst, boundary)
    rows = pd.concat([up, sc[to_b].rename(columns={"entry": "src"})[["src", "dst", "w"]]],
                     ignore_index=True)
    got = pd.DataFrame({"src": g.ids[g.src], "dst": g.ids[g.dst], "w": g.w})
    pd.testing.assert_frame_equal(got, rows)
    assert g.split == len(up) and len(g) == len(lg.upper_graph)

    # The cross-layer table: the rows to interior members, stably by entry.
    inner = sc[~to_b]
    inner = inner.iloc[np.argsort(inner.entry.to_numpy(), kind="stable")]
    entry, dst, w = lg.assignment_runs
    np.testing.assert_array_equal(ids[entry], inner.entry.to_numpy())
    np.testing.assert_array_equal(ids[dst], inner.dst.to_numpy())
    np.testing.assert_array_equal(w, inner.w.to_numpy())


def _check_shortcuts(lg, algo, intra, roles):
    entries = roles[roles.is_entry][["id", "sub"]]
    want, _ = compute_shortcuts(intra, entries, algo, cells=table_cells(intra, entries))
    key = ["sub", "entry", "dst"]
    got = lg.shortcuts.sort_values(key).reset_index(drop=True)
    # Every row leads to a member of its subgraph: none to a deleted vertex,
    # whose sum cell may still hold a residual above tol.
    sub_of = roles.set_index("id")["sub"]
    assert (sub_of.reindex(got.dst).to_numpy() == got["sub"].to_numpy()).all()
    if algo.is_min:
        # No min self-shortcut: ``upper_graph`` passes every row on to L_up.
        assert (got.entry != got.dst).all()
        pd.testing.assert_frame_equal(got, want.sort_values(key).reset_index(drop=True))
    else:  # a delta-corrected row matches a fresh one to the tol cut
        # No true sum shortcut weight is negative: prepared weights are >= 0.
        assert (got.w > algo.tol).all()
        m = got.merge(want, on=key, how="outer", suffixes=("_got", "_want")).fillna(0.0)
        assert np.abs(m.w_got - m.w_want).max() < 1e-6


@pytest.mark.parametrize("ds", ["uk_lite", "wb_lite"])
@pytest.mark.parametrize("name", ["sssp", "pagerank", "php"])
def test_patched_layered_graph_equals_full_recompute(no_spark, ds, name):
    edges, membership = dataset(ds, sf=0.002, seed=0)
    algo = {
        "sssp": alg.sssp(source=0),
        "pagerank": alg.pagerank(d=0.85, tol=1e-10),
        "php": alg.php(source=0, d=0.85, tol=1e-10),
    }[name]
    lg, _ = build_layered(edges, algo, membership=membership)
    plan = lg.proxies.plan
    members = lg.members.frame()
    real0 = members[~members.id.isin(plan.proxy)]
    assert len(plan) and (plan.groupby("host").direction.nunique() == 2).any()
    cur, dead, memo = edges, set(), {}
    layer, mem, roles, _, up = _check(lg, algo, cur, real0, plan, dead)
    _check_slots(lg, algo, layer, roles, up, None, lg.slots.ids)
    kinds = set()
    for r in range(22):
        delta = _schedule(cur, lg, dead, r, memo)
        kinds.add("vertex" if len(delta.deleted_vertices) else "edge")
        new_lg, diff, affected, _ = update_layered(lg, delta)
        cur = _apply_delta_ref(cur, delta)
        dead |= set(int(v) for v in delta.deleted_vertices)
        new_layer, new_mem, new_roles, intra, up = _check(new_lg, algo, cur, real0, plan, dead)
        _check_slots(new_lg, algo, new_layer, new_roles, up, delta, lg.slots.ids)
        cols = ["src", "dst", "w_old", "w_new"]
        pd.testing.assert_frame_equal(diff[cols], _diff_ref(layer, new_layer))
        for c in ("src", "dst"):
            np.testing.assert_array_equal(new_lg.slots.ids[diff[f"s_{c}"]], diff[c])
        np.testing.assert_array_equal(
            affected, _affected_ref(roles, new_roles, mem, new_mem, diff))
        _check_shortcuts(new_lg, algo, intra, new_roles)
        lg, layer, mem, roles = new_lg, new_layer, new_mem, new_roles
    assert kinds == {"vertex", "edge"}
