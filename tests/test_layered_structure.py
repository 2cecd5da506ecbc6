"""Community discovery, roles, the Def. 2 density test, replication, layered assembly."""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.graphs.generators import dataset, fig2_graph, planted_partition
from repro.graphs.schema import canonical_edges
from repro.layph.community import lpa_communities, planted_communities
from repro.layph.engine import LayphEngine
from repro.layph.layered import build_layered, layout, update_layered
from repro.layph.replication import build_plan
from repro.layph.structure import Members
from repro.oracle import assert_equivalent


_NO_PLAN = pd.DataFrame(columns=["host", "sub", "direction", "proxy"])


def _plan(edges, membership, algo):
    p = algo.prepare(edges)
    members = Members(membership.id.to_numpy(np.int64), membership["sub"].to_numpy(np.int64))
    return build_plan(p.src.to_numpy(np.int64), p.dst.to_numpy(np.int64), members)


def _layout(edges, membership, algo=alg.sssp(source=0), plan=_NO_PLAN, forced=()):
    """One bare layout of ``membership`` and ``plan`` (no density test)."""
    edges = canonical_edges(edges)
    prepared = algo.prepare_rows(edges.src.to_numpy(), edges.dst.to_numpy(), edges.w.to_numpy())
    return layout(algo, edges, prepared, membership, plan, frozenset(forced))


def _roles(lg):
    is_entry, is_exit = lg.roles
    return lg.members.frame().assign(is_entry=is_entry, is_exit=is_exit).set_index("id")


def test_roles_on_fig2():
    edges, membership = fig2_graph()
    t = _roles(_layout(edges, membership))
    # G2 = sub 2: entry v0 (edge v5->v0 from outside), exit v4 (edge v4->v5).
    assert t.loc[0].is_entry and not t.loc[0].is_exit
    assert t.loc[4].is_exit and not t.loc[4].is_entry
    # v1, v2, v3 interior
    for v in (1, 2, 3):
        assert not t.loc[v].is_entry and not t.loc[v].is_exit
    # G1 = sub 1: v5 is both entry (v4->v5) and exit (v5->v0).
    assert t.loc[5].is_entry and t.loc[5].is_exit
    for v in (6, 7, 8):
        assert not t.loc[v].is_entry and not t.loc[v].is_exit


def test_density_filter_on_fig2():
    """Both Fig. 2 subgraphs satisfy |V_I|x|V_O| < |E_i|."""
    edges, membership = fig2_graph()
    n_in, n_out, n_e = _layout(edges, membership).density_counts()
    assert (n_in.tolist(), n_out.tolist(), n_e.tolist()) == ([0, 1, 1], [0, 1, 1], [0, 3, 5])
    lg, _ = build_layered(edges, alg.pagerank(), membership=membership, replicate=False)
    assert lg.sizes()["n_subgraphs"] == 2
    assert len(lg.members.id) == 9


def test_density_filter_rejects_sparse_sub():
    # A path a->b->c with 2 entries and 2 exits squeezed in: make a sub with
    # many boundary vertices and few edges -> rejected.
    edges = pd.DataFrame(
        {
            "src": [10, 11, 0, 1, 2, 0, 1],
            "dst": [0, 1, 20, 21, 22, 2, 2],
            "w": 1.0,
        }
    )
    membership = pd.DataFrame({"id": [0, 1, 2], "sub": [0, 0, 0]})
    # V_I = {0,1}, V_O = {0,1,2}, E_i = {(0,2),(1,2)} -> 6 >= 2 -> reject
    n_in, n_out, n_e = _layout(edges, membership).density_counts()
    assert (n_in.tolist(), n_out.tolist(), n_e.tolist()) == ([2], [3], [2])
    # The build drops it too; a fourth member (one more intra edge, 6 >= 3)
    # keeps the community above the planted-community minimum size of 4.
    edges = pd.concat([edges, pd.DataFrame({"src": [2], "dst": [3], "w": [1.0]})])
    membership = pd.DataFrame({"id": [0, 1, 2, 3], "sub": [0, 0, 0, 0]})
    lg, _ = build_layered(edges, alg.pagerank(), membership=membership, replicate=False)
    assert len(lg.members.id) == 0 and (lg.sub == -1).all() and len(lg.shortcuts) == 0


def test_internal_edge_counts_matches_duckdb(spark):
    """|V_I|, |V_O| and |E_i| per subgraph of a built layered graph, against
    SQL over its layer edges and members."""
    edges, membership = dataset("uk_lite", sf=0.004, seed=1)
    lg, _ = build_layered(edges, alg.pagerank(), membership=membership)
    assert len(lg.proxies)
    n_in, n_out, n_e = lg.density_counts()
    subs = np.unique(lg.members.sub)
    assert (n_in * n_out < n_e)[subs].all()  # every kept subgraph is dense
    got = pd.DataFrame({"sub": subs, "n_in": n_in[subs], "n_out": n_out[subs], "n_e": n_e[subs]})
    assert_equivalent(
        spark.createDataFrame(got),
        """
        WITH r AS (
            SELECT e.src, e.dst, ms.sub AS s_sub, md.sub AS d_sub
            FROM edges e
            LEFT JOIN member ms ON e.src = ms.id
            LEFT JOIN member md ON e.dst = md.id
        ),
        vi AS (SELECT d_sub AS sub, COUNT(DISTINCT dst) AS n_in FROM r
               WHERE d_sub IS NOT NULL AND (s_sub IS NULL OR s_sub <> d_sub) GROUP BY d_sub),
        vo AS (SELECT s_sub AS sub, COUNT(DISTINCT src) AS n_out FROM r
               WHERE s_sub IS NOT NULL AND (d_sub IS NULL OR s_sub <> d_sub) GROUP BY s_sub),
        ei AS (SELECT s_sub AS sub, COUNT(*) AS n_e FROM r WHERE s_sub = d_sub GROUP BY s_sub)
        SELECT s.sub, COALESCE(n_in, 0) AS n_in, COALESCE(n_out, 0) AS n_out,
               COALESCE(n_e, 0) AS n_e
        FROM (SELECT DISTINCT sub FROM member) s
        LEFT JOIN vi USING (sub) LEFT JOIN vo USING (sub) LEFT JOIN ei USING (sub)
        """,
        edges=lg.layer_edges,
        member=lg.members.frame(),
    )


def test_forced_entries_mark_root():
    edges, membership = fig2_graph()
    assert _roles(_layout(edges, membership, forced={2})).loc[2].is_entry
    lg, _ = build_layered(edges, alg.sssp(source=2), membership=membership, replicate=False)
    assert 2 in lg.entry_ids


def test_replication_reduces_boundary():
    """A hub with 4 edges into a community collapses to one proxy entry."""
    rows = [(100, t, 1.0) for t in (0, 1, 2, 3)]  # hub -> 4 members
    rows += [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (0, 2, 1.0), (1, 3, 1.0)]
    rows += [(3, 200, 1.0)]  # one exit edge
    edges = pd.DataFrame(rows, columns=["src", "dst", "w"])
    membership = pd.DataFrame({"id": [0, 1, 2, 3], "sub": [0, 0, 0, 0]})
    algo = alg.sssp(source=100)
    plan = _plan(edges, membership, algo)
    assert len(plan) == 1 and plan.iloc[0].direction == "in" and plan.iloc[0].host == 100
    lg = _layout(edges, membership, algo, plan)
    # only the proxy is an entry now
    assert list(lg.entry_ids) == [plan.iloc[0].proxy]
    # host->proxy link carries the + identity 0
    layer = lg.layer_edges
    link = layer[(layer.src == 100) & (layer.dst == plan.iloc[0].proxy)]
    assert len(link) == 1 and link.iloc[0].w == 0.0


def test_replication_out_direction():
    rows = [(t, 100, 1.0) for t in (0, 1, 2)]  # 3 members -> hub
    rows += [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 1.0)]
    rows += [(200, 0, 1.0)]  # one entry edge
    edges = pd.DataFrame(rows, columns=["src", "dst", "w"])
    membership = pd.DataFrame({"id": [0, 1, 2], "sub": [0, 0, 0]})
    algo = alg.sssp(source=200)
    plan = _plan(edges, membership, algo)
    assert len(plan) == 1 and plan.iloc[0].direction == "out"
    lg = _layout(edges, membership, algo, plan)
    assert list(lg.members.id[lg.roles[1]]) == [plan.iloc[0].proxy]


def test_lpa_recovers_planted_blocks():
    edges, truth = planted_partition(
        n_vertices=120, community_size_lo=20, community_size_hi=25,
        community_fraction=1.0, intra_out_deg=6.0, inter_edge_fraction=0.03, seed=5,
    )
    got = lpa_communities(edges, K=60, n_iters=5)
    # Most planted pairs should land in the same discovered community.
    t = truth.set_index("id")["sub"]
    g = got.set_index("id")["sub"].reindex(t.index)
    # sample pairs within each planted block
    same, total = 0, 0
    for _, grp in truth.groupby("sub"):
        ids = grp.id.to_numpy()[:10]
        for a, b in zip(ids[:-1], ids[1:]):
            total += 1
            if pd.notna(g.get(a)) and g.get(a) == g.get(b):
                same += 1
    assert same / total > 0.6


def test_planted_communities_caps_size():
    m = pd.DataFrame({"id": range(100), "sub": [0] * 100})
    capped = planted_communities(m, K=30)
    assert capped.groupby("sub").size().max() <= 30


def test_membership_listing_an_id_twice_is_rejected():
    """A planted membership that puts one id in two subgraphs is refused
    with the id named, before any layout reads it."""
    edges, membership = dataset("uk_lite", sf=0.003, seed=0)
    v = int(membership.id.iloc[0])
    other = int(membership["sub"][membership["sub"] != membership["sub"].iloc[0]].iloc[0])
    dup = pd.concat([membership, pd.DataFrame({"id": [v], "sub": [other]})], ignore_index=True)
    with pytest.raises(ValueError, match=f"vertex id {v} "):
        planted_communities(dup)
    with pytest.raises(ValueError, match=f"vertex id {v} "):
        LayphEngine(None, edges, alg.pagerank(d=0.85, tol=1e-4), membership=dup).initialize()


@pytest.mark.parametrize("name", ["sssp", "pagerank"])
def test_build_layered_fig2(spark, name):
    edges, membership = fig2_graph()
    algo = alg.sssp(source=0) if name == "sssp" else alg.pagerank(d=0.5)
    lg, acts = build_layered(edges, algo, membership=membership, replicate=False)
    sizes = lg.sizes()
    assert sizes["orig_vertices"] == 9 and sizes["orig_edges"] == 10
    assert sizes["upper_vertices"] == 3  # v0, v4, v5
    assert sizes["n_subgraphs"] == 2
    assert acts > 0
    if name == "sssp":
        # Example 2 shortcut weights inside G2 (sub of vertex 0)
        sub2 = lg.members.sub_of(np.array([0]))[0]
        sc = lg.shortcuts[(lg.shortcuts["sub"] == sub2) & (lg.shortcuts.entry == 0)]
        assert sc.set_index("dst").w.to_dict() == {1: 1.0, 2: 4.0, 3: 1.0, 4: 2.0}


def test_build_layered_reduces_upper_size(spark):
    edges, membership = dataset("uk_lite", sf=0.004, seed=0)
    algo = alg.sssp(source=0)
    lg, _ = build_layered(edges, algo, membership=membership)
    s = lg.sizes()
    assert s["upper_vertices"] < s["orig_vertices"]
    assert s["upper_edges"] < s["orig_edges"]


def test_update_layered_recomputes_only_affected(spark):
    from repro.graphs.updates import random_edge_delta

    edges, membership = dataset("uk_lite", sf=0.004, seed=0)
    algo = alg.sssp(source=0)
    lg, _ = build_layered(edges, algo, membership=membership)
    delta = random_edge_delta(edges, n_add=2, n_del=2, seed=5)
    new_lg, diff, affected, acts = update_layered(lg, delta)
    assert len(diff) >= delta.size  # at least the unit updates appear
    n_subs = len(np.unique(lg.members.sub))
    assert len(affected) < n_subs  # constrained scope
    # unaffected subs keep identical shortcut tables
    old_sc = lg.shortcuts[~lg.shortcuts["sub"].isin(affected)].reset_index(drop=True)
    new_sc = new_lg.shortcuts[~new_lg.shortcuts["sub"].isin(affected)]
    new_sc = new_sc.sort_values(["sub", "entry", "dst"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        old_sc.sort_values(["sub", "entry", "dst"]).reset_index(drop=True), new_sc
    )


def test_upper_graph_has_both_edge_types(spark):
    edges, membership = fig2_graph()
    algo = alg.sssp(source=0)
    lg, _ = build_layered(edges, algo, membership=membership, replicate=False)
    up = lg.upper_graph
    assert set(up.etype.unique()) == {0, 1}
    # Fig 2d: L_up has edges (v4->v5), (v5->v0) and shortcut v0->v4.
    orig = set(zip(up[up.etype == 0].src, up[up.etype == 0].dst))
    assert (4, 5) in orig and (5, 0) in orig
    sc = set(zip(up[up.etype == 1].src, up[up.etype == 1].dst))
    assert (0, 4) in sc


@pytest.mark.filterwarnings("error::FutureWarning")
@pytest.mark.parametrize("subs", [(1, 2), (2,)], ids=["keep_rows", "no_rows"])
def test_update_of_subgraph_without_entries_keeps_types(subs):
    """A min ΔG that touches only a subgraph without entries adds no
    shortcut rows; the shortcut table and L_up graph keep their types."""
    from repro.graphs.updates import GraphDelta

    # Sub 1 = {1..4} has entry 1 (edge 0->1); sub 2 = {5..8} only exits to 0.
    edges = pd.DataFrame(
        {
            "src": [0, 1, 2, 3, 4, 1, 5, 6, 7, 8, 5, 8],
            "dst": [1, 2, 3, 4, 1, 3, 6, 7, 8, 5, 7, 0],
            "w": [1.0] * 12,
        }
    )
    membership = pd.DataFrame({"id": np.arange(1, 9), "sub": [1] * 4 + [2] * 4})
    membership = membership[membership["sub"].isin(subs)]
    algo = alg.sssp(source=0)
    lg, _ = build_layered(edges, algo, membership=membership, replicate=False)
    b = int(lg.members.sub_of(np.array([5]))[0])
    assert b not in set(lg.members.sub[lg.roles[0]])
    delta = GraphDelta(
        added=pd.DataFrame({"src": [6], "dst": [8], "w": [1.0]}),
        deleted=pd.DataFrame({"src": pd.Series(dtype=np.int64), "dst": pd.Series(dtype=np.int64)}),
    )
    new_lg, _, affected, _ = update_layered(lg, delta)
    assert affected.tolist() == [b]
    pd.testing.assert_frame_equal(new_lg.shortcuts, lg.shortcuts)
    ids, w = np.dtype(np.int64), np.dtype(np.float64)
    assert new_lg.shortcuts.dtypes.to_dict() == {"sub": ids, "entry": ids, "dst": ids, "w": w}
    up = new_lg.upper_graph
    assert up.dtypes.to_dict() == {"src": ids, "dst": ids, "w": w, "etype": ids}
