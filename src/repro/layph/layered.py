"""Layered graph: offline construction (§IV-A) and incremental update (§IV-B).

A :class:`LayeredGraph` holds one layer-edge table: numpy columns ``src,
dst, w, sub`` in (src, dst) order, the prepared weights rerouted through
the replication plan's proxies, ``sub`` the subgraph of an intra row and -1
for a cross (upper-layer) row. Beside it sit the real graph
(``base_edges``), the membership, proxies included, in one (sub, id) order
(the shortcut pass's cell layout and the upload's propagation order), the
frozen plan, and the counts that let it be patched:

* rerouted rows per plan row — a host↔proxy link exists while its count is
  above 0;
* cross rows entering and leaving each member, and the ``(is_entry,
  is_exit)`` flags they give (Def. 1).

Every vertex it has held has a slot (``layph.slots``): the table carries
slot columns ``s_src, s_dst`` beside its id columns, spliced with them, the
members their slots with a dense slot → row lookup, the shortcut table
(``shortcut_slots``) names slots, and per slot it keeps the rows the slot
ends and the round's vertex set. These arrays are the only form of
membership, roles and the vertex set. The tables the engine reads are
views, each a ``cached_property`` built once per graph by gathers: by slot
``intra_edges``, the L_up graph ``upper`` and the cross-layer table
``assignment_runs``; by id ``layer_edges``, ``shortcuts``, the min round's
``upper_graph`` and the id arrays derived from the roles.

:func:`layout` lays out one membership and plan. :func:`build_layered` runs
its rows twice: once on every candidate community with the full replication
plan, whose per-subgraph counts decide Def. 2, and once, with the slots, on
the kept communities.
Membership and the plan are then frozen across ΔG batches (DESIGN.md §5.3),
and a prepared weight depends only on its source's out-edges, so
:func:`update_layered` re-prepares and re-routes only the rows of the
sources ΔG touches, splices them into the table
(:func:`repro.graphs.schema.splice_runs`, as ``apply_delta`` splices the
real graph), and recomputes the shortcuts of the affected subgraphs only,
handing the pass slot arrays and the old graph's membership, keyed by
slot, as its cells.
Both run in the driver and take no ``spark``; the shortcut pass runs at
the workload's tolerance ``algo.tol``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import pandas as pd

from repro.engine.algorithms import Algorithm
from repro.graphs.schema import (
    canonical_edges, edge_frame, pair_order, ranges, source_rows, splice_runs,
)
from repro.graphs.updates import GraphDelta, apply_delta
from repro.incremental.revision import prepared_edge_diff
from repro.layph.community import lpa_communities, planted_communities
from repro.layph.replication import Proxies, apply_plan, build_plan, route
from repro.layph.shortcuts import compute_shortcuts, update_shortcuts
from repro.layph.slots import Slots
from repro.layph.structure import Members, compute_roles, place_rows
from repro.layph.upper import UpperGraph


@dataclass(frozen=True, eq=False)
class LayeredGraph:
    """One layered graph; :func:`update_layered` returns a new one and
    leaves this one valid (the engine reads both within a round)."""

    algo: Algorithm
    base_edges: pd.DataFrame  # the real graph, canonical
    src: np.ndarray  # layer-edge table, (src, dst) order
    dst: np.ndarray
    w: np.ndarray
    sub: np.ndarray  # subgraph of an intra row, -1 for a cross row
    via: np.ndarray  # plan row a rerouted row passes through, else -1
    s_src: np.ndarray  # the table's endpoints as slots
    s_dst: np.ndarray
    members: Members  # proxies included, in (sub, id) order, with their slots
    proxies: Proxies
    plan_slots: tuple[np.ndarray, np.ndarray]  # per plan row: (host slot, proxy slot)
    forced_entries: frozenset
    link_count: np.ndarray  # rerouted rows per plan row
    cross_in: np.ndarray  # per member: cross rows into it
    cross_out: np.ndarray  # per member: cross rows out of it
    roles: tuple[np.ndarray, np.ndarray]  # per member: (is_entry, is_exit)
    slots: Slots  # every id this graph or an earlier one has held
    ends: np.ndarray  # per slot: table rows it ends, plus rows preparing dropped from it
    universe: np.ndarray  # per slot: in the round's vertex set
    shortcut_slots: pd.DataFrame | None  # sub, entry, dst (slots), w; None in a bare layout

    # ---- views of the edge table and roles ---------------------------------
    @cached_property
    def layer_edges(self) -> pd.DataFrame:
        return edge_frame(self.src, self.dst, self.w)

    @cached_property
    def intra_edges(self) -> dict:
        """Intra-subgraph edges by slot: ``src, dst`` (slots), ``w, sub``
        arrays, in table order."""
        rows = self.sub >= 0
        return {"src": self.s_src[rows], "dst": self.s_dst[rows], "w": self.w[rows],
                "sub": self.sub[rows]}

    @cached_property
    def entry_ids(self) -> np.ndarray:
        """Entry members, in member order."""
        return self.members.id[self.roles[0]]

    @cached_property
    def boundary_ids(self) -> np.ndarray:
        """Entry or exit members, in member order."""
        return self.members.id[self.roles[0] | self.roles[1]]

    @cached_property
    def interior_ids(self) -> np.ndarray:
        """Members that are neither entry nor exit, in member order."""
        return self.members.id[~(self.roles[0] | self.roles[1])]

    def density_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The terms of Def. 2 per subgraph id: entries |V_I|, exits |V_O|
        and intra rows |E_i|. A subgraph is dense when |V_I|·|V_O| < |E_i|."""
        return _density(self.roles, self.members.sub, self.sub)

    # ---- views that read the shortcut tables -------------------------------
    @cached_property
    def _sc(self) -> dict:
        """The shortcut table's columns as arrays, read once."""
        return {c: self.shortcut_slots[c].to_numpy() for c in self.shortcut_slots.columns}

    @cached_property
    def shortcuts(self) -> pd.DataFrame:
        """The shortcut table by id: ``sub, entry, dst, w``, in table order."""
        sc, ids = self._sc, self.slots.ids
        return pd.DataFrame({"sub": sc["sub"], "entry": ids[sc["entry"]], "dst": ids[sc["dst"]],
                             "w": sc["w"]}, copy=False)

    @cached_property
    def _shortcut_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """Per shortcut row: (its target is boundary, its target is interior)."""
        at = self.members.at(self._sc["dst"])
        boundary = self.roles[0] | self.roles[1]
        return np.append(boundary, False)[at], np.append(~boundary, False)[at]

    @cached_property
    def upper(self) -> UpperGraph:
        """The combined L_up propagation graph by position (the sum loop's
        input): the L_up vertices — every boundary member and every other
        endpoint of the table, in the round's vertex set — in slot order;
        then the cross rows and the shortcut rows whose target is boundary,
        in table order. The shortcut pass keeps no min self-shortcut, so
        every such row is taken. Every row's endpoints are L_up vertices:
        each ends a row, so only a vertex ΔG deletes could leave the vertex
        set, and its rows are gone with it."""
        boundary = self.roles[0] | self.roles[1]
        b, inner = self.members.slot[boundary], self.members.slot[~boundary]
        on = self.universe & (self.ends > 0)
        on[inner] = False
        on[b] = self.universe[b]
        vertices = np.flatnonzero(on)
        pos = np.full(len(self.slots) + 1, -1)  # slot -1 reads -1
        pos[vertices] = np.arange(len(vertices))
        up, sc = self.sub < 0, self._sc
        on_up = self._shortcut_targets[0]
        return UpperGraph(
            vertices, self.slots.ids[vertices], pos,
            pos[np.concatenate([self.s_src[up], sc["entry"][on_up]])],
            pos[np.concatenate([self.s_dst[up], sc["dst"][on_up]])],
            np.concatenate([self.w[up], sc["w"][on_up]]), int(np.count_nonzero(up)),
        )

    @cached_property
    def upper_graph(self) -> pd.DataFrame:
        """:attr:`upper`'s rows by id, with ``etype`` (0 = original cross
        edge, 1 = shortcut): columns ``src, dst, w, etype``. The min round
        reads it."""
        g = self.upper
        return pd.DataFrame(dict(
            src=g.ids[g.src], dst=g.ids[g.dst], w=g.w,
            etype=np.repeat(np.array([0, 1], np.int64), [g.split, len(g) - g.split]),
        ), copy=False)

    @cached_property
    def assignment_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cross-layer table (shortcut rows whose target is interior) as
        ``(entry, dst, w)`` arrays, entries and targets as slots, stably
        sorted by entry slot, so each entry's rows are one run in entry
        order (members keep id order among their slots).
        :func:`update_layered` appends the fresh rows after the kept ones,
        so the shortcut table itself is not in entry order."""
        sc = self._sc
        inner = self._shortcut_targets[1]
        entry = sc["entry"][inner]
        o = np.argsort(entry, kind="stable")
        return entry[o], sc["dst"][inner][o], sc["w"][inner][o]

    def sizes(self) -> dict:
        """Size report backing Fig. 8a and Fig. 11a."""
        base = self.base_edges
        n_sc = len(self.shortcut_slots)
        return {
            "orig_vertices": int(len(np.union1d(base.src.to_numpy(), base.dst.to_numpy()))),
            "orig_edges": int(len(base)),
            "upper_vertices": int(len(self.upper.slots)),
            "upper_edges": int(len(self.upper)),
            "n_subgraphs": int(len(np.unique(self.members.sub))),
            "n_proxies": int(len(self.proxies)),
            "shortcut_rows": int(n_sc),
            "extra_space_ratio": float(n_sc / max(1, len(base))),
        }


def _entries(members: Members, is_entry: np.ndarray) -> dict:
    """The entries by slot, as the shortcut pass takes them."""
    return {"id": members.slot[is_entry], "sub": members.sub[is_entry]}


def _density(roles, member_sub: np.ndarray, row_sub: np.ndarray) -> tuple[np.ndarray, ...]:
    """:meth:`LayeredGraph.density_counts` from the roles, the members'
    subgraphs and the rows' subgraphs."""
    is_entry, is_exit = roles
    n = int(member_sub.max(initial=-1)) + 1
    rows = (member_sub[is_entry], member_sub[is_exit], row_sub[row_sub >= 0])
    return tuple(np.bincount(s, minlength=n) for s in rows)


def _rows(algo: Algorithm, prepared, membership: pd.DataFrame, plan: pd.DataFrame, forced):
    """Members plus proxies, the ``prepared`` rows ``(src, dst, w)``
    rerouted through the plan with each row's plan row and subgraph, the
    cross-row counts and the roles: ``(proxies, members, (src, dst, w,
    via, sub), (cross_in, cross_out), roles)``."""
    proxies = Proxies(plan)
    members = Members(
        np.concatenate([membership.id.to_numpy(np.int64), proxies.proxy]),
        np.concatenate([membership["sub"].to_numpy(np.int64), proxies.sub]),
    ).sub_major()
    src, dst, w, via = apply_plan(*prepared, members, proxies, algo.identity)
    sub, cross_in, cross_out = place_rows(members, src, dst)
    roles = compute_roles(members, cross_in, cross_out, forced)
    return proxies, members, (src, dst, w, via, sub), (cross_in, cross_out), roles


def layout(
    algo: Algorithm,
    edges: pd.DataFrame,
    prepared: tuple[np.ndarray, np.ndarray, np.ndarray],
    membership: pd.DataFrame,
    plan: pd.DataFrame,
    forced_entries: frozenset,
) -> LayeredGraph:
    """Lay out one membership (``id, sub``) and replication plan
    (:func:`_rows`), then the slots, in id order, of every endpoint,
    member, plan host, real vertex whose rows preparing dropped, and the
    source, and the round's vertex set over them. The result has no
    shortcut tables yet."""
    proxies, members, (src, dst, w, via, sub), (cross_in, cross_out), roles = _rows(
        algo, prepared, membership, plan, forced_entries)

    e_src, e_dst = edges.src.to_numpy(), edges.dst.to_numpy()
    dropped = e_src[~algo.kept(e_dst)]
    source = np.array([] if algo.source is None else [algo.source], np.int64)
    # One sort places every id: the slots are the sorted unique ids.
    named = [src, dst, dropped, source, members.id, proxies.host, proxies.proxy]
    ids, at = np.unique(np.concatenate(named), return_inverse=True)
    s_src, s_dst, s_dropped, s_source, s_members, s_host, s_proxy = np.split(
        at, np.cumsum([len(a) for a in named[:-1]]))
    slots = Slots.build(ids, proxies.proxy)
    ends = np.bincount(np.concatenate([s_src, s_dst, s_dropped]), minlength=len(slots))
    universe = ends > 0
    universe[s_source] = True
    return LayeredGraph(
        algo, edges, src, dst, w, sub, via, s_src, s_dst, members.placed(s_members),
        proxies, (s_host, s_proxy), forced_entries, proxies.count(via), cross_in, cross_out,
        roles, slots, ends, universe, None,
    )


def build_layered(
    edges: pd.DataFrame,
    algo: Algorithm,
    *,
    membership: pd.DataFrame | None = None,
    replicate: bool = True,
) -> tuple[LayeredGraph, int]:
    """Offline layering (§IV-A): discovery → replication plan on every
    candidate → Def. 2 on the candidate layout → layout of the dense
    subgraphs → shortcut deduction. Returns the layered graph and the
    number of activations spent on shortcut deduction.

    ``membership``: pass the generator's planted communities to skip LPA
    (tests/benchmarks), or None to run discovery.
    """
    if membership is None:
        membership = lpa_communities(edges)
    else:
        membership = planted_communities(membership)

    edges = canonical_edges(edges)
    prepared = algo.prepare_rows(edges.src.to_numpy(), edges.dst.to_numpy(), edges.w.to_numpy())
    forced = frozenset({algo.source} if (algo.source is not None and algo.is_min) else ())

    # Replication is planned on every candidate community first; the Def. 2
    # density test then runs on the *reshaped* graph (§IV-A1: replication is
    # what makes high-degree-boundary communities keep few entries/exits).
    candidates = Members(membership.id.to_numpy(np.int64), membership["sub"].to_numpy(np.int64))
    plan = (
        build_plan(prepared[0], prepared[1], candidates, exclude=forced)
        if replicate
        else pd.DataFrame(columns=["host", "sub", "direction", "proxy"])
    )
    _, members, rows, _, roles = _rows(algo, prepared, membership, plan, forced)
    n_in, n_out, n_e = _density(roles, members.sub, rows[4])
    kept = np.flatnonzero(n_in * n_out < n_e)
    lg = layout(
        algo, edges, prepared, membership[membership["sub"].isin(kept)],
        plan[plan["sub"].isin(kept)].reset_index(drop=True), forced,
    )
    shortcuts, acts = compute_shortcuts(
        lg.intra_edges, _entries(lg.members, lg.roles[0]), algo, cells=lg.members.by_slot()
    )
    return replace(lg, shortcut_slots=shortcuts), acts


def _rerouted(s_src, s_dst, via, proxies: Proxies, proxy_slot):
    """The slot columns of rows after :func:`route`, given before it: a
    rerouted row's proxy slot replaces its host's (in place)."""
    r = np.flatnonzero(via >= 0)
    inward = proxies.inward[via[r]]
    s_src[r[inward]] = proxy_slot[via[r[inward]]]
    s_dst[r[~inward]] = proxy_slot[via[r[~inward]]]
    return s_src, s_dst


def update_layered(
    lg: LayeredGraph, delta: GraphDelta,
) -> tuple[LayeredGraph, pd.DataFrame, np.ndarray, int]:
    """Apply ΔG to the layered graph (§IV-B).

    Keeps membership (less deleted vertices) and the plan frozen. Only the
    sources ΔG names change prepared weights, so their rows, and those of
    their 'in' proxies, are re-prepared, re-routed and patched into the
    table; a link to an 'out' proxy is added or dropped when its count
    crosses 0. Roles follow from the cross-row counts; shortcut tables are
    recomputed for *affected subgraphs only* (internal edges or boundary
    roles changed, or members deleted), with the old graph's membership as
    the pass's cells, which still hold the deleted members. The pass gets
    its tables as arrays, by slot, and its fresh rows go after the kept
    rows of the other subgraphs; ``update_shortcuts`` gets ``None`` for the
    ``spark`` it keeps for the tracer.

    Ids are looked up once, by :meth:`Slots.place`: the touched sources,
    the targets of their new runs, ΔG's added and deleted vertices and the
    source, a slot appended for each id not seen before. Everything else
    is placed by slot: the table and the shortcut table carry slot columns,
    the membership a dense slot → row array, and the vertex set is
    patched from per-slot row counts with the rows in and out.

    Returns ``(new_lg, layer_diff, affected_subs, activations)`` where
    ``layer_diff`` is the prepared-weight diff on the layer graph, in
    (src, dst) order, with its endpoints' slots as ``s_src, s_dst``.
    """
    algo, proxies, members = lg.algo, lg.proxies, lg.members
    old_src = lg.base_edges.src.to_numpy()
    base = apply_delta(lg.base_edges, delta)
    touched = delta.sources()
    added = np.asarray(delta.added_vertices, np.int64)
    deleted = np.asarray(delta.deleted_vertices, np.int64)
    b_src, b_dst, b_w = base.src.to_numpy(), base.dst.to_numpy(), base.w.to_numpy()
    lo = np.searchsorted(b_src, touched)
    n = np.searchsorted(b_src, touched, "right") - lo
    rows = ranges(lo, n)
    source = np.array([] if algo.source is None else [algo.source], np.int64)
    slots, at = lg.slots.place(np.concatenate([touched, b_dst[rows], added, deleted, source]))
    t_slot, d_slot, a_slot, x_slot, source_slot = np.split(
        at, np.cumsum([len(touched), len(rows), len(added), len(deleted)]))
    dead = members.at(x_slot)
    keep = np.ones(len(members.id), bool)
    keep[dead[dead >= 0]] = False
    new_members = members if keep.all() else members.subset(keep)
    cells, new_cells = members.by_slot(), new_members.by_slot()

    # Rows in: the touched sources' out-edges, re-prepared and re-routed.
    kept = algo.kept(b_dst[rows])
    p_src, p_dst, p_w = algo.prepare_rows(b_src[rows], b_dst[rows], b_w[rows])
    ps_src, ps_dst = np.repeat(t_slot, n)[kept], d_slot[kept]
    r_src, r_dst, via = route(
        p_src, p_dst, new_cells.sub_of(ps_src), new_cells.sub_of(ps_dst), proxies
    )
    rs_src, rs_dst = _rerouted(ps_src, ps_dst, via, proxies, lg.plan_slots[1])
    # Rows out: the touched sources' runs and those of their 'in' proxies
    # (every row an 'in' proxy sends comes from its host).
    own_in = proxies.inward & np.isin(proxies.host, touched)
    out = source_rows(lg.src, np.union1d(touched, proxies.proxy[own_in]))
    count = lg.link_count + proxies.count(via) - proxies.count(lg.via[out])
    # Links: a touched host's 'in' links are rebuilt with its run; an 'out'
    # link appears or disappears when its count crosses 0.
    live, was = count > 0, lg.link_count > 0
    gone = proxies.proxy[~proxies.inward & was & ~live]
    out = np.union1d(out, source_rows(lg.src, np.sort(gone)))
    links = np.flatnonzero((own_in & live) | (~proxies.inward & live & ~was))
    l_src, l_dst = proxies.links(links)
    host, proxy = (s[links] for s in lg.plan_slots)
    inward = proxies.inward[links]
    new = dict(
        src=np.concatenate([r_src, l_src]),
        dst=np.concatenate([r_dst, l_dst]),
        w=np.concatenate([p_w, np.full(len(l_src), algo.identity)]),
        via=np.concatenate([via, np.full(len(l_src), -1)]),
        s_src=np.concatenate([rs_src, np.where(inward, host, proxy)]),
        s_dst=np.concatenate([rs_dst, np.where(inward, proxy, host)]),
    )
    o = pair_order(new["src"], new["dst"])
    new = {c: v[o] for c, v in new.items()}
    old = {c: getattr(lg, c)[out] for c in ("src", "dst", "w", "s_src", "s_dst")}
    diff = prepared_edge_diff(old, new, carry=("s_src", "s_dst"))

    # Patch: every source with rows out lost its whole run.
    _, c_in, c_out = place_rows(cells, old["s_src"], old["s_dst"])
    n_sub, a_in, a_out = place_rows(new_cells, new["s_src"], new["s_dst"])
    src, dst, w, sub, via, s_src, s_dst = splice_runs(
        (lg.src, lg.dst, lg.w, lg.sub, lg.via, lg.s_src, lg.s_dst), out,
        (new["src"], new["dst"], new["w"], n_sub, new["via"], new["s_src"], new["s_dst"]),
    )
    cross_in = (lg.cross_in - c_in)[keep] + a_in
    cross_out = (lg.cross_out - c_out)[keep] + a_out

    # The vertex set: per-slot row counts, patched with the rows in and out
    # (and the rows preparing drops, whose sources stay vertices), plus the
    # added vertices and the source, less the deleted vertices.
    lo_old = np.searchsorted(old_src, touched)
    n_old = np.searchsorted(old_src, touched, "right") - lo_old
    old_dst = lg.base_edges.dst.to_numpy()[ranges(lo_old, n_old)]
    ends = slots.pad(lg.ends, 0)
    np.add.at(ends, np.concatenate([new["s_src"], new["s_dst"], np.repeat(t_slot, n)[~kept]]), 1)
    np.subtract.at(ends, np.concatenate(
        [old["s_src"], old["s_dst"], np.repeat(t_slot, n_old)[~algo.kept(old_dst)]]), 1)
    universe = ends > 0
    universe[np.concatenate([a_slot, source_slot])] = True
    universe[x_slot] = False

    # Changed intra edges, classified with the OLD membership: a deleted
    # member's intra edges must still reach its subgraph's shortcut update,
    # and every other vertex keeps its subgraph.
    d = {c: diff[c].to_numpy() for c in ("s_src", "s_dst", "w_old", "w_new")}
    d_sub = place_rows(cells, d["s_src"], d["s_dst"])[0]
    same = d_sub >= 0
    # Affected subgraphs: an internal edge changed, a boundary role changed
    # (entry changes alter the shortcut table, exit changes move vertices
    # between L_up and the interior), or members were deleted.
    old_e, old_x = lg.roles
    new_e, new_x = roles = compute_roles(new_members, cross_in, cross_out, lg.forced_entries)
    moved = (old_e[keep] != new_e) | (old_x[keep] != new_x)
    affected = np.unique(np.concatenate([d_sub[same], new_members.sub[moved], members.sub[~keep]]))
    is_affected = np.zeros(int(members.sub.max(initial=-1)) + 2, bool)  # sub -1 reads False
    is_affected[affected] = True

    mine = np.flatnonzero(is_affected[sub])
    changed = {"sub": d_sub[same], "src": d["s_src"][same], "dst": d["s_dst"][same],
               "w_old": d["w_old"][same], "w_new": d["w_new"][same]}
    fresh, acts = update_shortcuts(
        None, {"sub": sub[mine], "src": s_src[mine], "dst": s_dst[mine], "w": w[mine]},
        _entries(new_members, new_e), lg.shortcut_slots, changed,
        algo, subs=affected, cells=cells,
    )
    old_sc = [lg._sc[c] for c in fresh.columns]
    new_sc = [fresh[c].to_numpy() for c in fresh.columns]
    if len(x_slot):
        # A deleted member's sum cell can keep a residual above tol; no row
        # may lead to a vertex that is gone.
        new_sc = [c[~np.isin(new_sc[2], x_slot)] for c in new_sc]
    kept_rows = ~is_affected[old_sc[0]]
    shortcut_slots = pd.DataFrame({
        c: np.concatenate([o[kept_rows], n]) for c, o, n in zip(fresh.columns, old_sc, new_sc)
    }, copy=False)
    new_lg = LayeredGraph(
        algo, base, src, dst, w, sub, via, s_src, s_dst, new_members, proxies, lg.plan_slots,
        lg.forced_entries, count, cross_in, cross_out, roles, slots, ends, universe,
        shortcut_slots,
    )
    return new_lg, diff, affected, acts
