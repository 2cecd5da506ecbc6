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

These arrays are the only form of membership and roles. The pandas tables
the engine reads (``layer_edges``, ``intra_edges``, ``upper_graph``), the
cross-layer table's arrays (``assignment_runs``) and the id arrays derived
from the roles are views, each a ``cached_property`` built once per graph.

:func:`layout` lays out one membership and plan. :func:`build_layered` runs
it twice: once on every candidate community with the full replication plan,
whose per-subgraph counts decide Def. 2, and once on the kept communities.
Membership and the plan are then frozen across ΔG batches (DESIGN.md §5.3),
and a prepared weight depends only on its source's out-edges, so
:func:`update_layered` re-prepares and re-routes only the rows of the
sources ΔG touches, splices them into the table
(:func:`repro.graphs.schema.splice_runs`, as ``apply_delta`` splices the
real graph), and recomputes the shortcuts of the affected subgraphs only,
handing the pass arrays and the old graph's membership as its cells.
Both run in the driver and take no ``spark``; the shortcut pass runs at
the workload's tolerance ``algo.tol``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import pandas as pd

from repro.engine.algorithms import Algorithm
from repro.graphs.schema import canonical_edges, edge_frame, pair_order, source_rows, splice_runs
from repro.graphs.updates import GraphDelta, apply_delta
from repro.incremental.revision import prepared_edge_diff
from repro.layph.community import lpa_communities, planted_communities
from repro.layph.replication import Proxies, apply_plan, build_plan, route
from repro.layph.shortcuts import compute_shortcuts, update_shortcuts
from repro.layph.structure import Members, compute_roles, place_rows


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
    members: Members  # proxies included, in (sub, id) order
    proxies: Proxies
    forced_entries: frozenset
    link_count: np.ndarray  # rerouted rows per plan row
    cross_in: np.ndarray  # per member: cross rows into it
    cross_out: np.ndarray  # per member: cross rows out of it
    roles: tuple[np.ndarray, np.ndarray]  # per member: (is_entry, is_exit)
    shortcuts: pd.DataFrame | None  # sub, entry, dst, w; None in a bare layout

    # ---- views of the edge table and roles ---------------------------------
    @cached_property
    def layer_edges(self) -> pd.DataFrame:
        return edge_frame(self.src, self.dst, self.w)

    @cached_property
    def intra_edges(self) -> pd.DataFrame:
        """Intra-subgraph edges: src, dst, w, sub."""
        # copy=False keeps the new arrays as the columns: pandas would
        # otherwise copy them into one block per dtype.
        rows = self.sub >= 0
        return pd.DataFrame({c: getattr(self, c)[rows] for c in ("src", "dst", "w", "sub")},
                            copy=False)

    @cached_property
    def vertex_ids(self) -> np.ndarray:
        """Sorted ids of every endpoint of the layer graph."""
        return np.unique(np.concatenate([self.src, self.dst]))

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
        (is_entry, is_exit), sub = self.roles, self.members.sub
        n = int(sub.max(initial=-1)) + 1
        rows = (sub[is_entry], sub[is_exit], self.sub[self.sub >= 0])
        return tuple(np.bincount(s, minlength=n) for s in rows)

    @cached_property
    def upper_vertex_ids(self) -> np.ndarray:
        """L_up vertices: boundary members plus every non-member endpoint."""
        outliers = np.setdiff1d(self.vertex_ids, self.members.id)
        return np.union1d(outliers, self.boundary_ids)

    # ---- views that read the shortcut tables -------------------------------
    @cached_property
    def _shortcut_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """Per shortcut row: (its target is boundary, its target is interior)."""
        at = self.members.index(self.shortcuts.dst.to_numpy())
        boundary = self.roles[0] | self.roles[1]
        return np.append(boundary, False)[at], np.append(~boundary, False)[at]

    @cached_property
    def upper_graph(self) -> pd.DataFrame:
        """Combined L_up propagation graph: columns src, dst, w, etype
        (0 = original cross edge, 1 = shortcut): the cross rows, then the
        shortcut rows whose target is boundary. The shortcut pass keeps no
        min self-shortcut, so every such row is taken."""
        up, sc = self.sub < 0, self.shortcuts
        on_up = self._shortcut_targets[0]
        n = [np.count_nonzero(up), np.count_nonzero(on_up)]
        return pd.DataFrame(dict(
            src=np.concatenate([self.src[up], sc.entry.to_numpy()[on_up]]),
            dst=np.concatenate([self.dst[up], sc.dst.to_numpy()[on_up]]),
            w=np.concatenate([self.w[up], sc.w.to_numpy()[on_up]]),
            etype=np.repeat(np.array([0, 1], np.int64), n),
        ), copy=False)

    @cached_property
    def assignment_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cross-layer table (shortcut rows whose target is interior) as
        ``(entry, dst, w)`` arrays, stably sorted by entry, so each entry's
        rows are one run in entry order. :func:`update_layered` appends the
        fresh rows after the kept ones, so the shortcut table itself is not
        in entry order."""
        sc = self.shortcuts
        inner = self._shortcut_targets[1]
        entry = sc.entry.to_numpy()[inner]
        o = np.argsort(entry, kind="stable")
        return entry[o], sc.dst.to_numpy()[inner][o], sc.w.to_numpy()[inner][o]

    def sizes(self) -> dict:
        """Size report backing Fig. 8a and Fig. 11a."""
        base = self.base_edges
        return {
            "orig_vertices": int(len(np.union1d(base.src.to_numpy(), base.dst.to_numpy()))),
            "orig_edges": int(len(base)),
            "upper_vertices": int(len(self.upper_vertex_ids)),
            "upper_edges": int(np.count_nonzero(self.sub < 0) + self._shortcut_targets[0].sum()),
            "n_subgraphs": int(len(np.unique(self.members.sub))),
            "n_proxies": int(len(self.proxies)),
            "shortcut_rows": int(len(self.shortcuts)),
            "extra_space_ratio": float(len(self.shortcuts) / max(1, len(base))),
        }


def _entries(members: Members, is_entry: np.ndarray) -> dict:
    return {"id": members.id[is_entry], "sub": members.sub[is_entry]}


def layout(
    algo: Algorithm,
    edges: pd.DataFrame,
    prepared: tuple[np.ndarray, np.ndarray, np.ndarray],
    membership: pd.DataFrame,
    plan: pd.DataFrame,
    forced_entries: frozenset,
) -> LayeredGraph:
    """Lay out one membership (``id, sub``) and replication plan: members
    plus proxies, the ``prepared`` rows ``(src, dst, w)`` of ``edges``
    rerouted through the plan, each row's subgraph, the cross-row counts
    and the roles. The result has no shortcut tables yet."""
    proxies = Proxies(plan)
    members = Members(
        np.concatenate([membership.id.to_numpy(np.int64), proxies.proxy]),
        np.concatenate([membership["sub"].to_numpy(np.int64), proxies.sub]),
    ).sub_major()
    src, dst, w, via = apply_plan(*prepared, members, proxies, algo.identity)
    sub, cross_in, cross_out = place_rows(members, src, dst)
    return LayeredGraph(
        algo, edges, src, dst, w, sub, via, members, proxies, forced_entries,
        proxies.count(via), cross_in, cross_out,
        compute_roles(members, cross_in, cross_out, forced_entries), None,
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
    n_in, n_out, n_e = layout(algo, edges, prepared, membership, plan, forced).density_counts()
    kept = np.flatnonzero(n_in * n_out < n_e)
    lg = layout(
        algo, edges, prepared, membership[membership["sub"].isin(kept)],
        plan[plan["sub"].isin(kept)].reset_index(drop=True), forced,
    )
    shortcuts, acts = compute_shortcuts(
        lg.intra_edges, _entries(lg.members, lg.roles[0]), algo, cells=lg.members
    )
    return replace(lg, shortcuts=shortcuts), acts


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
    its tables as arrays, and its fresh rows go after the kept rows of the
    other subgraphs; ``update_shortcuts`` gets ``None`` for the ``spark``
    it keeps for the tracer.
    Returns ``(new_lg, layer_diff, affected_subs, activations)`` where
    ``layer_diff`` is the prepared-weight diff on the layer graph, in
    (src, dst) order.
    """
    algo, proxies, members = lg.algo, lg.proxies, lg.members
    base = apply_delta(lg.base_edges, delta)
    touched = delta.sources()
    deleted = np.asarray(delta.deleted_vertices, np.int64)
    keep = ~np.isin(members.id, deleted)
    new_members = members if keep.all() else members.subset(keep)

    # Rows in: the touched sources' out-edges, re-prepared and re-routed.
    b_src, b_dst, b_w = base.src.to_numpy(), base.dst.to_numpy(), base.w.to_numpy()
    rows = source_rows(b_src, touched)
    p_src, p_dst, p_w = algo.prepare_rows(b_src[rows], b_dst[rows], b_w[rows])
    r_src, r_dst, via = route(p_src, p_dst, new_members, proxies)
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
    l_src, l_dst = proxies.links(np.flatnonzero((own_in & live) | (~proxies.inward & live & ~was)))
    n_src = np.concatenate([r_src, l_src])
    n_dst = np.concatenate([r_dst, l_dst])
    n_w = np.concatenate([p_w, np.full(len(l_src), algo.identity)])
    n_via = np.concatenate([via, np.full(len(l_src), -1)])
    o = pair_order(n_src, n_dst)
    n_src, n_dst, n_w, n_via = n_src[o], n_dst[o], n_w[o], n_via[o]

    diff = prepared_edge_diff({"src": lg.src[out], "dst": lg.dst[out], "w": lg.w[out]},
                              {"src": n_src, "dst": n_dst, "w": n_w})

    # Patch: every source with rows out lost its whole run.
    _, c_in, c_out = place_rows(members, lg.src[out], lg.dst[out])
    n_sub, a_in, a_out = place_rows(new_members, n_src, n_dst)
    src, dst, w, sub, via = splice_runs(
        (lg.src, lg.dst, lg.w, lg.sub, lg.via), out, (n_src, n_dst, n_w, n_sub, n_via)
    )
    cross_in = (lg.cross_in - c_in)[keep] + a_in
    cross_out = (lg.cross_out - c_out)[keep] + a_out

    # Changed intra edges, classified with the OLD membership: a deleted
    # member's intra edges must still reach its subgraph's shortcut update,
    # and every other vertex keeps its subgraph.
    d = {c: diff[c].to_numpy() for c in diff.columns}
    d_sub = place_rows(members, d["src"], d["dst"])[0]
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
    fresh, acts = update_shortcuts(
        None, {"sub": sub[mine], "src": src[mine], "dst": dst[mine], "w": w[mine]},
        _entries(new_members, new_e), lg.shortcuts,
        {"sub": d_sub[same], **{c: v[same] for c, v in d.items()}},
        algo, subs=affected, cells=members,
    )
    old = [lg.shortcuts[c].to_numpy() for c in fresh.columns]
    new = [fresh[c].to_numpy() for c in fresh.columns]
    if not keep.all():
        # A deleted member's sum cell can keep a residual above tol; no row
        # may lead to a vertex that is gone.
        new = [c[~np.isin(new[2], deleted)] for c in new]
    kept = ~is_affected[old[0]]
    shortcuts = pd.DataFrame({
        c: np.concatenate([o[kept], n]) for c, o, n in zip(fresh.columns, old, new)
    }, copy=False)
    new_lg = LayeredGraph(
        algo, base, src, dst, w, sub, via, new_members, proxies, lg.forced_entries, count,
        cross_in, cross_out, roles, shortcuts,
    )
    return new_lg, diff, affected, acts
