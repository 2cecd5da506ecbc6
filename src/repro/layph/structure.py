"""Layered-graph structure: boundary roles (Def. 1) and the density test (Def. 2).

All structure bookkeeping is driver-side pandas (it is small — membership
and role tables); the per-subgraph compute runs as flattened numpy passes
over the affected subgraphs (``engine.local``), also in the driver.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd


@dataclass
class Roles:
    """Boundary classification of member vertices.

    ``table``: columns ``id, sub, is_entry, is_exit`` covering every member.
    """

    table: pd.DataFrame

    def entries(self, sub: int | None = None) -> pd.DataFrame:
        t = self.table[self.table.is_entry]
        return t if sub is None else t[t["sub"] == sub]

    def exits(self, sub: int | None = None) -> pd.DataFrame:
        t = self.table[self.table.is_exit]
        return t if sub is None else t[t["sub"] == sub]

    def boundary(self) -> pd.DataFrame:
        return self.table[self.table.is_entry | self.table.is_exit]

    def interior(self) -> pd.DataFrame:
        return self.table[~(self.table.is_entry | self.table.is_exit)]


def compute_roles(
    edges: pd.DataFrame,
    membership: pd.DataFrame,
    *,
    forced_entries: set[int] = frozenset(),
) -> Roles:
    """Classify members as entry/exit per Def. 1 on the given edge list.

    ``forced_entries`` marks vertices (algorithm roots, §6 of DESIGN.md)
    that must live on the upper layer even when structurally interior.
    """
    sub_of = membership.set_index("id")["sub"]
    s_sub = sub_of.reindex(edges.src).to_numpy(float)
    d_sub = sub_of.reindex(edges.dst).to_numpy(float)
    cross = pd.DataFrame(
        {
            "src": edges.src.to_numpy(),
            "dst": edges.dst.to_numpy(),
            "s_sub": s_sub,
            "d_sub": d_sub,
        }
    )
    # entry: member dst of an edge whose src is outside its sub
    ent = cross[(~np.isnan(d_sub)) & (cross.s_sub.isna() | (cross.s_sub != cross.d_sub))]
    entries = set(ent.dst.astype(np.int64))
    # exit: member src of an edge whose dst is outside its sub
    exi = cross[(~np.isnan(s_sub)) & (cross.d_sub.isna() | (cross.s_sub != cross.d_sub))]
    exits = set(exi.src.astype(np.int64))
    entries |= {v for v in forced_entries if v in sub_of.index}

    t = membership.copy()
    t["is_entry"] = t.id.isin(entries)
    t["is_exit"] = t.id.isin(exits)
    return Roles(t.reset_index(drop=True))


def internal_edge_counts(edges: pd.DataFrame, membership: pd.DataFrame) -> pd.Series:
    """|E_i| per sub: edges with both endpoints in the same subgraph."""
    sub_of = membership.set_index("id")["sub"]
    s = sub_of.reindex(edges.src).to_numpy(float)
    d = sub_of.reindex(edges.dst).to_numpy(float)
    same = (~np.isnan(s)) & (s == d)
    return pd.Series(s[same].astype(np.int64)).value_counts().sort_index()


def density_filter(
    edges: pd.DataFrame, membership: pd.DataFrame, roles: Roles, *, relabel: bool = True
) -> pd.DataFrame:
    """Keep only dense subgraphs: |V_I| × |V_O| < |E_i| (Def. 2).

    With ``relabel=False`` the surviving subs keep their original ids (used
    when a replication plan computed on the candidates must be filtered to
    the same surviving set).
    """
    n_in = roles.entries().groupby("sub").size()
    n_out = roles.exits().groupby("sub").size()
    n_e = internal_edge_counts(edges, membership)
    subs = membership["sub"].unique()
    keep = []
    for sub in subs:
        vi = int(n_in.get(sub, 0))
        vo = int(n_out.get(sub, 0))
        ei = int(n_e.get(sub, 0))
        if vi * vo < ei:
            keep.append(sub)
    out = membership[membership["sub"].isin(keep)].copy()
    if relabel:
        out["sub"] = pd.factorize(out["sub"])[0].astype(np.int64)
    return out.reset_index(drop=True)


@dataclass
class Structure:
    """Final layered structure: membership (with proxies), roles, and the
    replication plan (host, sub, direction) applied to every future edge list."""

    membership: pd.DataFrame  # id, sub (includes proxy vertices)
    roles: Roles
    plan: pd.DataFrame  # host, sub, direction ('in'|'out'), proxy
    forced_entries: set[int] = field(default_factory=set)

    @property
    def sub_of(self) -> pd.Series:
        return self.membership.set_index("id")["sub"]

    @property
    def proxy_ids(self) -> np.ndarray:
        return self.plan.proxy.to_numpy(np.int64) if len(self.plan) else np.empty(0, np.int64)

    def split_edges(self, layer_edges: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
        """Partition a (replicated) edge list into cross edges (upper-layer
        originals) and intra-subgraph edges (tagged with their sub)."""
        sub_of = self.sub_of
        s = sub_of.reindex(layer_edges.src).to_numpy(float)
        d = sub_of.reindex(layer_edges.dst).to_numpy(float)
        same = (~np.isnan(s)) & (s == d)
        up = layer_edges[~same].reset_index(drop=True)
        intra = layer_edges[same].copy()
        intra["sub"] = s[same].astype(np.int64)
        return up, intra.reset_index(drop=True)
