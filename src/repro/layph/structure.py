"""Layered-graph structure: membership, boundary roles (Def. 1) and the
density test (Def. 2).

Membership lookups and the per-member cross-edge counts that decide roles
are numpy arrays (:class:`Members`, :func:`cross_degrees`), shared by the
offline build and the per-ΔG patch in ``layph.layered``; the role and
membership tables are pandas views of them. The per-subgraph compute runs
as flattened numpy passes over the affected subgraphs (``engine.local``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd


class Members:
    """Membership as arrays in table order (real members sub-major, then
    proxies), with an id lookup; ``-1`` stands for "not a member"."""

    def __init__(self, ids: np.ndarray, sub: np.ndarray):
        self.id, self.sub = ids, sub
        self._order = np.argsort(ids, kind="stable")
        self._sorted = ids[self._order]
        self._sub = np.append(sub, -1)  # position -1 (a non-member) reads sub -1

    @classmethod
    def of(cls, membership: pd.DataFrame) -> "Members":
        return cls(membership.id.to_numpy(np.int64), membership["sub"].to_numpy(np.int64))

    def frame(self) -> pd.DataFrame:
        return pd.DataFrame({"id": self.id, "sub": self.sub})

    def subset(self, keep: np.ndarray) -> "Members":
        return Members(self.id[keep], self.sub[keep])

    def index(self, v: np.ndarray) -> np.ndarray:
        """Table position of each id, -1 for a non-member."""
        v = np.asarray(v, np.int64)
        out = np.full(len(v), -1, np.int64)
        if len(self._sorted):
            pos = np.minimum(np.searchsorted(self._sorted, v), len(self._sorted) - 1)
            hit = self._sorted[pos] == v
            out[hit] = self._order[pos[hit]]
        return out

    def sub_at(self, i: np.ndarray) -> np.ndarray:
        """Subgraph at each table position, -1 at position -1."""
        return self._sub[i]

    def sub_of(self, v: np.ndarray) -> np.ndarray:
        """Subgraph of each id, -1 for a non-member."""
        return self.sub_at(self.index(v))


def cross_degrees(
    members: Members, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per member (table order): the rows entering it from outside its
    subgraph and the rows leaving it to outside its subgraph (Def. 1)."""
    si, di = members.index(src), members.index(dst)
    cross = members.sub_at(si) != members.sub_at(di)
    n = len(members.id)
    return (
        np.bincount(di[cross & (di >= 0)], minlength=n),
        np.bincount(si[cross & (si >= 0)], minlength=n),
    )


def role_flags(
    members: Members, cross_in: np.ndarray, cross_out: np.ndarray, forced_entries
) -> tuple[np.ndarray, np.ndarray]:
    """``(is_entry, is_exit)`` per member from its cross-row counts."""
    forced = np.fromiter(forced_entries, np.int64, len(forced_entries))
    return (cross_in > 0) | np.isin(members.id, forced), cross_out > 0


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
    members = Members.of(membership)
    counts = cross_degrees(
        members, edges.src.to_numpy(np.int64), edges.dst.to_numpy(np.int64)
    )
    t = membership.copy()
    t["is_entry"], t["is_exit"] = role_flags(members, *counts, forced_entries)
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
