"""Layered-graph structure as arrays: membership and boundary roles (Def. 1).

:class:`Members` is the membership in (sub, id) order with an id lookup;
:func:`place_rows` places edge rows in it (each row's subgraph, each
member's cross rows) and :func:`compute_roles` turns the cross-row counts
into ``(is_entry, is_exit)`` flags. This is the only form of membership and
roles: ``layph.layered`` lays out the candidate and the kept layered graph
with these functions, runs the Def. 2 density test on the candidate's
counts, and patches the counts per ΔG.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


class Members:
    """Membership as arrays in table order, with an id lookup; ``-1`` stands
    for "not a member". Each id occurs once. A layered graph's membership is
    in (sub, id) order (:meth:`sub_major`): each subgraph's members, proxies
    included, are one block, ids ascending."""

    def __init__(self, ids: np.ndarray, sub: np.ndarray):
        self.id, self.sub = ids, sub
        # A hash index: each member id occurs once, and the queries come in
        # any order, where a binary search costs several times more.
        self._index = pd.Index(ids)
        self._sub = np.append(sub, -1)  # position -1 (a non-member) reads sub -1
        self._frame = None

    def frame(self) -> pd.DataFrame:
        """The members as an ``id, sub`` frame, in table order. Built once
        and shared, as the membership never changes: read, never modify."""
        if self._frame is None:
            self._frame = pd.DataFrame({"id": self.id, "sub": self.sub})
        return self._frame

    def subset(self, keep: np.ndarray) -> "Members":
        return Members(self.id[keep], self.sub[keep])

    def sub_major(self) -> "Members":
        """The same members in (sub, id) order."""
        o = np.lexsort((self.id, self.sub))
        return Members(self.id[o], self.sub[o])

    def index(self, v: np.ndarray) -> np.ndarray:
        """Table position of each id, -1 for a non-member."""
        return self._index.get_indexer(np.asarray(v, np.int64))

    def sub_at(self, i: np.ndarray) -> np.ndarray:
        """Subgraph at each table position, -1 at position -1."""
        return self._sub[i]

    def sub_of(self, v: np.ndarray) -> np.ndarray:
        """Subgraph of each id, -1 for a non-member."""
        return self.sub_at(self.index(v))


def place_rows(
    members: Members, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Place the rows ``(src, dst)`` in the membership, one lookup per
    endpoint array: per row, the subgraph its endpoints share, else -1 (a
    cross row); per member (table order), the cross rows entering it and
    leaving it (Def. 1)."""
    si, di = members.index(src), members.index(dst)
    s, d = members.sub_at(si), members.sub_at(di)
    cross = s != d
    n = len(members.id)
    return (
        np.where(cross, -1, s),
        np.bincount(di[cross & (di >= 0)], minlength=n),
        np.bincount(si[cross & (si >= 0)], minlength=n),
    )


def compute_roles(
    members: Members, cross_in: np.ndarray, cross_out: np.ndarray, forced_entries
) -> tuple[np.ndarray, np.ndarray]:
    """``(is_entry, is_exit)`` per member (Def. 1) from its cross-row counts.

    ``forced_entries`` (algorithm roots, DESIGN.md §6) are entries even when
    structurally interior, so root messages reach L_up.
    """
    forced = np.fromiter(forced_entries, np.int64, len(forced_entries))
    return (cross_in > 0) | np.isin(members.id, forced), cross_out > 0
