"""The vertex-slot space the Layph engine keeps across rounds.

A slot is a fixed integer position. Every id a layered graph has held gets
one: real vertices, proxies and the ids ΔG adds. At build time slots follow
id order; later rounds append a slot for each id not seen before, so a
slot never moves and per-slot arrays (states, row counts, the round's
vertex universe) stay valid from one round to the next, only growing at
the end. Membership never gains an id after the build, so members keep
their build-time slots and, among themselves, id order.

Ids are looked up in one place, :meth:`Slots.place`, by binary search over
a sorted copy: the layered-graph update looks up ΔG's ids and the runs it
re-prepares, never a whole table. :class:`Messages` carries messages by
slot between the phases of a sum round.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Slots:
    """Slot → id (``ids``), the slots in id order (``order``) and a
    per-slot proxy flag (``proxy``)."""

    def __init__(self, ids: np.ndarray, order: np.ndarray, proxy: np.ndarray):
        self.ids, self.order, self.proxy = ids, order, proxy
        self._sorted = ids[order]

    @classmethod
    def build(cls, ids: np.ndarray, proxies: np.ndarray) -> "Slots":
        """Slots for the sorted, unique ``ids``, in id order; ``proxies`` (a
        subset) are flagged."""
        proxy = np.zeros(len(ids), bool)
        proxy[np.searchsorted(ids, proxies)] = True
        return cls(ids, np.arange(len(ids)), proxy)

    def __len__(self) -> int:
        return len(self.ids)

    def find(self, v: np.ndarray) -> np.ndarray:
        """Slot of each id, -1 where it has none."""
        v = np.asarray(v, np.int64)
        if not len(self.ids):
            return np.full(len(v), -1)
        i = np.minimum(np.searchsorted(self._sorted, v), len(self.ids) - 1)
        return np.where(self._sorted[i] == v, self.order[i], -1)

    def place(self, v: np.ndarray) -> tuple["Slots", np.ndarray]:
        """The slot of each id, appending a slot for each id not seen
        before (a real vertex). Returns the slot space that holds them all
        (``self`` when nothing was appended) and the slots."""
        at = self.find(v)
        new = np.unique(np.asarray(v, np.int64)[at < 0])
        if not len(new):
            return self, at
        n = len(self.ids)
        where = np.searchsorted(self._sorted, new)
        out = Slots(np.append(self.ids, new),
                    np.insert(self.order, where, np.arange(n, n + len(new))),
                    np.append(self.proxy, np.zeros(len(new), bool)))
        at[at < 0] = n + np.searchsorted(new, np.asarray(v, np.int64)[at < 0])
        return out, at

    def pad(self, a: np.ndarray, fill) -> np.ndarray:
        """A per-slot array of an older, shorter slot space, extended to
        this one with ``fill`` (a copy)."""
        out = np.full(len(self.ids), fill, dtype=a.dtype)
        out[:len(a)] = a
        return out


@dataclass(frozen=True)
class Messages:
    """Messages by slot: ``m[i]`` at slot ``at[i]``, each slot at most once."""

    at: np.ndarray
    m: np.ndarray

    def __len__(self) -> int:
        return len(self.at)
