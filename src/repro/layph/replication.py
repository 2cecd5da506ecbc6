"""Vertex replication (§IV-A1): proxy vertices that shrink the skeleton.

A host vertex ``v`` with prepared edges into (resp. out of) at least 3
distinct members of a dense subgraph ``G_i`` gets a proxy ``v'`` planted
inside ``G_i``:

* direction 'in'  (v → many members):  edges become  v → v' (⊗-identity)
  and v' → t (original prepared weight) — v' is the sole entry for v.
* direction 'out' (many members → v):  edges become  s → v' (weight) and
  v' → v (⊗-identity) — v' is the sole exit toward v.

Because the identity weight is 0 for '+' and 1 for '·', rerouting through a
proxy is semantics-preserving on *prepared* weights (PageRank's d/N_u was
already baked in before rerouting). The plan (host, sub, direction, proxy)
is frozen at build time and re-applied to every updated edge list, so the
layered structure stays stable across small ΔG (as in the paper).

Membership is read through :class:`repro.layph.structure.Members` alone:
:func:`build_plan` counts a host's distinct targets per subgraph from the
candidates' members, and :func:`route` reroutes by the subgraphs the kept
ones give each endpoint (looked up by id at build time, by slot after).
A prepared row is rerouted by its own endpoints alone, so the layered
graph can re-route just the rows ΔG touches. A host↔proxy link exists
while at least one rerouted row passes through its proxy.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.graphs.schema import pair_order
from repro.layph.structure import Members

#: Reserved id range for proxy vertices — far above any real vertex id so
#: ΔG-inserted vertices can never collide with a proxy.
PROXY_ID_BASE = np.int64(1) << 40

#: (host, sub) lookup keys are ``host · _SUB_SPAN + sub``: exact in int64 for
#: real hosts (< PROXY_ID_BASE) and fewer than 2²³ subgraphs.
_SUB_SPAN = np.int64(1) << 23


def build_plan(
    src: np.ndarray, dst: np.ndarray, members: Members, *, exclude: set[int] = frozenset()
) -> pd.DataFrame:
    """Choose (host, sub, direction) triples worth replicating, from the
    prepared rows ``(src, dst)`` and the candidate ``members``.

    §IV-A1: a host gets a proxy in a subgraph when its cross rows into
    ('in') or out of ('out') that subgraph reach at least 3 DISTINCT member
    targets — a host hammering a single portal gains nothing from a proxy.
    A host that is a member of the subgraph has no cross rows with it.
    ``exclude`` hosts (algorithm roots) are never replicated so root
    messages always enter the layered system at a real upper-layer vertex.
    """
    s_sub, d_sub = members.sub_of(src), members.sub_of(dst)
    cross = s_sub != d_sub
    parts = []
    for direction, host, sub, target in (("in", src, d_sub, dst), ("out", dst, s_sub, src)):
        rows = cross & (sub >= 0)
        n = (
            pd.DataFrame({"host": host[rows], "sub": sub[rows], "tgt": target[rows]})
            .groupby(["host", "sub"])["tgt"].nunique()
        )
        part = n[n >= 3].reset_index()[["host", "sub"]]
        part["direction"] = direction
        parts.append(part)
    plan = pd.concat(parts, ignore_index=True)
    plan = plan[~plan.host.isin(exclude)]
    plan = plan.sort_values(["host", "sub", "direction"]).reset_index(drop=True)
    # Proxies live in a reserved high id range so they can never collide
    # with vertices inserted later by ΔG batches.
    plan["proxy"] = PROXY_ID_BASE + np.arange(len(plan), dtype=np.int64)
    return plan


def _sorted_keys(key: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys of the masked rows, ascending, and the row of each."""
    rows = np.flatnonzero(mask)
    rows = rows[np.argsort(key[rows], kind="stable")]
    return key[rows], rows


class Proxies:
    """The frozen replication plan as arrays, one entry per plan row, with
    its (host, sub) → plan-row lookups."""

    def __init__(self, plan: pd.DataFrame):  # host, sub, direction ('in'|'out'), proxy
        self.plan = plan
        self.host = plan.host.to_numpy(np.int64)
        self.proxy = plan.proxy.to_numpy(np.int64)
        self.inward = (plan.direction == "in").to_numpy()
        self.sub = plan["sub"].to_numpy(np.int64)
        if len(self.sub) and self.sub.max() >= _SUB_SPAN:
            raise ValueError(f"a replication plan supports fewer than {_SUB_SPAN} subgraphs")
        key = self.host * _SUB_SPAN + self.sub
        self._in = _sorted_keys(key, self.inward)
        self._out = _sorted_keys(key, ~self.inward)

    def __len__(self) -> int:
        return len(self.plan)

    def find(self, host: np.ndarray, sub: np.ndarray, *, inward: bool) -> np.ndarray:
        """Plan row of each ``(host, sub)`` pair in one direction, -1 if none."""
        keys, rows = self._in if inward else self._out
        out = np.full(len(host), -1, np.int64)
        ok = (sub >= 0) & (host < PROXY_ID_BASE)
        if len(keys) and ok.any():
            q = host[ok] * _SUB_SPAN + sub[ok]
            pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
            out[ok] = np.where(keys[pos] == q, rows[pos], -1)
        return out

    def count(self, via: np.ndarray) -> np.ndarray:
        """Rows per plan row, from each row's plan row (-1: none)."""
        return np.bincount(via[via >= 0], minlength=len(self))

    def links(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` of the host↔proxy link of each plan row: host →
        proxy for 'in', proxy → host for 'out'."""
        h, p, inward = self.host[rows], self.proxy[rows], self.inward[rows]
        return np.where(inward, h, p), np.where(inward, p, h)


def route(
    src: np.ndarray, dst: np.ndarray, s_sub: np.ndarray, d_sub: np.ndarray, proxies: Proxies
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reroute prepared rows through the plan's proxies: per row its new
    ``(src, dst)`` and the plan row it passes through (-1: not rerouted).
    ``s_sub`` and ``d_sub`` are the subgraphs of each row's endpoints (-1
    for a non-member), as the kept membership places them.

    'in': a cross row host → t into a subgraph with a proxy for host becomes
    proxy → t. 'out': a cross row s → host out of a subgraph with a proxy
    for host becomes s → proxy. Weights are kept.
    """
    cross = (s_sub < 0) | (s_sub != d_sub)
    via_in = np.where(cross, proxies.find(src, d_sub, inward=True), -1)
    via_out = np.where(cross & (via_in < 0), proxies.find(dst, s_sub, inward=False), -1)
    new_src, new_dst = src.copy(), dst.copy()
    new_src[via_in >= 0] = proxies.proxy[via_in[via_in >= 0]]
    new_dst[via_out >= 0] = proxies.proxy[via_out[via_out >= 0]]
    return new_src, new_dst, np.maximum(via_in, via_out)


def apply_plan(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray,
    members: Members, proxies: Proxies, identity: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The replicated edge list of a whole prepared table, sorted by
    (src, dst), with the plan row each row passes through (-1 for a row not
    rerouted and for a link). A proxy with no rerouted row gets no link and
    so disappears from the edge list."""
    r_src, r_dst, via = route(src, dst, members.sub_of(src), members.sub_of(dst), proxies)
    l_src, l_dst = proxies.links(np.flatnonzero(proxies.count(via)))
    s = np.concatenate([r_src, l_src])
    d = np.concatenate([r_dst, l_dst])
    o = pair_order(s, d)
    w = np.concatenate([w, np.full(len(l_src), identity)])
    return s[o], d[o], w[o], np.concatenate([via, np.full(len(l_src), -1)])[o]
