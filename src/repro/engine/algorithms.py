"""The paper's algorithm abstraction ``A = (F, G, X0, M0)`` (Eq. 1).

All four evaluated workloads fit a semiring view after *edge preparation*:

* SSSP:     F(m,w) = m + w,            G = min   (weights as given)
* BFS:      F(m,w) = m + w,            G = min   (weights forced to 1)
* PageRank: F(m,w) = m · w,            G = sum   (w := d / N_u)
* PHP:      F(m,w) = m · w,            G = sum   (w := d·w_uv/Σ_out w_u, the
            source's in-edges dropped → absorbing/penalized source)

``prepare()`` bakes the algorithm-specific weight transform into the edge
list once, so every engine (local kernel, Spark batch loop, Layph's
shortcut deduction — the paper's "automated shortcut deduction" invokes the
user's F and G exactly like this) only ever sees ``(⊗, G)`` on prepared
weights. Incremental runs diff *prepared* edge lists, which transparently
captures PageRank's out-degree side effects.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.graphs.schema import canonical_edges, edge_frame


def _nonnegative(w: np.ndarray) -> np.ndarray:
    """``w``, after checking that shortest paths over it are defined."""
    if (w < 0).any():
        raise ValueError("SSSP needs non-negative edge weights")
    return w


def _run_sums(w: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each run ``w[s : s + c]`` in row order with compensated
    (Kahan) summation, the sums pandas' groupby computes, bit for bit."""
    total = np.zeros(len(starts))
    comp = np.zeros(len(starts))
    for k in range(int(counts.max()) if len(counts) else 0):
        i = np.flatnonzero(counts > k)
        y = w[starts[i] + k] - comp[i]
        t = total[i] + y
        comp[i] = (t - total[i]) - y
        total[i] = t
    return total


@dataclass(frozen=True)
class Algorithm:
    """One vertex-centric workload in accumulative form.

    ``aggregate`` is 'min' (selective, idempotent — traversal workloads) or
    'sum' (accumulative, invertible — iteration workloads); ``combine`` (the
    ⊗ inside F) is '+' for min-workloads and '*' for sum-workloads.
    ``roots`` maps vertex id → initial message; for un-rooted algorithms
    (PageRank) every vertex gets ``uniform_root``.
    """

    name: str
    aggregate: str  # 'min' | 'sum'
    zero_state: float  # identity of G: +inf for min, 0.0 for sum
    identity: float  # identity of ⊗: 0.0 for '+', 1.0 for '*'
    tol: float = 1e-6
    roots: dict[int, float] = field(default_factory=dict)
    uniform_root: float | None = None
    damping: float | None = None
    source: int | None = None

    # ---- classification ------------------------------------------------
    @property
    def is_min(self) -> bool:
        return self.aggregate == "min"

    @property
    def is_sum(self) -> bool:
        return self.aggregate == "sum"

    # ---- F and G on numpy arrays ----------------------------------------
    def combine(self, m: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The ⊗ of F(m, w): + for min-workloads, · for sum-workloads."""
        return m + w if self.is_min else m * w

    # ---- edge preparation ------------------------------------------------
    def prepare(self, edges: pd.DataFrame) -> pd.DataFrame:
        """Prepared copy of an edge frame (see module docstring). Sum
        workloads return it canonical, and a canonical input costs them no
        sort (:func:`canonical_edges` returns early); min workloads keep the
        input's rows and order. SSSP raises ``ValueError`` on a negative
        weight."""
        if self.is_min:
            if self.name == "sssp":
                _nonnegative(edges.w.to_numpy())
            out = edges.reset_index(drop=True)
            return out.assign(w=1.0) if self.name == "bfs" else out
        e = canonical_edges(edges)
        return edge_frame(
            *self.prepare_rows(e.src.to_numpy(), e.dst.to_numpy(), e.w.to_numpy()), copy=False
        )

    def prepare_rows(
        self, src: np.ndarray, dst: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`prepare` on arrays holding whole out-edge runs: rows sorted
        by src, every out-edge of each source present. A prepared weight
        depends only on its source's run, so a run can be re-prepared alone.
        """
        if self.name == "sssp":
            return src, dst, _nonnegative(w)
        if self.name == "bfs":
            return src, dst, np.ones(len(w))
        starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]]) if len(src) else src[:0]
        counts = np.diff(np.r_[starts, len(src)])
        if self.name == "pagerank":
            return src, dst, self.damping / np.repeat(counts, counts)
        if self.name != "php":  # pragma: no cover - presets only
            raise ValueError(self.name)
        w = self.damping * w / np.repeat(_run_sums(w, starts, counts), counts)
        keep = dst != self.source
        return src[keep], dst[keep], w[keep]

    # ---- initial conditions -----------------------------------------------
    def with_source(self, vertex_ids: np.ndarray) -> np.ndarray:
        """The sorted ``vertex_ids`` plus the source, which belongs to the
        vertex set even when no edge touches it. Every engine keeps this
        one rule."""
        return vertex_ids if self.source is None else np.union1d(vertex_ids, [self.source])

    def root_messages(self, vertex_ids: np.ndarray) -> pd.Series:
        """M⁰ as a sparse id-indexed series (only non-trivial roots)."""
        if self.uniform_root is not None:
            return pd.Series(self.uniform_root, index=pd.Index(vertex_ids, dtype=np.int64))
        return pd.Series(self.roots, dtype=float)

    def initial_states(self, vertex_ids: np.ndarray) -> pd.Series:
        """X⁰ — the G-identity everywhere."""
        return pd.Series(self.zero_state, index=pd.Index(vertex_ids, dtype=np.int64))


def sssp(source: int, tol: float = 1e-6) -> Algorithm:
    """Single-source shortest paths (Example 1a)."""
    return Algorithm(
        name="sssp", aggregate="min", zero_state=float("inf"), identity=0.0,
        tol=tol, roots={int(source): 0.0}, source=int(source),
    )


def bfs(source: int, tol: float = 1e-6) -> Algorithm:
    """Directed hop count from a source (unit-weight SSSP)."""
    return Algorithm(
        name="bfs", aggregate="min", zero_state=float("inf"), identity=0.0,
        tol=tol, roots={int(source): 0.0}, source=int(source),
    )


def pagerank(d: float = 0.85, tol: float = 1e-6) -> Algorithm:
    """Asynchronous accumulative PageRank (Example 1b)."""
    return Algorithm(
        name="pagerank", aggregate="sum", zero_state=0.0, identity=1.0,
        tol=tol, uniform_root=1.0 - d, damping=d,
    )


def php(source: int, d: float = 0.85, tol: float = 1e-6) -> Algorithm:
    """Penalized hitting probability from ``source`` [Guan et al., SIGMOD'11]."""
    return Algorithm(
        name="php", aggregate="sum", zero_state=0.0, identity=1.0,
        tol=tol, roots={int(source): 1.0}, damping=d, source=int(source),
    )


#: Factory registry used by experiment harnesses: name -> callable(source, **kw).
ALGORITHMS = {
    "sssp": lambda source=0, **kw: sssp(source, **kw),
    "bfs": lambda source=0, **kw: bfs(source, **kw),
    "pagerank": lambda source=0, d=0.85, **kw: pagerank(d, **kw),
    "php": lambda source=0, d=0.85, **kw: php(source, d, **kw),
}
