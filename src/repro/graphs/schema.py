"""Edge-list schema and basic graph queries.

All graphs in the reproduction are **directed, weighted, simple** (at most
one edge per ordered pair). Edges live in a frame with columns

    src: int64    dst: int64    w: float64

Pandas frames are the in-memory/local representation (the paper's
per-subgraph local computations run on them, see ``engine/local.py``);
``EDGE_SCHEMA`` types them as Spark DataFrames on the Spark side of the
superstep loop's size rule (``engine.batch``).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

EDGE_COLUMNS = ["src", "dst", "w"]

EDGE_SCHEMA = StructType(
    [
        StructField("src", LongType(), False),
        StructField("dst", LongType(), False),
        StructField("w", DoubleType(), False),
    ]
)


def canonical_edges(pdf: pd.DataFrame) -> pd.DataFrame:
    """Normalize an edge frame: typed columns, no self-loops, no duplicates.

    Duplicate ``(src, dst)`` pairs keep the *last* occurrence so that
    "re-add with a new weight" semantics (delete+add unit updates) hold.
    Rows are sorted for determinism. Always a new frame with a
    ``RangeIndex``; input that is already canonical (:func:`is_canonical`)
    only has its columns typed, without pandas' sort.
    """
    src, dst = pdf.src.to_numpy(np.int64), pdf.dst.to_numpy(np.int64)
    if is_canonical(src, dst):
        return edge_frame(src, dst, pdf.w.to_numpy(np.float64))
    pdf = pdf[EDGE_COLUMNS].astype({"src": np.int64, "dst": np.int64, "w": np.float64})
    pdf = pdf[pdf.src != pdf.dst]
    pdf = pdf.drop_duplicates(subset=["src", "dst"], keep="last")
    return pdf.sort_values(["src", "dst"], kind="mergesort").reset_index(drop=True)


def edge_frame(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, *, copy: bool = True
) -> pd.DataFrame:
    """An edge frame over the given columns (no checks): over copies of
    them, or with ``copy=False`` over the arrays themselves, each its own
    column (pandas' default copies them into one block per dtype).

    Callers that hand over arrays nothing else holds build it uncopied:
    ``graphs.updates.apply_delta``, ``Algorithm.prepare`` and Ingress's
    ``changed_runs`` (its old and new runs). :func:`canonical_edges` (whose
    early return would otherwise share the caller's columns) and the
    layered graph's ``layer_edges`` view copy.
    """
    return pd.DataFrame({"src": src, "dst": dst, "w": w}, copy=copy)


def is_canonical(src: np.ndarray, dst: np.ndarray) -> bool:
    """True when the pairs are strictly increasing in (src, dst) order and
    hold no self-loop, as :func:`canonical_edges` leaves them."""
    up = (src[1:] > src[:-1]) | ((src[1:] == src[:-1]) & (dst[1:] > dst[:-1]))
    return bool(up.all() and not (src == dst).any())


def pair_order(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Permutation that sorts rows by (src, dst). Sorting on the pair, not a
    packed ``src·2³²+dst`` key, keeps proxy ids (≥ 2⁴⁰) from overflowing."""
    return np.lexsort((dst, src))


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concat(arange(s, s + c) for s, c in zip(starts, counts))``."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def source_rows(src: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Positions, ascending, of the rows of a src-sorted table whose ``src``
    is in ``keys`` (sorted, unique): each key's rows are one contiguous run."""
    lo = np.searchsorted(src, keys, "left")
    return ranges(lo, np.searchsorted(src, keys, "right") - lo)


def splice_runs(columns: tuple, rows: np.ndarray, new: tuple) -> list[np.ndarray]:
    """Replace whole source runs of a src-sorted table: drop the rows at the
    positions ``rows`` and insert the src-sorted ``new`` rows where their
    src sorts among the rows left, one ``np.insert`` per column.
    ``columns`` and ``new`` hold the same columns, ``src`` first."""
    rest = np.ones(len(columns[0]), bool)
    rest[rows] = False
    at = np.searchsorted(columns[0][rest], new[0])
    return [np.insert(c[rest], at, n) for c, n in zip(columns, new)]


def pairs_in(src: np.ndarray, dst: np.ndarray, q_src: np.ndarray, q_dst: np.ndarray) -> np.ndarray:
    """Mask over unique (src, dst) rows: the pair occurs among the queries."""
    s = np.concatenate([src, q_src])
    d = np.concatenate([dst, q_dst])
    is_q = np.arange(len(s)) >= len(src)
    o = np.lexsort((is_q, d, s))  # a row sorts right before its query copies
    s, d, is_q = s[o], d[o], is_q[o]
    hit = np.zeros(len(s), bool)
    hit[:-1] = ~is_q[:-1] & is_q[1:] & (s[1:] == s[:-1]) & (d[1:] == d[:-1])
    out = np.zeros(len(src), bool)
    out[o[~is_q]] = hit[~is_q]
    return out


def vertex_ids(pdf: pd.DataFrame) -> np.ndarray:
    """Sorted array of all vertex ids touched by any edge."""
    return np.unique(np.concatenate([pdf.src.to_numpy(), pdf.dst.to_numpy()]))


def degrees(pdf: pd.DataFrame) -> pd.DataFrame:
    """Per-vertex out/in degree and summed outgoing weight (pandas).

    Returns columns ``id, out_deg, in_deg, out_wsum`` covering every vertex
    that appears as an endpoint (zero-filled on the missing side).
    """
    out = pdf.groupby("src").agg(out_deg=("dst", "size"), out_wsum=("w", "sum"))
    inn = pdf.groupby("dst").agg(in_deg=("src", "size"))
    d = out.join(inn, how="outer").fillna(0.0).reset_index(names="id")
    d["out_deg"] = d["out_deg"].astype(np.int64)
    d["in_deg"] = d["in_deg"].astype(np.int64)
    return d.sort_values("id").reset_index(drop=True)


def graph_stats(pdf: pd.DataFrame) -> dict:
    """Summary statistics used by the dataset table (T1)."""
    ids = vertex_ids(pdf)
    d = degrees(pdf)
    return {
        "vertices": int(len(ids)),
        "edges": int(len(pdf)),
        "avg_out_deg": float(len(pdf) / max(1, len(ids))),
        "max_out_deg": int(d.out_deg.max()) if len(d) else 0,
        "max_in_deg": int(d.in_deg.max()) if len(d) else 0,
    }
