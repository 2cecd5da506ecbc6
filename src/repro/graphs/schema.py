"""Edge-list schema and basic graph queries.

All graphs in the reproduction are **directed, weighted, simple** (at most
one edge per ordered pair). Edges live in a frame with columns

    src: int64    dst: int64    w: float64

Pandas frames are the in-memory/local representation (the paper's
per-subgraph local computations run on them, see ``engine/local.py``);
Spark DataFrames are the distributed representation for global work.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
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
    Rows are sorted for determinism.
    """
    pdf = pdf[EDGE_COLUMNS].astype({"src": np.int64, "dst": np.int64, "w": np.float64})
    pdf = pdf[pdf.src != pdf.dst]
    pdf = pdf.drop_duplicates(subset=["src", "dst"], keep="last")
    return pdf.sort_values(["src", "dst"], kind="mergesort").reset_index(drop=True)


def edges_to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Lift a pandas edge frame into a Spark DataFrame with the fixed schema."""
    return spark.createDataFrame(pdf[EDGE_COLUMNS], schema=EDGE_SCHEMA)


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
