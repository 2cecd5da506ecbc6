"""Per-subgraph dispatch: one ``applyInPandas`` group per dense subgraph.

Shortcut deduction (§IV-A2), shortcut update (§IV-B) and revision-message
upload (§V-A) each run an independent local computation inside every
affected subgraph; subgraphs are disjoint, so these "can be parallelized
well". :func:`per_subgraph` is the one place that ships such a computation
to Spark: each subgraph's slice of every input table travels pickled in a
single binary cell, so kernels see ordinary pandas frames (dtypes and NaN
intact) and callers need no row schema.
"""
from __future__ import annotations

import pickle
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

_SCHEMA = "sub long, blob binary"

Kernel = Callable[[dict[str, pd.DataFrame]], tuple[dict[str, pd.DataFrame], int]]


def per_subgraph(
    spark: SparkSession,
    subs: np.ndarray,
    tables: dict[str, pd.DataFrame],
    kernel: Kernel,
) -> tuple[dict[str, pd.DataFrame], int]:
    """Run ``kernel`` once per subgraph in ``subs``, one ``applyInPandas``
    group each.

    Every frame in ``tables`` has a ``sub`` column. Per subgraph, the kernel
    receives each table's rows for it, without that column and with a fresh
    index (an empty frame when a table has none), and returns ``(frames,
    activations)``. Returns each output name's frames concatenated in ``sub``
    order with ``sub`` as the first column, plus the summed activations.
    Empty ``subs`` starts no Spark job and returns ``({}, 0)``.
    """
    subs = np.unique(np.asarray(subs, np.int64))
    if len(subs) == 0:
        return {}, 0
    parts = {}
    for name, df in tables.items():
        df = df[df["sub"].isin(subs)]
        body = df.drop(columns="sub")
        groups = body.groupby(df["sub"].to_numpy())
        parts[name] = ({int(s): g.reset_index(drop=True) for s, g in groups}, body.iloc[:0])
    blobs = [
        pickle.dumps({name: g.get(int(s), empty) for name, (g, empty) in parts.items()})
        for s in subs
    ]

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        result = kernel(pickle.loads(pdf.blob.iloc[0]))
        return pd.DataFrame({"sub": pdf["sub"].iloc[:1], "blob": [pickle.dumps(result)]})

    inp = spark.createDataFrame(pd.DataFrame({"sub": subs, "blob": blobs}), schema=_SCHEMA)
    res = inp.groupby("sub").applyInPandas(run, schema=_SCHEMA).toPandas()
    res = res.sort_values("sub")

    outs: dict[str, list[pd.DataFrame]] = {}
    acts = 0
    for s, blob in zip(res["sub"].to_numpy(np.int64), res.blob):
        frames, a = pickle.loads(blob)
        acts += int(a)
        for name, f in frames.items():
            f.insert(0, "sub", s)
            outs.setdefault(name, []).append(f)
    # Empty frames are left out of a non-empty concat so they cannot widen dtypes.
    return {
        name: pd.concat([f for f in fs if len(f)] or fs[:1], ignore_index=True)
        for name, fs in outs.items()
    }, acts
