"""Per-subgraph dispatch: one kernel call per dense subgraph, in the driver.

Shortcut deduction (§IV-A2), shortcut update (§IV-B) and revision-message
upload (§V-A) each run an independent local computation inside every
affected subgraph; subgraphs are disjoint, so these "can be parallelized
well". The phases that are one propagation pass — deduction, the sum
update and the upload — run as one flattened numpy pass over all affected
subgraphs (``engine.local.shortcut_pass`` and ``engine.local.converge``).
:func:`per_subgraph` is left only for the min shortcut update
(``engine.local.shortcut_update_min``), whose kernel runs a trim-and-relax
per affected entry rather than one propagation pass. It splits the input
tables by subgraph and calls the kernel on each slice; kernels see ordinary
pandas frames (dtypes and NaN intact) and callers need no row schema.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd

Kernel = Callable[[dict[str, pd.DataFrame]], tuple[dict[str, pd.DataFrame], int]]


def per_subgraph(
    subs: np.ndarray,
    tables: dict[str, pd.DataFrame],
    kernel: Kernel,
) -> tuple[dict[str, pd.DataFrame], int]:
    """Run ``kernel`` once per subgraph in ``subs``.

    Every frame in ``tables`` has a ``sub`` column. Per subgraph, the kernel
    receives each table's rows for it, without that column and with a fresh
    index (an empty frame when a table has none), and returns ``(frames,
    activations)``. Returns each output name's frames concatenated in ``sub``
    order with ``sub`` as the first column, plus the summed activations.
    Empty ``subs`` returns ``({}, 0)``.
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

    outs: dict[str, list[pd.DataFrame]] = {}
    acts = 0
    for s in subs.tolist():
        # A fresh empty frame per subgraph: output frames get a column added.
        frames, a = kernel(
            {name: g[s] if s in g else empty.copy() for name, (g, empty) in parts.items()}
        )
        acts += int(a)
        for name, f in frames.items():
            f.insert(0, "sub", np.int64(s))
            outs.setdefault(name, []).append(f)
    # Empty frames are left out of a non-empty concat so they cannot widen dtypes.
    return {
        name: pd.concat([f for f in fs if len(f)] or fs[:1], ignore_index=True)
        for name, fs in outs.items()
    }, acts
