"""Per-round correctness gate against ``repro.reference`` on G ⊕ ΔG."""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.engine.algorithms import Algorithm
from repro.reference import pagerank_reference, sssp_reference
from summary import sum_error_bound

#: Min workloads must match the oracle exactly up to float noise.
MIN_ATOL = 1e-9


def check_round(
    got: pd.Series,
    edges: pd.DataFrame,
    algo: Algorithm,
    *,
    deleted: set[int],
    convergences: int,
) -> dict:
    """Compare ``got`` with the oracle on the current graph ``edges``.

    Returns ``ok``, ``cause`` (empty when ok), ``max_abs`` and ``l1`` over
    finite differences, and for sum workloads the L1 ``bound``. Vertices
    deleted by the stream are left out of the comparison.
    """
    if algo.is_min:
        expected = sssp_reference(edges, algo.source)
    else:
        expected = pagerank_reference(edges, algo.damping)
    expected = expected[~expected.index.isin(deleted)]
    out = {"ok": True, "cause": "", "max_abs": 0.0, "l1": 0.0}
    missing = expected.index.difference(got.index)
    if len(missing):
        out.update(ok=False, cause=f"{len(missing)} vertices missing, e.g. {list(missing[:5])}")
        return out
    g = got.reindex(expected.index).to_numpy(float)
    e = expected.to_numpy(float)
    both_inf = np.isinf(g) & np.isinf(e)
    inf_mismatch = np.isinf(g) != np.isinf(e)
    with np.errstate(invalid="ignore"):  # inf - inf where both are unreachable
        diff = np.abs(np.where(both_inf | inf_mismatch, 0.0, g - e))
    out["max_abs"] = float(diff.max()) if len(diff) else 0.0
    out["l1"] = float(diff.sum())
    if inf_mismatch.any():
        bad = expected.index[inf_mismatch][:5].tolist()
        out.update(ok=False, cause=f"{int(inf_mismatch.sum())} reachability mismatches, e.g. {bad}")
    elif algo.is_min:
        if out["max_abs"] > MIN_ATOL:
            out.update(ok=False, cause=f"max abs error {out['max_abs']:.3g} > {MIN_ATOL}")
    else:
        bound = sum_error_bound(convergences, len(expected), algo.tol, algo.damping)
        out["bound"] = bound
        if out["l1"] > bound:
            out.update(ok=False, cause=f"L1 error {out['l1']:.4g} > bound {bound:.4g}")
    return out
