"""One subgraph's shortcut tables through the engine's own pass."""
import numpy as np
import pandas as pd

from repro.engine.local import shortcut_pass


def one_block(edges, entries, algo, *, old=None, changed=None, **kw):
    """``shortcut_pass`` on the tables of one subgraph, given without a
    ``sub`` column: that subgraph's ``(entry, dst, w)`` rows and the
    activations."""

    def block(df):
        return None if df is None else df.assign(sub=0)

    sc, acts = shortcut_pass(
        block(edges), pd.DataFrame({"id": np.asarray(entries, np.int64), "sub": 0}), algo,
        old=block(old), changed=block(changed), **kw,
    )
    return sc.drop(columns="sub"), acts
