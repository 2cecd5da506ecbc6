"""Graph substrate: schema helpers, synthetic generators, and ΔG updates."""
from repro.graphs.schema import (  # noqa: F401
    EDGE_COLUMNS,
    canonical_edges,
    degrees,
    vertex_ids,
)
