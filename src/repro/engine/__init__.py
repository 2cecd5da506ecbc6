"""Vertex-centric async-accumulative engine: algorithms, local kernel, superstep loop."""
from repro.engine.algorithms import ALGORITHMS, Algorithm, bfs, pagerank, php, sssp  # noqa: F401
