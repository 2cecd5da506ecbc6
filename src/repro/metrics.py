"""Shared run statistics for every engine in the reproduction.

The paper's hardware-independent comparison metric is the number of *edge
activations* — one activation per application of the message-generation
operation ``F`` (Fig. 6). Every engine (batch, the incremental baselines,
and Layph) counts activations the same way so the numbers are comparable.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field


@dataclass
class RunStats:
    """Counters reported by one engine run.

    ``activations``: number of F applications (edge or shortcut traversals).
    ``supersteps``: number of global supersteps (0 for purely local runs).
    ``phase_seconds``: wall-clock per named phase (Layph reports its four
    phases here; Ingress and KickStarter report ``"revision"`` and
    ``"propagate"``).
    ``phase_activations``: activations counted inside each named phase.
    ``wall_seconds``: total wall-clock of the run.
    """

    activations: int = 0
    supersteps: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_activations: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into phase ``name`` (phases may run twice)."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def to_dict(self) -> dict:
        """The counters as plain (JSON-ready) values."""
        return asdict(self)


class PhaseTimer:
    """Context manager that adds elapsed wall time, and the activations
    counted inside the block, to ``stats`` under ``name``."""

    def __init__(self, stats: RunStats, name: str):
        self._stats = stats
        self._name = name

    def __enter__(self) -> "PhaseTimer":
        self._acts0 = self._stats.activations
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        dt = time.perf_counter() - self._t0
        self._stats.add_phase(self._name, dt)
        self._stats.wall_seconds += dt
        acts = self._stats.phase_activations
        acts[self._name] = acts.get(self._name, 0) + self._stats.activations - self._acts0
