"""Pure statistics for the benchmark: percentiles, the sum-error bound and
round accounting. Nothing here touches Spark, so it is cheap to test."""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field

#: A tail percentile must leave at least this many timed rounds beyond it.
TAIL_BEYOND = 10


def tail_percentile(times: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """``(percentile, value)`` of the highest order statistic that still has
    at least ``beyond`` samples above it.

    With ``n`` samples that is rank ``n - beyond`` (1-based). The tail never
    reads below the median: with fewer than ``2 * beyond + 1`` samples no
    rank above the median has ``beyond`` samples beyond it, so the median
    (percentile 50) is reported instead.
    """
    if not times:
        raise ValueError("no timed rounds")
    n = len(times)
    rank = n - beyond
    if rank <= n // 2:
        return 50.0, statistics.median(times)
    return 100.0 * rank / n, sorted(times)[rank - 1]


def timing_done(n_timed: int, spent: float, seconds: float, min_timed: int) -> bool:
    """Whether a run has measured enough: ``spent`` seconds of response time
    over ``n_timed`` rounds reach both ``seconds`` and ``min_timed`` rounds.

    The round floor keeps the number of timed rounds fixed when one round
    takes most of ``seconds``; a bare time limit would time one round on a
    slow run and two on a fast one, and the median would jump with the count.
    """
    return spent >= seconds and n_timed >= min_timed


def sum_error_bound(convergences: int, n_vertices: int, tol: float, damping: float) -> float:
    """L1 bound on a sum workload's drift from the exact fixpoint.

    Each convergence stops with at most ``tol`` of unpropagated mass per
    vertex, and the resolvent (I - P)^-1 of a damped walk has L1 norm at most
    1 / (1 - d), so every convergence adds at most ``|V| * tol / (1 - d)``.
    """
    return convergences * n_vertices * tol / (1.0 - damping)


@dataclass
class RoundLog:
    """Every attempted round: its time, counts and check outcome.

    Warm-up rounds are attempted and checked like the others but carry
    ``timed=False`` and stay out of every timing statistic.
    """

    rounds: list[dict] = field(default_factory=list)

    def add(self, *, round_id: int, timed: bool, seconds: float | None,
            ok: bool, cause: str = "", **extra) -> dict:
        rec = {"round": round_id, "timed": timed, "seconds": seconds,
               "ok": ok, "cause": cause, **extra}
        self.rounds.append(rec)
        return rec

    @property
    def attempted(self) -> int:
        return len(self.rounds)

    @property
    def failures(self) -> list[dict]:
        return [r for r in self.rounds if not r["ok"]]

    @property
    def fail_frac(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 1.0

    def timed(self) -> list[dict]:
        """Timed rounds that returned a result."""
        return [r for r in self.rounds if r["timed"] and r["seconds"] is not None]
