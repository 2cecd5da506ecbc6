"""Metrics plumbing."""
import time

from repro.metrics import PhaseTimer, RunStats


def test_runstats_add_phase_accumulates():
    s = RunStats()
    s.add_phase("upper", 1.0)
    s.add_phase("upper", 0.5)
    assert s.phase_seconds["upper"] == 1.5


def test_phase_timer_records_wall_time():
    s = RunStats()
    with PhaseTimer(s, "p"):
        time.sleep(0.01)
    assert s.phase_seconds["p"] >= 0.01
    assert s.wall_seconds >= 0.01
