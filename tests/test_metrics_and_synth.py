"""Metrics plumbing."""
import time

from repro.metrics import PhaseTimer, RunStats


def test_runstats_add_phase_accumulates():
    s = RunStats()
    s.add_phase("upper", 1.0)
    s.add_phase("upper", 0.5)
    assert s.phase_seconds["upper"] == 1.5


def test_runstats_merge():
    a = RunStats(activations=5, supersteps=2)
    a.add_phase("x", 1.0)
    b = RunStats(activations=3, supersteps=1)
    b.add_phase("x", 2.0)
    b.add_phase("y", 4.0)
    a.merge(b)
    assert a.activations == 8 and a.supersteps == 3
    assert a.phase_seconds == {"x": 3.0, "y": 4.0}


def test_phase_timer_records_wall_time():
    s = RunStats()
    with PhaseTimer(s, "p"):
        time.sleep(0.01)
    assert s.phase_seconds["p"] >= 0.01
    assert s.wall_seconds >= 0.01
