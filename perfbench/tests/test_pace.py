"""Calls timed against probes of the host's speed."""

import signal
import time

import pytest

from perfbench import pace
from perfbench.pace import Pace


def test_a_steady_host_scales_raw_seconds_by_the_reference(monkeypatch):
    meter = Pace()
    monkeypatch.setattr(meter, "probe", lambda: 2 * pace.REFERENCE_S)
    result, raw, scaled = meter.timed(lambda: time.sleep(0.6) or "done")
    assert result == "done"
    assert raw == pytest.approx(0.6, abs=0.05)
    # a host at half the nominal speed: every stretch counts half
    assert scaled == pytest.approx(raw / 2)


def test_probes_inside_the_call_are_not_counted_and_the_handler_is_restored():
    meter = Pace()
    previous = signal.getsignal(signal.SIGALRM)
    stamps = []

    def call():
        stamps.append(time.perf_counter())
        time.sleep(0.8)
        stamps.append(time.perf_counter())

    _, raw, scaled = meter.timed(call)
    assert len(meter._marks) >= 2  # probed every PERIOD seconds
    probes = sum(end - begin for begin, end, _ in meter._marks)
    assert raw == pytest.approx(stamps[1] - stamps[0] - probes, abs=0.01)
    assert scaled > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_raising_call_stops_the_timer():
    meter = Pace()
    with pytest.raises(ValueError):
        meter.timed(lambda: (_ for _ in ()).throw(ValueError("boom")))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
