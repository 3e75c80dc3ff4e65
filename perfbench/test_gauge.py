"""Tests of the machine-speed gauge's arithmetic.

    python3 -m pytest perfbench
"""

import pytest

import gauge
from gauge import REFERENCE_MS, Gauge

KERNEL = 1e-3 * REFERENCE_MS  # a kernel run at reference speed, in seconds


def gauge_with(marks):
    g = Gauge()
    g.marks = [(float(a), float(b)) for a, b in marks]
    return g


def test_work_at_reference_speed_is_unscaled():
    g = gauge_with([(0, KERNEL), (1, 1 + KERNEL), (2, 2 + KERNEL)])
    measured, scaled = g.measure(0.5, 1.5)
    assert measured == pytest.approx(1.0 - KERNEL)
    assert scaled == pytest.approx(measured)


def test_kernel_runs_inside_the_interval_are_left_out():
    g = gauge_with([(0, KERNEL), (1, 1 + KERNEL), (2, 2 + KERNEL), (3, 3 + KERNEL)])
    measured, _ = g.measure(KERNEL, 3.0)
    assert measured == pytest.approx(3.0 - 3 * KERNEL)


def test_each_stretch_is_scaled_by_the_kernel_runs_around_it():
    # half speed around the first stretch, a quarter around the second
    g = gauge_with([(0, 2 * KERNEL), (1, 1 + 2 * KERNEL), (2, 2 + 6 * KERNEL)])
    work1 = 1 - 2 * KERNEL
    work2 = 1 - 2 * KERNEL
    measured, scaled = g.measure(2 * KERNEL, 2.0)
    assert measured == pytest.approx(work1 + work2)
    assert scaled == pytest.approx(work1 / 2 + work2 / 4)


def test_an_interval_outside_the_samples_is_refused():
    g = gauge_with([(1, 1 + KERNEL), (2, 2 + KERNEL)])
    with pytest.raises(ValueError):
        g.measure(0.5, 1.5)
    with pytest.raises(ValueError):
        g.measure(1.5, 2.5)


def test_running_samples_at_both_ends_and_on_the_timer():
    g = Gauge()
    with g.running(interval_s=0.01):
        gauge.time.sleep(0.05)
    assert len(g.marks) >= 3
    assert all(a < b for a, b in g.marks)
    assert all(g.marks[k][1] <= g.marks[k + 1][0] for k in range(len(g.marks) - 1))
