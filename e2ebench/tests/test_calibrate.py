"""Host-speed sampling: identical kernel work, and a clock without it."""

import gc
import time

import pytest

from e2ebench.calibrate import REFERENCE_S, SCALE_EXPONENT, Calibrator, Kernel


def test_kernel_does_identical_work_every_call():
    kernel = Kernel(tiles=500, steps=400)
    assert len({kernel() for _ in range(3)}) == 1


def test_clock_excludes_sampling_time():
    calibrator = Calibrator(period_s=0.02)
    calibrator.start()
    try:
        t0, c0 = time.perf_counter(), calibrator.clock()
        while time.perf_counter() - t0 < 0.3:
            pass
        wall, clock = time.perf_counter() - t0, calibrator.clock() - c0
    finally:
        calibrator.stop()
    assert calibrator.samples
    # the two clocks are read a few instructions apart
    assert abs((wall - clock) - calibrator.handler_s) < 1e-4
    assert calibrator.scale() > 0


def test_samples_run_without_the_collector():
    calibrator = Calibrator()
    seen = []
    calibrator.kernel = lambda: seen.append(gc.isenabled())
    assert gc.isenabled()
    calibrator.sample()
    assert seen == [False, False]
    assert gc.isenabled()
    assert len(calibrator.samples) == 1


def test_scale_is_speed_to_the_fitted_exponent():
    calibrator = Calibrator()
    calibrator.samples = [REFERENCE_S * 2] * 3
    assert calibrator.speed() == pytest.approx(0.5)
    assert calibrator.scale() == pytest.approx(0.5 ** SCALE_EXPONENT)
