import math

import numpy as np
import pytest

from vobs.domain import DT_S, WHEELBASE_M, Trajectory
from vobs.simulator import ManeuverScript, SensorNoiseSpec, SimState, run_maneuver

# every sensor channel without noise or bias
ZERO_NOISE = SensorNoiseSpec(0.0, 0.0, 0.0, 0.0, 0.0)


def sensor_traj(raw) -> Trajectory:
    """A trajectory whose sensor stream is the (N, 5) matrix `raw` on the
    50 Hz grid, with zero ground truth: the observers read only sensors."""
    raw = np.asarray(raw, dtype=np.float64)
    t = np.arange(len(raw)) * DT_S
    truth = np.zeros((len(raw), 10))
    truth[:, 0] = t
    return Trajectory(np.column_stack([t, raw]), truth)


def straight_script(duration_s=10.0, speed=15.0, name="straight", lateral_speed=0.0):
    """Zero steering and zero net force from the given initial velocity: a
    constant-speed straight line when `lateral_speed` is 0."""
    def law(t, s):
        return 0.0, 0.0
    return ManeuverScript(name, duration_s, law,
                          SimState(vx_mps=speed, vy_mps=lateral_speed))


def circle_script(duration_s=30.0, speed=12.0, radius=40.0, name="circle"):
    """Constant-radius turn with a speed hold and shaped entry."""
    def law(t, s):  # s[3] is vx, s[5] the yaw rate
        fx = 4000.0 * (speed - s[3])
        shape = min(max((t - 1.0) / 2.0, 0.0), 1.0)
        r_ref = shape * s[3] / radius
        delta = shape * WHEELBASE_M / radius + 0.4 * (r_ref - s[5])
        return delta, fx

    return ManeuverScript(name, duration_s, law, SimState(vx_mps=speed))


@pytest.fixture(scope="session")
def straight_traj() -> Trajectory:
    return run_maneuver(straight_script(), ZERO_NOISE)


@pytest.fixture(scope="session")
def noisy_straight_traj() -> Trajectory:
    return run_maneuver(straight_script(duration_s=20.0),
                        SensorNoiseSpec(seed=11))
