"""Flow-matching primitives: linear interpolation path, velocity target,
training loss, and a deterministic Euler sampler.

Every tensor argument, and every output of an Euler sampler's velocity
function, passes ``core.check_tensor`` at any rank, its axes named by
position.  The velocity target, the loss and each Euler step run under
``core.float_range``."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import check_count, check_tensor, float_range

__all__ = ["euler_sample", "fm_loss", "interpolate", "velocity_target"]


def _checked(x, name: str) -> np.ndarray:
    """``x`` through ``check_tensor`` at whatever rank it has."""
    return check_tensor(x, name, tuple(f"axis{i}" for i in range(np.ndim(x))))


def interpolate(x0: np.ndarray, x1: np.ndarray, t: float) -> np.ndarray:
    """The point at time t in [0, 1] on the linear path from noise x0 to data
    x1: (1 - t) * x0 + t * x1, exactly x0 at t=0 and x1 at t=1."""
    x0, x1 = _checked(x0, "x0"), _checked(x1, "x1")
    if x0.shape != x1.shape:
        raise ValueError(f"x0 {x0.shape} and x1 {x1.shape} must match")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if t == 0.0:
        return np.array(x0, copy=True)
    if t == 1.0:
        return np.array(x1, copy=True)
    return (1.0 - t) * x0 + t * x1


def velocity_target(x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """x1 - x0: the time derivative of the linear path, constant in t."""
    x0, x1 = _checked(x0, "x0"), _checked(x1, "x1")
    if x0.shape != x1.shape:
        raise ValueError(f"x0 {x0.shape} and x1 {x1.shape} must match")
    with float_range(np.result_type(x0, x1), "x1 - x0"):
        return x1 - x0


def fm_loss(pred: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> float:
    """Mean squared error between a velocity prediction and x1 - x0; an empty
    prediction has no mean and is rejected."""
    pred = _checked(pred, "pred")
    target = velocity_target(x0, x1)
    if pred.shape != target.shape:
        raise ValueError(f"pred {pred.shape} must match target {target.shape}")
    if pred.size == 0:
        raise ValueError(f"pred {pred.shape} is empty, so its loss is undefined")
    with float_range(np.result_type(pred, target), "the loss"):
        diff = pred - target
        return float(np.mean(diff * diff))


def euler_sample(
    velocity_fn: Callable[[np.ndarray, float], np.ndarray],
    x0: np.ndarray,
    steps: int,
) -> np.ndarray:
    """Integrate dx/dt = velocity_fn(x, t) from t=0 to t=1 with fixed steps.

    x <- x + (1/steps) * velocity_fn(x, k/steps) for k = 0 .. steps-1.
    """
    steps = check_count(steps, "steps", 1)
    x = _checked(x0, "x0").copy()
    dt = 1.0 / steps
    for k in range(steps):
        vel = _checked(velocity_fn(x, k / steps), f"velocity_fn(x, {k / steps})")
        if vel.shape != x.shape:
            raise ValueError(f"velocity_fn returned {vel.shape}, expected {x.shape}")
        with float_range(np.result_type(x, vel), "the Euler step"):
            x = x + dt * vel
    return x
