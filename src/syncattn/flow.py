"""Flow-matching primitives: linear interpolation path, velocity target,
training loss, and a deterministic Euler sampler.

Every tensor argument, and every output of an Euler sampler's velocity
function, passes ``core.check_tensor`` at any rank, its axes named by
position, and a call runs in one precision: x1 is checked like x0, ``pred``
like the velocity target and each velocity like the sampler's x.  The
velocity target, the loss and each Euler step run under ``core.float_range``."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import check_count, check_tensor, float_range

__all__ = ["euler_sample", "fm_loss", "interpolate", "velocity_target"]


def _checked(x, name: str, like: np.ndarray | None = None) -> np.ndarray:
    """``x`` through ``check_tensor`` at whatever rank it has, like ``like`` if given."""
    return check_tensor(x, name, tuple(f"axis{i}" for i in range(np.ndim(x))), like)


def interpolate(x0: np.ndarray, x1: np.ndarray, t: float) -> np.ndarray:
    """The point at a real scalar time t in [0, 1] on the linear path from noise
    x0 to data x1: (1 - t) * x0 + t * x1 in x0's precision, exactly x0 at t=0
    and x1 at t=1."""
    x0 = _checked(x0, "x0")
    x1 = _checked(x1, "x1", x0)
    # A bool, str, None or complex t is no real time, though some of them compare as one.
    if np.asarray(t).dtype.kind not in "iuf" or np.ndim(t) != 0 or not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be a scalar in [0, 1], got {t!r}")
    t = float(t)  # a numpy scalar is not weak (NEP 50): it would set the result's precision
    if t == 0.0:
        return np.array(x0, copy=True)
    if t == 1.0:
        return np.array(x1, copy=True)
    return (1.0 - t) * x0 + t * x1


def velocity_target(x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """x1 - x0: the time derivative of the linear path, constant in t."""
    x0 = _checked(x0, "x0")
    x1 = _checked(x1, "x1", x0)
    with float_range(x0.dtype, "x1 - x0"):
        return x1 - x0


def fm_loss(pred: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> float:
    """Mean squared error between a velocity prediction and x1 - x0; an empty
    prediction has no mean and is rejected."""
    target = velocity_target(x0, x1)
    pred = _checked(pred, "pred", target)
    if pred.size == 0:
        raise ValueError(f"pred {pred.shape} is empty, so its loss is undefined")
    with float_range(pred.dtype, "the loss"):
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
        vel = _checked(velocity_fn(x, k / steps), f"velocity_fn(x, {k / steps})", x)
        with float_range(x.dtype, "the Euler step"):
            x = x + dt * vel
    return x
