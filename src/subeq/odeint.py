"""Adaptive embedded Runge-Kutta 4(5) integration (Dormand-Prince).

Small self-contained integrator used by the radial ODE oracles; supports
an event threshold that stops integration once a solution component
exceeds a bound (divergence detection).
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError

# Dormand-Prince coefficients
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])

# per-step error tolerances and the step budget of one integration
RTOL = 1e-8
ATOL = 1e-10
MAX_STEPS = 200_000


def integrate(f, t0: float, y0, t1: float, max_step: float, stop_above: float):
    """Integrate y' = f(t, y) from t0 to t1 > t0 in steps of at most max_step.

    Steps are accepted at the RMS error within ATOL + RTOL |y|, and at most
    MAX_STEPS are taken.  Returns (ts, ys, status) with status 'done' or
    'threshold' (|y_0| exceeded ``stop_above``).
    """
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    h = min((t1 - t0) / 100.0, max_step)
    ts, ys = [t], [y.copy()]
    ks = [None] * 7
    for _ in range(MAX_STEPS):
        if t >= t1:
            return np.array(ts), np.array(ys), "done"
        h = min(h, t1 - t)
        ks[0] = f(t, y)
        bad = False
        for i in range(1, 7):
            yi = y + h * sum(a * ks[j] for j, a in enumerate(_A[i]))
            if not np.all(np.isfinite(yi)):
                bad = True
                break
            ks[i] = f(t + _C[i] * h, yi)
        if bad:
            h *= 0.25
            if h < 1e-14 * (1 + abs(t)):
                raise NumericalError("step size underflow (stiff blow-up?)",
                                     diagnostics={"t": t, "y": y.tolist()})
            continue
        y5 = y + h * sum(b * k for b, k in zip(_B5, ks))
        y4 = y + h * sum(b * k for b, k in zip(_B4, ks))
        scale = ATOL + RTOL * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0 or h <= 1e-13 * (1 + abs(t)):
            t += h
            y = y5
            ts.append(t)
            ys.append(y.copy())
            if abs(y[0]) > stop_above:
                return np.array(ts), np.array(ys), "threshold"
        fac = 0.9 * err ** -0.2 if err > 0 else 5.0
        h = min(h * min(5.0, max(0.2, fac)), max_step)
        if h < 1e-14 * (1 + abs(t)):
            raise NumericalError("step size underflow (stiff blow-up?)",
                                 diagnostics={"t": t, "y": y.tolist()})
    raise NumericalError("ODE step budget exhausted",
                         diagnostics={"t": t, "steps": MAX_STEPS})
