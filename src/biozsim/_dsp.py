"""Small shared DSP helpers (internal)."""

from __future__ import annotations

import numpy as np
from scipy import signal


def onepole_bilinear(pole_hz: float, fs: float):
    """Unity-DC-gain single-pole low-pass, bilinear transform (k = 2*fs)."""
    wp = 2 * np.pi * pole_hz
    k = 2 * fs
    b = np.array([wp, wp]) / (wp + k)
    a = np.array([1.0, (wp - k) / (wp + k)])
    return b, a


def dc_normalized(b, a):
    """Scale numerator so the filter's DC gain is exactly 1."""
    return b * (np.sum(a) / np.sum(b)), a


def gated_mean_exact(num, den, u: np.ndarray, gates, dt: float, period: int):
    """Exact period means of gate(t) * y(t) for a rational filter.

    `u` is one period of a piecewise-constant input: `period` constant
    segments of `dt` each, which may be samples or any longer stretch over
    which the input holds still.  Each gate is a +/-1 sequence constant
    over the same segments.  The transfer function num/den is realized in
    state space, augmented with an output integrator, and ZOH-discretized,
    so each step yields the exact continuous integral of y over that
    segment.  The physical state is first solved for the periodic steady
    state, making the returned means exact continuous-time cycle means
    (all hold-image content included), one per gate.
    """
    if len(u) != period:
        raise ValueError("u must be exactly one period")
    num = np.atleast_1d(np.asarray(num, dtype=float))
    den = np.atleast_1d(np.asarray(den, dtype=float))
    if len(den) == 1:  # pure gain: y piecewise constant, plain means are exact
        g = num[-1] / den[0] if len(num) == 1 else None
        if g is None:
            raise ValueError("improper transfer function")
        y = g * u
        return [float(np.mean(y * gate)) for gate in gates]

    a, b, c, d = signal.tf2ss(num, den)
    n = a.shape[0]
    a_aug = np.zeros((n + 1, n + 1))
    a_aug[:n, :n] = a
    a_aug[n, :n] = c[0]
    b_aug = np.vstack([b, [[d.item() if np.ndim(d) else float(d)]]])
    ad, bd, *_ = signal.cont2discrete(
        (a_aug, b_aug, np.zeros((1, n + 1)), [[0.0]]), dt, method="zoh"
    )
    adp = ad[:n, :n]
    bdp = bd[:n, 0]
    crow = ad[n, :n]
    dint = bd[n, 0]

    # periodic steady state of the physical states
    x = np.zeros(n)
    for uk in u:
        x = adp @ x + bdp * uk
    x = np.linalg.solve(np.eye(n) - np.linalg.matrix_power(adp, period), x)

    inc = np.empty(period)
    for k, uk in enumerate(u):
        inc[k] = crow @ x + dint * uk
        x = adp @ x + bdp * uk
    total_t = period * dt
    return [float(np.sum(inc * gate) / total_t) for gate in gates]
