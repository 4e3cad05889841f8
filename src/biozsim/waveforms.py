"""Excitation and reference-clock definitions for the stepped-sine front end.

The current source is an 8-step zero-order-hold approximation of a sine.
Per period the eight hold levels are ideal sine samples taken at the step
centers,

    level[k] = A * sin(2*pi*(k + 0.5)/8),   k = 0..7

which gives only two distinct magnitudes (0.383*A and 0.924*A) and cancels
every harmonic except the hold images at n = 8k +/- 1.  Relative to the
fundamental those images carry amplitude exactly 1/n: the 7th sits 16.9 dB
down and the 9th 19.1 dB down.  The fundamental itself is sinc(1/8) =
0.97450 of the nominal amplitude.

The in-phase and quadrature references are 50%-duty square clocks at the
fundamental, in exact quadrature with each other: I = sign(sin(2*pi*f*t)),
Q = sign(cos(2*pi*f*t)).  The stepped sine lags the references by pi/8 rad
(half a step): the divider that clocks the synthesis state machine updates
the hold DAC half a tick after the reference edges.  That lag rotates the
demodulated constellation by -22.5 deg, which the calibration layer
removes by derotation.

Everything here is exact/closed-form; no randomness is involved, and all
functions are pure (safe for concurrent use).
"""

from __future__ import annotations

import numpy as np

REF_CLOCK_HZ = 500e3
PLL_MULTIPLIER = 32
N_STEPS = 8
N_PLAN = 11

#: Phase lag of the stepped sine relative to the I/Q clocks, in radians.
SOURCE_LAG = np.pi / 8

_FUNDAMENTALS = tuple(
    REF_CLOCK_HZ * PLL_MULTIPLIER / 2**k / N_STEPS for k in range(N_PLAN)
)


def plan_frequencies() -> tuple:
    """The 11 sine fundamentals of the fixed plan, 2 MHz first.

    A 500 kHz reference is multiplied by 32 to 16 MHz; ten divide-by-two
    stages provide 16 MHz down to 15.625 kHz, and the 8-step synthesis
    divides each by a further 8, spanning 2 MHz down to 1.953125 kHz in
    exact octaves.  Every entry is a dyadic rational and therefore exactly
    representable in binary floating point.
    """
    return _FUNDAMENTALS


def plan_index(freq: float, error) -> int:
    """Index of the plan frequency within 1e-6 (relative) of `freq`, else
    raises `error(message)`: the one plan tolerance, for documents' input."""
    for i, f in enumerate(_FUNDAMENTALS):
        if abs(f - freq) <= 1e-6 * f:
            return i
    raise error(f"{freq} Hz is not a plan frequency")
