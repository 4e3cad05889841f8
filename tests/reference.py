"""Independent reference engines for the tests: waveform rendering, the
per-image oracle, the 256-sample rational route and a 50-digit evaluation
of the RC mixer DC.

None of this runs in a measurement.  Each engine computes what the
program computes by another road, so a test can hold the program to it:

* `synthesize` renders the stepped sine and the I/Q clocks sample by
  sample; `harmonic_coefficients` gives their closed-form spectrum.
* `analytic_dc_oracle` is the settled output DC from the plain per-image
  sum, truncated at `n_max`.
* `euler_image_dc` sums the images to a chosen last one, its tail taken
  by Euler's transform.
* `nsum_mixer_dc` sums a Cole load's image series to the end by
  `mpmath.nsum` at 30 digits.
* `gated_mean_exact` with `sense_tf` is the sampled-period rational route:
  a transfer function in state space, ZOH-discretized, solved for the
  full-period steady state over a rendered period.
* `exact_mixer_dc` evaluates the RC mixer DC by partial fractions in
  mpmath at 50 digits.
* `expm_mixer_dc` is the RC mixer DC by a general matrix exponential:
  each frequency's 4 x 4 segment generator taken by scaling and squaring
  (`expm_lower`), its steady state by a linear solve.
* `cascade_step_reference` evaluates the baseband chain's unit-step
  response by partial fractions in mpmath at 50 digits.
* `sequence_readout` reads a sequence's taps off its output rows code by
  code, without the readout's tables.
* `folded_root_spectrum` folds the noise PSD of the whole n-point series.
* `argparse_args` reads `bioz`'s command line with the argparse parser
  that `cli._parse` replaced.
* `clamped_session` runs a link session by the per-bit loop that clamps
  every uplink bit to [0, clamp].
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from enum import Enum

import mpmath
import numpy as np
from scipy import signal

from biozsim import acquire, link, tissue
from biozsim.cli import OUTPUT_FORMATS, ScenarioError
from biozsim.tissue import ColeModel
from biozsim.waveforms import (
    N_PLAN,
    N_STEPS,
    PLL_MULTIPLIER,
    REF_CLOCK_HZ,
    SOURCE_LAG,
)

#: Minimum oversampling relative to the fundamental (keeps the 9th image
#: at least 3.5x below Nyquist).
MIN_OVERSAMPLING = 64

#: Zero-order-hold gain of the fundamental: sin(pi/8) / (pi/8).
FUNDAMENTAL_GAIN = float(np.sin(np.pi / 8) / (np.pi / 8))


def stepped_sine_levels(amplitude: float) -> np.ndarray:
    """Eight zero-order-hold levels of one period of the stepped sine.

    level[k] = amplitude * sin(2*pi*(k + 0.5)/8).  Held on a grid shifted
    half a step late, the staircase lags the reference clocks by pi/8.

    Zero amplitude is allowed (all-zero levels, the source-disabled case);
    negative amplitude is rejected.
    """
    if amplitude < 0:
        raise ValueError(f"amplitude must be >= 0, got {amplitude}")
    return amplitude * np.sin(2 * np.pi * (np.arange(N_STEPS) + 0.5) / N_STEPS)


@dataclass(frozen=True)
class FrequencyPlan:
    """The fixed 11-point plan as its clock tree: the reference, the PLL
    output divided by 2**k, and each divider output over the 8 steps."""

    ref_clock: float = REF_CLOCK_HZ
    pll_multiplier: int = PLL_MULTIPLIER
    divider_outputs: tuple = field(
        default_factory=lambda: tuple(16e6 / 2**k for k in range(N_PLAN))
    )
    sine_fundamentals: tuple = field(
        default_factory=lambda: tuple(16e6 / 2**k / N_STEPS for k in range(N_PLAN))
    )


def frequency_plan() -> FrequencyPlan:
    return FrequencyPlan()


@dataclass(frozen=True)
class SteppedSine:
    """Differential stepped-sine excitation: `amplitude` scales the hold
    levels; the render lags the reference clocks by `lag_radians`."""

    amplitude: float = 0.1
    fundamental: float = 1953.125
    lag_radians: float = SOURCE_LAG

    @property
    def levels(self) -> np.ndarray:
        return stepped_sine_levels(self.amplitude)


class Phase(str, Enum):
    """Reference clock selection."""

    I = "I"
    Q = "Q"


@dataclass(frozen=True)
class IqClock:
    """50%-duty reference clock: I renders as sign(sin(2*pi*f*t)), Q as
    sign(cos(2*pi*f*t))."""

    fundamental: float
    phase: Phase = Phase.I


@dataclass(frozen=True)
class SampleSeries:
    """Uniformly sampled real-valued signal."""

    sample_rate: float
    samples: np.ndarray

    def __len__(self):
        return len(self.samples)


def times(series: SampleSeries) -> np.ndarray:
    return np.arange(len(series.samples)) / series.sample_rate


def _samples_per_step(fundamental: float, sample_rate: float) -> int:
    """Validate commensurability and return integer samples per hold step."""
    if fundamental <= 0:
        raise ValueError("fundamental must be positive")
    m = sample_rate / (N_STEPS * fundamental)
    if abs(m - round(m)) > 1e-9 or round(m) < 1:
        raise ValueError(
            f"sample_rate {sample_rate} is not an integer multiple of "
            f"8 x fundamental ({N_STEPS * fundamental})"
        )
    if sample_rate < MIN_OVERSAMPLING * fundamental:
        raise ValueError(
            f"sample_rate {sample_rate} below minimum oversampling "
            f"{MIN_OVERSAMPLING} x fundamental"
        )
    return int(round(m))


def synthesize(spec, sample_rate: float, duration: float) -> SampleSeries:
    """Render a periodic zero-order-hold waveform.

    SteppedSine renders as the 8-level staircase delayed by its lag
    (half a step by default), IqClock as +/-1.  The sample rate must be an
    integer multiple of 8 x fundamental, and of 16 x fundamental for the
    lagged staircase so its shifted edges land on samples.
    """
    n = int(round(sample_rate * duration))
    if n < 1:
        raise ValueError("duration too short for one sample")
    i = np.arange(n)

    if isinstance(spec, SteppedSine):
        m = _samples_per_step(spec.fundamental, sample_rate)
        shift = spec.lag_radians / (2 * np.pi / N_STEPS) * m
        if abs(shift - round(shift)) > 1e-9:
            raise ValueError(
                "sample_rate cannot place the lagged step edges on samples; "
                f"use a multiple of {2 * N_STEPS} x fundamental"
            )
        idx = ((i - int(round(shift))) // m) % N_STEPS
        return SampleSeries(sample_rate, spec.levels[idx])

    if isinstance(spec, IqClock):
        per = N_STEPS * _samples_per_step(spec.fundamental, sample_rate)
        pos = i % per
        if spec.phase == Phase.I:
            samples = np.where(pos < per // 2, 1.0, -1.0)
        else:
            samples = np.where((pos < per // 4) | (pos >= 3 * per // 4), 1.0, -1.0)
        return SampleSeries(sample_rate, samples)

    raise TypeError(f"cannot synthesize {type(spec).__name__}")


def harmonic_coefficients(
    levels,
    n_max: int,
    samples_per_period: int | None = None,
    lag_radians: float = 0.0,
) -> np.ndarray:
    """One-sided complex harmonic amplitudes of the held staircase.

    The waveform is c[0] + sum_n Re{c[n] * exp(j*2*pi*n*f0*t)}.  With the
    continuous hold (samples_per_period=None)

        c[n] = (sinc(n/8)/4) * sum_k level[k] * exp(-j*2*pi*n*(k+0.5)/8),

    nonzero for ideal levels only at n = 8k +/- 1, with magnitude
    amplitude * sinc(1/8) / n.  With samples_per_period = M the exact DFT
    coefficients of one rendered period are returned instead.
    """
    if n_max < 9:
        raise ValueError("n_max must be at least 9 (first image pair)")
    levels = np.asarray(levels, dtype=float)
    if levels.shape != (N_STEPS,):
        raise ValueError(f"expected {N_STEPS} levels, got shape {levels.shape}")

    n = np.arange(n_max + 1)
    if samples_per_period is None:
        k = np.arange(N_STEPS)
        dft = np.sum(
            levels[None, :] * np.exp(-2j * np.pi * np.outer(n, k + 0.5) / N_STEPS),
            axis=1,
        )
        coeffs = dft * np.sinc(n / N_STEPS) * (2.0 / N_STEPS)
        coeffs[0] = levels.mean()
    else:
        if samples_per_period % (2 * N_STEPS) and lag_radians:
            raise ValueError("samples_per_period must be a multiple of 16 for a lagged render")
        m = samples_per_period // N_STEPS
        if m * N_STEPS != samples_per_period:
            raise ValueError("samples_per_period must be a multiple of 8")
        period = levels[(np.arange(samples_per_period) // m) % N_STEPS]
        bins = np.fft.rfft(period) / samples_per_period
        if n_max >= len(bins):
            raise ValueError("n_max exceeds the Nyquist bin of the rendered period")
        coeffs = 2.0 * bins[: n_max + 1]
        coeffs[0] = bins[0].real

    if lag_radians:
        coeffs = coeffs * np.exp(-1j * n * lag_radians)
        coeffs[0] = coeffs[0].real
    return coeffs


def lna_response(params, freq):
    """The LNA's single pole at `freq` Hz, 1 / (1 + j f / lna_pole); 1 with no pole."""
    if params.lna_pole is None:
        return np.ones_like(freq, dtype=complex)
    return 1 / (1 + 1j * freq / params.lna_pole)


def image_terms(model, f0, params, n):
    """(I, Q) terms of images `n` before the common factor gm |I| (2/pi).

    Image n = 8k +/- 1 of the staircase (amplitude |I| / n) times the
    clock's harmonic 4 / (pi n) leaves (2 / pi) |I| / n^2 times Re of
    W e^(-j n pi/8) for I and +/- Im of it for Q (+ at n = 8k + 1), with
    W = Z_sense * LNA at n f0."""
    t = tissue._sense_z(model, n * f0) * lna_response(params, n * f0)
    t = t * np.exp(-1j * SOURCE_LAG * (n % 16)) / n**2
    return np.stack([t.real, np.where(n % 8 == 1, 1.0, -1.0) * t.imag])


def analytic_dc_oracle(model, f0, config, params, n_max=63, phase=Phase.I) -> float:
    """Settled output DC (volts) of the `phase` clock with noise and
    compression disabled: the plain per-image sum up to `n_max`, times the
    TIA and low-pass gains, plus the offset."""
    if not config.source_enable:
        return params.offset
    n = np.arange(1, n_max + 1)
    n = n[(n % 8 == 1) | (n % 8 == 7)]
    dc_i, dc_q = image_terms(model, f0, params, n).sum(axis=1)
    dc = config.gm * config.current_amplitude * (2 / np.pi) * (dc_i if phase == Phase.I else dc_q)
    return float(dc * params.tia_gain * params.lpf_gain + params.offset)


def euler_image_dc(model, f0, config, params, last) -> np.ndarray:
    """Post-mixer DC (I, Q) from the images n = 8k +/- 1 <= `last` (last =
    7 mod 8), its alternating tail taken by Euler's transform: the 17
    partial sums that end at last - 128, last - 120, ..., last, averaged
    with the binomial weights C(16, j) / 2^16."""
    if last % 8 != 7 or last < 135:
        raise ValueError("last must be 7 mod 8 and at least 135")
    n = np.arange(1, last + 1)
    n = n[(n % 8 == 1) | (n % 8 == 7)]
    partial = np.cumsum(image_terms(model, f0, params, n), axis=1)[:, n % 8 == 7][:, -17:]
    binomial = np.array([math.comb(16, j) for j in range(17)]) / 2.0**16
    return config.gm * config.current_amplitude * (2 / np.pi) * (partial @ binomial)


def nsum_mixer_dc(model: ColeModel, f0, config, params, dps=30) -> tuple:
    """Post-mixer DC (I, Q) of a Cole load: the image series summed to the
    end by `mpmath.nsum` at `dps` digits, the load and the LNA in mpmath.

    The images 8k - 1 and 8k + 1 carry the sign (-1)^k, so the series is
    summed over k as an alternating series of those pairs, after the
    fundamental."""
    mp = mpmath.mp
    with mpmath.workdps(dps):
        f0 = mp.mpf(f0)
        r_inf, r0, tau, alpha = map(mp.mpf, (model.r_inf, model.r0, model.tau, model.alpha))
        rotation = mp.exp(-1j * mp.pi / 8)

        def term(n, part):
            w = r_inf + (r0 - r_inf) / (1 + (2j * mp.pi * n * f0 * tau) ** alpha)
            if params.lna_pole is not None:
                w /= 1 + 1j * n * f0 / mp.mpf(params.lna_pole)
            t = w * rotation ** n / n**2
            return t.real if part == 0 else (1 if n % 8 == 1 else -1) * t.imag

        scale = mp.mpf(config.gm) * mp.mpf(config.current_amplitude) * 2 / mp.pi
        return tuple(
            float(scale * (term(1, part) + mpmath.nsum(
                lambda k: term(8 * int(k) - 1, part) + term(8 * int(k) + 1, part), [1, mp.inf])))
            for part in (0, 1))


def sense_tf(model, params):
    """s-domain numerator/denominator of Z_sense(s) * LNA(s), r || c."""
    if model.c == 0:
        num, den = [model.r], [1.0]
    else:
        num, den = [model.r], [model.r * model.c, 1.0]
    if params.lna_pole is not None:
        den = np.convolve(den, [1.0 / (2 * np.pi * params.lna_pole), 1.0])
    return num, den


def gated_mean_exact(num, den, u: np.ndarray, gates, dt: float, period: int):
    """Exact period means of gate(t) * y(t) for a rational filter.

    `u` is one period of a piecewise-constant input, `period` segments of
    `dt`; each gate is +/-1 over the same segments.  num/den is realized in
    state space with an output integrator and ZOH-discretized, and the
    state is solved for the full-period steady state, so the means are the
    exact continuous cycle means up to rounding.
    """
    if len(u) != period:
        raise ValueError("u must be exactly one period")
    num = np.atleast_1d(np.asarray(num, dtype=float))
    den = np.atleast_1d(np.asarray(den, dtype=float))
    if len(den) == 1:  # pure gain: y piecewise constant, plain means are exact
        y = (num[-1] / den[0]) * u
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
    adp, bdp, crow, dint = ad[:n, :n], bd[:n, 0], ad[n, :n], bd[n, 0]

    x = np.zeros(n)
    for uk in u:
        x = adp @ x + bdp * uk
    x = np.linalg.solve(np.eye(n) - np.linalg.matrix_power(adp, period), x)

    inc = np.empty(period)
    for k, uk in enumerate(u):
        inc[k] = crow @ x + dint * uk
        x = adp @ x + bdp * uk
    return [float(np.sum(inc * gate) / (period * dt)) for gate in gates]


def sampled_mixer_dc(model, f0, config, params, per_period=256):
    """Post-mixer DC (I, Q) of an RC load from `per_period` rendered samples."""
    rate = per_period * f0
    u = synthesize(SteppedSine(config.current_amplitude / FUNDAMENTAL_GAIN, f0),
                   rate, 1 / f0).samples
    gates = [synthesize(IqClock(f0, ph), rate, 1 / f0).samples for ph in (Phase.I, Phase.Q)]
    num, den = sense_tf(model, params)
    dc_i, dc_q = gated_mean_exact(num, den, u, gates, 1 / rate, per_period)
    return config.gm * dc_i, config.gm * dc_q


def exact_mixer_dc(model, f0, config, params, dps=50):
    """Post-mixer DC (I, Q) of an RC load, evaluated in mpmath at `dps` digits.

    Z_sense = r || c (the interface lies outside the sense electrodes) times
    the LNA is split into partial fractions, each a weight times a
    first-order section 1/(1 + s*t) or a direct term (t = 0).  A section
    driven by the staircase relaxes exponentially over each sixteenth of a
    period, so its periodic steady state and every segment integral have
    closed forms; the gated segment integrals over one period give the DC.
    Distinct load and LNA time constants are assumed.
    """
    mp = mpmath.mp
    with mpmath.workdps(dps):
        r = mp.mpf(model.r)
        tau = r * mp.mpf(model.c)
        terms = [(r, tau)]
        if params.lna_pole is not None:
            tp = 1 / (2 * mp.pi * mp.mpf(params.lna_pole))
            split = []
            for w, t in terms:
                if t == 0:
                    split.append((w, tp))
                else:  # 1/((1+st)(1+s tp)) = (t/(1+st) - tp/(1+s tp)) / (t - tp)
                    split += [(w * t / (t - tp), t), (-w * tp / (t - tp), tp)]
            terms = split

        amplitude = mp.mpf(config.current_amplitude) / (mp.sin(mp.pi / 8) / (mp.pi / 8))
        u = [amplitude * mp.sin(2 * mp.pi * (((j - 1) // 2) % 8 + mp.mpf(1) / 2) / 8)
             for j in range(16)]
        dt = 1 / (16 * mp.mpf(f0))
        integrals = [u_j * dt * sum(w for w, t in terms if t == 0) for u_j in u]
        for w, t in terms:
            if t == 0:
                continue
            e = mp.exp(-dt / t)
            x = sum(e ** (15 - j) * (1 - e) * u_j for j, u_j in enumerate(u)) / (1 - e**16)
            for j, u_j in enumerate(u):
                integrals[j] += w * (u_j * dt + (x - u_j) * t * (1 - e))
                x = u_j + (x - u_j) * e
        gate_i = [1 if j < 8 else -1 for j in range(16)]
        gate_q = [1 if j < 4 or j >= 12 else -1 for j in range(16)]
        scale = mp.mpf(config.gm) * mp.mpf(f0)  # gm / period
        return tuple(float(scale * sum(g * s for g, s in zip(gate, integrals)))
                     for gate in (gate_i, gate_q))



def expm_lower(gen: np.ndarray) -> np.ndarray:
    """exp of each lower-triangular generator in a stack (m, n, n), by
    scaling and squaring.

    Each gen is scaled by its own 2^-s to norm at most 1, where a Taylor
    polynomial of degree 18 gives its exponential; s squarings undo the
    scaling.  Every squaring recomputes the diagonal and the first
    subdiagonal from their closed forms (Al-Mohy and Higham 2009, Code
    Fragment 2.1), the divided difference of exp taken through expm1 so
    that close diagonal entries lose no digits.  `scipy.linalg.expm` does
    the same with a plain difference of exponentials, which is 5e-12 off
    for a load pole 7e-6 of a segment away from the input's.
    """
    n = gen.shape[-1]
    norms = np.abs(gen).sum(axis=1).max(axis=1)
    s = np.array([max(0, math.ceil(math.log2(x))) if x > 1 else 0 for x in norms.tolist()])
    top = int(s.max())
    # the closed forms at each scale gen / 2**t, t = top .. 0: (m, top + 1, n)
    scales = 2.0 ** -np.arange(top, -1, -1)
    h = scales[:, None] * np.diagonal(gen, axis1=1, axis2=2)[:, None, :]
    hi, lo = np.maximum(h[..., 1:], h[..., :-1]), np.minimum(h[..., 1:], h[..., :-1])
    gap = hi - lo
    ratio = np.divide(-np.expm1(-gap), gap, out=np.ones_like(gap), where=gap > 0)
    diags = np.exp(h)
    subs = scales[:, None] * np.diagonal(gen, -1, axis1=1, axis2=2)[:, None, :] * np.exp(hi) * ratio
    # Horner's rule; the terms left out sum below 1/19! < 1e-17
    x = gen * (2.0 ** -s)[:, None, None]
    e = np.eye(n)
    for k in range(18, 0, -1):
        e = np.eye(n) + x @ e / k
    on, below = np.arange(n), np.arange(1, n)
    for t in range(top + 1):
        if t:
            squared = s > top - t
            e[squared] = e[squared] @ e[squared]
        live = np.flatnonzero(s >= top - t)
        e[live[:, None], on, on] = diags[live, t]
        e[live[:, None], below, below - 1] = subs[live, t]
    return e


#: A time constant tau with tau * f0 below this moves the mixer DC by
#: O(16 tau f0), less than a double resolves: `expm_mixer_dc` drops it.
NEGLIGIBLE_TAU_F0 = 1e-20

#: The staircase at unit amplitude over the sixteenths of the first half
#: period: lagging the clocks by half a step, sixteenth j holds level
#: (j - 1) // 2 mod 8; the second half period is the negative.
HALF_PERIOD_LEVELS = stepped_sine_levels(1.0)[(np.arange(8) - 1) // 2 % N_STEPS]

#: The I clock, sign(sin), and the Q clock, sign(cos), over the same
#: sixteenths; both flip sign over the second half period.
HALF_PERIOD_GATES = np.array([[1.0] * 8, [1.0] * 4 + [-1.0] * 4])


def expm_mixer_dc(model, f0s, config, params) -> np.ndarray:
    """Post-mixer DC (I, Q) of an RC load per frequency in `f0s`, (m, 2),
    from the matrix exponential of each segment's generator.

    The generator of (u, x1, x2, z) over one segment, in its units: the
    held input, the unity-DC load state, the LNA state and the running
    mean of y / r; a lag with tau * f0 below `NEGLIGIBLE_TAU_F0` is
    dropped, so that c = 0 and an LNA pole near overflow need no division.  The antiperiodic steady state over
    the 8 segments of half a period is x0 = -(I + A^8)^-1 x_forced.
    """
    f0s = np.asarray(f0s, dtype=float)
    tau = model.r * model.c
    seg = 1.0 / (16 * f0s)
    rows = np.arange(len(f0s))
    gen = np.zeros((len(f0s), 4, 4))
    load = ~(tau * f0s < NEGLIGIBLE_TAU_F0)
    sensed = load.astype(int)  # column of the sensed voltage: x1, else u
    gen[load, 1, 0] = seg[load] / tau
    gen[load, 1, 1] = -seg[load] / tau
    pole = params.lna_pole
    lna = np.zeros(len(f0s), dtype=bool)
    if pole is not None:
        lna = ~(f0s / (2 * np.pi * pole) < NEGLIGIBLE_TAU_F0)
        p = 2 * np.pi * pole * seg[lna]
        gen[rows[lna], 2, sensed[lna]], gen[lna, 2, 2] = p, -p
        gen[lna, 3, 2] = 1.0
    gen[rows[~lna], 3, sensed[~lna]] = 1.0
    step = expm_lower(gen)
    a, b, c, d = step[:, 1:3, 1:3], step[:, 1:3, :1], step[:, 3:, 1:3], step[:, 3:, :1]

    u = config.current_amplitude / FUNDAMENTAL_GAIN * HALF_PERIOD_LEVELS
    x = np.zeros((len(f0s), 2, 1))
    for u_j in u:
        x = a @ x + b * u_j
    x = -np.linalg.solve(np.eye(2) + np.linalg.matrix_power(a, 8), x)
    means = np.empty((len(f0s), 8, 1))
    for j, u_j in enumerate(u):
        means[:, j] = (c @ x + d * u_j)[:, 0]
        x = a @ x + b * u_j
    dc = config.gm * model.r * (HALF_PERIOD_GATES @ means) / 8
    return dc[:, :, 0]

def cascade_step_reference(poles, times, dps=50) -> np.ndarray:
    """Unit-step response, at the given increasing sample times, of the
    cascade with these distinct poles, one zero at -1 per pole and unity
    DC gain, evaluated by partial fractions in mpmath at `dps` digits.

    H(z) = G (z + 1)^N / prod_i (z - p_i) with G = prod_i (1 - p_i) / 2^N.
    Started at rest, its response to a unit step is, for t >= 0,

        y[t] = 1 + sum_i G (p_i + 1)^N p_i^t / ((p_i - 1) prod_{l != i} (p_i - p_l)).

    Each term is carried from one requested time to the next by
    multiplication with p_i^(t' - t).  A complex pole pair is listed as
    both its poles.
    """
    with mpmath.workdps(dps):
        p = [mpmath.mpc(complex(q)) for q in poles]
        gain = mpmath.fprod(1 - q for q in p) / mpmath.mpf(2) ** len(p)
        weights = [gain * (q + 1) ** len(p)
                   / ((q - 1) * mpmath.fprod(q - r for r in p if r is not q)) for q in p]
        terms, advance, out, last = weights, {}, [], 0
        for t in times:
            if t - last not in advance:
                advance[t - last] = [q ** (t - last) for q in p]
            terms = [c * a for c, a in zip(terms, advance[t - last])]
            last = t
            out.append(float(mpmath.re(1 + mpmath.fsum(terms))))
    return np.array(out)


def sequence_readout(rows: np.ndarray, params, taps: int, stride: int) -> tuple:
    """(v_i, v_q, saturated, low, high), one entry per row of `rows`, the
    I-then-Q outputs a sequence read on its lattice of every `stride`-th
    sample.

    Each select phase takes `taps` taps at 1 ms after the settling time.
    Each tap is digitized by `acquire.pin_code`, its codes are mapped to
    volts by `acquire.code_volts`, made C-contiguous and averaged per
    phase.  `low` and `high` count the taps at the bottom and the top
    code; a row is saturated when their sum reaches 1% of its taps."""
    fs = params.output_rate
    settle_n = int(round(params.settle_time * fs))
    spacing_n = int(round(1e-3 * fs))
    phase_n = settle_n + spacing_n * taps
    read = (settle_n + spacing_n * np.arange(taps)) // stride
    tapped = rows.reshape(len(rows), 2, phase_n // stride)[:, :, read]
    codes = acquire.pin_code(tapped)
    means = np.add.reduce(np.ascontiguousarray(acquire.code_volts(codes)), axis=2) / taps
    low = np.add.reduce(codes == 0, axis=(1, 2))
    high = np.add.reduce(codes == acquire.ADC.codes - 1, axis=(1, 2))
    saturated = low + high >= max(1, math.ceil(0.01 * (2 * taps)))
    return means[:, 0], means[:, 1], saturated, low, high


def folded_root_spectrum(params, n: int, sample_rate: float, stride: int) -> np.ndarray:
    """Square root of the noise PSD folded to n/stride bins, rfft half:
    the PSD of every bin of the n-point series at `fftfreq`'s |f|, folded
    by reshaping to (stride, n/stride) and summing over the stride."""
    f = np.abs(np.fft.fftfreq(n, 1.0 / sample_rate))
    psd = np.zeros(n)
    psd[1:] = params.noise_floor**2 * (sample_rate / 2.0) * (1.0 + params.flicker_corner / f[1:])
    m = n // stride
    return np.sqrt(psd.reshape(stride, m).sum(0)[: m // 2 + 1] / stride)


class _Parser(argparse.ArgumentParser):
    """Turns a rejected command line into a usage error (one line, exit 1)."""

    def error(self, message):
        raise ScenarioError(f"{self.prog}: {message}")


def argparse_args(argv):
    """`bioz`'s command line as argparse reads it: a Namespace, or
    ScenarioError for a rejected line, or SystemExit(0) after help."""
    parser = _Parser(
        prog="bioz",
        description="Simulated 4-terminal bio-impedance spectroscopy bench (2 kHz - 2 MHz)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("plan", help="print the frequency plan")

    p_cal = sub.add_parser("calibrate", help="measure offsets and equalization coefficients")
    p_cal.add_argument("--scenario", required=True)
    p_cal.add_argument("--out", required=True, help="output table path")
    p_cal.add_argument("--reference", type=float, default=100.0, help="reference resistor, ohm")
    p_cal.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_cal.add_argument("--created-at", default=None, help="timestamp override (reproducible files)")

    p_sw = sub.add_parser("sweep", help="frequency sweep with repeats")
    p_sw.add_argument("--scenario", required=True)
    p_sw.add_argument("--cal", default=None, help="calibration table path")
    p_sw.add_argument("--uncalibrated", action="store_true")
    p_sw.add_argument("--repeats", type=int, default=10)
    p_sw.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_sw.add_argument("--format", choices=OUTPUT_FORMATS, default=None)
    p_sw.add_argument("--out", default=None, help="write records here instead of stdout")
    p_sw.add_argument("--strict", action="store_true", help="flagged records fail the run")

    p_ld = sub.add_parser("link-demo", help="run a scripted reader<->implant session")
    p_ld.add_argument("--script", required=True, help="JSON list of link operations")
    p_ld.add_argument("--cap", type=float, default=20.0, help="reservoir capacitance, uF")
    p_ld.add_argument("--seed", type=int, default=0)
    p_ld.add_argument("--trace", action="store_true", help="print the full voltage trace")

    return parser.parse_args(argv)


def clamped_session(commands, channel, power, device):
    """`link.session` with every uplink bit clamped to [0, clamp] by
    comparison and checked against the floor, one bit like the next."""
    bit_t = 1.0 / link.BIT_RATE
    tau = channel.r_source * power.reservoir_cap
    clamp, floor = link.CLAMP_VOLTAGE, link.BROWNOUT_VOLTAGE
    bit_decay = math.exp(-bit_t / tau) if tau > 0 else None
    bit_drop = link.LOAD_CURRENT * bit_t / power.reservoir_cap
    t = 0.0
    v = min(power.reservoir_voltage, clamp)
    trace = link.Trace()
    run = trace._run
    record = trace.volts.append
    run(t, 0.0, "start")
    record(v)
    responses = []

    def harvest(dt: float, tag: str):
        nonlocal t, v
        v = clamp + (v - clamp) * math.exp(-dt / tau) if tau > 0 else clamp
        if v < 0.0:
            v = 0.0
        if v > clamp:
            v = clamp
        run(t, dt, tag)
        t += dt
        record(v)
        if v < floor:
            raise link._brownout(t, v, trace)

    for cmd in commands:
        rx = cmd.to_bytes()
        harvest(len(rx) * 10 * bit_t, "rx")
        response, busy = device.handle(rx)
        if busy:
            harvest(busy, "measure")
        line = link._LINE_BITS.get(response)
        if line is None:
            line = link._line_bits(response)
        run(t, bit_t, "tx")
        for bit in line:
            if not bit:
                v -= bit_drop
            elif bit_decay is None:
                v = clamp
            else:
                v = clamp + (v - clamp) * bit_decay
            if v < 0.0:
                v = 0.0
            if v > clamp:
                v = clamp
            t += bit_t
            record(v)
            if v < floor:
                raise link._brownout(t, v, trace)
        responses.append(response)

    return link.SessionResult(responses=responses, trace=trace)
