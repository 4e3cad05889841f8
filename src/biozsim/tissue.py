"""Ground-truth load models seen between the injection electrodes.

Three model families cover the bench and tissue scenarios:

* ParallelRC -- Debye-type parallel resistor/capacitor with an optional
  series electrode interface resistance, Z = r/(1 + jwrc) + r_interface.
* ColeModel  -- Z = r_inf + (r0 - r_inf)/(1 + (jw*tau)^alpha), the standard
  fractional-order generalization (alpha = 1 reduces to the RC form).
* TabulatedTwoPort -- transfer impedance vs frequency from an external
  table (e.g. an EM solver), interpolated linearly in log-frequency on the
  real and imaginary parts separately.  No extrapolation: the table is the
  only authority for electrode behavior.

`sense_voltage` converts an injected current series into the sensed
voltage.  Two independent routes are provided and must agree: a spectral
route (each harmonic of the periodic current scaled by Z at its own
frequency) and, for the rational models, a recursive filter route using
the exact zero-order-hold discretization, which is sample-exact for the
piecewise-constant stepped current.

Models are immutable; concurrent reads are safe.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import signal

from ._dsp import periodic_lfilter
from .waveforms import SampleSeries


class TableRangeError(ValueError):
    """Requested frequency lies outside the tabulated range."""


@dataclass(frozen=True)
class ParallelRC:
    """Parallel r || c with a series injection-side interface resistance."""

    r: float
    c: float = 0.0
    r_interface: float = 0.0

    def __post_init__(self):
        if not (self.r > 0) or not math.isfinite(self.r):
            raise ValueError("r must be positive and finite")
        for name in ("c", "r_interface"):
            value = getattr(self, name)
            if not (value >= 0) or not math.isfinite(value):
                raise ValueError(f"{name} must be non-negative and finite")

    @property
    def tau(self) -> float:
        return self.r * self.c


@dataclass(frozen=True)
class ColeModel:
    """Fractional-order dispersion model; alpha in (0, 1]."""

    r_inf: float
    r0: float
    tau: float
    alpha: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r_inf, self.r0, self.tau, self.alpha))):
            raise ValueError("Cole parameters must be finite")
        if not (self.r0 > self.r_inf > 0):
            raise ValueError("need r0 > r_inf > 0")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must be in (0, 1]")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")


class TabulatedTwoPort:
    """Transfer impedance Z21 vs frequency from tabulated rows.

    Rows are (frequency_hz, Re Z21, Im Z21), frequencies strictly
    increasing, at least two rows.  Interpolation is linear in
    log10(frequency) on Re and Im; it is exact at the table nodes.
    """

    def __init__(self, freqs_hz, z21):
        f = np.asarray(freqs_hz, dtype=float)
        z = np.asarray(z21, dtype=complex)
        if f.ndim != 1 or len(f) < 2 or len(f) != len(z):
            raise ValueError("need at least 2 matched (frequency, z21) rows")
        if np.any(f <= 0) or np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be positive and strictly increasing")
        self.freqs_hz = f
        self.z21 = z
        self._logf = np.log10(f)

    @classmethod
    def from_text(cls, source) -> "TabulatedTwoPort":
        """Parse a plain-text table: `freq_hz re_ohm im_ohm` per row, # comments."""
        if hasattr(source, "read"):
            rows = np.loadtxt(source, ndmin=2)
        else:
            rows = np.loadtxt(str(source), ndmin=2)
        if rows.shape[1] != 3:
            raise ValueError("expected 3 columns: freq_hz re_ohm im_ohm")
        return cls(rows[:, 0], rows[:, 1] + 1j * rows[:, 2])

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write("# freq_hz re_ohm im_ohm\n")
        for f, z in zip(self.freqs_hz, self.z21):
            buf.write(f"{float(f)!r} {float(z.real)!r} {float(z.imag)!r}\n")
        return buf.getvalue()

    def interp(self, freq) -> np.ndarray:
        freq = np.asarray(freq, dtype=float)
        if np.any(freq < self.freqs_hz[0]) or np.any(freq > self.freqs_hz[-1]):
            raise TableRangeError(
                f"frequency outside table range "
                f"[{self.freqs_hz[0]:g}, {self.freqs_hz[-1]:g}] Hz"
            )
        lf = np.log10(freq)
        re = np.interp(lf, self._logf, self.z21.real)
        im = np.interp(lf, self._logf, self.z21.imag)
        return re + 1j * im


@dataclass(frozen=True)
class TimeVaryingModel:
    """A base model whose numeric parameters follow a piecewise-linear schedule.

    `schedule` maps a parameter name to a sequence of (time_s, value)
    breakpoints with strictly increasing times.  The model is piecewise
    frozen: a measurement evaluates `at_time` once and uses the frozen
    snapshot throughout.
    """

    base: object
    schedule: dict

    def __post_init__(self):
        for name, points in self.schedule.items():
            times = [t for t, _ in points]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError(f"schedule times for {name!r} must be strictly increasing")
            if not hasattr(self.base, name):
                raise ValueError(f"base model has no parameter {name!r}")

    def at_time(self, t: float):
        updates = {}
        for name, points in self.schedule.items():
            times = np.array([p[0] for p in points])
            vals = np.array([p[1] for p in points])
            updates[name] = float(np.interp(t, times, vals))
        return replace(self.base, **updates)


def impedance_at(model, freq):
    """Complex impedance of `model` at `freq` Hz (scalar or array).

    Closed form for ParallelRC and Cole; log-frequency interpolation for
    tables (no extrapolation).  For ParallelRC the series interface
    resistance is included: this is the impedance seen from the injection
    port.
    """
    freq = np.asarray(freq, dtype=float)
    if np.any(freq <= 0):
        raise ValueError("freq must be positive")
    if isinstance(model, ParallelRC):
        w = 2 * np.pi * freq
        z = model.r / (1 + 1j * w * model.r * model.c) + model.r_interface
    elif isinstance(model, ColeModel):
        w = 2 * np.pi * freq
        z = model.r_inf + (model.r0 - model.r_inf) / (1 + (1j * w * model.tau) ** model.alpha)
    elif isinstance(model, TabulatedTwoPort):
        z = model.interp(freq)
    elif isinstance(model, TimeVaryingModel):
        z = impedance_at(model.at_time(0.0), freq)
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    if np.ndim(freq) == 0:
        return complex(z)
    return z


def _z_dc(model, include_interface: bool) -> float:
    if isinstance(model, ParallelRC):
        return model.r + (model.r_interface if include_interface else 0.0)
    if isinstance(model, ColeModel):
        return model.r0
    raise TableRangeError("tabulated model has no DC value")


def _sense_z(model, freq, include_interface: bool):
    """Impedance applied on the sense path (interface excluded by default)."""
    z = impedance_at(model, freq)
    if isinstance(model, ParallelRC) and not include_interface:
        z = z - model.r_interface
    return z


def is_rational(model) -> bool:
    """True when the model has an exact lumped (state-space) realization."""
    if isinstance(model, TimeVaryingModel):
        return is_rational(model.base)
    return isinstance(model, ParallelRC)


def _zoh_coeffs(model, include_interface: bool, dt: float):
    """Exact ZOH discretization of the ParallelRC transfer impedance."""
    r_ser = model.r_interface if include_interface else 0.0
    if model.c == 0:
        return np.array([model.r + r_ser]), np.array([1.0])
    tau = model.r * model.c
    if r_ser:
        num = [tau * r_ser, model.r + r_ser]
    else:
        num = [model.r]
    bd, ad, _ = signal.cont2discrete((num, [tau, 1.0]), dt, method="zoh")
    return np.atleast_1d(np.squeeze(bd)), np.atleast_1d(ad)


def sense_voltage(
    model,
    current: SampleSeries,
    method: str = "auto",
    include_interface: bool = False,
    period_samples: int | None = None,
) -> SampleSeries:
    """Sensed differential voltage for an injected current series.

    With ideal high-impedance sensing no current flows in the sense
    electrodes, so the injection-side interface resistance drops out of
    the sensed voltage; pass include_interface=True to add it back for
    sensitivity studies (the two-terminal view).

    method:
      * "phasor" -- per-harmonic steady state: the series is interpreted
        as one period of a zero-order-hold waveform (what `synthesize`
        renders), so each DFT bin is first deconvolved by the per-sample
        hold response sinc(f/fs) * exp(-j*pi*f/fs) to recover the true
        continuous harmonic amplitude, then scaled by Z at the bin
        frequency.  This is exact for every harmonic below Nyquist; the
        output is the band-limited response (hold images beyond Nyquist
        are dropped, which any physical load attenuates anyway).
      * "filter" -- recursive filtering with the exact zero-order-hold
        discretization, sample-exact including all hold-image content;
        only the rational models qualify.  When `period_samples` is given
        the filter state is initialized to the periodic steady state,
        otherwise it starts from rest and the leading transient is part
        of the output.
      * "auto" -- "filter" for rational models, else "phasor".
    """
    x = np.asarray(current.samples, dtype=float)
    fs = current.sample_rate
    if isinstance(model, TimeVaryingModel):
        model = model.at_time(current.t0)

    if method == "auto":
        method = "filter" if is_rational(model) else "phasor"

    if method == "phasor":
        spec = np.fft.rfft(x)
        freqs = np.fft.rfftfreq(len(x), 1.0 / fs)
        h = np.zeros(len(spec), dtype=complex)
        live = np.abs(spec) > 1e-12 * (np.abs(spec).max() or 1.0)
        live[0] = False
        if np.any(live):
            hold = np.sinc(freqs[live] / fs) * np.exp(-1j * np.pi * freqs[live] / fs)
            h[live] = _sense_z(model, freqs[live], include_interface) * hold
        if np.abs(spec[0]) > 1e-12 * np.abs(spec).max():
            h[0] = _z_dc(model, include_interface)
        y = np.fft.irfft(spec * h, n=len(x))
        return SampleSeries(fs, y, current.t0)

    if method == "filter":
        if not is_rational(model):
            raise ValueError("filter route requires a rational (ParallelRC) model")
        b, a = _zoh_coeffs(model, include_interface, 1.0 / fs)
        if period_samples:
            y = periodic_lfilter(b, a, x, period_samples)
        else:
            y = signal.lfilter(b, a, x)
        return SampleSeries(fs, y, current.t0)

    raise ValueError(f"unknown method {method!r}")


# Representative electrode-referred transfer impedances for the bundled
# scenarios.  Magnitudes at low frequency: blood ~107 ohm, transversal
# skeletal muscle ~2491 ohm, physiological saline ~47 ohm with its
# dispersion knee near 30 MHz.  The curves are synthesized from Cole fits
# over a wide span so the image harmonics of the highest plan frequency
# stay inside the table; replace with solver output for real electrodes.
_BUILTIN_COLE = {
    "blood": ColeModel(r_inf=55.0, r0=107.0, tau=1 / (2 * np.pi * 2.5e6), alpha=0.85),
    "muscle_transversal": ColeModel(
        r_inf=240.0, r0=2491.0, tau=1 / (2 * np.pi * 150e3), alpha=0.9
    ),
    "saline": ColeModel(r_inf=1.0, r0=47.0, tau=1 / (2 * np.pi * 30e6), alpha=1.0),
}

BUILTIN_NAMES = tuple(sorted(_BUILTIN_COLE))


def builtin_model(name: str) -> TabulatedTwoPort:
    """Bundled tabulated two-port for `name` (see BUILTIN_NAMES)."""
    try:
        cole = _BUILTIN_COLE[name]
    except KeyError:
        raise KeyError(f"unknown builtin model {name!r}; have {BUILTIN_NAMES}") from None
    freqs = np.logspace(2, 9, 8 * 20 + 1)  # 100 Hz .. 1 GHz, 20 pts/decade
    return TabulatedTwoPort(freqs, impedance_at(cole, freqs))
