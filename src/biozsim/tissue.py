"""Ground-truth load models seen between the injection electrodes.

Three model families cover the bench and tissue scenarios:

* ParallelRC -- Debye-type parallel resistor/capacitor with an optional
  series electrode interface resistance on the injection side,
  Z = r/(1 + jwrc) + r_interface.
* ColeModel  -- Z = r_inf + (r0 - r_inf)/(1 + (jw*tau)^alpha), the standard
  fractional-order generalization (alpha = 1 reduces to the RC form).
* TabulatedTwoPort -- transfer impedance vs frequency from an external
  table (e.g. an EM solver), interpolated linearly in log-frequency on the
  real and imaginary parts separately.  No extrapolation: the table is the
  only authority for electrode behavior.

`impedance_at` evaluates any model at a frequency.

Models are immutable; concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class TableRangeError(ValueError):
    """Requested frequency lies outside the tabulated range."""


@dataclass(frozen=True)
class ParallelRC:
    """Parallel r || c with a series injection-side interface resistance.

    r_interface lies outside the sense electrodes: `impedance_at` includes
    it, the sensed (measured) impedance does not.
    """

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

    Rows are (frequency_hz, Re Z21, Im Z21), all finite, frequencies
    strictly increasing, at least two rows.  Interpolation is linear in
    log10(frequency) on Re and Im; it is exact at the table nodes.
    """

    def __init__(self, freqs_hz, z21):
        f = np.asarray(freqs_hz, dtype=float)
        z = np.asarray(z21, dtype=complex)
        if f.ndim != 1 or len(f) < 2 or len(f) != len(z):
            raise ValueError("need at least 2 matched (frequency, z21) rows")
        if not (np.isfinite(f).all() and np.isfinite(z).all()):
            raise ValueError("frequencies and impedances must be finite")
        if np.any(f <= 0) or np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be positive and strictly increasing")
        self.freqs_hz = f
        self.z21 = z
        self._logf = np.log10(f)

    @classmethod
    def from_text(cls, source) -> "TabulatedTwoPort":
        """Parse a plain-text table: `freq_hz re_ohm im_ohm` per row, # comments."""
        rows = np.loadtxt(source, ndmin=2)
        if rows.shape[1] != 3:
            raise ValueError("expected 3 columns: freq_hz re_ohm im_ohm")
        return cls(rows[:, 0], rows[:, 1] + 1j * rows[:, 2])

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


def impedance_at(model, freq):
    """Complex impedance of `model` at `freq` Hz (scalar or array).

    Closed form for ParallelRC and Cole; log-frequency interpolation for
    tables (no extrapolation).  For ParallelRC the series interface
    resistance is included: this is the impedance seen from the injection
    port.  It lies outside the sense electrodes, so no mixer DC sees it.

    Where w*r*c (RC) or w*tau (Cole) overflows a double, the closed form
    is taken divided through by that product instead, which tends to the
    limit r_interface or r_inf; elsewhere it is evaluated as written.
    """
    freq = np.asarray(freq, dtype=float)
    if np.logical_or.reduce(freq <= 0, axis=None):
        raise ValueError("freq must be positive")
    if isinstance(model, ParallelRC):
        w = 2 * np.pi * freq
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            z = np.asarray(model.r / (1 + 1j * w * model.r * model.c) + model.r_interface)
        far = ~np.isfinite(z)
        if np.logical_or.reduce(far, axis=None):  # only where the direct form fails
            z[far] = _divided_rc(model, w[far])
    elif isinstance(model, ColeModel):
        w = 2 * np.pi * freq
        with np.errstate(over="ignore", invalid="ignore"):
            near = np.isfinite(w * model.tau)
            # Python's complex power raises past overflow, so a scalar takes it only where finite
            z = (model.r_inf + (model.r0 - model.r_inf) / (1 + (1j * w * model.tau) ** model.alpha)
                 if np.ndim(w) or near else np.nan)
            # where w tau overflows: divide through by (w tau)^alpha, that is multiply by
            # q = (w tau)^-alpha, which underflows to 0 in the limit r_inf
            q = np.exp(-model.alpha * (np.log(w) + math.log(model.tau)))
            far = model.r_inf + (model.r0 - model.r_inf) * q / (q + np.exp(0.5j * np.pi * model.alpha))
        z = np.where(near, z, far)
    elif isinstance(model, TabulatedTwoPort):
        z = model.interp(freq)
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    if np.ndim(freq) == 0:
        return complex(z)
    return z


def _divided_rc(model: ParallelRC, w):
    """A ParallelRC's impedance at angular frequencies w where w r c
    overflows: r / (1 + j w r c) = u / (u / r + j) with u = 1 / (w c),
    which is 0 once w c overflows too; c = 0 leaves r."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = 1 / (w * model.c) if model.c else None
        return (model.r if u is None else u / (u / model.r + 1j)) + model.r_interface


def _sense_z(model, freq):
    """Impedance between the sense electrodes: a ParallelRC's r_interface
    lies outside them, so the model is evaluated without it."""
    if isinstance(model, ParallelRC):
        model = replace(model, r_interface=0.0)
    return impedance_at(model, freq)


def is_rational(model) -> bool:
    """True when the model has an exact lumped (state-space) realization:
    a ParallelRC, or a Cole load at alpha = 1, r_inf in series with an RC.

    Only a load-class label: every load takes the same mixer-DC route
    (`afe.mixer_dc_pair`), and nothing in the program branches on it.  The
    benchmark's spans read it to name their mixer-DC span."""
    return isinstance(model, ParallelRC) or (isinstance(model, ColeModel) and model.alpha == 1.0)


# Representative electrode-referred transfer impedances for the bundled
# scenarios.  Magnitudes at low frequency: blood ~107 ohm, transversal
# skeletal muscle ~2491 ohm, physiological saline ~47 ohm with its
# dispersion knee near 30 MHz.  The curves are computed from Cole fits
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
