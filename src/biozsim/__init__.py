"""Deterministic behavioral simulator of a battery-less 4-terminal
bio-impedance measurement system: 8-step stepped-sine excitation over an
11-point 2 kHz - 2 MHz plan, square-wave I/Q demodulation (one mixer-DC
route, the hold-image sum, for every load), 10-bit acquisition with
oversampled averaging, software calibration (offsets, derotation,
per-frequency equalization), and the inductive-link
configuration/communication protocol with its energy reservoir budget.
"""

from .waveforms import plan_frequencies
from .tissue import (
    ColeModel,
    ParallelRC,
    TableRangeError,
    TabulatedTwoPort,
    builtin_model,
    impedance_at,
)
from .afe import AfeConfig, ChainParams, apply_compression, noise_process
from .acquire import AdcSpec, SequenceResult, adc_sample, run_sequence
from .calib import (
    CalibrationError,
    CalibrationTable,
    ImpedanceReading,
    MeasurementSetup,
    RawIq,
    apply_calibration,
    auto_gain,
    build_equalization,
    derotate,
    extract_impedance,
    measure_impedance,
    measure_offsets,
)
from .link import (
    BrownOutError,
    ChannelParams,
    ConfigWord,
    Frame,
    ImplantDevice,
    PowerState,
    decode_config,
    encode_config,
    session,
)

__version__ = "0.1.0"
