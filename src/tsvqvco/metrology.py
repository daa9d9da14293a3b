"""Waveform metrology.

Everything here post-processes a finished transient: oscillation
detection, fundamental frequency, per-output swing and phase, startup
time, and supply power.  Frequency comes from a Hann-windowed Fourier
magnitude peak refined by parabolic interpolation; phases come from the
fundamental's complex angle over an integer number of cycles, every
whole cycle of the run, so spectral leakage cancels between outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import ReadOnlyDict, Waveforms
from .errors import NON_NEGATIVE, POSITIVE, InvalidModelError, check_finite
from .netlist import BUFFER_SUPPLY, CORE_SUPPLY, OUTPUTS

# Swings below this are treated as numerical residue, not oscillation.
MIN_SWING_V = 0.02
STEADY_CYCLES = 5
STEADY_REL_TOL = 1e-3
ENVELOPE_FRAC = 0.9


@dataclass(frozen=True)
class SimMetrics:
    """Steady-state measurements for one transient run.

    amplitudes_vpp is keyed by output node; phases_deg holds every output
    after the first, in degrees relative to the first, wrapped to
    [0, 360).  Both are stored as a ReadOnlyDict, so the checks hold
    wherever the metrics go.  Power is split into the core supply and the
    buffer supply; either is None when the corresponding source is
    absent.  When oscillating is False only the amplitudes are
    meaningful.
    """

    oscillating: bool
    f_osc_hz: float | None = None
    amplitudes_vpp: dict[str, float] = field(default_factory=dict)
    delta_v_out_v: float | None = None
    phases_deg: dict[str, float] = field(default_factory=dict)
    startup_s: float | None = None
    power_core_mw: float | None = None
    power_buffer_mw: float | None = None
    steady: bool = False

    def __post_init__(self) -> None:
        for name, sign in (("amplitudes_vpp", NON_NEGATIVE), ("phases_deg", None)):
            values = ReadOnlyDict(getattr(self, name))
            object.__setattr__(self, name, values)
            for node, value in values.items():
                check_finite(InvalidModelError, "metrics", f"{name}[{node}]",
                             value, sign)
        for name, sign in (("f_osc_hz", POSITIVE), ("delta_v_out_v", NON_NEGATIVE),
                           ("startup_s", NON_NEGATIVE), ("power_core_mw", None),
                           ("power_buffer_mw", None)):
            value = getattr(self, name)
            if value is not None:
                check_finite(InvalidModelError, "metrics", name, value, sign)
        if self.oscillating and self.f_osc_hz is None:
            raise InvalidModelError("oscillating metrics need a frequency")


def estimate_frequency(time_s: np.ndarray, x: np.ndarray) -> float | None:
    """Fundamental of a uniformly sampled trace, or None when the
    spectrum has no usable off-DC peak."""
    n = len(x)
    if n < 16:
        return None
    dt = float(time_s[1] - time_s[0])
    sig = x - float(np.mean(x))
    if float(np.max(np.abs(sig))) == 0.0:
        return None
    win = np.hanning(n)
    # n >= 16 gives at least 9 bins, so k has both neighbours
    mag = np.abs(np.fft.rfft(sig * win))
    k = int(np.argmax(mag[1:-1])) + 1
    if mag[k] <= 0.0:
        return None
    # Parabolic refinement on log magnitude; guard the flat-spectrum case.
    lm, l0, lp = (math.log(max(m, 1e-300)) for m in mag[k - 1:k + 2])
    den = lm - 2.0 * l0 + lp
    delta = 0.0 if den == 0.0 else 0.5 * (lm - lp) / den
    delta = min(max(delta, -0.5), 0.5)
    return (k + delta) / (n * dt)


def _cycle_points(time_s: np.ndarray, f_hz: float, n_cycles: float) -> int:
    """Samples in n_cycles periods of f_hz on the uniform grid time_s."""
    return int(round(n_cycles / (f_hz * float(time_s[1] - time_s[0]))))


def _fundamental_phasor(time_s: np.ndarray, x: np.ndarray,
                        f_hz: float) -> complex:
    """Complex fundamental over every whole cycle of the trace, taken
    from its end; start-up included."""
    span = float(time_s[-1] - time_s[0])
    n_cyc = math.floor(span * f_hz)
    if n_cyc < 1:
        raise InvalidModelError("trace shorter than one oscillation cycle")
    n_pts = _cycle_points(time_s, f_hz, n_cyc)
    seg = x[-n_pts:] - float(np.mean(x[-n_pts:]))
    t = time_s[-n_pts:]
    return complex(np.sum(seg * np.exp(-2j * np.pi * f_hz * t)))


def _refined_extremum(x: np.ndarray, idx: int) -> float:
    """Parabolic value refinement at a sampled extremum.

    Outputs at different phases sample their true peaks at different
    sub-sample offsets; without refinement that beat shows up as a fake
    swing imbalance of order (pi/points_per_period)^2.
    """
    if idx <= 0 or idx >= len(x) - 1:
        return float(x[idx])
    y0, y1, y2 = float(x[idx - 1]), float(x[idx]), float(x[idx + 1])
    den = y0 - 2.0 * y1 + y2
    if den == 0.0:
        return y1
    # |d| <= 1/2 at a sampled extremum, so the vertex needs no bound
    d = 0.5 * (y0 - y2) / den
    return y1 - 0.25 * (y0 - y2) * d


def _refined_p2p(x: np.ndarray) -> float:
    hi = _refined_extremum(x, int(np.argmax(x)))
    lo = _refined_extremum(x, int(np.argmin(x)))
    return hi - lo


def _cycle_envelope(time_s: np.ndarray, x: np.ndarray,
                    f_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Peak-to-peak swing per oscillation period; returns (end times, swings)."""
    per_pts = max(_cycle_points(time_s, f_hz, 1), 2)
    n_win = len(x) // per_pts
    cycles = x[:n_win * per_pts].reshape(n_win, per_pts)
    ends = np.minimum(per_pts * np.arange(1, n_win + 1), len(x) - 1)
    return time_s[ends], np.ptp(cycles, axis=1)


def _supply_power_mw(w: Waveforms, label: str, v_dd: float,
                     f_hz: float | None) -> float | None:
    key = f"I({label})"
    if key not in w.currents:
        return None
    i = w.currents[key]
    span = float(w.time_s[-1] - w.time_s[0])
    n_cyc = 0 if f_hz is None else math.floor(0.5 * span * f_hz)
    if n_cyc >= 1:
        i = i[-_cycle_points(w.time_s, f_hz, n_cyc):]
    else:
        i = i[len(i) // 2:]
    # Branch current flows into the source's positive terminal, so the
    # power delivered to the circuit is v * (-i).
    return v_dd * float(np.mean(-i)) * 1e3


def measure_metrics(w: Waveforms, v_dd: float) -> SimMetrics:
    """Extract oscillation metrics from a transient run.

    The outputs are whichever of V_o1..V_o4 exist, in that order, and the
    power is read from the CORE_SUPPLY and BUFFER_SUPPLY source currents.
    Frequency uses the second half of the run, power its whole cycles,
    swings the final STEADY_CYCLES cycles, and phases every whole cycle
    of the run, start-up included; the startup search uses the whole
    run.  A swing below MIN_SWING_V over the final tenth, or an unusable
    spectrum, reports a not-oscillating result rather than raising.
    """
    check_finite(InvalidModelError, "metrics", "v_dd", v_dd, POSITIVE)
    outputs = tuple(n for n in OUTPUTS if n in w.voltages)
    if not outputs:
        raise InvalidModelError("no output nodes to measure")

    n = len(w.time_s)
    tail = slice(n // 2, n)
    late = slice(max(n - max(n // 10, 64), 0), n)
    amplitudes = {name: float(np.ptp(w.voltages[name][tail]))
                  for name in outputs}

    first = w.voltages[outputs[0]]
    f_osc = estimate_frequency(w.time_s[tail], first[tail])
    alive = float(np.ptp(first[late])) >= MIN_SWING_V
    if not alive or f_osc is None:
        return SimMetrics(
            oscillating=False, amplitudes_vpp=amplitudes,
            power_core_mw=_supply_power_mw(w, CORE_SUPPLY, v_dd, None),
            power_buffer_mw=_supply_power_mw(w, BUFFER_SUPPLY, v_dd, None))

    ref = _fundamental_phasor(w.time_s, first, f_osc)
    phases: dict[str, float] = {}
    for name in outputs[1:]:
        c = _fundamental_phasor(w.time_s, w.voltages[name], f_osc)
        rel = math.degrees(math.atan2((c / ref).imag, (c / ref).real))
        phases[name] = rel % 360.0

    # Settled swings: refined extrema over the final integer-cycle window.
    n_settled = _cycle_points(w.time_s, f_osc, STEADY_CYCLES)
    if 2 <= n_settled <= n:
        amplitudes = {name: _refined_p2p(w.voltages[name][-n_settled:])
                      for name in outputs}

    ends, env = _cycle_envelope(w.time_s, first, f_osc)
    startup = None
    steady = False
    if len(env) >= STEADY_CYCLES:
        steady_amp = float(np.median(env[-STEADY_CYCLES:]))
        last = env[-STEADY_CYCLES:]
        steady = bool(last.min() > 0.0 and
                      (last.max() - last.min()) / steady_amp < STEADY_REL_TOL)
        # Search backwards so the supply turn-on transient, which can
        # swing a full period's window on its own, cannot claim startup.
        below = np.where(env < ENVELOPE_FRAC * steady_amp)[0]
        if len(below) == 0:
            startup = float(ends[0])
        elif below[-1] + 1 < len(ends):
            startup = float(ends[below[-1] + 1])

    delta = (max(amplitudes.values()) - min(amplitudes.values())
             if len(outputs) >= 2 else None)
    return SimMetrics(
        oscillating=True, f_osc_hz=f_osc, amplitudes_vpp=amplitudes,
        delta_v_out_v=delta, phases_deg=phases, startup_s=startup,
        power_core_mw=_supply_power_mw(w, CORE_SUPPLY, v_dd, f_osc),
        power_buffer_mw=_supply_power_mw(w, BUFFER_SUPPLY, v_dd, f_osc),
        steady=steady)
