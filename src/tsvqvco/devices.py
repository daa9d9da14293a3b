"""Behavioral device models consumed by the transient simulator.

Square-law MOS with channel-length modulation and its p-channel mirror,
a tanh MOS-varactor curve, a 2-bit switched-capacitor tuning array, the
check every coupled-inductor set passes, and the output buffer parameter
block.  Everything here is an
immutable parameter set plus pure evaluation functions; the simulator owns
all state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidModelError, check_finite

# tuning-array switch model; ideal switches would make the MNA matrix singular
SWITCH_ON_OHM = 50.0
SWITCH_OFF_OHM = 10e6

BOLTZMANN_J_K = 1.380649e-23


@dataclass(frozen=True)
class MosParams:
    """Square-law transistor: i_d = f(v_gs, v_ds) with polarity-signed V_th.

    k_factor is the full transconductance factor (A/V^2), threshold is
    positive for "n" and negative for "p", lam is the channel-length
    modulation (1/V).
    """

    polarity: str
    k_factor: float
    v_th: float
    lam: float = 0.0

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise InvalidModelError(f"polarity must be 'n' or 'p', got {self.polarity!r}")
        for name in ("k_factor", "v_th", "lam"):
            check_finite(InvalidModelError, "mos", name, getattr(self, name))
        if self.k_factor <= 0:
            raise InvalidModelError("k_factor must be positive")
        if self.lam < 0:
            raise InvalidModelError("lam must be non-negative")
        if self.polarity == "n" and self.v_th <= 0:
            raise InvalidModelError("n-channel threshold must be positive")
        if self.polarity == "p" and self.v_th >= 0:
            raise InvalidModelError("p-channel threshold must be negative")


def _fold(p: MosParams, v_gs: float, v_ds: float) -> tuple[float, float, float]:
    """Map any bias onto the v_ds >= 0 n-channel quarter-plane.

    Returns (v_ov, v_ds, sign): i_d is sign times the n-channel current.
    The channel is symmetric, so a reversed v_ds swaps the source and drain
    roles; polarity mirrors both voltages.
    """
    if p.polarity == "p":
        v_gs, v_ds = -v_gs, -v_ds
        v_th = -p.v_th
        sign = -1.0
    else:
        v_th = p.v_th
        sign = 1.0
    if v_ds < 0.0:
        # swapped terminals: the gate-source voltage becomes gate-drain
        return v_gs - v_ds - v_th, -v_ds, -sign
    return v_gs - v_th, v_ds, sign


def mos_eval(p: MosParams, v_gs: float, v_ds: float) -> tuple[float, float, float]:
    """Drain current (A) into the drain and its signed partials
    (d i/d v_gs, d i/d v_ds), from one fold of the bias.

    The partials are taken with respect to the terminal voltages as
    passed in, so they drop straight into a Newton Jacobian for either
    polarity and either channel direction.
    """
    v_ov, v_ds_f, sign = _fold(p, v_gs, v_ds)
    if v_ov <= 0.0:
        return 0.0, 0.0, 0.0
    k, lam = p.k_factor, p.lam
    mod = 1.0 + lam * v_ds_f
    if v_ds_f >= v_ov:
        q = 0.5 * k * v_ov * v_ov
        i_d, g_m, g_ds = q * mod, k * v_ov * mod, q * lam
    else:
        # The (1 + lam v_ds) factor is kept in triode so the two regions
        # meet exactly at v_ds = v_ov instead of jumping by the
        # modulation term.
        w = v_ov * v_ds_f - 0.5 * v_ds_f * v_ds_f
        i_d, g_m = k * w * mod, k * v_ds_f * mod
        g_ds = k * (v_ov - v_ds_f) * mod + k * w * lam
    if (v_ds > 0.0) if p.polarity == "p" else (v_ds < 0.0):
        # chain rule through the source/drain swap: v_ov picks up -v_ds
        return sign * i_d, -g_m, g_m + g_ds
    return sign * i_d, g_m, g_ds


@dataclass(frozen=True)
class VaractorModel:
    """Accumulation-mode varactor: tanh curve, endpoint-exact and monotone.

    C(v) runs from c_min at v_lo to c_max at v_hi, odd-symmetric about the
    control midpoint; shape sets the steepness of the transition.  Voltages
    outside the control range clamp to the endpoint capacitances.
    """

    c_min: float
    c_max: float
    v_lo: float
    v_hi: float
    shape: float = 2.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            check_finite(InvalidModelError, "varactor", name, value)
        if not 0 < self.c_min < self.c_max:
            raise InvalidModelError("varactor needs 0 < c_min < c_max")
        if not self.v_lo < self.v_hi:
            raise InvalidModelError("varactor needs v_lo < v_hi")
        if self.shape <= 0:
            raise InvalidModelError("varactor shape must be positive")


def varactor_eval(m: VaractorModel, v_c: float) -> tuple[float, float]:
    """Capacitance (F) at control voltage v_c and its slope dC/dV (F/V);
    the slope is zero outside the control range, where C is clamped."""
    if v_c <= m.v_lo:
        return m.c_min, 0.0
    if v_c >= m.v_hi:
        return m.c_max, 0.0
    half = 0.5 * (m.v_hi - m.v_lo)
    x = (v_c - 0.5 * (m.v_lo + m.v_hi)) / half
    c = (0.5 * (m.c_min + m.c_max)
         + 0.5 * (m.c_max - m.c_min) * math.tanh(m.shape * x) / math.tanh(m.shape))
    sech2 = 1.0 / math.cosh(m.shape * x) ** 2
    return c, 0.5 * (m.c_max - m.c_min) * m.shape * sech2 / (math.tanh(m.shape) * half)


_CODES = ("00", "01", "10", "11")


@dataclass(frozen=True)
class TuningArray:
    """2-bit switched-capacitor bank: each bit set to "1" closes one
    C-switch-C branch and adds c_unit/2 across the tank, so "11" adds
    c_unit."""

    c_unit: float
    code: str = "00"

    def __post_init__(self) -> None:
        check_finite(InvalidModelError, "tuning array", "c_unit", self.c_unit)
        if self.c_unit <= 0:
            raise InvalidModelError("tuning array c_unit must be positive")
        if self.code not in _CODES:
            raise InvalidModelError(f"tuning array code must be one of "
                                    f"{list(_CODES)}, got {self.code!r}")


def p_channel_mirror(nmos: MosParams, k_ratio: float) -> MosParams:
    """The p-channel mirror of an n-channel device: negated threshold,
    the same lam, and k_ratio times its k_factor."""
    return MosParams(polarity="p", k_factor=k_ratio * nmos.k_factor,
                     v_th=-abs(nmos.v_th), lam=nmos.lam)


def check_coupled_set(n: int, matrix, series_r) -> None:
    """Validate an n-winding coupled set: a symmetric, positive definite
    n x n inductance matrix over at least two windings, and one
    non-negative series resistance per winding."""
    if n < 2:
        raise InvalidModelError("coupled set needs at least two windings")
    m = np.asarray(matrix, dtype=object)  # ragged rows give another shape
    if m.shape != (n, n):
        raise InvalidModelError(
            f"coupled set with {n} windings needs a {n}x{n} matrix")
    for (i, j), value in np.ndenumerate(m):
        check_finite(InvalidModelError, "coupled set", f"matrix[{i}][{j}]",
                     value)
    m = m.astype(float)
    scale = float(np.abs(np.diag(m)).max())
    if np.abs(m - m.T).max() > 1e-12 * scale:
        raise InvalidModelError("inductance matrix must be symmetric")
    if float(np.linalg.eigvalsh(m).min()) <= 0.0:
        raise InvalidModelError(
            "inductance matrix is not positive definite (over-coupled)")
    if len(series_r) == n:
        for w, r in enumerate(series_r):
            check_finite(InvalidModelError, "coupled set", f"series_r[{w}]", r)
    if len(series_r) != n or any(r < 0 for r in series_r):
        raise InvalidModelError(
            "coupled set needs one non-negative series R per winding")


@dataclass(frozen=True)
class BufferParams:
    """AC-coupled self-biased inverter output buffer.

    The pull-up is stronger than the pull-down (p_to_n_ratio scales the
    PMOS k_factor) and the feedback resistor self-biases the input near
    the inverter trip point.
    """

    c_couple: float = 1e-12
    r_feedback: float = 100e3
    p_to_n_ratio: float = 2.0
    nmos: MosParams = field(default_factory=lambda: MosParams(
        polarity="n", k_factor=2e-3, v_th=0.25, lam=0.05))

    def pmos(self) -> MosParams:
        return p_channel_mirror(self.nmos, self.p_to_n_ratio)

    def __post_init__(self) -> None:
        for name in ("c_couple", "r_feedback", "p_to_n_ratio"):
            check_finite(InvalidModelError, "buffer", name, getattr(self, name))
        if self.c_couple <= 0 or self.r_feedback <= 0:
            raise InvalidModelError("buffer coupling C and feedback R must be positive")
        if self.p_to_n_ratio <= 1.0:
            raise InvalidModelError("buffer pull-up must be stronger than pull-down")
        if self.nmos.polarity != "n":
            raise InvalidModelError("nmos must be an n-channel device")
