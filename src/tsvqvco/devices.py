"""Behavioral device models consumed by the transient simulator.

Square-law MOS with channel-length modulation and its p-channel mirror,
a tanh MOS-varactor curve, a 2-bit switched-capacitor tuning array, the
check every coupled-inductor set passes, and the output buffer parameter
block.  Everything here is an
immutable parameter set plus pure evaluation functions; the simulator owns
all state.

The transistors of a run are one table, a row (d, g, s, polarity sign,
|V_th|, k, lam) per device (mos_row), with d, g and s the slots of the
terminal voltages in the simulator's state.  mos_bank evaluates the
whole table in one loop, so the square law has one implementation.  The
varactors are a second table, a row (a, b, cp, cn, model) per device, and
varactor_bank holds their one charge law, q = C(v_cp - v_cn) (v_a - v_b).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE, InvalidModelError, check_finite,
                     check_type)

# tuning-array switch model; ideal switches would make the MNA matrix singular
SWITCH_ON_OHM = 50.0
SWITCH_OFF_OHM = 10e6


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
        check_finite(InvalidModelError, "mos", "k_factor", self.k_factor, POSITIVE)
        check_finite(InvalidModelError, "mos", "v_th", self.v_th)
        check_finite(InvalidModelError, "mos", "lam", self.lam, NON_NEGATIVE)
        if self.polarity == "n" and self.v_th <= 0:
            raise InvalidModelError("n-channel threshold must be positive")
        if self.polarity == "p" and self.v_th >= 0:
            raise InvalidModelError("p-channel threshold must be negative")


def mos_row(d: int, g: int, s: int, p: MosParams) -> tuple:
    """One transistor's row of a device table: its drain, gate and source
    slots, the polarity sign (+1 n-channel, -1 p-channel), |V_th|, k and
    lam."""
    return (d, g, s, -1.0 if p.polarity == "p" else 1.0, abs(p.v_th),
            p.k_factor, p.lam)


def mos_bank(table, v) -> tuple[list[float], list[float]]:
    """Drain currents (A, into each drain) of every transistor in the
    table at the terminal voltages v, and their partials
    (d i/d v_gs, d i/d v_ds) two per device, in table order.

    Polarity mirrors both voltages onto the n-channel, and a reversed
    v_ds swaps the source and drain roles (the channel is symmetric), so
    the square law is evaluated on the v_ds >= 0 n-channel quarter-plane
    only.  The partials are taken with respect to the terminal voltages
    as stored, so they drop straight into a Newton Jacobian for either
    polarity and either channel direction.
    """
    cur, part = [], []
    for d, g, s, pol, v_th, k, lam in table:
        v_s = v[s]
        v_gs = pol * (v[g] - v_s)
        v_ds = pol * (v[d] - v_s)
        reversed_ = v_ds < 0.0
        if reversed_:
            # swapped terminals: the gate-source voltage becomes gate-drain
            v_ov, v_ds, sign = v_gs - v_ds - v_th, -v_ds, -pol
        else:
            v_ov, sign = v_gs - v_th, pol
        if v_ov <= 0.0:
            cur.append(0.0)
            part += (0.0, 0.0)
            continue
        mod = 1.0 + lam * v_ds
        if v_ds >= v_ov:
            q = 0.5 * k * v_ov * v_ov
            i_d, g_m, g_ds = q * mod, k * v_ov * mod, q * lam
        else:
            # The (1 + lam v_ds) factor is kept in triode so the two
            # regions meet exactly at v_ds = v_ov instead of jumping by
            # the modulation term.
            w = v_ov * v_ds - 0.5 * v_ds * v_ds
            i_d, g_m = k * w * mod, k * v_ds * mod
            g_ds = k * (v_ov - v_ds) * mod + k * w * lam
        cur.append(sign * i_d)
        if reversed_:
            # chain rule through the source/drain swap: v_ov picks up -v_ds
            part += (-g_m, g_m + g_ds)
        else:
            part += (g_m, g_ds)
    return cur, part


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
            check_finite(InvalidModelError, "varactor", name, value,
                         POSITIVE if name == "shape" else None)
        if not 0 < self.c_min < self.c_max:
            raise InvalidModelError("varactor needs 0 < c_min < c_max")
        if not self.v_lo < self.v_hi:
            raise InvalidModelError("varactor needs v_lo < v_hi")


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


def varactor_bank(table, v) -> tuple[list[float], list[float]]:
    """Charge C v_ab, from a to b, of every varactor in the table at the
    voltages v, and its partials (C, v_ab dC/dv), in table order."""
    charge, part = [], []
    for a, b, cp, cn, model in table:
        v_sig = v[a] - v[b]
        c, dc_dv = varactor_eval(model, v[cp] - v[cn])
        charge.append(c * v_sig)
        part += (c, v_sig * dc_dv)
    return charge, part


_CODES = ("00", "01", "10", "11")


@dataclass(frozen=True)
class TuningArray:
    """2-bit switched-capacitor bank: a bit is c_unit/2 in series with its
    switch, the same branch as c_unit, switch, c_unit; closed by a "1", it
    adds c_unit/2 across the tank, so "11" adds c_unit."""

    c_unit: float
    code: str = "00"

    def __post_init__(self) -> None:
        check_finite(InvalidModelError, "tuning array", "c_unit", self.c_unit, POSITIVE)
        if self.code not in _CODES:
            raise InvalidModelError(f"tuning array code must be one of "
                                    f"{list(_CODES)}, got {self.code!r}")


def p_channel_mirror(nmos: MosParams, k_ratio: float) -> MosParams:
    """The p-channel mirror of an n-channel device: negated threshold,
    the same lam, and k_ratio times its k_factor."""
    check_finite(InvalidModelError, "mirror", "k_ratio", k_ratio, POSITIVE)
    return MosParams(polarity="p", k_factor=k_ratio * nmos.k_factor,
                     v_th=-abs(nmos.v_th), lam=nmos.lam)


def check_coupled_set(n: int, matrix, series_r) -> None:
    """Validate an n-winding coupled set: a symmetric, positive definite
    n x n inductance matrix and one non-negative series resistance per
    winding."""
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
    if len(series_r) != n:
        raise InvalidModelError("coupled set needs one series R per winding")
    for w, r in enumerate(series_r):
        check_finite(InvalidModelError, "coupled set", f"series_r[{w}]", r, NON_NEGATIVE)


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
            check_finite(InvalidModelError, "buffer", name, getattr(self, name),
                         POSITIVE)
        if self.p_to_n_ratio <= 1.0:
            raise InvalidModelError("buffer pull-up must be stronger than pull-down")
        check_type(InvalidModelError, "buffer", "nmos", self.nmos, MosParams)
        if self.nmos.polarity != "n":
            raise InvalidModelError("nmos must be an n-channel device")
