"""Small-signal design chain for the transformer-coupled quadrature oscillator.

The half-circuit model: the tank seen at one output is a parallel RLC with
the coupled part of the primary (k^2 L_p) as its inductor, and the two
secondary windings inject cross-core current scaled by the turns ratio N.
The minimum transconductance and the kN > sqrt(2) feasibility verdict
follow from that picture, and they are the bounds of the linear
quadrature bench that tests/test_analysis.py builds, not of a built
netlist.  A built netlist's start-up verdict is its poles
(engine.small_signal): the tc-qvco core on configs/toroidal.json is
"infeasible" by kN, yet its +90 degree pair grows.  Thermal noise is
never simulated; phase noise is estimated from the tank with Leeson's
formula at a fixed 290 K.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (NON_NEGATIVE, POSITIVE, InfeasibleDesignError,
                     InvalidModelError, check_finite)
from .transformer import TransformerModel

SQRT2 = math.sqrt(2.0)
# kN this close above sqrt(2) still "works" on paper but needs an outsized
# transconductance; flagged as marginal rather than feasible.
MARGINAL_KN_RATIO = 1.10
BOLTZMANN_J_K = 1.380649e-23
LEESON_TEMP_K = 290.0


@dataclass(frozen=True)
class TankParams:
    """Half-circuit tank parameters.

    r_parallel: aggregate parallel loss resistance (ohm).
    c_tank: total resonating capacitance (F).
    l_p: primary self inductance (H); the tank inductor proper is k^2 l_p.
    k: primary-secondary coupling coefficient.
    n: primary-to-secondary turns ratio.
    """

    r_parallel: float
    c_tank: float
    l_p: float
    k: float
    n: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            check_finite(InvalidModelError, "tank", name, value, POSITIVE)
        if self.k >= 1.0:
            raise InvalidModelError(f"tank k = {self.k} outside (0, 1)")

    @property
    def kn(self) -> float:
        return self.k * self.n

    @property
    def l_eq(self) -> float:
        """Coupled tank inductance k^2 L_p."""
        return self.k * self.k * self.l_p


def resonant_frequency(l_eq: float, c_eq: float) -> float:
    """Resonance of an ideal LC tank, rad/s."""
    check_finite(InvalidModelError, "resonance", "l_eq", l_eq, POSITIVE)
    check_finite(InvalidModelError, "resonance", "c_eq", c_eq, POSITIVE)
    return 1.0 / math.sqrt(l_eq * c_eq)


def tank_resonance_and_q(t: TankParams) -> tuple[float, float]:
    """(omega0, Q) of the tank, Q = omega0 R C."""
    omega0 = resonant_frequency(t.l_eq, t.c_tank)
    return omega0, omega0 * t.r_parallel * t.c_tank


def min_transconductance(t: TankParams) -> float:
    """Smallest per-transistor g_m (S) that sustains the quadrature mode."""
    kn = t.kn
    if kn * kn <= 2.0:
        raise InfeasibleDesignError(
            f"kN = {kn:.4f} at or below sqrt(2) = {SQRT2:.4f}: the required "
            f"transconductance diverges, the quadrature mode cannot start")
    return (2.0 / t.r_parallel) * kn * kn / (kn * kn - 2.0)


def figure_of_merit(f0_hz: float, offset_hz: float, power_mw: float,
                    phi_noise_dbc: float) -> float:
    """FoM (dB) = -20 log10(f0/df) + 10 log10(P_mW) + phi_noise."""
    check_finite(InvalidModelError, "figure of merit", "f0_hz", f0_hz, POSITIVE)
    check_finite(InvalidModelError, "figure of merit", "offset_hz", offset_hz, POSITIVE)
    check_finite(InvalidModelError, "figure of merit", "power_mw", power_mw, POSITIVE)
    check_finite(InvalidModelError, "figure of merit", "phi_noise_dbc", phi_noise_dbc)
    return (-20.0 * math.log10(f0_hz / offset_hz)
            + 10.0 * math.log10(power_mw) + phi_noise_dbc)


def phase_noise_leeson(t: TankParams, p_sig_mw: float, offset_hz: float,
                       f_excess_db: float = 0.0) -> float:
    """Leeson estimate in dBc/Hz at the given offset from the carrier.

    L = 10 log10( F kT / (2 P_sig) * (f0 / (2 Q df))^2 ) with the noise
    factor F taken from f_excess_db and T fixed at 290 K.  Only the
    1/f^2 region is modeled; flicker corner and noise floor are out of
    scope.
    """
    check_finite(InvalidModelError, "phase noise", "p_sig_mw", p_sig_mw, POSITIVE)
    check_finite(InvalidModelError, "phase noise", "offset_hz", offset_hz, POSITIVE)
    check_finite(InvalidModelError, "phase noise", "f_excess_db", f_excess_db)
    omega0, q = tank_resonance_and_q(t)
    f0 = omega0 / (2.0 * math.pi)
    noise_factor = 10.0 ** (f_excess_db / 10.0)
    ratio = f0 / (2.0 * q * offset_hz)
    return 10.0 * math.log10(
        noise_factor * BOLTZMANN_J_K * LEESON_TEMP_K
        / (2.0 * p_sig_mw * 1e-3) * ratio * ratio)


@dataclass(frozen=True)
class DesignSpec:
    """Oscillator design targets; field suffixes carry the units."""

    v_dd_v: float
    f_c_hz: float
    v_c_lo_v: float
    v_c_hi_v: float
    l_p_target_h: float
    l_s_target_h: float
    c_var_lo_f: float
    c_var_hi_f: float
    v_out_pp_v: float
    max_delta_v_out_v: float
    c_parasitic_f: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            check_finite(InvalidModelError, "design spec", name, value,
                         NON_NEGATIVE if name in ("v_c_lo_v", "c_parasitic_f")
                         else POSITIVE)
        if not self.v_c_lo_v < self.v_c_hi_v:
            raise InvalidModelError("control range must satisfy 0 <= lo < hi")
        if not self.c_var_lo_f < self.c_var_hi_f:
            raise InvalidModelError("capacitance range must satisfy 0 < lo < hi")

    @property
    def c_var_mid_f(self) -> float:
        return 0.5 * (self.c_var_lo_f + self.c_var_hi_f)


@dataclass(frozen=True)
class FeasibilityReport:
    """Startup feasibility of a designed tank against the kN > sqrt(2) bound."""

    verdict: str  # "feasible" | "marginal" | "infeasible"
    kn: float
    g_m_min: float | None
    notes: tuple[str, ...]


def _feasibility(t: TankParams) -> FeasibilityReport:
    kn = t.kn
    if kn <= SQRT2:
        return FeasibilityReport(
            verdict="infeasible", kn=kn, g_m_min=None,
            notes=(f"kN = {kn:.4f} does not clear the sqrt(2) = {SQRT2:.4f} "
                   f"startup bound; no transconductance sustains the "
                   f"quadrature mode",))
    g_m = min_transconductance(t)
    overhead = g_m * t.r_parallel / 2.0  # ratio to the asymptotic 2/R
    if kn <= SQRT2 * MARGINAL_KN_RATIO:
        return FeasibilityReport(
            verdict="marginal", kn=kn, g_m_min=g_m,
            notes=(f"kN = {kn:.4f} sits within {100 * (MARGINAL_KN_RATIO - 1):.0f}% "
                   f"of the sqrt(2) bound",
                   f"required g_m = {g_m * 1e3:.3f} mS is {overhead:.1f}x the "
                   f"asymptotic minimum 2/R"))
    return FeasibilityReport(
        verdict="feasible", kn=kn, g_m_min=g_m,
        notes=(f"required g_m = {g_m * 1e3:.3f} mS ({overhead:.2f}x the "
               f"asymptotic minimum 2/R)",))


def design_tank(spec: DesignSpec,
                xfmr: TransformerModel) -> tuple[TankParams, FeasibilityReport]:
    """Tank parametrization from a design spec and an extracted transformer.

    C sits at the varactor midpoint plus parasitics.  k and L_s average the
    two secondaries (they are nominally identical), N = sqrt(L_p/L_s), and
    the parallel loss converts the primary's series AC resistance through
    the coil quality factor: R = Q_L * omega0 * k^2 L_p with
    Q_L = omega0 L_p / R_pac.  The verdict is the kN > sqrt(2) bound of
    the linear half-circuit bench; whether a built netlist starts up is
    read from its poles (module docstring).
    """
    c_tank = spec.c_var_mid_f + spec.c_parasitic_f
    k = 0.5 * (xfmr.k_ps1 + xfmr.k_ps2)
    l_s = 0.5 * (xfmr.l_s1 + xfmr.l_s2)
    n = math.sqrt(xfmr.l_p / l_s)
    l_eq = k * k * xfmr.l_p
    omega0 = resonant_frequency(l_eq, c_tank)
    q_coil = omega0 * xfmr.l_p / xfmr.r_pac
    r_parallel = q_coil * omega0 * l_eq
    tank = TankParams(r_parallel=r_parallel, c_tank=c_tank, l_p=xfmr.l_p,
                      k=k, n=n)
    return tank, _feasibility(tank)
