"""Small-signal design chain for the transformer-coupled quadrature oscillator.

The half-circuit model: the tank seen at one output is a parallel RLC with
the coupled part of the primary (k^2 L_p) as its inductor, and the two
secondary windings inject cross-core current scaled by the turns ratio N.
Everything downstream (minimum transconductance, oscillation frequency,
feasibility) follows from that picture.  oscillation_frequency_closed has a
closed form; solve_characteristic finds the same root numerically from the
characteristic equation and serves as its independent check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (InfeasibleDesignError, InvalidModelError, NumericFailure,
                     check_finite)
from .transformer import TransformerModel

SQRT2 = math.sqrt(2.0)
# kN this close above sqrt(2) still "works" on paper but needs an outsized
# transconductance; flagged as marginal rather than feasible.
MARGINAL_KN_RATIO = 1.10


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
            check_finite(InvalidModelError, "tank", name, value)
        if self.r_parallel <= 0:
            raise InvalidModelError("tank r_parallel must be positive")
        if self.c_tank <= 0:
            raise InvalidModelError("tank c_tank must be positive")
        if self.l_p <= 0:
            raise InvalidModelError("tank l_p must be positive")
        if not 0.0 < self.k < 1.0:
            raise InvalidModelError(f"tank k = {self.k} outside (0, 1)")
        if self.n <= 0:
            raise InvalidModelError("tank turns ratio must be positive")

    @property
    def kn(self) -> float:
        return self.k * self.n

    @property
    def l_eq(self) -> float:
        """Coupled tank inductance k^2 L_p."""
        return self.k * self.k * self.l_p


def resonant_frequency(l_eq: float, c_eq: float) -> float:
    """Resonance of an ideal LC tank, rad/s."""
    if l_eq <= 0 or c_eq <= 0:
        raise InvalidModelError("resonant_frequency needs positive L and C")
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


def oscillation_frequency_closed(t: TankParams) -> float:
    """Closed-form oscillation frequency (rad/s); always at or above omega0."""
    omega0, q = tank_resonance_and_q(t)
    kn = t.kn
    if kn * kn <= 2.0:
        raise InfeasibleDesignError(
            f"kN = {kn:.4f} at or below sqrt(2): no oscillation frequency")
    b = 3.0 * kn / (2.0 * q * (kn * kn - 2.0))
    return omega0 * (b + math.sqrt(b * b + 1.0))


def solve_characteristic(t: TankParams, g_m: float) -> float:
    """Positive root (rad/s) of the imaginary-part balance

        3 g_m / (kN) + 2 / (omega k^2 L_p) - 2 omega C = 0,

    found by bracketing and bisection.  Deliberately does not reuse the
    closed form: this is the independent oracle it is tested against.
    """
    if g_m < 0:
        raise InvalidModelError("solve_characteristic needs g_m >= 0")

    def residual(omega: float) -> float:
        return (3.0 * g_m / t.kn + 2.0 / (omega * t.l_eq)
                - 2.0 * omega * t.c_tank)

    omega0 = resonant_frequency(t.l_eq, t.c_tank)
    # residual is strictly decreasing: positive for small omega, negative
    # for large, so a sign change brackets the unique root
    lo = omega0 * 1e-6
    hi = omega0
    for _ in range(200):
        if residual(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise NumericFailure("characteristic-equation bracket did not close")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    root = 0.5 * (lo + hi)
    if not math.isfinite(root) or root <= 0:
        raise NumericFailure("characteristic-equation root is not finite")
    return root


def figure_of_merit(f0_hz: float, offset_hz: float, power_mw: float,
                    phi_noise_dbc: float) -> float:
    """FoM (dB) = -20 log10(f0/df) + 10 log10(P_mW) + phi_noise."""
    if f0_hz <= 0 or offset_hz <= 0 or power_mw <= 0:
        raise InvalidModelError("figure_of_merit needs positive f0, offset, power")
    return (-20.0 * math.log10(f0_hz / offset_hz)
            + 10.0 * math.log10(power_mw) + phi_noise_dbc)


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
            check_finite(InvalidModelError, "design spec", name, value)
        for name in ("v_dd_v", "f_c_hz", "l_p_target_h", "l_s_target_h",
                     "v_out_pp_v", "max_delta_v_out_v"):
            if getattr(self, name) <= 0:
                raise InvalidModelError(f"design spec {name} must be positive")
        if not 0 <= self.v_c_lo_v < self.v_c_hi_v:
            raise InvalidModelError("control range must satisfy 0 <= lo < hi")
        if not 0 < self.c_var_lo_f < self.c_var_hi_f:
            raise InvalidModelError("capacitance range must satisfy 0 < lo < hi")
        if self.c_parasitic_f < 0:
            raise InvalidModelError("c_parasitic_f must be non-negative")

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
    Q_L = omega0 L_p / R_pac.
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
