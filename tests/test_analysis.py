"""Design-chain tests.

Frequencies, Q and transconductance spot values were evaluated by hand
from the tank equations and frozen.  The oscillation frequency of the
linearized quadrature bench is its +90 degree pole (engine.small_signal),
checked against the half-circuit closed form over randomized tanks and
against a transient of the same bench.
"""
import dataclasses
import functools
import math

import numpy as np
import pytest

from tsvqvco.analysis import (
    SQRT2,
    DesignSpec,
    TankParams,
    design_tank,
    figure_of_merit,
    min_transconductance,
    resonant_frequency,
    tank_resonance_and_q,
)
from tsvqvco.engine import SimConfig, small_signal, transient
from tsvqvco.errors import (
    InfeasibleDesignError,
    InvalidModelError,
)
from tsvqvco.metrology import estimate_frequency
from tsvqvco.netlist import Netlist
from tsvqvco.topologies import PERTURBATION_V
from tsvqvco.transformer import TransformerModel

# R chosen round, k and L_p at the reference design point, N set for kN = 2
REF_TANK = TankParams(r_parallel=500.0, c_tank=4.6e-12, l_p=3e-9, k=0.52,
                      n=2.0 / 0.52)


def reference_spec(**overrides) -> DesignSpec:
    base = dict(v_dd_v=0.7, f_c_hz=2.5e9, v_c_lo_v=0.1, v_c_hi_v=0.7,
                l_p_target_h=3e-9, l_s_target_h=0.4e-9, c_var_lo_f=2.1e-12,
                c_var_hi_f=6.3e-12, v_out_pp_v=0.35, max_delta_v_out_v=0.025,
                c_parasitic_f=0.4e-12)
    base.update(overrides)
    return DesignSpec(**base)


def reference_transformer(**overrides) -> TransformerModel:
    base = dict(l_p=3e-9, l_s1=0.4e-9, l_s2=0.4e-9, r_pdc=0.3, r_pac=1.4,
                r_sdc=0.064, r_sac=0.35, k_ps1=0.52, k_ps2=0.52, k_ss=0.15,
                area_mm2=0.17, eval_frequency_hz=2.5e9)
    base.update(overrides)
    return TransformerModel(**base)


def random_tank(rng) -> TankParams:
    """A valid tank with kN drawn safely above the startup bound."""
    k = rng.uniform(0.3, 0.9)
    kn = rng.uniform(1.5, 4.0)
    return TankParams(r_parallel=rng.uniform(100.0, 2000.0),
                      c_tank=rng.uniform(0.5e-12, 10e-12),
                      l_p=rng.uniform(0.5e-9, 10e-9),
                      k=k, n=kn / k)


class TestTankParams:
    def test_reference_tank_validates(self):
        assert dataclasses.replace(REF_TANK) == REF_TANK

    def test_derived_properties(self):
        assert math.isclose(REF_TANK.kn, 2.0, rel_tol=1e-12)
        assert math.isclose(REF_TANK.l_eq, 0.52 ** 2 * 3e-9, rel_tol=1e-12)

    @pytest.mark.parametrize("field,value", [
        ("r_parallel", 0.0),
        ("c_tank", -1e-12),
        ("l_p", 0.0),
        ("k", 1.0),
        ("k", 0.0),
        ("n", 0.0),
    ])
    def test_rejects_bad_params(self, field, value):
        kwargs = dict(r_parallel=500.0, c_tank=4.6e-12, l_p=3e-9, k=0.52,
                      n=2.0)
        kwargs[field] = value
        with pytest.raises(InvalidModelError):
            TankParams(**kwargs)


class TestResonantFrequency:
    def test_spot_value(self):
        """1/(2 pi sqrt(3n * 4.6p)) = 1.354817 GHz."""
        f = resonant_frequency(3e-9, 4.6e-12) / (2 * math.pi)
        assert math.isclose(f, 1.354817e9, rel_tol=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidModelError):
            resonant_frequency(0.0, 4.6e-12)
        with pytest.raises(InvalidModelError):
            resonant_frequency(3e-9, -1e-12)


class TestResonanceAndQ:
    def test_spot_values(self):
        """f0 = 2.605417 GHz and Q = 37.6517 for the reference tank; the
        tank inductor is the coupled part k^2 L_p, not L_p itself."""
        omega0, q = tank_resonance_and_q(REF_TANK)
        assert math.isclose(omega0 / (2 * math.pi), 2.605417e9, rel_tol=1e-6)
        assert math.isclose(q, 37.651731, rel_tol=1e-6)

    def test_q_forms_agree(self):
        omega0, q = tank_resonance_and_q(REF_TANK)
        assert math.isclose(q, omega0 * 500.0 * 4.6e-12, rel_tol=1e-12)
        assert math.isclose(q, 500.0 / (omega0 * REF_TANK.l_eq), rel_tol=1e-12)


class TestMinTransconductance:
    def test_spot_value(self):
        """kN = 2: g_m = (2/500) * 4/(4-2) = 8 mS."""
        assert math.isclose(min_transconductance(REF_TANK), 8e-3,
                            rel_tol=1e-12)

    def test_diverges_at_bound(self):
        # k = 0.5 makes the product exact, so kN sits one ulp below sqrt(2)
        kn = math.nextafter(SQRT2, 0.0)
        t = TankParams(r_parallel=500.0, c_tank=4.6e-12, l_p=3e-9, k=0.5,
                       n=kn / 0.5)
        assert t.kn == kn
        with pytest.raises(InfeasibleDesignError, match="sqrt"):
            min_transconductance(t)

    def test_decreases_with_kn(self):
        gms = [min_transconductance(
            TankParams(r_parallel=500.0, c_tank=4.6e-12, l_p=3e-9, k=0.5,
                       n=kn / 0.5))
            for kn in (1.5, 1.8, 2.2, 3.0, 4.0)]
        assert all(b < a for a, b in zip(gms, gms[1:]))

    def test_asymptote_is_two_over_r(self):
        t = TankParams(r_parallel=500.0, c_tank=4.6e-12, l_p=3e-9, k=0.9,
                       n=100.0)
        assert math.isclose(min_transconductance(t), 2.0 / 500.0,
                            rel_tol=1e-3)


# Relative accuracy of the bench's poles, the eigen-solve's: over the 200
# tanks below they match the closed form within 1.2e-15.
POLE_REL = 1e-12


def build_quadrature_bench(t: TankParams, g_m_margin: float) -> Netlist:
    """The linearized two-core quadrature model, the circuit the
    half-circuit kN bound holds for: per core a parallel RLC to ground (L
    is the reflected k^2 L_p), a self term g_m (1/2 - 1/kn^2), exactly 1/R
    at margin 1, and a cross term 1.5 g_m / kn, antisymmetric between the
    cores, so the modes are a +90 and a -90 degree pair.  It seeds
    startup as build_netlist does."""
    g_m = g_m_margin * min_transconductance(t)
    g_self = g_m * (0.5 - 1.0 / (t.kn * t.kn))
    g_cross = 1.5 * g_m / t.kn

    net = Netlist()
    for node in ("V_o1", "V_o3"):
        net.add_resistor(node, "gnd", t.r_parallel, label=f"r_{node}")
        net.add_inductor(node, "gnd", t.l_eq, label=f"l_{node}")
        net.add_capacitor(node, "gnd", t.c_tank, label=f"c_{node}")
    net.add_vccs("V_o1", "gnd", "V_o1", "gnd", -g_self, label="g_self_1")
    net.add_vccs("V_o3", "gnd", "V_o3", "gnd", -g_self, label="g_self_3")
    net.add_vccs("V_o1", "gnd", "V_o3", "gnd", -g_cross, label="g_cross_13")
    net.add_vccs("V_o3", "gnd", "V_o1", "gnd", g_cross, label="g_cross_31")
    net.set_initial_voltage("V_o1", PERTURBATION_V)
    return net


def closed_form_frequency(t: TankParams) -> float:
    """The half-circuit oscillation frequency (rad/s), the oracle of the
    bench's +90 degree pole at margin 1: omega0 (b + sqrt(b^2 + 1)) with
    b = 3 kN / (2 Q (kN^2 - 2))."""
    omega0, q = tank_resonance_and_q(t)
    b = 3.0 * t.kn / (2.0 * q * (t.kn * t.kn - 2.0))
    return omega0 * (b + math.sqrt(b * b + 1.0))


def bench_modes(t: TankParams, margin: float):
    """{+90, -90}: the pole of each quadrature mode of the bench, the one
    with a positive frequency, keyed by how far V_o3 leads V_o1."""
    net = build_quadrature_bench(t, margin)
    poles, vectors = small_signal(net)
    upper = poles.imag > 0
    v1, v3 = (vectors[net.node_names.index(n), upper]
              for n in ("V_o1", "V_o3"))
    lead = np.angle(v3 / v1)
    assert sorted(np.round(np.degrees(lead))) == [-90.0, 90.0]
    return {round(math.degrees(a)): p for a, p in zip(lead, poles[upper])}


class TestOscillationFrequency:
    """The bench's oscillation frequency is its +90 degree pole."""

    def test_frequency_ratio_spot_value(self):
        """kN = 2, Q = 10: omega/omega0 = b + sqrt(b^2+1) with b = 0.15,
        which is 1.161187."""
        omega0 = resonant_frequency(REF_TANK.l_eq, REF_TANK.c_tank)
        r = 10.0 / (omega0 * REF_TANK.c_tank)
        t = TankParams(r_parallel=r, c_tank=4.6e-12, l_p=3e-9, k=0.52,
                       n=2.0 / 0.52)
        assert math.isclose(bench_modes(t, 1.0)[90].imag / omega0,
                            1.161187, rel_tol=1e-6)

    def test_oscillates_above_resonance(self):
        rng = np.random.default_rng(2026)
        for _ in range(50):
            t = random_tank(rng)
            omega0, _ = tank_resonance_and_q(t)
            assert bench_modes(t, 1.0)[90].imag > omega0

    def test_approaches_resonance_as_q_grows(self):
        t = TankParams(r_parallel=1e12, c_tank=4.6e-12, l_p=3e-9, k=0.52,
                       n=2.0 / 0.52)
        omega0, _ = tank_resonance_and_q(t)
        ratio = bench_modes(t, 1.0)[90].imag / omega0
        assert 1.0 - POLE_REL <= ratio < 1.0 + 1e-9

    def test_infeasible_tank_raises(self):
        t = TankParams(r_parallel=500.0, c_tank=4.6e-12, l_p=3e-9, k=0.52,
                       n=1.0 / 0.52)
        with pytest.raises(InfeasibleDesignError):
            build_quadrature_bench(t, 1.0)

    def test_poles_match_closed_form(self):
        """Over randomized tanks, with the transconductance at its startup
        minimum, the +90 degree pole is neutral and sits at the closed
        form."""
        rng = np.random.default_rng(2026)
        for _ in range(200):
            t = random_tank(rng)
            pole = bench_modes(t, 1.0)[90]
            closed = closed_form_frequency(t)
            assert abs(pole.imag - closed) <= POLE_REL * closed
            assert abs(pole.real) <= POLE_REL * pole.imag


class TestFigureOfMerit:
    def test_reference_spot_values(self):
        """2.5 GHz carrier, 1 MHz offset: -114 dBc at 1.5 mW gives -180.2,
        -111.2 dBc at 1.7 mW gives -176.9."""
        assert math.isclose(figure_of_merit(2.5e9, 1e6, 1.5, -114.0),
                            -180.197888, rel_tol=1e-6)
        assert math.isclose(figure_of_merit(2.5e9, 1e6, 1.7, -111.2),
                            -176.854311, rel_tol=1e-6)

    def test_carrier_offset_scale_invariance(self):
        a = figure_of_merit(2.5e9, 1e6, 1.5, -114.0)
        b = figure_of_merit(25e9, 1e7, 1.5, -114.0)
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_power_decade_costs_ten_db(self):
        a = figure_of_merit(2.5e9, 1e6, 1.5, -114.0)
        b = figure_of_merit(2.5e9, 1e6, 15.0, -114.0)
        assert math.isclose(b - a, 10.0, rel_tol=1e-12)

    def test_offset_decade_adds_twenty_db(self):
        a = figure_of_merit(2.5e9, 1e6, 1.5, -114.0)
        b = figure_of_merit(2.5e9, 1e7, 1.5, -114.0)
        assert math.isclose(b - a, 20.0, rel_tol=1e-12)

    @pytest.mark.parametrize("args", [
        (0.0, 1e6, 1.5, -114.0),
        (2.5e9, 0.0, 1.5, -114.0),
        (2.5e9, 1e6, 0.0, -114.0),
    ])
    def test_rejects_nonpositive_inputs(self, args):
        with pytest.raises(InvalidModelError):
            figure_of_merit(*args)


class TestDesignSpec:
    def test_reference_spec_validates(self):
        assert dataclasses.replace(reference_spec()) == reference_spec()

    def test_mid_capacitance(self):
        assert math.isclose(reference_spec().c_var_mid_f, 4.2e-12,
                            rel_tol=1e-12)

    def test_parasitic_defaults_to_zero(self):
        fields = dataclasses.asdict(reference_spec())
        del fields["c_parasitic_f"]
        assert DesignSpec(**fields).c_parasitic_f == 0.0

    @pytest.mark.parametrize("overrides", [
        dict(v_dd_v=0.0),
        dict(v_c_lo_v=0.7, v_c_hi_v=0.1),
        dict(c_var_lo_f=6.3e-12, c_var_hi_f=2.1e-12),
        dict(c_parasitic_f=-1e-13),
    ])
    def test_rejects_bad_spec(self, overrides):
        with pytest.raises(InvalidModelError):
            reference_spec(**overrides)


class TestDesignTank:
    def test_reference_design_point(self):
        """Mid-range varactor plus parasitic resonates the coupled
        inductance at 2.605 GHz; N = sqrt(3/0.4) = 2.7386 so kN = 1.4241,
        a hair above the sqrt(2) bound."""
        tank, report = design_tank(reference_spec(), reference_transformer())
        assert math.isclose(tank.c_tank, 4.6e-12, rel_tol=1e-12)
        assert tank.k == 0.52
        assert math.isclose(tank.n, 2.738613, rel_tol=1e-6)
        assert math.isclose(tank.kn, 1.424079, rel_tol=1e-6)
        assert math.isclose(tank.r_parallel, 465.839, rel_tol=1e-4)
        omega0, _ = tank_resonance_and_q(tank)
        assert math.isclose(omega0 / (2 * math.pi), 2.605417e9, rel_tol=1e-6)
        assert report.verdict == "marginal"
        assert report.g_m_min is not None

    def test_secondary_label_swap_is_identity(self):
        a, _ = design_tank(reference_spec(), reference_transformer(
            l_s1=0.38e-9, l_s2=0.42e-9, k_ps1=0.50, k_ps2=0.54))
        b, _ = design_tank(reference_spec(), reference_transformer(
            l_s1=0.42e-9, l_s2=0.38e-9, k_ps1=0.54, k_ps2=0.50))
        assert a == b

    def test_strong_coupling_is_feasible(self):
        _, report = design_tank(reference_spec(),
                                reference_transformer(k_ps1=0.7, k_ps2=0.7))
        assert report.verdict == "feasible"
        assert report.g_m_min is not None

    def test_weak_coupling_is_infeasible(self):
        _, report = design_tank(reference_spec(),
                                reference_transformer(k_ps1=0.4, k_ps2=0.4))
        assert report.verdict == "infeasible"
        assert report.g_m_min is None
        assert any("sqrt(2)" in note for note in report.notes)


QUAD_TANK = TankParams(r_parallel=500.0, c_tank=2e-12, l_p=3e-9, k=0.8, n=2.5)


@functools.cache
def quadrature_bench_run(margin: float):
    """60 periods of the linear bench at 200 points per period of its
    +90 degree pole at margin 1; returns (time, V_o1, V_o3)."""
    period = 2.0 * math.pi / bench_modes(QUAD_TANK, 1.0)[90].imag
    wave = transient(build_quadrature_bench(QUAD_TANK, margin),
                     SimConfig(dt_s=period / 200, t_stop_s=60 * period))
    return wave.time_s, wave.voltages["V_o1"], wave.voltages["V_o3"]


class TestQuadratureBench:
    """At transconductance margin 1 the bench's self term cancels the tank
    loss: both quadrature pairs are neutral, and the cores ring at the +90
    degree pole, V_o3 leading V_o1.  Above margin 1 both pairs grow, the
    +90 degree one faster; below it neither grows, and the envelope of
    the transient follows."""

    @pytest.mark.parametrize("margin, grows", [(0.8, False), (1.2, True)])
    def test_envelope_grows_only_above_margin_one(self, margin, grows):
        _, v1, _ = quadrature_bench_run(margin)
        half = len(v1) // 2
        ratio = np.abs(v1[half:]).max() / np.abs(v1[:half]).max()
        assert (ratio > 1.0) if grows else (ratio < 1.0)

    def test_both_pairs_are_neutral_at_margin_one(self):
        for pole in bench_modes(QUAD_TANK, 1.0).values():
            assert abs(pole.real) <= POLE_REL * pole.imag

    def test_plus_ninety_grows_faster_above_margin_one(self):
        """At margin 1.2, sigma = 1.111e8 against 0.889e8 per second."""
        modes = bench_modes(QUAD_TANK, 1.2)
        assert modes[90].real == pytest.approx(1.111e8, rel=1e-3)
        assert modes[-90].real == pytest.approx(0.889e8, rel=1e-3)

    def test_no_pair_grows_below_margin_one(self):
        poles, _ = small_signal(build_quadrature_bench(QUAD_TANK, 0.8))
        assert np.all(poles.real < 0.0)

    def test_frequency_at_margin_one(self):
        t, v1, _ = quadrature_bench_run(1.0)
        half = len(t) // 2
        f_hz = estimate_frequency(t[half:], v1[half:])
        f_pole = bench_modes(QUAD_TANK, 1.0)[90].imag / (2.0 * math.pi)
        assert f_hz == pytest.approx(f_pole, rel=5e-3)

    def test_quadrature_at_margin_one(self):
        t, v1, v3 = quadrature_bench_run(1.0)
        half = len(t) // 2
        rot = np.exp(-1j * bench_modes(QUAD_TANK, 1.0)[90].imag * t[half:])
        lead = math.degrees(np.angle(np.sum(v3[half:] * rot)
                                     / np.sum(v1[half:] * rot)))
        assert lead == pytest.approx(90.0, abs=2.0)
