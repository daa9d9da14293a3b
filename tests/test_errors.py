"""errors.check_finite is the one finite-number rule.

Every layer that takes numbers rejects NaN and inf with a typed error that
names the field, before any range check can let them through: the
simulator settings and waveforms, the extracted transformer model, the
design spec, the tank, the netlist elements, the device parameter blocks
(transistor, varactor, tuning array, buffer, coupled set), the topology
parameters and the arguments of default_sim_config,
build_quadrature_bench and measure_metrics.  A conductor segment's coordinates and dimensions raise
InvalidGeometryError instead.  (Geometry input is covered in
test_geometry.py.)
"""
import dataclasses
import math
import re

import numpy as np
import pytest

from tsvqvco.analysis import DesignSpec, TankParams, min_transconductance
from tsvqvco.devices import BufferParams, MosParams, TuningArray, VaractorModel
from tsvqvco.engine import SimConfig, Waveforms
from tsvqvco.errors import InvalidGeometryError, InvalidModelError, check_finite
from tsvqvco.geometry import Segment, rect_segment
from tsvqvco.metrology import measure_metrics
from tsvqvco.netlist import Netlist
from tsvqvco.topologies import (TopologyParams, build_netlist,
                                build_quadrature_bench, default_sim_config)
from tsvqvco.transformer import TransformerModel

NAN, INF = math.nan, math.inf
TANK = dict(r_parallel=500.0, c_tank=2e-12, l_p=3e-9, k=0.8, n=2.5)
MODEL = TransformerModel(l_p=3e-9, l_s1=0.4e-9, l_s2=0.4e-9, r_pdc=0.3,
                         r_pac=1.4, r_sdc=0.064, r_sac=0.35, k_ps1=0.52,
                         k_ps2=0.52, k_ss=0.15, area_mm2=0.17,
                         eval_frequency_hz=2.5e9)
SPEC = DesignSpec(v_dd_v=0.7, f_c_hz=2.5e9, v_c_lo_v=0.1, v_c_hi_v=0.7,
                  l_p_target_h=3e-9, l_s_target_h=0.4e-9, c_var_lo_f=2.1e-12,
                  c_var_hi_f=6.3e-12, v_out_pp_v=0.35,
                  max_delta_v_out_v=0.025, c_parasitic_f=0.4e-12)


def tank(**overrides) -> TankParams:
    return TankParams(**{**TANK, **overrides})


def coupled_pair(matrix, series_r, i_initial_a=None) -> None:
    Netlist().add_coupled_inductors([("a", "gnd"), ("b", "gnd")], matrix,
                                    series_r, i_initial_a=i_initial_a)


def flat_waveforms(time_s=(0.0, 1.0, 2.0), v_o1=(0.0, 0.0, 0.0),
                   i_vdd=(0.0, 0.0, 0.0)) -> Waveforms:
    return Waveforms(time_s=np.array(time_s), voltages={"V_o1": np.array(v_o1)},
                     currents={"I(v_dd)": np.array(i_vdd)})


# Each case is (build, field), or (build, field, error) where the error
# is not InvalidModelError.
CASES = {
    "sim dt_s": (lambda: SimConfig(dt_s=NAN, t_stop_s=1e-9),
                 "sim config field dt_s"),
    "sim t_stop_s": (lambda: SimConfig(dt_s=1e-12, t_stop_s=INF),
                     "sim config field t_stop_s"),
    # NaN fails every range check, so without the finite check each of
    # these entry-point arguments fails later under a derived name
    # (dt_s, the vccs gm) or gives a NaN power
    "sim f_est_hz": (lambda: default_sim_config(NAN, n_periods=4),
                     "sim config field f_est_hz"),
    "sim n_periods": (lambda: default_sim_config(2.5e9, n_periods=NAN),
                      "sim config field n_periods"),
    "quadrature bench g_m_margin": (
        lambda: build_quadrature_bench(tank(), NAN),
        "quadrature bench field g_m_margin"),
    "metrics v_dd": (lambda: measure_metrics(flat_waveforms(), NAN),
                     "metrics field v_dd"),
    # a NaN time or trace used to reach measure_metrics, which raised an
    # untyped ValueError or OverflowError converting it to an index
    "waveforms time_s": (lambda: flat_waveforms(time_s=(0.0, NAN, 2.0)),
                         "waveforms field time_s"),
    "waveforms voltage": (lambda: flat_waveforms(v_o1=(0.0, INF, 0.0)),
                          "waveforms field V_o1"),
    "waveforms current": (lambda: flat_waveforms(i_vdd=(NAN, 0.0, 0.0)),
                          "waveforms field I(v_dd)"),
    # NaN fails every range comparison, so each of the model and spec
    # fields used to pass, and the run failed later under a derived name
    **{f"transformer model {name}": (
        lambda name=name: dataclasses.replace(MODEL, **{name: NAN}),
        f"transformer model field {name}")
       for name in ("l_p", "r_pdc", "r_pac", "area_mm2")},
    "design spec c_parasitic_f": (
        lambda: dataclasses.replace(SPEC, c_parasitic_f=NAN),
        "design spec field c_parasitic_f"),
    "tank r_parallel": (lambda: tank(r_parallel=NAN),
                        "tank field r_parallel"),
    "tank n": (lambda: min_transconductance(tank(n=NAN)), "tank field n"),
    "tank c_tank": (lambda: tank(c_tank=INF),
                    "tank field c_tank"),
    "resistor": (lambda: Netlist().add_resistor("a", "gnd", NAN),
                 "resistor field ohms"),
    "capacitor": (lambda: Netlist().add_capacitor("a", "gnd", INF),
                  "capacitor field farads"),
    "inductor": (lambda: Netlist().add_inductor("a", "gnd", NAN),
                 "inductor field henries"),
    "inductor current": (
        lambda: Netlist().add_inductor("a", "gnd", 1e-9, i_initial_a=INF),
        "inductor field i_initial_a"),
    "vsource": (lambda: Netlist().add_vsource("a", "gnd", NAN),
                "vsource field volts"),
    "vsource ramp": (lambda: Netlist().add_vsource("a", "gnd", 1.0,
                                                   ramp_s=INF),
                     "vsource field ramp_s"),
    "vccs": (lambda: Netlist().add_vccs("a", "gnd", "b", "gnd", NAN),
             "vccs field gm"),
    "initial voltage": (lambda: Netlist().set_initial_voltage("a", NAN),
                        "initial condition field a"),
    "mos k_factor": (lambda: MosParams("n", NAN, 0.1),
                     "mos field k_factor"),
    "mos lam": (lambda: MosParams("n", 1e-3, 0.1, INF),
                "mos field lam"),
    # NaN fails every comparison, so each of these used to pass its
    # range check; the parasitic capacitors were silently left out
    "topology c_parasitic_f": (
        lambda: build_netlist("lc-vco", TopologyParams(
            l_tank_h=2e-9, c_tank_f=1e-12, r_tank_ohm=400.0,
            c_parasitic_f=NAN)),
        "topology field c_parasitic_f"),
    "varactor shape": (
        lambda: VaractorModel(1e-12, 3e-12, 0.0, 0.7, shape=NAN),
        "varactor field shape"),
    "tuning array c_unit": (lambda: TuningArray(c_unit=NAN),
                            "tuning array field c_unit"),
    "buffer c_couple": (lambda: BufferParams(c_couple=NAN),
                        "buffer field c_couple"),
    "coupled set matrix": (
        lambda: coupled_pair([[1e-9, NAN], [NAN, 1e-9]], [0.1, 0.1]),
        "coupled set field matrix[0][1]"),
    "coupled set non-numeric matrix": (
        lambda: coupled_pair([[1e-9, "x"], ["x", 1e-9]], [0.1, 0.1]),
        "coupled set field matrix[0][1]"),
    "coupled set series_r": (
        lambda: coupled_pair([[1e-9, 0.0], [0.0, 1e-9]], [0.1, INF]),
        "coupled set field series_r[1]"),
    # without the finite check the transient fails at its first step
    # with a non-finite Newton update
    "coupled set i_initial_a": (
        lambda: coupled_pair([[1e-9, 0.0], [0.0, 1e-9]], [0.1, 0.1],
                             i_initial_a=[NAN, 0.0]),
        "coupled set field i_initial_a[0]"),
    "coupled set non-numeric i_initial_a": (
        lambda: coupled_pair([[1e-9, 0.0], [0.0, 1e-9]], [0.1, 0.1],
                             i_initial_a=["x", 0.0]),
        "coupled set field i_initial_a[0]"),
    # NaN fails every range check, so each of these segments used to pass;
    # a NaN radius only failed once extracted, as "transformer model
    # field l_p"
    "segment end": (lambda: Segment((0, 0, 0), (NAN, 0, 0), radius_m=1e-6),
                    "segment field end", InvalidGeometryError),
    "segment non-numeric start": (
        lambda: Segment((0, "x", 0), (1e-5, 0, 0), radius_m=1e-6),
        "segment field start", InvalidGeometryError),
    "segment radius_m": (
        lambda: Segment((0, 0, 0), (1e-5, 0, 0), radius_m=NAN),
        "segment field radius_m", InvalidGeometryError),
    "segment thickness_m": (
        lambda: rect_segment((0, 0, 0), (1e-5, 0, 0), 1e-6, INF),
        "segment field thickness_m", InvalidGeometryError),
    "segment non-numeric width_m": (
        lambda: rect_segment((0, 0, 0), (1e-5, 0, 0), None, 1e-6),
        "segment field width_m", InvalidGeometryError),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_input_is_rejected(case):
    build, field, *error = CASES[case]
    with pytest.raises(error[0] if error else InvalidModelError,
                       match=f"^{re.escape(field)} is not a finite number$"):
        build()


def test_non_uniform_time_grid_is_rejected():
    # A step that grows by 1.5x halfway through the run used to pass, and
    # measure_metrics then read this 2 GHz sine as 3.0 GHz.
    dt = 25e-12
    time_s = np.concatenate([dt * np.arange(1500),
                             dt * (1499 + 1.5 * np.arange(1, 1001))])
    sine = 0.2 * np.sin(2 * np.pi * 2e9 * time_s)
    with pytest.raises(InvalidModelError, match="^time grid must be uniform$"):
        flat_waveforms(time_s, sine, np.zeros_like(sine))


def test_ragged_coupled_matrix_keeps_the_shape_message():
    with pytest.raises(InvalidModelError, match="^" + re.escape(
            "coupled set with 2 windings needs a 2x2 matrix") + "$"):
        coupled_pair([[1e-9, "x"], [1e-9]], [0.1, 0.1])


@pytest.mark.parametrize("value", [NAN, INF, -INF, True, "1", None])
def test_rule_rejects_non_numbers(value):
    with pytest.raises(InvalidModelError,
                       match="^kind field name is not a finite number$"):
        check_finite(InvalidModelError, "kind", "name", value)


@pytest.mark.parametrize("value", [0, -1.5, 1e300, np.float32(2.5),
                                   np.int64(3)])
def test_rule_accepts_finite_numbers(value):
    check_finite(InvalidModelError, "kind", "name", value)
