"""errors.check_finite is the one rule for scalar inputs: a finite real
number, and positive or non-negative where a sign bound is given.

Every layer that takes numbers rejects NaN and inf with a typed error that
names the field, before any range check can let them through: the
simulator settings and waveforms, the extracted transformer model, the
design spec, the tank, the netlist elements, the device parameter blocks
(transistor, varactor, tuning array, buffer, coupled set), the topology
parameters, the arguments of default_sim_config and measure_metrics,
and every swing and phase of SimMetrics.  A conductor segment's
coordinates and dimensions raise InvalidGeometryError instead, and each
of its two points has exactly three coordinates.  An int beyond float
range is not a finite number either.  (Geometry input is
covered in test_geometry.py.)

A finite value out of range fails with its own exact message on the run
path too: the netlist, the simulator settings and waveforms (whose grid
and traces are one-dimensional), the topology builders and metrology,
and the structural checks of the engine's MNA walk, which refuse a bool
as a node index of any element kind and come before the step-count
check.  A toroidal secondary slot that is not a whole cell is named as
such.  Newton reports a step it cannot converge.  A field that holds a
parameter block, a coil's name and segment rows, a coupled-set winding's
two terminals and a step count that overflows to inf are refused by name,
as are a coil's segments and a coupled set's pairs that are not a sequence.
"""
import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import coil
from tsvqvco import engine
from tsvqvco.analysis import DesignSpec, TankParams, min_transconductance
from tsvqvco.devices import BufferParams, MosParams, TuningArray, VaractorModel
from tsvqvco.engine import SimConfig, Waveforms, transient
from tsvqvco.errors import (NON_NEGATIVE, POSITIVE, InvalidGeometryError,
                            InvalidModelError, NumericFailure, check_finite)
from tsvqvco.geometry import (TransformerGeometry, coils_from_rows, rect_row,
                              round_row)
from tsvqvco.metrology import SimMetrics, measure_metrics
from tsvqvco.netlist import (Capacitor, CoupledInductors, Mos, Netlist,
                             Resistor, Varactor, Vccs, VSource)
from tsvqvco.topologies import (TopologyParams, build_netlist,
                                default_sim_config)
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
    # (dt_s) or gives a NaN power
    "sim f_est_hz": (lambda: default_sim_config(NAN, n_periods=4),
                     "sim config field f_est_hz"),
    "sim n_periods": (lambda: default_sim_config(2.5e9, n_periods=NAN),
                      "sim config field n_periods"),
    "metrics v_dd": (lambda: measure_metrics(flat_waveforms(), NAN),
                     "metrics field v_dd"),
    # metrics built by hand used to keep a NaN swing or an inf phase
    "metrics amplitude": (
        lambda: SimMetrics(oscillating=True, f_osc_hz=1e9,
                           amplitudes_vpp={"V_o1": NAN}),
        "metrics field amplitudes_vpp[V_o1]"),
    "metrics phase": (
        lambda: SimMetrics(oscillating=True, f_osc_hz=1e9,
                           phases_deg={"V_o2": INF}),
        "metrics field phases_deg[V_o2]"),
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
    # an int beyond float range used to escape as Python's OverflowError
    "coupled set huge series_r": (
        lambda: coupled_pair([[1e-9, 0.0], [0.0, 1e-9]], [10**400, 0.1]),
        "coupled set field series_r[0]"),
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
    "segment end": (lambda: coil("c", [round_row((0, 0, 0), (NAN, 0, 0), 1e-6)]),
                    "segment field end", InvalidGeometryError),
    # float() used to parse these strings and take True as 1 m
    "segment non-numeric start": (
        lambda: coil("c", [round_row(("0", "0", "0"), ("1e-4", 0, 0), 1e-5)]),
        "segment field start", InvalidGeometryError),
    "segment bool start": (
        lambda: coil("c", [round_row((True, 0, 0), (1e-4, 0, 0), 1e-5)]),
        "segment field start", InvalidGeometryError),
    "segment huge end": (
        lambda: coil("c", [round_row((0, 0, 0), (10**400, 0, 0), 1e-5)]),
        "segment field end", InvalidGeometryError),
    "segment radius_m": (
        lambda: coil("c", [round_row((0, 0, 0), (1e-5, 0, 0), NAN)]),
        "segment field radius_m", InvalidGeometryError),
    "segment thickness_m": (
        lambda: coil("c", [rect_row((0, 0, 0), (1e-5, 0, 0), 1e-6, INF)]),
        "segment field thickness_m", InvalidGeometryError),
    "segment non-numeric width_m": (
        lambda: coil("c", [rect_row((0, 0, 0), (1e-5, 0, 0), None, 1e-6)]),
        "segment field width_m", InvalidGeometryError),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_input_is_rejected(case):
    build, field, *error = CASES[case]
    with pytest.raises(error[0] if error else InvalidModelError,
                       match=f"^{re.escape(field)} is not a finite number$"):
        build()


def rc_netlist() -> Netlist:
    net = Netlist()
    net.add_resistor("a", "gnd", 1e3, label="r1")
    net.add_capacitor("a", "gnd", 1e-12, label="c1")
    net.set_initial_voltage("a", 0.1)
    return net


def run_rc(*raw_elements, cfg=SimConfig(dt_s=1e-12, t_stop_s=1e-10)):
    """A transient of the RC netlist with raw elements appended, which
    bypass the add_* checks."""
    net = rc_netlist()
    net.elements.extend(raw_elements)
    return transient(net, cfg)


# Each case is (build, message): a finite value out of range, or a
# structural defect, and the exact InvalidModelError message it raises;
# or (build, message, error) where the error is not InvalidModelError.
RANGE_CASES = {
    "resistance": (lambda: Netlist().add_resistor("a", "gnd", 0.0),
                   "resistor field ohms must be positive"),
    "capacitance": (lambda: Netlist().add_capacitor("a", "gnd", -1e-12),
                    "capacitor field farads must be positive"),
    "inductance": (lambda: Netlist().add_inductor("a", "gnd", 0.0),
                   "inductor field henries must be positive"),
    "initial currents": (
        lambda: coupled_pair([[1e-9, 0.0], [0.0, 1e-9]], [0.1, 0.1],
                             i_initial_a=[0.0]),
        "initial currents must match winding count"),
    "source ramp": (lambda: Netlist().add_vsource("a", "gnd", 1.0,
                                                  ramp_s=-1e-9),
                    "vsource field ramp_s must be non-negative"),
    "initial voltage node name": (
        lambda: Netlist().set_initial_voltage("", 0.1),
        "node names must be non-empty strings"),
    "unknown node": (lambda: run_rc(Resistor(0, 5, 1e3, "rx")),
                     "element rx references unknown node 5"),
    "negative unknown node": (lambda: run_rc(Resistor(0, -2, 1e3, "rx")),
                              "element rx references unknown node -2"),
    "one-winding coupled set": (
        lambda: Netlist().add_coupled_inductors([("a", "gnd")], [[1e-9]],
                                                [0.1]),
        "coupled set needs at least two windings"),
    "time step": (lambda: SimConfig(dt_s=0.0, t_stop_s=1e-9),
                  "sim config field dt_s must be positive"),
    "step count": (lambda: run_rc(cfg=SimConfig(dt_s=1.0, t_stop_s=1.2)),
                   "stop time must cover at least two steps"),
    "trace length": (lambda: flat_waveforms(v_o1=(0.0, 0.0)),
                     "trace V_o1 length mismatch"),
    "topology": (lambda: build_netlist("rc-vco", TopologyParams()),
                 "unknown topology 'rc-vco'; expected one of "
                 "('lc-vco', 'tf-vco', 'cr-vco', 'tc-qvco')"),
    "missing transformer": (lambda: build_netlist("tc-qvco", TopologyParams()),
                            "tc-qvco needs transformer"),
    "sim f_est_hz": (lambda: default_sim_config(0.0, n_periods=4),
                     "sim config field f_est_hz must be positive"),
    "sim n_periods": (lambda: default_sim_config(2.5e9, n_periods=1),
                      "simulation span too small"),
    "topology c_parasitic_f": (lambda: TopologyParams(c_parasitic_f=-1e-15),
                               "topology field c_parasitic_f must be "
                               "non-negative"),
    "metrics v_dd": (lambda: measure_metrics(flat_waveforms(), 0.0),
                     "metrics field v_dd must be positive"),
    "metrics delta_v_out_v": (
        lambda: SimMetrics(oscillating=True, f_osc_hz=2e9,
                           delta_v_out_v=-0.01),
        "metrics field delta_v_out_v must be non-negative"),
    "metrics amplitude sign": (
        lambda: SimMetrics(oscillating=True, f_osc_hz=1e9,
                           amplitudes_vpp={"V_o1": -0.1}),
        "metrics field amplitudes_vpp[V_o1] must be non-negative"),
    # a 2-D grid and traces used to read as a run that does not
    # oscillate, and a scalar grid died on len() with a TypeError
    "waveforms 2-D grid": (
        lambda: flat_waveforms(*(np.arange(6.0).reshape(2, 3),) * 3),
        "trace time_s must be one-dimensional"),
    "waveforms scalar grid": (lambda: flat_waveforms(0.0, 0.0, 0.0),
                              "trace time_s must be one-dimensional"),
    "waveforms 2-D trace": (lambda: flat_waveforms(v_o1=[[0.0] * 3] * 3),
                            "trace V_o1 must be one-dimensional"),
    # a 2-coordinate point used to be built and then fail extraction with
    # numpy's zero-size ValueError; a 4-coordinate one gave RuntimeWarnings
    **{f"segment {case}": (
        lambda start=start, end=end: coil("c", [round_row(start, end, 1e-5)]),
        f"segment field {name} must be a point of three coordinates",
        InvalidGeometryError)
       for case, start, end, name in (
           ("two-coordinate start", (0, 0), (1e-4, 0), "start"),
           ("four-coordinate end", (0, 0, 0), (1e-4, 0, 0, 0), "end"),
           ("start None", None, (1e-4, 0, 0), "start"),
           ("scalar end", (0, 0, 0), 1e-4, "end"))},
    # a half cell used to be reported as outside the cells
    "secondary slot 1.5": (
        lambda: TransformerGeometry(
            style="toroidal", turns_primary=6, turns_secondary=1,
            tsv_pitch_um=66.0, row_spacing_um=90.0,
            secondary_slots=((1.5,), (2,))),
        "secondary slot 1.5 is not an integer cell index",
        InvalidGeometryError),
    "metrics outputs": (
        lambda: measure_metrics(Waveforms(
            time_s=np.arange(3.0), voltages={"X": np.zeros(3)},
            currents={}), 0.7),
        "no output nodes to measure"),
    # a field that holds a parameter block used to take any value, or
    # to fail on an attribute of it with Python's AttributeError
    **{f"topology {name} type": (
        lambda name=name: TopologyParams(**{name: "x"}),
        f"topology field {name} must be a {cls}")
       for name, cls in (("nmos", "MosParams"), ("buffers", "BufferParams"),
                         ("array", "TuningArray"),
                         ("varactor", "VaractorModel"),
                         ("transformer", "TransformerModel"))},
    "buffer nmos type": (lambda: BufferParams(nmos="x"),
                         "buffer field nmos must be a MosParams"),
    "geometry process type": (
        lambda: TransformerGeometry(
            style="toroidal", turns_primary=6, turns_secondary=1,
            tsv_pitch_um=66.0, row_spacing_um=90.0, process="x"),
        "geometry field process must be a ProcessParams",
        InvalidGeometryError),
    "coil segments type": (
        lambda: coils_from_rows({"x": [1, 2]}),
        "coil 'x' segment 0 must be a row of 10 values (round_row, rect_row)",
        InvalidGeometryError),
    "coil one-segment type": (
        lambda: coils_from_rows({"x": [1]}),
        "coil 'x' segment 0 must be a row of 10 values (round_row, rect_row)",
        InvalidGeometryError),
    "coil name type": (
        lambda: coils_from_rows({3: [round_row((0, 0, 0), (1e-4, 0, 0), 1e-5)]}),
        "coil field name must be a str", InvalidGeometryError),
    # a non-sequence where a sequence is expected used to escape as
    # Python's TypeError
    "coil segments not a sequence": (
        lambda: coils_from_rows({"x": 5}),
        "coil 'x' segments must be a sequence of rows", InvalidGeometryError),
    "coupled set pairs not a sequence": (
        lambda: Netlist().add_coupled_inductors(5, [[1e-9]], [0.1]),
        "coupled set field pairs must be a sequence"),
    # a step count that overflows to inf used to pass, and transient
    # then died converting it to an int
    "step count overflow": (lambda: SimConfig(dt_s=1e-300, t_stop_s=1e300),
                            "stop time over time step is not a finite step "
                            "count"),
    # a winding without two terminals used to raise Python's unpacking
    # ValueError
    "coupled set string pairs": (
        lambda: Netlist().add_coupled_inductors(
            "ab", [[1e-9, 0.0], [0.0, 1e-9]], [0.0, 0.0]),
        "coupled set field pairs[0] must be a pair of terminals"),
    "coupled set three-terminal pair": (
        lambda: Netlist().add_coupled_inductors(
            [("a", "b", "c"), ("d", "gnd")], [[1e-9, 0.0], [0.0, 1e-9]],
            [0.0, 0.0]),
        "coupled set field pairs[0] must be a pair of terminals"),
}


@pytest.mark.parametrize("case", sorted(RANGE_CASES))
def test_out_of_range_input_is_rejected(case):
    build, message, *error = RANGE_CASES[case]
    with pytest.raises(error[0] if error else InvalidModelError,
                       match=f"^{re.escape(message)}$"):
        build()


# Each netlist element checks its own values when it is built, so one
# appended to net.elements without its add_* method raises a typed
# message (its add_* method's, where it has one), not an untyped error
# from the MNA walk.
RAW_ELEMENT_CASES = {
    "resistor": (lambda: Resistor(0, -1, 0.0, "rx"),
                 "resistor field ohms must be positive"),
    "capacitor": (lambda: Capacitor(0, -1, -1e-12, "cx"),
                  "capacitor field farads must be positive"),
    "inductor": (lambda: CoupledInductors(((0, -1),), ((0.0,),), (0.0,),
                                          "lx", (0.0,)),
                 "inductor field henries must be positive"),
    "coupled set": (lambda: CoupledInductors(
        ((0, -1), (0, -1)), ((1e-9, 2e-9), (2e-9, 1e-9)), (0.1, 0.1), "kx",
        (0.0, 0.0)), "inductance matrix is not positive definite "
                     "(over-coupled)"),
    "lossy inductor": (lambda: CoupledInductors(((0, -1),), ((1e-9,),),
                                                (-1.0,), "lx", (0.0,)),
                       "coupled set field series_r[0] must be non-negative"),
    "inductor matrix shape": (lambda: CoupledInductors(
        ((0, -1),), ((1e-9, 5.0),), (0.0,), "lx", (0.0,)),
        "coupled set with 1 windings needs a 1x1 matrix"),
    "inductor empty matrix": (lambda: CoupledInductors(
        ((0, -1),), (), (0.0,), "lx", (0.0,)),
        "coupled set with 1 windings needs a 1x1 matrix"),
    "inductor no initial current": (lambda: CoupledInductors(
        ((0, -1),), ((1e-9,),), (0.0,), "lx", ()),
        "initial currents must match winding count"),
    "mos params": (lambda: Mos(0, 0, -1, None, "mx"),
                   "mos field params must be a MosParams"),
    "varactor model": (lambda: Varactor(0, -1, 0, -1, None, "cvx"),
                       "varactor field model must be a VaractorModel"),
    # used to fail only inside transient, on Python's unpacking ValueError
    "coupled set one-terminal pair": (lambda: CoupledInductors(
        ((0,), (0, -1)), ((1e-9, 0.0), (0.0, 1e-9)), (0.1, 0.1), "kx",
        (0.0, 0.0)), "coupled set field pairs[0] must be a pair of terminals"),
    "coupled set initial currents": (lambda: CoupledInductors(
        ((0, -1), (0, -1)), ((1e-9, 0.0), (0.0, 1e-9)), (0.1, 0.1), "kx",
        (0.0,)), "initial currents must match winding count"),
    "vsource": (lambda: VSource(0, -1, 1.0, "vx", -1e-9),
                "vsource field ramp_s must be non-negative"),
    # used to escape as Python's TypeError
    "coupled set pairs not a sequence": (lambda: CoupledInductors(
        5, ((1e-9,),), (0.1,), "kx", (0.0,)),
        "coupled set field pairs must be a sequence"),
    "vccs": (lambda: Vccs(0, -1, 0, -1, NAN, "gx"),
             "vccs field gm is not a finite number"),
}


@pytest.mark.parametrize("case", sorted(RAW_ELEMENT_CASES))
def test_raw_element_checks_its_values(case):
    build, message = RAW_ELEMENT_CASES[case]
    with pytest.raises(InvalidModelError, match=f"^{re.escape(message)}$"):
        run_rc(build())


# One raw element of each kind with node index `node` as its first
# terminal; node 0 and ground fill the others.
RAW_TERMINAL_CASES = {
    "resistor": lambda node: Resistor(node, -1, 1e3, "rx"),
    "capacitor": lambda node: Capacitor(node, -1, 1e-12, "rx"),
    "inductor": lambda node: CoupledInductors(((node, -1),), ((1e-9,),),
                                              (0.0,), "rx", (0.0,)),
    "coupled set": lambda node: CoupledInductors(
        ((0, -1), (node, -1)), ((1e-9, 0.0), (0.0, 1e-9)), (0.1, 0.1), "rx",
        (0.0, 0.0)),
    "vsource": lambda node: VSource(node, -1, 1.0, "rx"),
    "vccs": lambda node: Vccs(node, -1, 0, -1, 1e-3, "rx"),
    "mos": lambda node: Mos(node, 0, -1, MosParams("n", 1e-3, 0.3), "rx"),
    "varactor": lambda node: Varactor(
        node, -1, 0, -1, VaractorModel(1e-12, 3e-12, 0.0, 0.7), "rx"),
}


@pytest.mark.parametrize("node", [True, np.True_, False, np.False_],
                         ids=["True", "np.True_", "False", "np.False_"])
@pytest.mark.parametrize("case", sorted(RAW_TERMINAL_CASES))
def test_raw_element_with_a_bool_node_is_refused(case, node):
    """A bool is not a node index, though the walk's range test and
    numpy's indexing take True as node 1 and False as node 0."""
    net = rc_netlist()
    net.add_resistor("b", "gnd", 1e3)  # node 1, which True would index
    net.elements.append(RAW_TERMINAL_CASES[case](node))
    message = f"element rx references unknown node {node}"
    with pytest.raises(InvalidModelError, match=f"^{re.escape(message)}$"):
        engine._System(net)  # the netlist is read before any step


def test_span_is_checked_once_where_the_config_is_made():
    """SimConfig refuses a span that transient would round to fewer than
    two steps, before any netlist is seen, and accepts the shortest one
    it rounds to two."""
    with pytest.raises(InvalidModelError,
                       match="^stop time must cover at least two steps$"):
        SimConfig(dt_s=1.0, t_stop_s=1.49)
    wave = run_rc(cfg=SimConfig(dt_s=1e-12, t_stop_s=1.5e-12))
    assert len(wave.time_s) == 3


def test_newton_reports_a_step_it_cannot_converge(monkeypatch):
    monkeypatch.setattr(engine, "MAX_NEWTON", 1)
    with pytest.raises(NumericFailure, match=re.escape(
            "Newton did not converge at t = 1.000000e-12 s after 1 "
            "iterations; last update ")):
        run_rc()


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


@pytest.mark.parametrize("value", [NAN, INF, -INF, True, "1", None,
                                   10**400, -10**400],
                         ids=lambda v: ("-" if v < 0 else "") + "10**400"
                         if type(v) is int else None)
def test_rule_rejects_non_numbers(value):
    with pytest.raises(InvalidModelError,
                       match="^kind field name is not a finite number$"):
        check_finite(InvalidModelError, "kind", "name", value)


@pytest.mark.parametrize("value", [0, -1.5, 1e300, np.float32(2.5),
                                   np.int64(3)])
def test_rule_accepts_finite_numbers(value):
    check_finite(InvalidModelError, "kind", "name", value)


@pytest.mark.parametrize("value, sign", [
    (0.0, POSITIVE), (-1e-300, POSITIVE), (-1e-300, NON_NEGATIVE),
    (-5, NON_NEGATIVE),
])
def test_rule_checks_the_sign_bound(value, sign):
    with pytest.raises(InvalidGeometryError,
                       match=f"^kind field name must be {sign}$"):
        check_finite(InvalidGeometryError, "kind", "name", value, sign)


@pytest.mark.parametrize("value, sign", [
    (5e-324, POSITIVE), (0.0, NON_NEGATIVE), (-0.0, NON_NEGATIVE),
    (-1e300, None),
])
def test_rule_accepts_values_within_the_bound(value, sign):
    check_finite(InvalidModelError, "kind", "name", value, sign)
