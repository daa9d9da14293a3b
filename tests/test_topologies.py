"""Built topology tests.

build_netlist rejects a p-channel core device, an invalid transformer
and a field its topology does not read with a typed error, adds one
output buffer per output node a topology has, each loaded by
BUFFER_LOAD_F, and stamps every tuning-array switch as a resistor of the
on or off value its code bit selects.  An array bit, c_unit/2 in series
with its switch, runs as a C-switch-C branch built by hand, and the
tc-qvco reads c_tank_f.  Over every topology and array code the poles
predict start-up exactly when a transient oscillates.  Every built
netlist seeds startup with V_o1 at PERTURBATION_V and nothing else.
The two plain-tank oscillators start up in a transient at their tank
frequency with differential outputs, as their poles predict, and the
metrics of such a run serialize to JSON through dataclasses.asdict,
copy, compare equal to plain dicts and cannot be changed in place.
"""
import copy
import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from tsvqvco.devices import (SWITCH_OFF_OHM, SWITCH_ON_OHM, BufferParams,
                             MosParams, TuningArray)
from tsvqvco.engine import SimConfig, small_signal, transient
from tsvqvco.errors import InvalidModelError
from tsvqvco.metrology import measure_metrics
from tsvqvco.netlist import Capacitor, Resistor
from tsvqvco.topologies import (BUFFER_LOAD_F, PERTURBATION_V, TOPOLOGIES,
                                TopologyParams, build_netlist,
                                default_sim_config)

PLAIN_TANK = dict(l_tank_h=2e-9, c_tank_f=1e-12, r_tank_ohm=400.0)
OUTPUT_COUNT = {"lc-vco": 2, "tf-vco": 2, "cr-vco": 2, "tc-qvco": 4}
TANK_TAGS = {"lc-vco": "a", "tf-vco": "a", "cr-vco": "a", "tc-qvco": "ab"}


def params(topology, toroidal_model, **kwargs) -> TopologyParams:
    if topology in ("tf-vco", "tc-qvco"):
        kwargs.update(transformer=toroidal_model, c_tank_f=1e-12)
    else:
        kwargs.update(PLAIN_TANK)
    return TopologyParams(**kwargs)


@pytest.mark.parametrize("topology", ["tf-vco", "tc-qvco"])
@pytest.mark.parametrize("name, message", [
    ("nmos", "nmos must be an n-channel device"),
    ("transformer", "transformer model field l_p must be positive"),
])
def test_rejects_bad_device_or_transformer(topology, name, message,
                                           toroidal_model):
    bad = {"nmos": lambda: MosParams(polarity="p", k_factor=0.026, v_th=-0.09),
           "transformer": lambda: dataclasses.replace(toroidal_model, l_p=-3e-9)}
    with pytest.raises(InvalidModelError, match=f"^{message}$"):
        dataclasses.replace(params(topology, toroidal_model),
                            **{name: bad[name]()})


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_one_loaded_buffer_per_output(topology, toroidal_model):
    net = build_netlist(topology, params(topology, toroidal_model,
                                         buffers=BufferParams()))
    tags = range(1, OUTPUT_COUNT[topology] + 1)
    expected = {f"{kind}_{k}" for k in tags for kind in ("mpb", "mnb", "cl")}
    labels = {e.label for e in net.elements
              if e.label.split("_")[0] in ("mpb", "mnb", "cl")}
    assert labels == expected
    loads = [e for e in net.elements if e.label.startswith("cl_")]
    assert all(isinstance(e, Capacitor) and e.farads == 20e-15
               for e in loads)
    assert BUFFER_LOAD_F == 20e-15


@pytest.mark.parametrize("buffers", [None, BufferParams()])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_builder_seeds_startup_on_v_o1(topology, buffers, toroidal_model):
    net = build_netlist(topology, params(topology, toroidal_model,
                                         buffers=buffers))
    assert net.initial_voltages == {"V_o1": PERTURBATION_V}


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_array_switches_are_resistors_set_by_the_code(topology,
                                                      toroidal_model):
    net = build_netlist(topology, params(topology, toroidal_model,
                                         array=TuningArray(1e-12, "01")))
    switches = {e.label: e for e in net.elements
                if e.label.startswith("sw_")}
    expected = {}
    for tag in TANK_TAGS[topology]:
        expected[f"sw_{tag}0"] = SWITCH_OFF_OHM
        expected[f"sw_{tag}1"] = SWITCH_ON_OHM
    assert {k: e.ohms for k, e in switches.items()} == expected
    assert all(isinstance(e, Resistor) for e in switches.values())


@pytest.mark.parametrize("topology, name", [
    ("tf-vco", "l_tank_h"), ("tc-qvco", "l_tank_h"),
    ("lc-vco", "transformer"), ("cr-vco", "transformer"),
])
def test_rejects_a_field_its_topology_does_not_read(topology, name,
                                                    toroidal_model):
    value = {"l_tank_h": 2e-9, "transformer": toroidal_model}[name]
    p = dataclasses.replace(params(topology, toroidal_model), **{name: value})
    with pytest.raises(InvalidModelError,
                       match=f"^{topology} does not read {name}$"):
        build_netlist(topology, p)


def test_rejects_a_control_voltage_without_a_varactor():
    with pytest.raises(InvalidModelError,
                       match="^v_ctrl_v needs a varactor$"):
        build_netlist("lc-vco", TopologyParams(**PLAIN_TANK, v_ctrl_v=0.3))


@pytest.mark.parametrize("code", ["00", "01", "11"])
@pytest.mark.parametrize("topology", ["lc-vco", "cr-vco"])
def test_array_bit_runs_as_its_c_switch_c_branch(topology, code):
    """Each built bit, c_unit/2 in series with the switch, against
    c_unit, switch, c_unit in series, added by hand to the array-free
    netlist: over 20 periods of 1/(2 pi sqrt(l_tank_h c_tank_f)) the
    traces agree within 1e-8 V, and the frequencies of runs that
    oscillate within 1e-9 relative."""
    c_unit = 1e-12
    p = TopologyParams(**PLAIN_TANK)
    hand = build_netlist(topology, p)
    for bit, state in enumerate(code):
        ohms = SWITCH_ON_OHM if state == "1" else SWITCH_OFF_OHM
        hand.add_capacitor("V_o1", f"m{bit}p", c_unit)
        hand.add_resistor(f"m{bit}p", f"m{bit}n", ohms)
        hand.add_capacitor(f"m{bit}n", "V_o2", c_unit)
    built = build_netlist(topology, dataclasses.replace(
        p, array=TuningArray(c_unit, code)))
    cfg = default_sim_config(1.0 / (2.0 * math.pi * math.sqrt(
        PLAIN_TANK["l_tank_h"] * PLAIN_TANK["c_tank_f"])), n_periods=20)
    runs = [transient(net, cfg) for net in (hand, built)]
    for node in ("V_o1", "V_o2"):
        np.testing.assert_allclose(runs[1].voltages[node],
                                   runs[0].voltages[node], rtol=0, atol=1e-8)
    f_hand, f_built = (measure_metrics(w, p.v_dd_v).f_osc_hz for w in runs)
    if f_hand is None:
        assert f_built is None
    else:
        assert f_built == pytest.approx(f_hand, rel=1e-9)


def test_tc_qvco_reads_its_tank_capacitor(toroidal_model):
    """In a mode that drives a tank's two ends apart, as the dominant one
    does, C across the tank acts as 2C more from each end to ground."""
    c_par, c = 4.4e-12, 1e-12
    across, grounded = (small_signal(build_netlist("tc-qvco", TopologyParams(
        transformer=toroidal_model, **fields)))[0][0] for fields in (
            {"c_parasitic_f": c_par, "c_tank_f": c},
            {"c_parasitic_f": c_par + 2.0 * c}))
    assert abs(across / grounded - 1.0) <= 1e-6


# Span of the start-up runs, in periods of the array-free tank, and the
# steps per such period: the slowest-growing case, the array-free
# cr-vco, swings about 0.06 V over the last tenth of 24 periods against
# the 0.02 V oscillation threshold.
START_UP_PERIODS = 24
START_UP_POINTS = 100


@pytest.mark.parametrize("code", [None, "00", "01", "11"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_poles_predict_start_up_exactly_when_the_run_oscillates(
        topology, code, toroidal_model):
    """A growing pole and an oscillating run go together.  cr-vco and
    tc-qvco with a closed bit ("01", "11") have neither; the other 12
    cases have both.  The step and span are set by the frequency of the
    array-free tank's dominant pair."""
    free = params(topology, toroidal_model)
    poles, _ = small_signal(build_netlist(topology, free))
    f_est = poles[poles.imag > 0][0].imag / (2.0 * math.pi)
    p = dataclasses.replace(
        free, array=None if code is None else TuningArray(1e-12, code))
    net = build_netlist(topology, p)
    grows = bool(small_signal(net)[0][0].real > 0.0)
    run = transient(net, SimConfig(dt_s=1.0 / (START_UP_POINTS * f_est),
                                   t_stop_s=START_UP_PERIODS / f_est))
    assert measure_metrics(run, p.v_dd_v).oscillating is grows
    assert grows is not (topology in ("cr-vco", "tc-qvco")
                         and code in ("01", "11"))


@functools.lru_cache(maxsize=None)
def plain_tank_metrics(topology, l_diff_h):
    """The tank frequency and the metrics of a 60-period run."""
    p = TopologyParams(**PLAIN_TANK)
    f_lc = 1.0 / (2.0 * math.pi * math.sqrt(l_diff_h * p.c_tank_f))
    wave = transient(build_netlist(topology, p),
                     default_sim_config(f_lc, n_periods=60))
    return f_lc, measure_metrics(wave, p.v_dd_v)


@pytest.mark.parametrize("topology, l_diff_h, f_tol", [
    ("lc-vco", 2 * PLAIN_TANK["l_tank_h"], 0.02),
    ("cr-vco", PLAIN_TANK["l_tank_h"], 0.005),
])
def test_plain_tank_oscillator_runs_differential(topology, l_diff_h, f_tol):
    """60 periods: the oscillator starts at its tank frequency, 1/(2 pi
    sqrt(L C)) with the differential inductance, and its two outputs
    swing in antiphase."""
    f_lc, m = plain_tank_metrics(topology, l_diff_h)
    assert m.oscillating
    assert abs(m.f_osc_hz / f_lc - 1.0) <= f_tol
    assert abs(m.phases_deg["V_o2"] - 180.0) <= 3.0


@pytest.mark.parametrize("topology, l_diff_h, f_tol", [
    ("lc-vco", 2 * PLAIN_TANK["l_tank_h"], 0.02),
    ("cr-vco", PLAIN_TANK["l_tank_h"], 0.005),
])
def test_plain_tank_poles_predict_the_run(topology, l_diff_h, f_tol):
    """The linearized oscillator has a growing pair in the band the run's
    frequency is held to, with V_o2 in antiphase, as in the run."""
    f_lc, m = plain_tank_metrics(topology, l_diff_h)
    net = build_netlist(topology, TopologyParams(**PLAIN_TANK))
    poles, vectors = small_signal(net)
    upper = poles.imag > 0
    pole, mode = poles[upper][0], vectors[:, upper][:, 0]
    assert m.oscillating and pole.real > 0.0
    assert abs(pole.imag / (2.0 * math.pi) / f_lc - 1.0) <= f_tol
    v1, v2 = (mode[net.node_names.index(n)] for n in ("V_o1", "V_o2"))
    assert abs(math.degrees(np.angle(v2 / v1))) == pytest.approx(180.0,
                                                                 abs=1.0)


def test_metrics_of_a_run_serialize_to_json():
    """The benchmark records every run's metrics with dataclasses.asdict;
    a mapping proxy in SimMetrics would make that raise."""
    _, m = plain_tank_metrics("cr-vco", PLAIN_TANK["l_tank_h"])
    assert m.oscillating and m.phases_deg
    record = json.loads(json.dumps(dataclasses.asdict(m)))
    assert record["phases_deg"] == m.phases_deg
    assert record["amplitudes_vpp"] == m.amplitudes_vpp


@pytest.mark.parametrize("field", ["amplitudes_vpp", "phases_deg"])
def test_metrics_of_a_run_cannot_be_changed_in_place(field):
    """The swings and phases of a run refuse every dict change and stay
    dicts for asdict, deepcopy, JSON and comparison."""
    _, m = plain_tank_metrics("cr-vco", PLAIN_TANK["l_tank_h"])
    mapping = getattr(m, field)
    before = dict(mapping)
    node = next(iter(before))
    changes = {
        "item assignment": lambda d: d.__setitem__(node, 0.0),
        "item deletion": lambda d: d.__delitem__(node),
        "update": lambda d: d.update({node: 0.0}),
        "pop": lambda d: d.pop(node),
        "popitem": lambda d: d.popitem(),
        "clear": lambda d: d.clear(),
        "setdefault": lambda d: d.setdefault("V_new", 0.0),
        "in-place union": lambda d: d.__ior__({node: 0.0}),
    }
    for name, change in changes.items():
        with pytest.raises(TypeError):
            change(mapping)
        assert mapping == before, name
    assert isinstance(mapping, dict) and before == mapping

    clone = copy.deepcopy(m)
    assert clone == m and getattr(clone, field) == before
    with pytest.raises(TypeError):
        getattr(clone, field)[node] = 0.0
    record = dataclasses.asdict(m)
    assert record[field] == before
    assert json.loads(json.dumps(record))[field] == before
