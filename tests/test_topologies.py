"""Built topology tests.

build_netlist rejects a p-channel core device and an invalid transformer
with a typed error, adds one output buffer per output node a topology
has, each loaded by BUFFER_LOAD_F, and stamps every tuning-array switch
as a resistor of the on or off value its code bit selects.  Every built
netlist, the quadrature bench included, seeds startup with V_o1 at
PERTURBATION_V and nothing else.  The two plain-tank oscillators start up
in a transient at their tank frequency with differential outputs, as
their poles predict, and the metrics of such a run serialize to JSON through dataclasses.asdict,
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
from tsvqvco.engine import small_signal, transient
from tsvqvco.errors import InvalidModelError
from tsvqvco.metrology import measure_metrics
from tsvqvco.netlist import Capacitor, Resistor
from tsvqvco.analysis import TankParams
from tsvqvco.topologies import (BUFFER_LOAD_F, PERTURBATION_V, TOPOLOGIES,
                                TopologyParams, build_netlist,
                                build_quadrature_bench, default_sim_config)

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
    ("transformer", "l_p must be positive"),
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


def test_quadrature_bench_seeds_startup_on_v_o1():
    tank = TankParams(r_parallel=500.0, c_tank=2e-12, l_p=3e-9, k=0.8, n=2.5)
    net = build_quadrature_bench(tank, 1.0)
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
