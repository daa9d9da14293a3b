"""Built topology tests.

build_netlist rejects a p-channel core device and an invalid transformer
with a typed error, adds one output buffer per output node a topology
has, each loaded by BUFFER_LOAD_F, and stamps every tuning-array switch
as a resistor of the on or off value its code bit selects.  Every built
netlist, the quadrature bench included, seeds startup with V_o1 at
PERTURBATION_V and nothing else.  The two plain-tank oscillators start up
in a transient at their tank frequency with differential outputs.
"""
import dataclasses
import math

import pytest

from tsvqvco.devices import (SWITCH_OFF_OHM, SWITCH_ON_OHM, BufferParams,
                             MosParams, TuningArray)
from tsvqvco.engine import transient
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


@pytest.mark.parametrize("topology, l_diff_h, f_tol", [
    ("lc-vco", 2 * PLAIN_TANK["l_tank_h"], 0.02),
    ("cr-vco", PLAIN_TANK["l_tank_h"], 0.005),
])
def test_plain_tank_oscillator_runs_differential(topology, l_diff_h, f_tol):
    """60 periods: the oscillator starts at its tank frequency, 1/(2 pi
    sqrt(L C)) with the differential inductance, and its two outputs
    swing in antiphase."""
    p = TopologyParams(**PLAIN_TANK)
    f_lc = 1.0 / (2.0 * math.pi * math.sqrt(l_diff_h * p.c_tank_f))
    wave = transient(build_netlist(topology, p),
                     default_sim_config(f_lc, n_periods=60))
    m = measure_metrics(wave, p.v_dd_v)
    assert m.oscillating
    assert abs(m.f_osc_hz / f_lc - 1.0) <= f_tol
    assert abs(m.phases_deg["V_o2"] - 180.0) <= 3.0
