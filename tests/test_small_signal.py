"""Poles of a netlist from the engine's own stamps (engine.small_signal).

Two independent checks: a parallel RLC has exactly its two closed-form
poles, and a varactor tank has the poles of a fixed capacitor of the
varactor's capacitance at its control voltage, which checks C's
varactor columns.  On the toroidal tc-qvco the poles then agree with the
benchmark's recorded 100-period runs of the same netlists: the dominant
pair is the +90 degree mode, within 1 % of the run's frequency, and with
transformer B's primary dot reversed in the built netlist it is a 0 or
180 degree mode instead.  On the vertical spiral the same two pairs
compete with a smaller selection margin.  The pole frequencies, growth
rates and margins themselves come from small_signal, not from an
independent oracle, so they are figures of tests/recorded.json.  A
tuning-array code sets only two switch resistances, so it leaves the
count of finite poles alone, also where roundoff splits a Jordan pair of
infinite poles.
"""
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from recorded import qvco_netlist, qvco_poles, upper_poles
from tsvqvco.devices import TuningArray, VaractorModel, varactor_eval
from tsvqvco.engine import small_signal
from tsvqvco.netlist import Netlist
from tsvqvco.topologies import (TOPOLOGIES, TopologyParams, build_netlist,
                                coupled_inductor_matrix)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


def test_parallel_rlc_has_its_two_closed_form_poles():
    r, l, c = 500.0, 2e-9, 1e-12
    net = Netlist()
    net.add_resistor("a", "gnd", r)
    net.add_inductor("a", "gnd", l)
    net.add_capacitor("a", "gnd", c)
    poles, vectors = small_signal(net)
    alpha = 1.0 / (2.0 * r * c)
    omega = math.sqrt(1.0 / (l * c) - alpha * alpha)
    assert len(poles) == 2 and vectors.shape == (2, 2)
    for expected in (complex(-alpha, omega), complex(-alpha, -omega)):
        assert np.abs(poles - expected).min() <= 1e-12 * abs(expected)


def test_varactor_tank_has_the_poles_of_its_fixed_capacitor():
    model = VaractorModel(c_min=0.2e-12, c_max=0.6e-12, v_lo=0.0, v_hi=0.7)
    v_ctl = 0.3

    def netlist(varactor: bool) -> Netlist:
        net = Netlist()
        net.add_inductor("a", "b", 1e-9)
        net.add_resistor("a", "gnd", 1e3)
        net.add_resistor("b", "gnd", 2e3)
        net.add_vsource("ctl", "gnd", v_ctl)
        if varactor:
            net.add_varactor("a", "b", "ctl", "gnd", model)
        else:
            net.add_capacitor("a", "b", varactor_eval(model, v_ctl)[0])
        return net

    var, _ = small_signal(netlist(True))
    cap, _ = small_signal(netlist(False))
    assert len(var) == len(cap) == 2
    np.testing.assert_allclose(np.sort_complex(var), np.sort_complex(cap),
                               rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def test_toroidal_core_grows_in_quadrature(reference):
    """Both quadrature pairs grow, the +90 degree one faster, every other
    pole decays, and the +90 degree pair sits within 1 % of the recorded
    run."""
    poles, lead = qvco_poles("toroidal")
    assert lead[0] == pytest.approx(90.0, abs=0.1)
    assert lead[1] == pytest.approx(-90.0, abs=0.1)
    assert poles.real[0] > poles.real[1] > 0.0
    assert np.all(poles.real[2:] < 0.0)
    f_run = reference["qvco_core"]["metrics"]["f_osc_hz"]
    assert abs(poles[0].imag / 2.0 / math.pi / f_run - 1.0) <= 0.01


def test_buffered_core_keeps_the_quadrature_mode(reference):
    poles, lead = qvco_poles("toroidal", buffered=True)
    assert lead[0] == pytest.approx(90.0, abs=0.1)
    f_run = reference["qvco_buffered"]["metrics"]["f_osc_hz"]
    assert abs(poles[0].imag / 2.0 / math.pi / f_run - 1.0) <= 0.01


def test_vertical_spiral_modes_compete():
    """Both quadrature pairs of the vertical-spiral tc-qvco grow, the +90
    degree pair ahead of the -90 degree pair by a selection margin, the
    difference of their growth rates, that is smaller than the toroidal
    core's; every other pole decays."""
    poles, lead = qvco_poles("vertical_spiral")
    assert lead[0] == pytest.approx(90.0, abs=0.1)
    assert lead[1] == pytest.approx(-90.0, abs=0.1)
    assert poles.real[0] > poles.real[1] > 0.0
    assert np.all(poles.real[2:] < 0.0)
    toroidal, _ = qvco_poles("toroidal")
    assert (poles.real[0] - poles.real[1]
            < toroidal.real[0] - toroidal.real[1])


def test_flipped_dots_lose_quadrature(toroidal_model):
    """Reversing one primary dot makes the round trip symmetric, which
    locks the cores at 0 or 180 degrees; reversing both would relabel."""
    net = qvco_netlist(toroidal_model)
    i = next(i for i, e in enumerate(net.elements) if e.label == "xfmr_b")
    net.elements[i] = dataclasses.replace(
        net.elements[i],
        matrix=coupled_inductor_matrix(toroidal_model, (-1, 1, -1)))
    poles, lead = upper_poles(net, "V_o3")
    assert poles[0].real > 0.0
    assert min(abs(lead[0]), 180.0 - abs(lead[0])) <= 1.0


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_array_code_keeps_the_finite_pole_count(topology, toroidal_model):
    """Without parasitic capacitors the tf-vco and tc-qvco have cutsets of
    inductors and transistors with no capacitor, whose infinite poles
    form Jordan pairs that roundoff splits; none of them may pass for a
    finite pole under one code and not under another."""
    if topology in ("tf-vco", "tc-qvco"):
        tank = dict(transformer=toroidal_model, c_tank_f=1e-12)
    else:
        tank = dict(l_tank_h=2e-9, c_tank_f=1e-12, r_tank_ohm=400.0)
    counts = {len(small_signal(build_netlist(topology, TopologyParams(
        **tank, array=TuningArray(1e-12, code))))[0])
        for code in ("00", "01", "11")}
    assert len(counts) == 1
