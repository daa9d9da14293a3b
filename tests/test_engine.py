"""Transient engine tests.

The Jacobian the engine assembles from its stamp matrices is checked
against a centred finite difference of the residual it assembles: for
transistors in every region of both polarities, for transistors that
share terminals or sit on ground, and for a varactor whose control sits
on a node pair; reruns of one netlist must repeat bit for bit.  A stage
builds at any coefficient: at 0 its products are the static residual
and Jacobian, the charge map is the linear charge plus each varactor's,
a stage at c adds c times the charge, a run's history opens at
q(x_0)/h, and the linearization is the static and the charge Jacobian.
A solver writes only the Jacobian entries a device touches, yet every
solve over the topology matrix sees the dense Jm @ y[jac] bit for bit:
at both stages, across the switch between them, on a deep copy of the
system and with two solvers bound on one.  A run reports the linear
solves it made, and a singular matrix names the node or branch with no
stamp, at a transient step and at small_signal's DC point alike.  The first step is a step like any
other: every built topology takes it with stepped supplies at step
sizes from 0.1 ps to 1 ns, a failure in it propagates, and the engine
adds nothing to a netlist's initial state.  The traces of a run are
read-only column views of one solution array.
Every step, a linear circuit's too, goes through Newton.  The extrapolated Newton start
point must change only the iteration count, never the answer; the
predictor is exact on polynomials of degree below its row count, and
keeps the buffered tc-qvco near one solve per step (the histogram of a
47-period run is in tests/recorded.json).  At a mid-run point
the stage's products over the step state match the stamps they fuse,
and short tc-qvco runs and the stiffest netlists of every topology solve
every step, taking exactly the solves tests/recorded.json holds.  The
engine's linear solve gives np.linalg.solve's update bit for bit on
mid-run tc-qvco Jacobians.  A
run's solve histogram accounts for every step and every solve, its
counts are non-negative ints, and a histogram that does not is refused,
as is a time grid with no sample; its worst KCL residual is the largest
node-row residual of an accepted step, and a device value that turns
NaN, or an update that takes x past the largest float, stops the run at
that step with NumericFailure.  Each source's row of b is its value_at
bit for bit at every step, and holds its volts once the ramp is over,
though value_at is called only up to the first step past the last
ramp's end.  The Newton path must reproduce a
closed-form RC discharge and series-RLC ring-down.  The reactive step history is checked three independent ways:
a lossless LC keeps its energy, a coupled pair matches its T network, and
a varactor at a fixed control voltage matches a linear capacitor.
Newton's scratch arrays do not show: a deep copy of a system steps bit
for bit like the original, and the update screen stops a NaN or inf
update at the first solve but passes a finite one whose square sum
overflows.  A run binds its Newton solver once and calls it once per
step, small_signal binds one for its DC point, and a solver bound once
steps bit for bit like a fresh binding per step.
"""
import copy
import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import mos_eval
from recorded import (MID_STEP, PLAIN_TANK, QVCO_CASES, STIFF_NETLISTS,
                      buffered_span_run, four_period_run, mid_run_step,
                      qvco_config, qvco_run, stiff_run)
from tsvqvco import engine
from tsvqvco.devices import (BufferParams, MosParams, TuningArray,
                             VaractorModel, varactor_eval)
from tsvqvco.engine import SimConfig, small_signal, transient
from tsvqvco.errors import InvalidModelError, NumericFailure
from tsvqvco.netlist import GROUND, Mos, Netlist, Varactor, VSource
from tsvqvco.topologies import TOPOLOGIES, TopologyParams, build_netlist

NMOS = MosParams(polarity="n", k_factor=0.02, v_th=0.3, lam=0.1)
PMOS = MosParams(polarity="p", k_factor=0.03, v_th=-0.25, lam=0.08)

# (v_gs, v_ds) for the n-channel device, each clear of a region boundary
# so the finite difference does not straddle a kink; the p-channel device
# gets the mirrored bias.
BIASES = {
    "cutoff": (0.1, 0.5),
    "saturation": (0.7, 0.6),
    "triode": (0.9, 0.2),
    "reversed_triode": (0.8, -0.2),
    "reversed_saturation": (0.0, -0.6),
}


# The step the device stamps are evaluated at.
DEVICE_DT_S = 1e-12


def device_system(mos=(), varactors=()):
    """A netlist of the given transistors (d, g, s, params) and varactors
    (a, b, cp, cn, model), every node tied to ground by 1 kOhm, and its
    assembled system."""
    net = Netlist()
    for k, (d, g, s, params) in enumerate(mos):
        net.add_mos(d, g, s, params, label=f"m{k}")
    for k, (a, b, cp, cn, model) in enumerate(varactors):
        net.add_varactor(a, b, cp, cn, model, label=f"cv{k}")
    for node in list(net.node_names):
        net.add_resistor(node, "gnd", 1e3, label=f"r_{node}")
    return net, engine._System(net)


def at_voltages(net, sys_, volts: dict) -> np.ndarray:
    x = np.zeros(sys_.size + 1)
    for name, v in volts.items():
        x[net.node_names.index(name)] = v
    return x


def device_slots(sys_, x, coef):
    """The engine's device slots of the step state at x, split into the
    currents and the partials, with each varactor's charge and partials
    times coef: the currents and partials a stage at coef stamps."""
    values = np.array(engine._devices(sys_)(x.tolist()))
    k, n_mos = sys_.inc.shape[1], len(sys_.mos)
    assert len(values) == 3 * k == sys_.dev.stop - sys_.dev.start
    cur, part = values[:k], values[k:]
    cur[n_mos:] *= coef
    part[2 * n_mos:] *= coef
    return cur, part


def stamped(sys_, x, coef):
    """The device residual inc @ currents and the device Jacobian
    jst @ partials at x, both extended by the ground slot."""
    cur, part = device_slots(sys_, x, coef)
    dim = sys_.size + 1
    return sys_.inc @ cur, (sys_.jst @ part).reshape(dim, dim)


def stage_jacobian(sys_, stage, y):
    """The Jacobian of the stage at the step state y, over the unknowns,
    assembled as a bound solver writes it: the constant J0 with the
    entries a device touches from the stamp rows Jt."""
    size = sys_.size
    js = stage.J0.copy()
    js[sys_.touched] = stage.Jt @ y[sys_.jac]
    return js.reshape(size, size)


def dense_jacobian_stamps(sys_, coef):
    """Jm = [jst w | a0] of a stage at coef over the unknown rows, every
    entry of the Jacobian included (engine module docstring): the
    Jacobian at y is (Jm @ y[sys_.jac]) as size x size."""
    size, dim = sys_.size, sys_.size + 1
    w = np.ones(sys_.inc.shape[1])
    w[len(sys_.mos):] = coef
    jst = sys_.jst.reshape(dim, dim, -1)[:size, :size] * np.repeat(w, 2)
    a0 = (sys_.a_static + coef * sys_.a_react)[:size, :size]
    return np.hstack([jst.reshape(size * size, -1), a0.reshape(-1, 1)])


def assert_jacobian_matches_finite_difference(sys_, x, coef):
    """The assembled Jacobian against a centred difference of the
    assembled residual, over the unknowns (the ground slot excluded)."""
    size = sys_.size
    step = 1e-6
    fd = np.zeros((size, size))
    for col in range(size):
        hi, lo = x.copy(), x.copy()
        hi[col] += step
        lo[col] -= step
        fd[:, col] = ((stamped(sys_, hi, coef)[0]
                       - stamped(sys_, lo, coef)[0])[:size] / (2.0 * step))
    analytic = stamped(sys_, x, coef)[1][:size, :size]
    np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)
    return analytic


@pytest.mark.parametrize("region", sorted(BIASES))
def test_mos_jacobian_matches_finite_difference(region):
    net, sys_ = device_system(mos=[("dn", "gn", "sn", NMOS),
                                   ("dp", "gp", "sp", PMOS)])
    v_gs, v_ds = BIASES[region]
    volts = {}
    for tag, sign, v_s in (("n", 1.0, 0.1), ("p", -1.0, 0.6)):
        volts[f"s{tag}"] = v_s
        volts[f"g{tag}"] = v_s + sign * v_gs
        volts[f"d{tag}"] = v_s + sign * v_ds
    x = at_voltages(net, sys_, volts)

    coef = 2.0 / DEVICE_DT_S
    f, _ = stamped(sys_, x, coef)
    for tag, params in (("n", NMOS), ("p", PMOS)):
        d, g, s = (net.node_names.index(f"{t}{tag}") for t in "dgs")
        assert f[d] == mos_eval(params, x[g] - x[s], x[d] - x[s])[0]
        assert f[s] == -f[d]

    analytic = assert_jacobian_matches_finite_difference(sys_, x, coef)
    if region == "cutoff":
        assert not analytic.any()


# Transistors wired so that stamps accumulate on shared slots, land in
# the ground slot, or meet twice in one column difference, at node
# voltages that keep every device clear of a region boundary.
WIRINGS = {
    # an inverter between two sources: drains and gates shared
    "shared_terminals": (
        [("out", "in", "sn", NMOS), ("out", "in", "sp", PMOS)],
        {"in": 0.5, "out": 0.3, "sn": 0.0, "sp": 0.8}),
    # the n-channel source and the p-channel gate on ground: the ground
    # slot's row and its column
    "ground_terminals": (
        [("dn", "gn", "gnd", NMOS), ("dp", "gnd", "sp", PMOS)],
        {"dn": 0.2, "gn": 0.7, "dp": 0.5, "sp": 0.7}),
    # gate tied to the terminal named source, conducting in reverse: the
    # g - s difference is one slot and must cancel
    "gate_on_source": (
        [("dn", "gs", "gs", NMOS)], {"dn": 0.0, "gs": 0.6}),
}


@pytest.mark.parametrize("wiring", sorted(WIRINGS))
def test_wired_mos_stamps_match_references(wiring):
    """The residual against a per-device loop (at most two terms meet on
    a row, so the sums are exact in any order), the Jacobian against a
    finite difference."""
    mos, volts = WIRINGS[wiring]
    net, sys_ = device_system(mos=mos)
    x = at_voltages(net, sys_, volts)
    expected = np.zeros(sys_.size + 1)
    for d, g, s, params in mos:
        d, g, s = (GROUND if t == "gnd" else net.node_names.index(t)
                   for t in (d, g, s))
        i_d = mos_eval(params, x[g] - x[s], x[d] - x[s])[0]
        assert i_d != 0.0  # no device is cut off
        expected[d] += i_d
        expected[s] -= i_d
    coef = 2.0 / DEVICE_DT_S
    np.testing.assert_array_equal(stamped(sys_, x, coef)[0], expected)
    assert_jacobian_matches_finite_difference(sys_, x, coef)


def test_varactor_jacobian_matches_finite_difference():
    """The control on a node pair exercises the cp/cn columns, which a
    grounded control never reaches."""
    model = VaractorModel(c_min=1e-12, c_max=3e-12, v_lo=0.0, v_hi=0.7)
    net, sys_ = device_system(varactors=[("a", "b", "cp", "cn", model)])
    x = at_voltages(net, sys_, {"a": 0.45, "b": 0.2, "cp": 0.5, "cn": 0.2})
    coef = 2.0 / DEVICE_DT_S
    f, _ = stamped(sys_, x, coef)
    a, b, cp, cn = (net.node_names.index(n) for n in ("a", "b", "cp", "cn"))
    v_sig, v_ctl = x[a] - x[b], x[cp] - x[cn]
    assert f[a] == coef * varactor_eval(model, v_ctl)[0] * v_sig
    assert f[b] == -f[a]
    analytic = assert_jacobian_matches_finite_difference(sys_, x, coef)
    # the charge moves with the control: the cp/cn columns are live
    assert analytic[a, cp] > 0 and analytic[a, cn] == -analytic[a, cp]


class TestStageAtAnyCoefficient:
    """A stage weighs the device slots by its own coefficient, so one
    builds at any coefficient, 0 (the static system) included.  Its
    products over y are checked against stamps summed by hand, with each
    transistor from mos_eval and the varactor from varactor_eval on its
    netlist element, each within 1e-14 of its row's magnitude."""

    VARACTOR = VaractorModel(c_min=1e-12, c_max=3e-12, v_lo=0.0, v_hi=0.7)
    # both transistors conduct, and the control sits inside the varactor's
    # range, so every partial is non-zero
    VOLTS = {"vdd": 0.7, "in": 0.35, "out": 0.4, "tank": 0.55, "cp": 0.5,
             "cn": 0.2}
    COEF = 2.0 / DEVICE_DT_S

    def netlist(self) -> Netlist:
        """n- and p-channel transistors, a varactor controlled by a node
        pair, a capacitor, an inductor and a supply."""
        net = Netlist()
        net.add_vsource("vdd", "gnd", 0.7, label="vdd")
        net.add_mos("out", "in", "gnd", NMOS, label="mn")
        net.add_mos("out", "in", "vdd", PMOS, label="mp")
        net.add_varactor("out", "tank", "cp", "cn", self.VARACTOR, label="cv")
        net.add_capacitor("tank", "gnd", 1e-12, label="c")
        net.add_inductor("tank", "vdd", 2e-9, label="l")
        for node in ("in", "cp", "cn", "out"):
            net.add_resistor(node, "gnd", 1e3, label=f"r_{node}")
        return net

    def point(self):
        """The system, its step state y at VOLTS with seeded branch
        currents and b, and the hand-summed references over the extended
        rows: the transistor currents and Jacobian, the varactor charge
        and Jacobian, and the magnitudes summed into each."""
        net = self.netlist()
        sys_ = engine._System(net)
        dim = sys_.size + 1
        x = at_voltages(net, sys_, self.VOLTS)
        rng = np.random.default_rng(7)
        x[sys_.n:sys_.size] = rng.normal(scale=1e-3, size=sys_.m)
        b = rng.normal(scale=1e-3, size=sys_.size)
        y = np.zeros(sys_.ylen)
        y[:dim] = x
        y[sys_.dev] = engine._devices(sys_)(x.tolist())
        y[sys_.dev.stop] = 1.0
        y[sys_.rhs] = b

        ref = {k: np.zeros(dim) for k in ("i_mos", "i_mag", "q", "q_mag")}
        ref |= {k: np.zeros((dim, dim)) for k in ("j_mos", "j_var")}
        for e in net.elements:
            if isinstance(e, Mos):
                i_d, g_m, g_ds = mos_eval(e.params, x[e.g] - x[e.s],
                                          x[e.d] - x[e.s])
                assert i_d != 0.0 and g_m != 0.0
                for row, sign in ((e.d, 1.0), (e.s, -1.0)):
                    ref["i_mos"][row] += sign * i_d
                    ref["i_mag"][row] += abs(i_d)
                    for col, g in ((e.g, g_m), (e.d, g_ds),
                                   (e.s, -g_m - g_ds)):
                        ref["j_mos"][row, col] += sign * g
            elif isinstance(e, Varactor):
                v_ab = x[e.a] - x[e.b]
                c, dc_dv = varactor_eval(e.model, x[e.cp] - x[e.cn])
                assert dc_dv != 0.0
                for row, sign in ((e.a, 1.0), (e.b, -1.0)):
                    ref["q"][row] += sign * c * v_ab
                    ref["q_mag"][row] += abs(c * v_ab)
                    for col, g in ((e.a, c), (e.b, -c), (e.cp, v_ab * dc_dv),
                                   (e.cn, -v_ab * dc_dv)):
                        ref["j_var"][row, col] += sign * g
        return sys_, x, b, y, ref

    def test_static_stage_is_the_dc_residual_and_jacobian(self):
        sys_, x, b, y, ref = self.point()
        size = sys_.size
        stage = sys_.stage(0.0, self.COEF)
        a_static = sys_.a_static[:size]

        f = a_static @ x + ref["i_mos"][:size] - b
        mag = np.abs(a_static) @ np.abs(x) + ref["i_mag"][:size] + np.abs(b)
        assert np.all(np.abs(stage.F @ y - f) <= 1e-14 * mag)

        jac = a_static[:, :size] + ref["j_mos"][:size, :size]
        js = stage_jacobian(sys_, stage, y)
        row_mag = (np.abs(a_static[:, :size])
                   + np.abs(ref["j_mos"][:size, :size])).max(axis=1)
        assert np.all(np.abs(js - jac) <= 1e-14 * row_mag[:, None])
        # the varactor carries no current at coef 0
        out, cp = (sys_.net.node_names.index(n) for n in ("out", "cp"))
        assert js[out, cp] == 0.0

    def test_charge_map_is_the_linear_charge_plus_the_varactors(self):
        sys_, x, _, y, ref = self.point()
        size = sys_.size
        a_react = sys_.a_react[:size]
        q = a_react @ x + ref["q"][:size]
        mag = np.abs(a_react) @ np.abs(x) + ref["q_mag"][:size]
        assert np.all(np.abs(sys_.q_map @ y - q) <= 1e-14 * mag)
        assert ref["q"].any()

    def test_a_stage_adds_its_coefficient_times_the_charge(self):
        sys_, x, b, y, ref = self.point()
        size = sys_.size
        static, stage = sys_.stage(0.0, 0.0), sys_.stage(self.COEF, self.COEF)
        q = sys_.q_map @ y
        f_static = static.F @ y
        mag = (np.abs(f_static) + self.COEF * np.abs(q)
               + np.abs(stage.F) @ np.abs(y))
        assert np.all(np.abs(stage.F @ y - (f_static + self.COEF * q))
                      <= 1e-14 * mag)

        a0 = sys_.a_static + self.COEF * sys_.a_react
        jac = (a0 + ref["j_mos"] + self.COEF * ref["j_var"])[:size, :size]
        row_mag = (np.abs(a0) + np.abs(ref["j_mos"])
                   + self.COEF * np.abs(ref["j_var"]))[:size, :size].max(axis=1)
        js = stage_jacobian(sys_, stage, y)
        assert np.all(np.abs(js - jac) <= 1e-14 * row_mag[:, None])

    def test_linearization_is_the_static_and_the_charge_jacobian(self):
        """G is the static Jacobian, and C the Jacobian of the charge with
        the varactor's v_ab dC/dv on its control pair."""
        sys_, _, _, y, ref = self.point()
        size = sys_.size
        g, c = sys_.linearize(y)
        for got, linear, device in ((g, sys_.a_static, ref["j_mos"]),
                                    (c, sys_.a_react, ref["j_var"])):
            want = (linear + device)[:size, :size]
            row_mag = (np.abs(linear)
                       + np.abs(device))[:size, :size].max(axis=1)
            assert np.all(np.abs(got - want) <= 1e-14 * row_mag[:, None])
        out, cp = (sys_.net.node_names.index(n) for n in ("out", "cp"))
        assert c[out, cp] != 0.0

    def test_history_opens_at_the_initial_charge_over_h(self, monkeypatch):
        """The first step's b is q(x_0)/h: the recursion from b_0 = 0 and
        c_0 = 0, with the varactor starting charged."""
        net = self.netlist()
        for name, v in self.VOLTS.items():
            net.set_initial_voltage(name, v)
        sys_ = engine._System(net)
        seen = []

        def spy(newton, run_sys, stage, y, t):
            seen.append(y[sys_.rhs].copy())
            return newton(stage, t)

        spy_newton(monkeypatch, spy)
        h = 1e-12
        transient(net, SimConfig(dt_s=h, t_stop_s=2 * h))
        x0 = sys_.x_init
        q0 = sys_.a_react @ x0
        for e in net.elements:
            if isinstance(e, Varactor):
                charge = (varactor_eval(e.model, x0[e.cp] - x0[e.cn])[0]
                          * (x0[e.a] - x0[e.b]))
                q0[e.a] += charge
                q0[e.b] -= charge
        b1 = (1.0 / h) * q0[:sys_.size]
        # the supply row of b is the source value, not history
        vdd_row = sys_.vsources[0][0]
        b1[vdd_row] = 0.7
        assert np.array_equal(seen[0], b1)
        assert b1[net.node_names.index("out")] != 0.0


@pytest.mark.parametrize("case", sorted(QVCO_CASES))
def test_reruns_are_bit_identical(case, toroidal_model):
    buffers, unknowns = QVCO_CASES[case]
    first = four_period_run(case)
    second = qvco_run(toroidal_model, buffers=buffers)
    assert len(first.voltages) + len(first.currents) == unknowns
    assert np.array_equal(first.time_s, second.time_s)
    for traces_a, traces_b in ((first.voltages, second.voltages),
                               (first.currents, second.currents)):
        assert traces_a.keys() == traces_b.keys()
        for name in traces_a:
            assert np.array_equal(traces_a[name], traces_b[name]), name


def stepped(net: Netlist) -> Netlist:
    """The netlist with every source switched on at t = 0, not ramped."""
    net.elements = [dataclasses.replace(e, ramp_s=0.0)
                    if isinstance(e, VSource) else e for e in net.elements]
    return net


class TestFirstStep:
    def built(self, case, toroidal_model) -> Netlist:
        qvco = dict(transformer=toroidal_model, c_parasitic_f=4.4e-12)
        params = {
            "tc-qvco": qvco,
            "tc-qvco-loaded": dict(
                qvco, buffers=BufferParams(), array=TuningArray(1e-12, "11"),
                varactor=VaractorModel(c_min=1e-12, c_max=3e-12, v_lo=0.0,
                                       v_hi=0.7), v_ctrl_v=0.3),
            "lc-vco": PLAIN_TANK,
            "cr-vco": PLAIN_TANK,
            "tf-vco": dict(transformer=toroidal_model, c_tank_f=1e-12),
        }[case]
        return build_netlist(case.removesuffix("-loaded"),
                             TopologyParams(**params))

    @pytest.mark.parametrize("dt_s", [1e-13, 1e-12, 1e-11, 1e-10, 1e-9])
    @pytest.mark.parametrize("case", ["tc-qvco", "tc-qvco-loaded", "lc-vco",
                                      "cr-vco", "tf-vco"])
    def test_stepped_supplies_converge(self, case, dt_s, toroidal_model):
        net = stepped(self.built(case, toroidal_model))
        wave = transient(net, SimConfig(dt_s=dt_s, t_stop_s=2 * dt_s))
        v_dd = TopologyParams().v_dd_v
        assert wave.voltages["vdd"][1] == pytest.approx(v_dd, rel=1e-12)

    @pytest.mark.parametrize("hard_turn_on", [False, True])
    def test_failure_propagates(self, monkeypatch, toroidal_model,
                                hard_turn_on):
        calls = []

        def failing(*args):
            calls.append(None)
            raise NumericFailure("injected Newton failure")

        net = self.built("tc-qvco", toroidal_model)
        if hard_turn_on:
            stepped(net)
        spy_newton(monkeypatch, failing)
        with pytest.raises(NumericFailure, match="^injected Newton failure$"):
            transient(net, SimConfig(dt_s=2e-12, t_stop_s=2e-11))
        assert len(calls) == 1

    def test_engine_adds_no_startup_seed(self):
        net = Netlist()
        net.add_resistor("V_o1", "gnd", 1e3)
        net.add_capacitor("V_o1", "gnd", 1e-12)
        wave = transient(net, SimConfig(dt_s=1e-12, t_stop_s=1e-11))
        assert not wave.voltages["V_o1"].any()  # 0 V from t = 0 on


class TestSingularLinearSystem:
    def test_parallel_voltage_sources_raise(self):
        # 1 V and 2 V forced across the same node pair: no solution exists.
        net = Netlist()
        net.add_vsource("a", "gnd", 1.0, label="v1")
        net.add_vsource("a", "gnd", 2.0, label="v2")
        net.add_resistor("a", "gnd", 1e3)
        with pytest.raises(NumericFailure, match="singular"):
            transient(net, SimConfig(dt_s=1e-12, t_stop_s=1e-10))

    def test_singular_dc_point_raises(self):
        """small_signal's Newton at the DC point takes the singular
        matrix's message, as transient's does."""
        net = Netlist()
        net.add_vsource("a", "gnd", 1.0, label="v1")
        net.add_vsource("a", "gnd", 2.0, label="v2")
        net.add_resistor("a", "gnd", 1e3)
        with pytest.raises(NumericFailure, match="^" + re.escape(
                "MNA matrix is singular (structurally ill-posed netlist)")
                + "$"):
            small_signal(net)

    def assert_dead(self, net, name):
        with pytest.raises(NumericFailure, match="^" + re.escape(
                f"MNA matrix is singular: no finite stamp at {name}") + "$"):
            transient(net, SimConfig(dt_s=1e-12, t_stop_s=1e-10))

    def test_undriven_varactor_control_is_named(self):
        # ctl only senses: no current flows into it, and at 0 V the
        # clamped C(v) has no slope, so its row and column are zero
        net = Netlist()
        net.add_vsource("a", "gnd", 1.0)
        net.add_resistor("a", "gnd", 1e3)
        net.add_varactor("a", "gnd", "ctl", "gnd", VaractorModel(
            c_min=1e-12, c_max=3e-12, v_lo=0.0, v_hi=0.7))
        self.assert_dead(net, "ctl")

    def test_shorted_source_branch_is_named(self):
        # both terminals on ground: every stamp of the branch lands in
        # the ground slot
        net = Netlist()
        net.add_vsource("gnd", "gnd", 1.0, label="v_shorted")
        net.add_resistor("a", "gnd", 1e3)
        self.assert_dead(net, "branch v_shorted")


def trapezoidal_coef(toroidal_model):
    """The integrator coefficient 2/h of every step of a qvco_run after
    the first."""
    return 2.0 / qvco_config(toroidal_model).dt_s


def count_solves(monkeypatch):
    """Count the engine's linear solves by replacing engine._solve, the
    one function that makes them."""
    calls = []
    solve = engine._solve

    def counted(a, b):
        calls.append(None)
        return solve(a, b)

    monkeypatch.setattr(engine, "_solve", counted)
    return calls


def spy_newton(monkeypatch, around):
    """Route every Newton call of the runs that follow through
    around(newton, sys_, stage, y, t), with newton the solver that
    engine._newton bound for the run, sys_ and y what it bound to.
    Returns the bindings' systems, one per engine._newton call."""
    bind, bound = engine._newton, []

    def spied(sys_, y):
        newton = bind(sys_, y)
        bound.append(sys_)
        return lambda stage, t: around(newton, sys_, stage, y, t)

    monkeypatch.setattr(engine, "_newton", spied)
    return bound


class TestNewtonStartPoint:
    """At recorded.mid_run_step, a mid-run Newton call of the 4-period
    tc-qvco run."""

    @staticmethod
    def started(sys_, y, x0):
        """A copy of the step state y with x0 as the Newton start."""
        y0 = y.copy()
        y0[:sys_.size + 1] = x0
        return y0

    def test_start_point_moves_only_the_iteration_count(
            self, monkeypatch, toroidal_model):
        (sys_, stage, y, t), x_acc = mid_run_step()
        coef = trapezoidal_coef(toroidal_model)
        assert np.array_equal(stage.F, sys_.stage(coef, coef).F)
        dim = sys_.size + 1
        # how far apart the two start points lie is a recorded figure
        x_ext, x_prev = y[:dim].copy(), x_acc

        results, solves = {}, {}
        for name, x0 in (("previous", x_prev), ("extrapolated", x_ext)):
            calls = count_solves(monkeypatch)
            y0 = self.started(sys_, y, x0)
            n_solves = engine._newton(sys_, y0)(stage, t)
            results[name] = (y0, sys_.f.copy())
            solves[name] = len(calls)
            assert n_solves == solves[name], name

        for name, (y_acc, f) in results.items():
            # the engine's own residual and acceptance, recomputed from
            # the accepted x with fresh device values
            y_new = y_acc.copy()
            y_new[sys_.dev] = engine._devices(sys_)(y_acc[:dim].tolist())
            assert np.array_equal(stage.F @ y_new, f), name
            assert np.all(np.abs(f) <= stage.R @ np.abs(y_new)), name
            assert np.abs(f[:sys_.n]).max() <= engine.KCL_ABS_A, name
        nodes_prev = results["previous"][0][:sys_.n]
        nodes_ext = results["extrapolated"][0][:sys_.n]
        np.testing.assert_allclose(nodes_ext, nodes_prev, rtol=0, atol=1e-6)
        assert solves["extrapolated"] < solves["previous"]

    def test_fused_products_match_the_stamps(self, toroidal_model):
        """At a mid-run accepted point, the stage's three products over y
        against the stamps they fuse: the residual a0 x - b + inc @ cur
        with every transistor current from mos_eval on its netlist
        element, the acceptance reference NEWTON_ABS + NEWTON_REL
        (|a0| |x| + |b|), and the Jacobian a0 + jst @ partials; each
        within 1e-14 of its row's magnitude."""
        (sys_, stage, y, t), _ = mid_run_step()
        engine._newton(sys_, y)(stage, t)
        size, dim = sys_.size, sys_.size + 1
        x, b = y[:dim], y[sys_.rhs]
        mos = [e for e in sys_.net.elements if isinstance(e, Mos)]
        assert len(mos) == sys_.inc.shape[1] == 4 and not sys_.varactors
        cur = np.array([mos_eval(e.params, x[e.g] - x[e.s], x[e.d] - x[e.s])[0]
                        for e in mos])
        a0 = (sys_.a_static
              + trapezoidal_coef(toroidal_model) * sys_.a_react)[:size]
        f = a0 @ x - b + sys_.inc[:size] @ cur
        magnitude = (np.abs(a0) @ np.abs(x) + np.abs(b)
                     + np.abs(sys_.inc[:size]) @ np.abs(cur))
        assert np.all(np.abs(stage.F @ y - f) <= 1e-14 * magnitude)
        assert np.abs(f[:sys_.n]).max() > 0.0  # the devices do count

        ref = engine.NEWTON_ABS + engine.NEWTON_REL * (
            np.abs(a0) @ np.abs(x) + np.abs(b))
        assert np.all(np.abs(stage.R @ np.abs(y) - ref) <= 1e-14 * ref)

        part = y[sys_.dev][len(cur):]
        stamps = (sys_.jst @ part).reshape(dim, dim)[:size, :size]
        jac = a0[:, :size] + stamps
        row_mag = (np.abs(a0[:, :size]) + np.abs(stamps)).max(axis=1)
        js = stage_jacobian(sys_, stage, y)
        assert np.all(np.abs(js - jac) <= 1e-14 * row_mag[:, None])

    @pytest.mark.parametrize("start", ["previous", "extrapolated"])
    def test_solve_gives_the_newton_update(
            self, start, monkeypatch, toroidal_model):
        """The engine's first update from a mid-run start point is the
        Newton update on the Jacobian summed by hand from the stamps."""
        (sys_, stage, y, t), x_acc = mid_run_step()
        size, dim = sys_.size, sys_.size + 1
        x0 = {"previous": x_acc, "extrapolated": y[:dim].copy()}[start]
        y0 = self.started(sys_, y, x0)
        coef = trapezoidal_coef(toroidal_model)
        cur, part = device_slots(sys_, x0, coef)
        y0[sys_.dev] = np.concatenate([cur, part])
        # the engine's residual (test_fused_products_match_the_stamps
        # checks it against the stamps), the Jacobian by hand
        f = stage.F @ y0
        a0 = sys_.a_static + coef * sys_.a_react
        jac = (a0 + (sys_.jst @ part).reshape(dim, dim))[:size, :size]
        expected = np.linalg.solve(jac, -f)

        solve, updates = engine._solve, []

        def recorded(a, rhs):
            dx = solve(a, rhs)
            updates.append(-dx)  # the engine steps x by -dx
            return dx

        monkeypatch.setattr(engine, "_solve", recorded)
        engine._newton(sys_, y0)(stage, t)
        scale = np.abs(expected).max()
        assert scale > 0.0
        assert np.abs(updates[0] - expected).max() <= 1e-12 * scale


class TestScratchArrays:
    """Newton writes its intermediates into arrays the _System
    owns, and none of that may show: a deep copy of a system steps
    exactly like the system, and the screen for a non-finite update
    neither refuses a finite one nor lets a NaN or inf one through."""

    def mid_run(self, monkeypatch, toroidal_model):
        """The system and stage of a tc-qvco run themselves, not copies,
        with a copy of the step state y (its x predicted) and t of one
        mid-run Newton call."""
        calls = []
        real = engine._newton

        def spy(newton, sys_, stage, y, t):
            calls.append((sys_, stage, y.copy(), t)
                         if len(calls) == MID_STEP else None)
            return newton(stage, t)

        spy_newton(monkeypatch, spy)
        qvco_run(toroidal_model)
        monkeypatch.setattr(engine, "_newton", real)
        return calls[MID_STEP]

    def test_deep_copy_steps_like_the_original(self, monkeypatch,
                                               toroidal_model):
        sys_, stage, y, t = self.mid_run(monkeypatch, toroidal_model)
        twin_sys, twin_stage = copy.deepcopy((sys_, stage))
        results = []
        for s, st in ((sys_, stage), (twin_sys, twin_stage), (sys_, stage)):
            y_run = y.copy()
            solves = engine._newton(s, y_run)(st, t)
            results.append((y_run, s.f.copy(), solves))
        (y_a, f_a, n_a), (y_b, f_b, n_b), (y_c, f_c, n_c) = results
        assert n_a == n_b == n_c >= 1
        assert np.array_equal(y_a, y_b) and np.array_equal(f_a, f_b)
        assert np.array_equal(y_a, y_c) and np.array_equal(f_a, f_c)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_update_fails_at_the_first_solve(
            self, bad, monkeypatch, toroidal_model):
        sys_, stage, y, t = self.mid_run(monkeypatch, toroidal_model)
        solve, calls = engine._solve, []

        def one_bad_entry(a, rhs):
            calls.append(None)
            dx = solve(a, rhs)
            dx[3] = bad
            return dx

        monkeypatch.setattr(engine, "_solve", one_bad_entry)
        with pytest.raises(NumericFailure, match=re.escape(
                f"non-finite Newton update at t = {t:.6e} s")):
            engine._newton(sys_, y.copy())(stage, t)
        assert len(calls) == 1

    def test_finite_update_with_overflowing_square_sum_passes(
            self, monkeypatch):
        """An update of 1e160 V squares past the largest float, but
        every entry is finite: the screen passes it without an overflow
        warning (which the suite turns into an error), and Newton takes
        the step and walks back to the run it would have made."""
        cfg = SimConfig(dt_s=5e-12, t_stop_s=1e-10)
        reference = transient(rc_netlist(), cfg)
        solve, calls = engine._solve, []

        def first_overshoots(a, rhs):
            calls.append(None)
            dx = solve(a, rhs)
            return dx + 1e160 if len(calls) == 1 else dx

        monkeypatch.setattr(engine, "_solve", first_overshoots)
        wave = transient(rc_netlist(), cfg)
        assert wave.linear_solves == len(calls) > reference.linear_solves
        np.testing.assert_allclose(wave.voltages["a"],
                                   reference.voltages["a"], rtol=0, atol=1e-9)


# The topology matrix of tests/test_topologies.py: each topology as it
# is, with its output buffers, with each code of a tuning array, and
# loaded with the buffers, the "11" array and a varactor.
MATRIX_VARIANTS = {
    "plain": {},
    "buffered": dict(buffers=BufferParams()),
    **{f"array-{code}": dict(array=TuningArray(1e-12, code))
       for code in ("00", "01", "11")},
    "loaded": dict(buffers=BufferParams(), array=TuningArray(1e-12, "11"),
                   varactor=VaractorModel(c_min=1e-12, c_max=3e-12,
                                          v_lo=0.0, v_hi=0.7),
                   v_ctrl_v=0.3),
}


@pytest.mark.parametrize("variant", sorted(MATRIX_VARIANTS))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_every_solve_sees_the_dense_jacobian(topology, variant, monkeypatch,
                                             toroidal_model):
    """A bound solver writes only the Jacobian entries a device touches,
    over the constant part of the stage it last held; every solve must
    still see Jm @ y[jac] as size x size bit for bit.  Checked over an
    8-step run with stepped supplies (backward Euler, then trapezoidal),
    then from its last step state with two solvers bound on the run's
    system and one on a deep copy of it, called in turn with either
    stage, each solver at times with the stage it held before another
    solver last switched."""
    fields = (dict(transformer=toroidal_model, c_tank_f=1e-12)
              if topology in ("tf-vco", "tc-qvco") else dict(PLAIN_TANK))
    net = stepped(build_netlist(topology, TopologyParams(
        **fields, **MATRIX_VARIANTS[variant])))
    h = 2.5e-12
    active, checks, stamps = [], [], {}  # active: the solver being called

    def checked(js, f):
        sys_, y, coef = active[-1]
        key = (id(sys_), coef)
        if key not in stamps:
            stamps[key] = dense_jacobian_stamps(sys_, coef)
        want = (stamps[key] @ y[sys_.jac]).reshape(sys_.size, sys_.size)
        checks.append((coef, js.tobytes() == want.tobytes(),
                       bool(y[sys_.jac][:-1].any())))
        return solve(js, f)

    bind, runs = engine._newton, []

    def around(newton, sys_, stage, y, t):
        active.append((sys_, y, (1.0 if not runs else 2.0) / h))
        runs.append((sys_, y.copy(), t))
        return newton(stage, t)

    solve = engine._solve
    monkeypatch.setattr(engine, "_solve", checked)
    spy_newton(monkeypatch, around)
    transient(net, SimConfig(dt_s=h, t_stop_s=8 * h))
    assert len(runs) == 8

    sys_, y, t = runs[-1]
    solvers = {}
    for name, s in (("a", sys_), ("b", sys_), ("copy", copy.deepcopy(sys_))):
        y_s = y.copy()
        stages = {c: s.stage(c / h, 2.0 / h) for c in (1.0, 2.0)}
        solvers[name] = (s, y_s, bind(s, y_s), stages)
    order = [("a", 1.0), ("b", 2.0), ("a", 1.0), ("copy", 2.0), ("b", 2.0),
             ("a", 2.0), ("b", 1.0), ("a", 2.0), ("copy", 1.0),
             ("copy", 1.0)]
    with np.errstate(all="ignore"):
        for name, c in order:
            s, y_s, newton, stages = solvers[name]
            active.append((s, y_s, c / h))
            newton(stages[c], t)

    assert len(checks) >= len(runs) + len(order)
    assert all(same for _, same, _ in checks)
    assert {coef for coef, _, _ in checks} == {1.0 / h, 2.0 / h}
    assert any(moving for _, _, moving in checks)  # the devices do stamp


def test_qvco_needs_about_one_solve_per_step(monkeypatch, toroidal_model):
    calls = count_solves(monkeypatch)
    wave = qvco_run(toroidal_model)
    steps = len(wave.time_s) - 1
    # Newton always solves at least once, so this also fails if the
    # engine stops solving through engine._solve.
    assert steps <= len(calls) <= 1.2 * steps


@pytest.mark.parametrize("case", sorted(QVCO_CASES))
def test_solve_matches_numpy_bit_for_bit(case, monkeypatch, toroidal_model):
    """engine._solve calls numpy's private gesv gufunc; on a mid-run
    Jacobian of the tc-qvco it must give np.linalg.solve's update to the
    bit, so a numpy release that changes the gufunc fails here instead of
    moving a trace."""
    buffers, unknowns = QVCO_CASES[case]
    solve, systems = engine._solve, []

    def recorded(a, rhs):
        systems.append((a.copy(), rhs.copy()))
        return solve(a, rhs)

    monkeypatch.setattr(engine, "_solve", recorded)
    qvco_run(toroidal_model, buffers=buffers)
    monkeypatch.setattr(engine, "_solve", solve)
    js, f = systems[len(systems) // 2]
    assert js.shape == (unknowns, unknowns) and js.dtype == f.dtype == float
    assert solve(js, f).tobytes() == np.linalg.solve(js, f).tobytes()


@pytest.mark.parametrize("case", sorted(QVCO_CASES))
def test_run_reports_its_solves_and_iterations(case, monkeypatch,
                                               toroidal_model):
    buffers, unknowns = QVCO_CASES[case]
    calls = count_solves(monkeypatch)
    wave = qvco_run(toroidal_model, buffers=buffers)
    assert len(wave.voltages) + len(wave.currents) == unknowns
    steps = len(wave.time_s) - 1
    assert wave.linear_solves == len(calls)
    # a step's last iteration accepts the residual without a solve
    assert wave.newton_iterations == len(calls) + steps
    hist = wave.solve_histogram
    assert sum(hist) == steps
    assert sum(k * n for k, n in enumerate(hist)) == wave.linear_solves
    assert hist[0] == 0 and hist[-1] > 0


def test_worst_kcl_residual_is_the_largest_accepted_node_row(
        monkeypatch, toroidal_model):
    """kcl_max_a is the largest node-row residual over the accepted
    steps, recomputed here as F y from each accepted step state, and it
    stays within Newton's acceptance cap KCL_ABS_A."""
    worst = []

    def recorded(newton, sys_, stage, y, t):
        out = newton(stage, t)
        worst.append(float(np.abs((stage.F @ y)[:sys_.n]).max()))
        return out

    spy_newton(monkeypatch, recorded)
    wave = qvco_run(toroidal_model)
    assert len(worst) == len(wave.time_s) - 1
    assert wave.kcl_max_a == max(worst)
    assert 0.0 < wave.kcl_max_a <= engine.KCL_ABS_A


@pytest.mark.parametrize("evaluation", [0, 1], ids=["start", "second"])
@pytest.mark.parametrize("bad_step", [1, 7])
def test_nan_device_value_stops_the_run_at_its_step(bad_step, evaluation,
                                                    monkeypatch):
    """A transistor current that turns NaN at step k, on the step's first
    device evaluation or on its second (the one a one-solve step
    accepts), is never accepted: transient raises NumericFailure at t_k
    and returns no waveforms."""
    net = Netlist()
    net.add_vsource("vdd", "gnd", 0.7)
    net.add_resistor("vdd", "d", 1e3)
    net.add_capacitor("d", "gnd", 1e-12)
    net.add_mos("d", "vdd", "gnd", NMOS)
    cfg = SimConfig(dt_s=1e-12, t_stop_s=1e-11)
    times, evaluations = [], []  # per step: its t, its evaluations so far
    bind_devices = engine._devices

    def timed(newton, sys_, stage, y, t):
        times.append(t)
        evaluations.append(0)
        return newton(stage, t)

    def nan_at_bad_step(sys_):
        devices = bind_devices(sys_)

        def evaluated(v):
            values = devices(v)
            if len(times) == bad_step:
                if evaluations[-1] == evaluation:
                    values[0] = math.nan  # the transistor's current
                evaluations[-1] += 1
            return values
        return evaluated

    spy_newton(monkeypatch, timed)
    monkeypatch.setattr(engine, "_devices", nan_at_bad_step)
    t_bad = cfg.dt_s * bad_step
    with pytest.raises(NumericFailure, match="^" + re.escape(
            f"non-finite Newton update at t = {t_bad:.6e} s") + "$"):
        transient(net, cfg)
    assert times[-1] == t_bad and len(times) == bad_step


def test_solve_counts_are_read_from_the_histogram():
    """Waveforms stores only the histogram, so no count can contradict
    it: three steps of one solve and two of two are 7 solves and 12
    iterations."""
    wave = engine.Waveforms(time_s=np.arange(6.0), voltages={}, currents={},
                            solve_histogram=(0, 3, 2))
    assert (wave.linear_solves, wave.newton_iterations) == (7, 12)
    with pytest.raises(TypeError):
        engine.Waveforms(time_s=np.arange(6.0), voltages={}, currents={},
                         solve_histogram=(0, 3, 2), linear_solves=0)


@pytest.mark.parametrize("histogram, message", [
    ((5, -2, 1), "waveforms field solve_histogram[1] must be non-negative"),
    ((0, 2, 2), "solve histogram counts 4 steps, not 3"),
    ((math.nan, 3), "waveforms field solve_histogram[0] is not a finite number"),
    ((0, True, 2), "waveforms field solve_histogram[1] is not a finite number"),
    ((0, 1.5, 1.5), "waveforms field solve_histogram[1] must be an integer"),
    ((0, 3.0), "waveforms field solve_histogram[1] must be an integer"),
])
def test_solve_histogram_must_count_the_steps(histogram, message):
    """A count that is not a non-negative int, or a total other than the
    grid's 3 steps, would make the solve counts contradict the run."""
    with pytest.raises(InvalidModelError, match="^" + re.escape(message) + "$"):
        engine.Waveforms(time_s=np.arange(4.0), voltages={}, currents={},
                         solve_histogram=histogram)


def test_grid_with_no_sample_is_refused():
    """An empty grid has nothing to measure, so Waveforms refuses it
    rather than leave measure_metrics a zero-size reduction."""
    with pytest.raises(InvalidModelError, match="^time grid has no sample$"):
        engine.Waveforms(time_s=np.array([]), voltages={"V_o1": np.array([])},
                         currents={})


# The linear solves and solve histograms of the 4-period tc-qvco runs and
# of the stiffest netlists of the topology matrix (recorded.py) are figures
# of tests/recorded.json.  Each histogram's steps add up to its run, and
# every step solves at least once.
def assert_solves_every_step(wave):
    hist = wave.solve_histogram
    assert sum(hist) == len(wave.time_s) - 1
    assert hist[0] == 0


@pytest.mark.parametrize("case", sorted(QVCO_CASES))
def test_four_period_runs_solve_every_step(case):
    assert_solves_every_step(four_period_run(case))


@pytest.mark.parametrize("case", sorted(STIFF_NETLISTS))
def test_stiff_netlists_solve_every_step(case):
    assert_solves_every_step(stiff_run(case))


@pytest.mark.parametrize("k", sorted(engine._PREDICTOR))
def test_predictor_is_exact_below_its_row_count(k):
    """_PREDICTOR[k] continues any polynomial of degree below k from k
    uniform samples, and the table runs to PREDICTOR_ORDER + 1 rows."""
    assert sorted(engine._PREDICTOR) == list(
        range(1, engine.PREDICTOR_ORDER + 2))
    rng = np.random.default_rng(k)
    t0, h = 0.3, 1e-3
    grid = t0 + h * np.arange(k + 1)
    for degree in range(k):
        poly = np.polynomial.Polynomial(rng.normal(size=degree + 1))
        samples = poly(grid)
        predicted = engine._PREDICTOR[k] @ samples[:k]
        assert abs(predicted - samples[k]) <= 1e-12 * abs(samples[k])


# The solve histogram of the recorded.BUFFERED_SPAN_PERIODS buffered run,
# which fixes its solves per step, is a figure of tests/recorded.json.
def test_predictor_keeps_the_buffered_qvco_near_one_solve():
    assert_solves_every_step(buffered_span_run())


def rc_netlist() -> Netlist:
    net = Netlist()
    net.add_resistor("a", "gnd", 1e3)
    net.add_capacitor("a", "gnd", 1e-12)
    net.set_initial_voltage("a", 1.0)
    return net


def test_traces_are_read_only_views_of_one_array():
    """transient hands out column views of its one solution array, not a
    copy per trace, and no trace can be written."""
    net = rc_netlist()
    net.add_vsource("in", "gnd", 1.0, label="v_in")
    net.add_resistor("in", "a", 1e3)
    wave = transient(net, SimConfig(dt_s=5e-12, t_stop_s=1e-10))
    traces = [wave.voltages["a"], wave.voltages["in"], wave.currents["I(v_in)"]]
    # sibling columns interleave without overlapping, so what they share
    # is the array that owns them
    out = traces[0].base
    assert out.shape == (len(wave.time_s), len(traces) + 1)  # + ground slot
    for trace in traces:
        assert trace.base is out and np.shares_memory(trace, out)
        assert not trace.flags.writeable


def test_linear_netlist_solves_every_step(monkeypatch):
    newton_calls = []

    def counted(newton, sys_, stage, y, t):
        newton_calls.append(None)
        return newton(stage, t)

    spy_newton(monkeypatch, counted)
    calls = count_solves(monkeypatch)
    wave = transient(rc_netlist(), SimConfig(dt_s=5e-12, t_stop_s=1e-9))
    steps = len(wave.time_s) - 1
    assert len(newton_calls) == steps
    assert len(calls) >= steps


def test_each_run_binds_its_solver_once(monkeypatch, toroidal_model):
    """transient binds one Newton solver per run and calls it once per
    step, and small_signal binds one for its DC point: no step pays for
    a binding."""
    calls = []

    def counted(newton, sys_, stage, y, t):
        calls.append(sys_)
        return newton(stage, t)

    bound = spy_newton(monkeypatch, counted)
    net = build_netlist("tc-qvco", TopologyParams(
        transformer=toroidal_model, c_parasitic_f=4.4e-12))
    for run in (lambda: transient(net, qvco_config(toroidal_model)),
                lambda: transient(rc_netlist(),
                                  SimConfig(dt_s=5e-12, t_stop_s=1e-9))):
        calls.clear()
        steps = len(run().time_s) - 1
        assert len(calls) == steps and set(calls) == {bound[-1]}
    assert len(bound) == 2
    calls.clear()
    small_signal(net)
    assert len(bound) == 3 and calls == [bound[-1]]


@pytest.mark.parametrize("case", ["buffered", "varactor"])
def test_one_binding_steps_like_a_binding_per_step(case, monkeypatch,
                                                   toroidal_model):
    """Over a 4-period run, from the backward Euler step to swinging
    cores, a solver bound once leaves after every step the y, f and solve
    count that a fresh binding per step leaves, bit for bit; the varactor
    netlist runs the device bank's varactor join."""
    if case == "buffered":
        net = build_netlist("tc-qvco", TopologyParams(
            transformer=toroidal_model, c_parasitic_f=4.4e-12,
            buffers=BufferParams()))
    else:
        net = TestFirstStep().built("tc-qvco-loaded", toroidal_model)
    assert bool(engine._System(net).varactors) == (case == "varactor")
    bind = engine._newton

    def run(solver):
        records = []

        def recorded(newton, sys_, stage, y, t):
            solves = solver(newton, sys_, y)(stage, t)
            records.append((y.tobytes(), sys_.f.tobytes(), solves))
            return solves

        spy_newton(monkeypatch, recorded)
        transient(net, qvco_config(toroidal_model))
        monkeypatch.setattr(engine, "_newton", bind)
        return records

    once = run(lambda newton, sys_, y: newton)
    fresh = run(lambda newton, sys_, y: bind(sys_, y))
    assert len(once) == 800 and once == fresh


def test_non_finite_solve_on_linear_netlist_fails(monkeypatch):
    """Newton stops at the first update that is not finite."""
    monkeypatch.setattr(engine, "_solve",
                        lambda a, b: np.full_like(b, np.nan))
    calls = count_solves(monkeypatch)
    with pytest.raises(NumericFailure, match="non-finite"):
        transient(rc_netlist(), SimConfig(dt_s=5e-12, t_stop_s=1e-9))
    assert len(calls) == 1


def test_update_that_overflows_x_to_inf_fails(monkeypatch):
    """Two finite updates of 1e308 V in a row, the third and fourth
    solves of the run, take a node past the largest float.  The run ends
    in NumericFailure at that step, not in a FloatingPointError or an
    overflow warning (which the suite turns into an error)."""
    net = Netlist()
    net.add_vsource("vdd", "gnd", 0.7)
    net.add_resistor("vdd", "d", 1e3)
    net.add_capacitor("d", "gnd", 1e-12)
    net.add_mos("d", "vdd", "gnd", NMOS)
    cfg = SimConfig(dt_s=1e-12, t_stop_s=1e-11)
    states, overflowed = [], []

    def bound(newton, sys_, stage, y, t):
        states.append((sys_, y))
        return newton(stage, t)

    solve, calls = engine._solve, []

    def overshoots(a, rhs):
        calls.append(None)
        sys_, y = states[-1]
        overflowed.append(bool(np.isinf(y[:sys_.size]).any()))
        dx = solve(a, rhs)
        return np.full_like(dx, -1e308) if len(calls) in (3, 4) else dx

    spy_newton(monkeypatch, bound)
    monkeypatch.setattr(engine, "_solve", overshoots)
    with pytest.raises(NumericFailure, match="^" + re.escape(
            f"non-finite Newton update at t = {2 * cfg.dt_s:.6e} s") + "$"):
        transient(net, cfg)
    assert overflowed == [False] * 4 + [True]


@pytest.mark.parametrize("longest", ["past_the_run", "inside_the_run"])
def test_ramped_sources_are_written_exactly(longest, monkeypatch):
    """A source whose ramp ends between grid points, one whose ramp runs
    past the run (or, in the other case, is absent) and one with no ramp:
    at every step the b row each solve sees is value_at(t) bit for bit,
    and volts once the ramp is over; the node sits there within Newton's
    tolerance.  value_at is called at every step up to the first at or
    past the last ramp's end, and never after it."""
    h, n_steps = 1e-12, 12
    ramps = {"early": 3.5 * h, "none": 0.0}
    if longest == "past_the_run":
        ramps["late"] = 40 * h
    net = Netlist()
    for k, (label, ramp_s) in enumerate(ramps.items()):
        net.add_vsource(label, "gnd", 0.7 - 0.5 * k, label=label,
                        ramp_s=ramp_s)
        net.add_resistor(label, "gnd", 1e3)
        net.add_capacitor(label, "gnd", 1e-12)
    net.add_resistor("early", "none", 2e3)
    sources = {e.label: e for e in net.elements if isinstance(e, VSource)}
    seen, called = [], []

    def spied(newton, sys_, stage, y, t):
        seen.append((t, {e.label: y[sys_.rhs][row]
                         for row, e in sys_.vsources}))
        return newton(stage, t)

    value_at = VSource.value_at
    spy_newton(monkeypatch, spied)
    monkeypatch.setattr(VSource, "value_at",
                        lambda e, t: called.append(t) or value_at(e, t))
    wave = transient(net, SimConfig(dt_s=h, t_stop_s=n_steps * h))

    assert [t for t, _ in seen] == wave.time_s[1:].tolist()
    for t, rows in seen:
        for label, e in sources.items():
            assert rows[label] == value_at(e, t), (label, t)
            if t >= e.ramp_s:
                assert rows[label] == e.volts, (label, t)
    for label, e in sources.items():
        want = np.array([value_at(e, t) for t in wave.time_s[1:]])
        np.testing.assert_allclose(wave.voltages[label][1:], want,
                                   rtol=engine.NEWTON_REL,
                                   atol=engine.NEWTON_ABS)
    last = n_steps if longest == "past_the_run" else 4  # 4 h >= 3.5 h
    assert called == [t for t in wave.time_s[1:last + 1].tolist()
                      for _ in sources]


def test_rc_discharge_on_newton_path_matches_exponential():
    """A charged capacitor discharging through a resistor, with a
    transistor held in cutoff on the same node.  The transistor's gmin
    leak is part of the time constant; trapezoidal integration (after one
    backward Euler step) stays within (h/tau)^2 of the exponential."""
    r_ohm, c_f, v0 = 10e6, 1e-12, 1.0
    net = Netlist()
    net.add_resistor("a", "gnd", r_ohm)
    net.add_capacitor("a", "gnd", c_f)
    net.add_mos("a", "gnd", "gnd", NMOS, label="m_off")  # v_gs = 0: cutoff
    net.set_initial_voltage("a", v0)
    tau = c_f / (1.0 / r_ohm + engine.GMIN)
    cfg = SimConfig(dt_s=tau / 200, t_stop_s=3.0 * tau)

    wave = transient(net, cfg)
    v = wave.voltages["a"]
    bound = v0 * (cfg.dt_s / tau) ** 2
    np.testing.assert_allclose(v, v0 * np.exp(-wave.time_s / tau),
                               rtol=0, atol=bound)
    # without the leak the time constant is r c, and the bound sees it
    assert np.abs(v - v0 * np.exp(-wave.time_s / (r_ohm * c_f))).max() > 10 * bound


def test_series_rlc_ring_down_matches_closed_form():
    """A charged capacitor ringing down through a series R and L follows
    exp(-a t) (cos w_d t + a / w_d sin w_d t) to within (w0 h)^2, and the
    error is second order in the step."""
    l_h, c_f, r_ohm = 1e-9, 2e-12, 4.0
    net = Netlist()
    net.add_capacitor("a", "gnd", c_f)
    net.add_resistor("a", "b", r_ohm)
    net.add_inductor("b", "gnd", l_h)
    net.set_initial_voltage("a", 1.0)
    w0 = 1.0 / math.sqrt(l_h * c_f)
    alpha = r_ohm / (2.0 * l_h)
    w_d = math.sqrt(w0 * w0 - alpha * alpha)
    period = 2.0 * math.pi / w0

    errors = []
    for points in (200, 400):
        h = period / points
        wave = transient(net, SimConfig(dt_s=h, t_stop_s=10 * period))
        t = wave.time_s
        exact = np.exp(-alpha * t) * (np.cos(w_d * t)
                                      + alpha / w_d * np.sin(w_d * t))
        errors.append(np.abs(wave.voltages["a"] - exact).max())
        assert errors[-1] <= (w0 * h) ** 2, points
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_lossless_lc_keeps_its_energy():
    """Trapezoidal integration of a lossless LC conserves 1/2 C v^2 +
    1/2 L i^2 to rounding; only the backward Euler first step loses
    energy."""
    l_h, c_f = 1e-9, 2e-12
    net = Netlist()
    net.add_inductor("a", "gnd", l_h, label="l")
    net.add_capacitor("a", "gnd", c_f, label="c")
    net.set_initial_voltage("a", 1.0)
    period = 2.0 * math.pi * math.sqrt(l_h * c_f)
    wave = transient(net, SimConfig(dt_s=period / 200, t_stop_s=50 * period))
    energy = (0.5 * c_f * wave.voltages["a"] ** 2
              + 0.5 * l_h * wave.currents["I(l)"] ** 2)
    assert np.abs(wave.currents["I(l)"]).max() > 0.04  # it does ring
    drift = np.abs(energy[1:] - energy[1]).max() / energy[1]
    assert drift <= 1e-11


def test_coupled_pair_matches_its_t_network():
    """Two windings from p1 and p2 to ground with mutual M behave as
    L1 - M and L2 - M from each terminal to a shared node, and M from it
    to ground; each winding's series R stays in its own arm."""
    l1, l2, mut, r1, r2 = 2e-9, 3e-9, 1e-9, 1.5, 4.0

    def netlist(coupled: bool) -> Netlist:
        net = Netlist()
        net.add_capacitor("p1", "gnd", 1e-12)
        net.add_resistor("p1", "gnd", 2e3)
        net.add_capacitor("p2", "gnd", 0.5e-12)
        net.add_resistor("p2", "gnd", 500.0)
        net.set_initial_voltage("p1", 1.0)
        if coupled:
            net.add_coupled_inductors([("p1", "gnd"), ("p2", "gnd")],
                                      [[l1, mut], [mut, l2]], [r1, r2])
        else:
            net.add_resistor("p1", "x1", r1)
            net.add_inductor("x1", "t", l1 - mut)
            net.add_resistor("p2", "x2", r2)
            net.add_inductor("x2", "t", l2 - mut)
            net.add_inductor("t", "gnd", mut)
        return net

    cfg = SimConfig(dt_s=1e-12, t_stop_s=2e-9)
    coupled, tee = transient(netlist(True), cfg), transient(netlist(False), cfg)
    assert np.abs(coupled.voltages["p2"]).max() > 0.05  # energy crosses over
    for node in ("p1", "p2"):
        np.testing.assert_allclose(coupled.voltages[node], tee.voltages[node],
                                   rtol=0, atol=1e-12)


def test_varactor_at_fixed_control_matches_linear_capacitor():
    """A varactor between two non-ground nodes, its control held at a
    fixed voltage from the start, is a linear capacitor of C(v_ctl)."""
    model = VaractorModel(c_min=0.2e-12, c_max=0.6e-12, v_lo=0.0, v_hi=0.7)
    v_ctl = 0.3

    def netlist(varactor: bool) -> Netlist:
        net = Netlist()
        net.add_inductor("a", "b", 1e-9)
        net.add_resistor("a", "gnd", 1e3)
        net.add_resistor("b", "gnd", 2e3)
        net.add_vsource("ctl", "gnd", v_ctl)
        net.set_initial_voltage("ctl", v_ctl)
        net.set_initial_voltage("a", 1.0)
        if varactor:
            net.add_varactor("a", "b", "ctl", "gnd", model)
        else:
            net.add_capacitor("a", "b", varactor_eval(model, v_ctl)[0])
        return net

    period = 2.0 * math.pi * math.sqrt(1e-9 * varactor_eval(model, v_ctl)[0])
    cfg = SimConfig(dt_s=period / 200, t_stop_s=20 * period)
    var, cap = transient(netlist(True), cfg), transient(netlist(False), cfg)
    swing = var.voltages["a"] - var.voltages["b"]
    assert swing.max() - swing.min() > 0.5
    for node in ("a", "b"):
        np.testing.assert_allclose(var.voltages[node], cap.voltages[node],
                                   rtol=0, atol=1e-12)
