"""Transient engine tests.

The Jacobian the engine assembles from its stamp matrices is checked
against a centred finite difference of the residual it assembles: for
transistors in every region of both polarities, for transistors that
share terminals or sit on ground, and for a varactor whose control sits
on a node pair; reruns of one netlist must repeat bit for bit.  A run
reports the linear solves it made, and a singular matrix names the
node or branch with no stamp.  The first step is a step like any
other: every built topology takes it with stepped supplies at step
sizes from 0.1 ps to 1 ns, a failure in it propagates, and the engine
adds nothing to a netlist's initial state.
Every step, a linear circuit's too, goes through Newton.  The extrapolated Newton start
point must change only the iteration count, never the answer, and the
Newton path must reproduce a closed-form RC discharge and series-RLC
ring-down.  The reactive step history is checked three independent ways:
a lossless LC keeps its energy, a coupled pair matches its T network, and
a varactor at a fixed control voltage matches a linear capacitor.
"""
import copy
import dataclasses
import math
import re

import numpy as np
import pytest

from tsvqvco import engine
from tsvqvco.devices import (BufferParams, MosParams, TuningArray,
                             VaractorModel, mos_eval, varactor_eval)
from tsvqvco.engine import SimConfig, transient
from tsvqvco.errors import NumericFailure
from tsvqvco.netlist import Netlist, VSource
from tsvqvco.topologies import (TopologyParams, build_netlist,
                                default_sim_config)

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
    return net, engine._System(net, SimConfig(dt_s=1e-12, t_stop_s=1e-10))


def at_voltages(net, sys_, volts: dict) -> np.ndarray:
    x = np.zeros(sys_.size + 1)
    for name, v in volts.items():
        x[net.node_names.index(name)] = v
    return x


def stamped(sys_, x, coef):
    """The device residual inc @ currents and the device Jacobian
    jst @ partials at x, both extended by the ground slot."""
    cur, part = engine._device_values(sys_, x, coef)
    dim = sys_.size + 1
    return sys_.inc @ cur, (sys_.jst @ part).reshape(dim, dim)


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

    coef = 2.0 / sys_.h
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
        d, g, s = (net.node(t) for t in (d, g, s))
        i_d = mos_eval(params, x[g] - x[s], x[d] - x[s])[0]
        assert i_d != 0.0  # no device is cut off
        expected[d] += i_d
        expected[s] -= i_d
    coef = 2.0 / sys_.h
    np.testing.assert_array_equal(stamped(sys_, x, coef)[0], expected)
    assert_jacobian_matches_finite_difference(sys_, x, coef)


def test_varactor_jacobian_matches_finite_difference():
    """The control on a node pair exercises the cp/cn columns, which a
    grounded control never reaches."""
    model = VaractorModel(c_min=1e-12, c_max=3e-12, v_lo=0.0, v_hi=0.7)
    net, sys_ = device_system(varactors=[("a", "b", "cp", "cn", model)])
    x = at_voltages(net, sys_, {"a": 0.45, "b": 0.2, "cp": 0.5, "cn": 0.2})
    coef = 2.0 / sys_.h
    f, _ = stamped(sys_, x, coef)
    a, b, cp, cn = (net.node_names.index(n) for n in ("a", "b", "cp", "cn"))
    v_sig, v_ctl = x[a] - x[b], x[cp] - x[cn]
    assert f[a] == coef * varactor_eval(model, v_ctl)[0] * v_sig
    assert f[b] == -f[a]
    analytic = assert_jacobian_matches_finite_difference(sys_, x, coef)
    # the charge moves with the control: the cp/cn columns are live
    assert analytic[a, cp] > 0 and analytic[a, cn] == -analytic[a, cp]


# The tc-qvco alone (16 unknowns, 4 MOS) and with its four output
# buffers (26 unknowns, 12 MOS), each with its unknown count.
QVCO_CASES = {"core": (None, 16), "buffered": (BufferParams(), 26)}


@pytest.mark.parametrize("case", sorted(QVCO_CASES))
def test_reruns_are_bit_identical(case, toroidal_model):
    buffers, unknowns = QVCO_CASES[case]
    first = qvco_run(toroidal_model, buffers=buffers)
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
    PLAIN_TANK = dict(l_tank_h=2e-9, c_tank_f=1e-12, r_tank_ohm=400.0)

    def built(self, case, toroidal_model) -> Netlist:
        qvco = dict(transformer=toroidal_model, c_parasitic_f=4.4e-12)
        params = {
            "tc-qvco": qvco,
            "tc-qvco-loaded": dict(
                qvco, buffers=BufferParams(), array=TuningArray(1e-12, "11"),
                varactor=VaractorModel(c_min=1e-12, c_max=3e-12, v_lo=0.0,
                                       v_hi=0.7), v_ctrl_v=0.3),
            "lc-vco": self.PLAIN_TANK,
            "cr-vco": self.PLAIN_TANK,
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
        monkeypatch.setattr(engine, "_newton_step", failing)
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

    def test_non_finite_residual_fails_kcl_gate(self, monkeypatch):
        net = Netlist()
        net.add_vsource("a", "gnd", 1.0)
        net.add_resistor("a", "gnd", 1e3)
        real = engine._newton_step

        def nan_residual(*args):
            x, f, solves = real(*args)
            return x, np.full_like(f, np.nan), solves

        monkeypatch.setattr(engine, "_newton_step", nan_residual)
        with pytest.raises(NumericFailure, match="KCL residual nan"):
            transient(net, SimConfig(dt_s=1e-12, t_stop_s=1e-10))


def qvco_run(toroidal_model, n_periods=4, buffers=None):
    params = TopologyParams(transformer=toroidal_model, c_parasitic_f=4.4e-12,
                            buffers=buffers)
    f_est = 1.0 / (2.0 * math.pi * math.sqrt(toroidal_model.l_p * 2.2e-12))
    cfg = default_sim_config(f_est, n_periods=n_periods)
    return transient(build_netlist("tc-qvco", params), cfg)


def count_solves(monkeypatch):
    """Count np.linalg.solve calls the way the benchmark's tracer does:
    by replacing the function on the numpy module."""
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append(None)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


class TestNewtonStartPoint:
    MID_STEP = 400  # of 800: the cores are swinging, the history is full

    def mid_run_step(self, monkeypatch, toroidal_model):
        """Arguments of one mid-run Newton call of a tc-qvco transient,
        copied before the run moves its state on, and the solution the
        call before it accepted."""
        seen, accepted = [], []
        real = engine._newton_step

        def spy(*args):
            seen.append(copy.deepcopy(args) if len(seen) == self.MID_STEP
                        else None)
            result = real(*args)
            accepted.append(result[0].copy())
            return result

        monkeypatch.setattr(engine, "_newton_step", spy)
        qvco_run(toroidal_model)
        monkeypatch.setattr(engine, "_newton_step", real)
        return seen[self.MID_STEP], accepted[self.MID_STEP - 1]

    def test_start_point_moves_only_the_iteration_count(
            self, monkeypatch, toroidal_model):
        (sys_, x_ext, stage, b, t), x_acc = self.mid_run_step(
            monkeypatch, toroidal_model)
        assert stage.coef == 2.0 / sys_.h
        size = sys_.size
        x_prev = x_acc
        assert np.abs(x_ext - x_prev).max() > 1e-3  # a real extrapolation

        results, solves = {}, {}
        for name, x0 in (("previous", x_prev), ("extrapolated", x_ext)):
            calls = count_solves(monkeypatch)
            results[name] = engine._newton_step(sys_, x0, stage, b, t)
            solves[name] = len(calls)
            assert results[name][2] == solves[name], name

        for name, (x, f, _) in results.items():
            # the engine's own residual acceptance, recomputed from x
            resid = stage.a0 @ x - b + sys_.inc @ engine._device_values(
                sys_, x, stage.coef)[0]
            assert np.array_equal(resid[:size], f), name
            f_ref = stage.abs_a0 @ np.abs(x[:size]) + np.abs(b[:size])
            assert np.all(np.abs(f) <= engine.NEWTON_ABS
                          + engine.NEWTON_REL * f_ref), name
            assert np.abs(f[:sys_.n]).max() <= 0.1 * engine.KCL_ABS_A, name
        nodes_prev = results["previous"][0][:sys_.n]
        nodes_ext = results["extrapolated"][0][:sys_.n]
        np.testing.assert_allclose(nodes_ext, nodes_prev, rtol=0, atol=1e-6)
        assert solves["extrapolated"] < solves["previous"]

    @pytest.mark.parametrize("start", ["previous", "extrapolated"])
    def test_scaled_solve_gives_the_unscaled_update(
            self, start, monkeypatch, toroidal_model):
        """The stage's row equilibration only steers the pivots: the
        engine's first update from a mid-run start point is the Newton
        update on the unscaled Jacobian."""
        (sys_, x_ext, stage, b, t), x_acc = self.mid_run_step(
            monkeypatch, toroidal_model)
        x0 = {"previous": x_acc, "extrapolated": x_ext}[start]
        size = sys_.size
        cur, part = engine._device_values(sys_, x0, stage.coef)
        f = (stage.a0 @ x0 - b + sys_.inc @ cur)[:size]
        dim = size + 1
        jac = (stage.a0 + (sys_.jst @ part).reshape(dim, dim))[:size, :size]
        expected = np.linalg.solve(jac, -f)

        solve, updates = np.linalg.solve, []

        def recorded(a, rhs):
            dx = solve(a, rhs)
            updates.append(-dx)  # the engine steps x by -dx
            return dx

        monkeypatch.setattr(np.linalg, "solve", recorded)
        engine._newton_step(sys_, x0.copy(), stage, b, t)
        scale = np.abs(expected).max()
        assert scale > 0.0
        assert np.abs(updates[0] - expected).max() <= 1e-12 * scale


def test_qvco_needs_about_one_solve_per_step(monkeypatch, toroidal_model):
    calls = count_solves(monkeypatch)
    wave = qvco_run(toroidal_model)
    steps = len(wave.time_s) - 1
    # Newton always solves at least once, so this also fails if the
    # engine stops calling np.linalg.solve.
    assert steps <= len(calls) <= 1.2 * steps


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


def rc_netlist() -> Netlist:
    net = Netlist()
    net.add_resistor("a", "gnd", 1e3)
    net.add_capacitor("a", "gnd", 1e-12)
    net.set_initial_voltage("a", 1.0)
    return net


def test_linear_netlist_solves_every_step(monkeypatch):
    newton_calls = []
    real = engine._newton_step

    def counted(*args):
        newton_calls.append(None)
        return real(*args)

    monkeypatch.setattr(engine, "_newton_step", counted)
    calls = count_solves(monkeypatch)
    wave = transient(rc_netlist(), SimConfig(dt_s=5e-12, t_stop_s=1e-9))
    steps = len(wave.time_s) - 1
    assert len(newton_calls) == steps
    assert len(calls) >= steps


def test_non_finite_solve_on_linear_netlist_fails(monkeypatch):
    """Newton stops at the first update that is not finite."""
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: np.full_like(b, np.nan))
    calls = count_solves(monkeypatch)
    with pytest.raises(NumericFailure, match="non-finite"):
        transient(rc_netlist(), SimConfig(dt_s=5e-12, t_stop_s=1e-9))
    assert len(calls) == 1


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
