"""Transient engine tests.

The Jacobian the engine stamps for its transistors is checked against a
centred finite difference of the residual it stamps, in every region of
both polarities; reruns of one netlist must repeat bit for bit; the hard
turn-on rescue is driven by a Newton step made to fail.  The extrapolated
Newton start point must change only the iteration count, never the
answer, and the Newton path must reproduce a closed-form RC discharge.
"""
import copy
import math

import numpy as np
import pytest

from tsvqvco import engine
from tsvqvco.devices import MosParams, mos_current
from tsvqvco.engine import SimConfig, transient
from tsvqvco.errors import NumericFailure
from tsvqvco.netlist import Netlist
from tsvqvco.topologies import TopologyParams, build_netlist, default_sim_config

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


def two_device_system():
    net = Netlist()
    net.add_mos("dn", "gn", "sn", NMOS, label="mn")
    net.add_mos("dp", "gp", "sp", PMOS, label="mp")
    for node in ("dn", "gn", "sn", "dp", "gp", "sp"):
        net.add_resistor(node, "gnd", 1e3, label=f"r_{node}")
    sys_ = engine._System(net, SimConfig(dt_s=1e-12, t_stop_s=1e-10))
    return net, sys_, engine._initial_state(sys_)


def stamped(sys_, st, x, jacobian: bool):
    f = np.zeros(sys_.size + 1)
    j = np.zeros((sys_.size + 1, sys_.size + 1)) if jacobian else None
    engine._nonlinear_stamps(sys_, st, x, 2.0 / sys_.h, True, f, j)
    return f, j


@pytest.mark.parametrize("region", sorted(BIASES))
def test_mos_jacobian_matches_finite_difference(region):
    net, sys_, st = two_device_system()
    v_gs, v_ds = BIASES[region]
    x = np.zeros(sys_.size + 1)
    for tag, sign, v_s in (("n", 1.0, 0.1), ("p", -1.0, 0.6)):
        x[net.node_names.index(f"s{tag}")] = v_s
        x[net.node_names.index(f"g{tag}")] = v_s + sign * v_gs
        x[net.node_names.index(f"d{tag}")] = v_s + sign * v_ds

    f, j = stamped(sys_, st, x, jacobian=True)
    for tag, params in (("n", NMOS), ("p", PMOS)):
        d, g, s = (net.node_names.index(f"{t}{tag}") for t in "dgs")
        assert f[d] == mos_current(params, x[g] - x[s], x[d] - x[s])
        assert f[s] == -f[d]

    step = 1e-6
    fd = np.zeros((sys_.size, sys_.size))
    for col in range(sys_.size):
        hi, lo = x.copy(), x.copy()
        hi[col] += step
        lo[col] -= step
        fd[:, col] = ((stamped(sys_, st, hi, jacobian=False)[0]
                       - stamped(sys_, st, lo, jacobian=False)[0])[:sys_.size]
                      / (2.0 * step))
    analytic = j[:sys_.size, :sys_.size]
    if region == "cutoff":
        assert not analytic.any()
    np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)


def test_reruns_are_bit_identical(toroidal_model):
    params = TopologyParams(transformer=toroidal_model, c_parasitic_f=4.4e-12)
    f_est = 1.0 / (2.0 * math.pi * math.sqrt(toroidal_model.l_p * 2.2e-12))
    cfg = default_sim_config(f_est, n_periods=4)
    first = transient(build_netlist("tc-qvco", params), cfg)
    second = transient(build_netlist("tc-qvco", params), cfg)
    assert np.array_equal(first.time_s, second.time_s)
    for traces_a, traces_b in ((first.voltages, second.voltages),
                               (first.currents, second.currents)):
        assert traces_a.keys() == traces_b.keys()
        for name in traces_a:
            assert np.array_equal(traces_a[name], traces_b[name]), name


class TestRampRescue:
    CFG = SimConfig(dt_s=2e-12, t_stop_s=2e-11)

    def run(self, monkeypatch, toroidal_model, failures: int,
            source_ramp_s: float):
        """Short tc-qvco run whose first `failures` Newton steps raise;
        returns the waveforms (or the exception) and the Newton calls."""
        calls = []
        real = engine._newton_step

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) <= failures:
                raise NumericFailure("injected Newton failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "_newton_step", failing)
        net = build_netlist("tc-qvco", TopologyParams(
            transformer=toroidal_model, c_parasitic_f=4.4e-12,
            source_ramp_s=source_ramp_s))
        try:
            return transient(net, self.CFG), len(calls)
        except NumericFailure as exc:
            return exc, len(calls)

    def test_first_step_failure_retries_with_ramped_sources(
            self, monkeypatch, toroidal_model):
        wave, _ = self.run(monkeypatch, toroidal_model,
                           failures=1, source_ramp_s=0.0)
        assert not isinstance(wave, NumericFailure)
        v_dd = TopologyParams().v_dd_v
        assert wave.voltages["vdd"][1] < v_dd
        assert wave.voltages["vdd"][1] == pytest.approx(
            v_dd * self.CFG.dt_s / self.CFG.source_ramp_s, rel=1e-9)

    def test_second_failure_propagates(self, monkeypatch, toroidal_model):
        exc, calls = self.run(monkeypatch, toroidal_model,
                              failures=2, source_ramp_s=0.0)
        assert isinstance(exc, NumericFailure)
        assert calls == 2

    def test_already_ramped_netlist_is_not_retried(
            self, monkeypatch, toroidal_model):
        exc, calls = self.run(monkeypatch, toroidal_model,
                              failures=1, source_ramp_s=1e-9)
        assert isinstance(exc, NumericFailure)
        assert calls == 1


class TestSingularLinearSystem:
    def test_parallel_voltage_sources_raise(self):
        # 1 V and 2 V forced across the same node pair: no solution exists.
        net = Netlist()
        net.add_vsource("a", "gnd", 1.0, label="v1")
        net.add_vsource("a", "gnd", 2.0, label="v2")
        net.add_resistor("a", "gnd", 1e3)
        with pytest.raises(NumericFailure, match="singular"):
            transient(net, SimConfig(dt_s=1e-12, t_stop_s=1e-10))

    def test_non_finite_residual_fails_kcl_gate(self, monkeypatch):
        net = Netlist()
        net.add_vsource("a", "gnd", 1.0)
        net.add_resistor("a", "gnd", 1e3)
        monkeypatch.setattr(engine, "lu_solve",
                            lambda lu, b: np.full_like(b, np.nan))
        with pytest.raises(NumericFailure, match="KCL residual nan"):
            transient(net, SimConfig(dt_s=1e-12, t_stop_s=1e-10))


def qvco_run(toroidal_model, n_periods=4):
    params = TopologyParams(transformer=toroidal_model, c_parasitic_f=4.4e-12)
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
        copied before the run moves its state on."""
        seen = []
        real = engine._newton_step

        def spy(*args):
            if len(seen) == self.MID_STEP:
                seen.append(copy.deepcopy(args))
            else:
                seen.append(None)
            return real(*args)

        monkeypatch.setattr(engine, "_newton_step", spy)
        qvco_run(toroidal_model)
        monkeypatch.setattr(engine, "_newton_step", real)
        return seen[self.MID_STEP]

    def test_start_point_moves_only_the_iteration_count(
            self, monkeypatch, toroidal_model):
        sys_, st, x_ext, a0, abs_a0, b, t, coef, history = self.mid_run_step(
            monkeypatch, toroidal_model)
        assert history
        size, cfg = sys_.size, sys_.cfg
        x_prev = st.x[:size].copy()
        assert np.abs(x_ext - x_prev).max() > 1e-3  # a real extrapolation

        results, solves = {}, {}
        for name, x0 in (("previous", x_prev), ("extrapolated", x_ext)):
            calls = count_solves(monkeypatch)
            results[name] = engine._newton_step(
                sys_, st, x0, a0, abs_a0, b, t, coef, history)
            solves[name] = len(calls)

        for name, (x, f) in results.items():
            # the engine's own residual acceptance, recomputed from x
            resid = a0 @ x - b
            engine._nonlinear_stamps(sys_, st, x, coef, history, resid, None)
            assert np.array_equal(resid[:size], f), name
            f_ref = abs_a0 @ np.abs(x[:size]) + np.abs(b[:size])
            assert np.all(np.abs(f) <= cfg.newton_abs + cfg.newton_rel * f_ref), name
            assert np.abs(f[:sys_.n]).max() <= 0.1 * cfg.kcl_abs_a, name
        nodes_prev = results["previous"][0][:sys_.n]
        nodes_ext = results["extrapolated"][0][:sys_.n]
        np.testing.assert_allclose(nodes_ext, nodes_prev, rtol=0, atol=1e-6)
        assert solves["extrapolated"] < solves["previous"]


def test_qvco_needs_about_one_solve_per_step(monkeypatch, toroidal_model):
    calls = count_solves(monkeypatch)
    wave = qvco_run(toroidal_model)
    steps = len(wave.time_s) - 1
    # Newton always solves at least once, so this also fails if the
    # engine stops calling np.linalg.solve.
    assert steps <= len(calls) <= 1.2 * steps


def test_rc_discharge_on_newton_path_matches_exponential():
    """A charged capacitor discharging through a resistor, with a
    transistor held in cutoff on the same node so that every step goes
    through the predictor and Newton.  The transistor's gmin leak is part
    of the time constant; trapezoidal integration (after one backward
    Euler step) stays within (h/tau)^2 of the exponential."""
    r_ohm, c_f, v0 = 10e6, 1e-12, 1.0
    net = Netlist()
    net.add_resistor("a", "gnd", r_ohm)
    net.add_capacitor("a", "gnd", c_f)
    net.add_mos("a", "gnd", "gnd", NMOS, label="m_off")  # v_gs = 0: cutoff
    net.set_initial_voltage("a", v0)
    tau = c_f / (1.0 / r_ohm + SimConfig(dt_s=1.0, t_stop_s=2.0).gmin)
    cfg = SimConfig(dt_s=tau / 200, t_stop_s=3.0 * tau)
    assert not engine._System(net, cfg).linear_only

    wave = transient(net, cfg)
    v = wave.voltages["a"]
    bound = v0 * (cfg.dt_s / tau) ** 2
    np.testing.assert_allclose(v, v0 * np.exp(-wave.time_s / tau),
                               rtol=0, atol=bound)
    # without the leak the time constant is r c, and the bound sees it
    assert np.abs(v - v0 * np.exp(-wave.time_s / (r_ohm * c_f))).max() > 10 * bound
