"""Transient engine tests.

The Jacobian the engine stamps for its transistors is checked against a
centred finite difference of the residual it stamps, in every region of
both polarities; reruns of one netlist must repeat bit for bit; and the
hard turn-on rescue is driven by a Newton step made to fail.
"""
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
