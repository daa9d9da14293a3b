"""Every figure the tests pin at this tree's physics, and the recorder of
tests/recorded.json, the one file that holds them.

A figure here is a number the package computes that no independent source
gives: an extracted spot value of a committed geometry, a pole of the
benchmark's tc-qvco netlists, the solves of a run.  Each has one
function below, registered with the tolerance its test compares it at, rel
and abs both stated.  tests/test_recorded.py compares every figure with the
file; the tests the figures came from keep only their properties.  A figure
with an independent source (a closed form, the numerical Neumann integral,
Wheeler's formula) is checked against that source instead and is not
recorded.  The runs and poles below are computed once per process and
shared by the figures and the property tests.

After a change that is meant to move the physics, re-record with

    PYTHONPATH=src python tests/recorded.py

which rewrites tests/recorded.json from the tree, sorted by name, each float
as its repr; on an unchanged tree it rewrites the file byte for byte.  A
change that re-records says so, and review reads its diff of the file.
bench/reference.json is the benchmark's own record: only a change to the
benchmark re-records it (bench/record_reference.py).
"""
import copy
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from tsvqvco import engine
from tsvqvco.devices import BufferParams, TuningArray
from tsvqvco.engine import Waveforms, small_signal, transient
from tsvqvco.geometry import TransformerGeometry
from tsvqvco.netlist import Netlist
from tsvqvco.topologies import TopologyParams, build_netlist, default_sim_config
from tsvqvco.transformer import TransformerModel, build_transformer

HERE = Path(__file__).resolve().parent
RECORD_PATH = HERE / "recorded.json"
CONFIG_DIR = HERE.parent / "configs"

sys.path.insert(0, str(HERE.parent / "bench"))

import workloads  # noqa: E402


@functools.cache
def model(config: str) -> TransformerModel:
    """The extracted model of configs/<config>.json."""
    return build_transformer(
        TransformerGeometry.from_json_file(CONFIG_DIR / f"{config}.json"))


# Poles of the benchmark's tc-qvco netlists.

def qvco_netlist(transformer: TransformerModel, **kwargs) -> Netlist:
    """The netlist of the benchmark's qvco workloads on the transformer."""
    return build_netlist("tc-qvco", TopologyParams(
        transformer=transformer,
        c_parasitic_f=workloads.QVCO_C_PARASITIC_F, **kwargs))


def upper_poles(net: Netlist, node: str) -> tuple[np.ndarray, np.ndarray]:
    """The poles with a positive frequency, largest real part first, and
    the phase (degrees) by which node leads V_o1 in each one's mode."""
    poles, vectors = small_signal(net)
    i1, i = net.node_names.index("V_o1"), net.node_names.index(node)
    upper = poles.imag > 0
    lead = np.degrees(np.angle(vectors[i, upper] / vectors[i1, upper]))
    return poles[upper], lead


@functools.cache
def qvco_poles(config: str, buffered: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """upper_poles at V_o3 of the qvco netlist on config's model, read-only."""
    poles, lead = upper_poles(qvco_netlist(
        model(config), buffers=BufferParams() if buffered else None), "V_o3")
    poles.flags.writeable = lead.flags.writeable = False
    return poles, lead


def mhz(rate: float) -> float:
    """An angular rate (1/s) in MHz: a pole's f or sigma/2pi."""
    return float(rate) / 2e6 / math.pi


# Transients of the tc-qvco and of the stiffest netlists.

# The tc-qvco alone (16 unknowns, 4 MOS) and with its four output
# buffers (26 unknowns, 12 MOS): the buffers and the unknown count.
QVCO_CASES = {"core": (None, 16), "buffered": (BufferParams(), 26)}


def qvco_config(toroidal_model: TransformerModel, n_periods: int = 4):
    f_est = 1.0 / (2.0 * math.pi * math.sqrt(toroidal_model.l_p * 2.2e-12))
    return default_sim_config(f_est, n_periods=n_periods)


def qvco_run(toroidal_model: TransformerModel, n_periods: int = 4,
             buffers: BufferParams | None = None) -> Waveforms:
    return transient(qvco_netlist(toroidal_model, buffers=buffers),
                     qvco_config(toroidal_model, n_periods))


@functools.cache
def four_period_run(case: str) -> Waveforms:
    """The 4-period run of QVCO_CASES[case] on the toroidal model."""
    return qvco_run(model("toroidal"), buffers=QVCO_CASES[case][0])


# The shortest span at which the quadratic predictor (three rows) needed
# 1.3 solves per step on the buffered tc-qvco: 12227 solves over 9400
# steps, 1.301.  The quartic predictor measured 10296 solves there, 1.095.
BUFFERED_SPAN_PERIODS = 47


@functools.cache
def buffered_span_run() -> Waveforms:
    """The BUFFERED_SPAN_PERIODS run of the buffered tc-qvco on the
    toroidal model."""
    return qvco_run(model("toroidal"), BUFFERED_SPAN_PERIODS, BufferParams())


PLAIN_TANK = dict(l_tank_h=2e-9, c_tank_f=1e-12, r_tank_ohm=400.0)

# The stiffest netlists of the topology matrix, each run for 4 periods at
# default_sim_config(2e9, 4): the topology and its TopologyParams fields by
# name, where a "vertical_spiral" transformer is that config's model.
STIFF_NETLISTS = {
    # the array's 50 Ohm / 10 MOhm switches
    "cr-vco-11": ("cr-vco", dict(PLAIN_TANK, array=TuningArray(1e-12, "11"))),
    "lc-vco-01": ("lc-vco", dict(PLAIN_TANK, array=TuningArray(1e-12, "01"))),
    "tf-vco-spiral": ("tf-vco", dict(transformer="vertical_spiral",
                                     c_tank_f=2e-12)),
    "tc-qvco-spiral-buffered-11": (
        "tc-qvco", dict(transformer="vertical_spiral", c_parasitic_f=4.4e-12,
                        buffers=BufferParams(),
                        array=TuningArray(1e-12, "11"))),
}


@functools.cache
def stiff_run(case: str) -> Waveforms:
    topology, fields = STIFF_NETLISTS[case]
    if fields.get("transformer") == "vertical_spiral":
        fields = dict(fields, transformer=model("vertical_spiral"))
    return transient(build_netlist(topology, TopologyParams(**fields)),
                     default_sim_config(2e9, 4))


MID_STEP = 400  # of the core run's 800 steps: the cores swing, the history is full


@functools.cache
def _mid_run_step():
    bind, seen, accepted = engine._newton, [], []

    def spied(sys_, y):
        newton = bind(sys_, y)

        def step(stage, t):
            if len(accepted) == MID_STEP:
                seen.append(copy.deepcopy((sys_, stage, y, t)))
            result = newton(stage, t)
            accepted.append(y[:sys_.size + 1].copy())
            return result
        return step

    engine._newton = spied
    try:
        qvco_run(model("toroidal"))
    finally:
        engine._newton = bind
    return seen[0], accepted[MID_STEP - 1]


def mid_run_step():
    """Arguments of the MID_STEP-th Newton call of the 4-period core run
    (the system, the stage, the step state y with the predicted x, and t),
    copied before the run moves its state on, and the solution the call
    before it accepted: a fresh copy on every call, so a caller may step
    it."""
    return copy.deepcopy(_mid_run_step())


def extrapolation() -> float:
    """How far the predicted Newton start of the mid-run step lies from
    the previous accepted solution, in the largest unknown."""
    (sys_, _, y, _), x_prev = _mid_run_step()
    return float(np.abs(y[:sys_.size + 1] - x_prev).max())


class Figure(NamedTuple):
    """A figure's function and the tolerance its test compares it at, as
    pytest.approx's rel and abs; 0 and 0 is exact."""

    compute: Callable[[], object]
    rel: float
    abs: float


def _figures() -> dict[str, Figure]:
    figures = {}
    # Spot values of the two committed geometries' extracted models.
    for config, fields in (
            ("toroidal", ("l_p", "l_s1", "k_ps1", "k_ps2", "k_ss", "area_mm2",
                          "r_pdc", "r_pac")),
            ("vertical_spiral", ("l_p", "l_s1", "k_ps1", "k_ss", "area_mm2"))):
        for field in fields:
            figures[f"extraction.{config}.{field}"] = Figure(
                lambda c=config, f=field: float(getattr(model(c), f)),
                rel=1e-3, abs=0.0)

    # The +90 degree pair (first) and the -90 degree pair (second) of each
    # core, in MHz, and the selection margin sigma+90 - sigma-90.
    for config, f_abs, sigma_abs in (("toroidal", 0.1, 0.1),
                                     ("vertical_spiral", 0.05, 0.005)):
        for k, mode in enumerate(("plus90", "minus90")):
            figures[f"poles.{config}.{mode}.f_mhz"] = Figure(
                lambda c=config, k=k: mhz(qvco_poles(c)[0][k].imag),
                rel=0.0, abs=f_abs)
            figures[f"poles.{config}.{mode}.sigma_mhz"] = Figure(
                lambda c=config, k=k: mhz(qvco_poles(c)[0][k].real),
                rel=0.0, abs=sigma_abs)
        figures[f"poles.{config}.margin_mhz"] = Figure(
            lambda c=config: mhz(qvco_poles(c)[0][0].real - qvco_poles(c)[0][1].real),
            rel=0.0, abs=0.005)
    figures["poles.toroidal_buffered.plus90.f_mhz"] = Figure(
        lambda: mhz(qvco_poles("toroidal", True)[0][0].imag), rel=0.0, abs=0.1)

    # Linear solves and solve histograms, exact: the 4-period qvco runs
    # were first measured on the engine that kept the step history as two
    # vectors (q, i) and evaluated each transistor on its own, the stiff
    # netlists on the engine that row-equilibrated every solve; every
    # later engine has taken the same Newton path.
    for kind, run, cases in (("four_period", four_period_run, QVCO_CASES),
                             ("stiff", stiff_run, STIFF_NETLISTS)):
        for case in cases:
            figures[f"solves.{kind}.{case}.linear_solves"] = Figure(
                lambda r=run, c=case: r(c).linear_solves, rel=0.0, abs=0.0)
            figures[f"solves.{kind}.{case}.solve_histogram"] = Figure(
                lambda r=run, c=case: list(r(c).solve_histogram), rel=0.0, abs=0.0)

    figures["solves.buffered_span.solve_histogram"] = Figure(
        lambda: list(buffered_span_run().solve_histogram), rel=0.0, abs=0.0)

    # A real extrapolation: the mid-run step's predicted start lies well
    # away from the previous solution.
    figures["newton.mid_run.extrapolation"] = Figure(extrapolation, rel=1e-3, abs=0.0)
    return figures


FIGURES = _figures()  # by name


def compute() -> dict:
    """Every figure of the tree, by name."""
    return {name: figure.compute() for name, figure in FIGURES.items()}


def dumps(values: dict) -> str:
    """The text of tests/recorded.json for the figures: sorted by name,
    each float as its repr."""
    return json.dumps(values, indent=1, sort_keys=True) + "\n"


def load() -> dict:
    with open(RECORD_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    RECORD_PATH.write_text(dumps(compute()))
    print(f"recorded {len(FIGURES)} figures in tests/{RECORD_PATH.name}")
