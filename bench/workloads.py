"""The benchmark's operations, written against the public tsvqvco API.

qvco_core and qvco_buffered run the whole pipeline for the tc-qvco, from
``configs/toroidal.json`` to a validated ``SimMetrics``.  design_sweep
draws transformer geometries from a seeded grid and takes each through
generation, extraction, tank design and the planar baseline, without a
transient.  README.md beside this file says why each workload exists.

Every layer call goes through a span of the tracer it is given, and the
transformer functions are looked up on the module at call time, so a
traced operation sees the wrappers ``spans.instrumented`` installs.
"""
from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

from tsvqvco import transformer
from tsvqvco.analysis import DesignSpec, design_tank
from tsvqvco.devices import BufferParams
from tsvqvco.engine import transient
from tsvqvco.errors import InputError
from tsvqvco.geometry import TransformerGeometry
from tsvqvco.metrology import measure_metrics
from tsvqvco.netlist import Mos
from tsvqvco.topologies import TopologyParams, build_netlist, default_sim_config

ROOT = Path(__file__).resolve().parent.parent
QVCO_CONFIG = ROOT / "configs" / "toroidal.json"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("qvco_core", "qvco_buffered", "design_sweep")

# Fixed span of one qvco run: the shortest whole number of hundreds of
# periods after which measure_metrics calls the toroidal tc-qvco steady.
QVCO_PERIODS = 100
# 4.4 pF from each tank end to ground is 2.2 pF across the tank, which
# sets the frequency estimate the time step is sized from.
QVCO_C_PARASITIC_F = 4.4e-12
QVCO_C_DIFF_F = 2.2e-12

# The draw space of design_sweep.  About 40 % of the grid is rejected
# with typed errors; the grid is not narrowed to avoid them.
SWEEP_AXES = {
    "style": ("toroidal", "vertical_spiral"),
    "turns_primary": (6, 8, 10, 12, 14),
    "turns_secondary": (1, 2, 3),
    "tsv_pitch_um": (25.0, 40.0, 55.0, 66.0, 80.0),
    "row_spacing_um": (25.0, 60.0, 90.0, 120.0),
}
# Distinct grid points per sweep pass.  Extraction cost grows with the
# square of the segment count; drawing most of the grid without
# replacement keeps the mix of cheap and dear designs, and with it
# the sweep's throughput, within about 3 % between seeds.
SWEEP_DRAWS = 500

WARMUP_PERIODS = 4
WARMUP_DRAWS = 20

# The reference design spec of the analysis tests (reference_spec() in
# tests/test_analysis.py).
DESIGN_SPEC = DesignSpec(
    v_dd_v=0.7, f_c_hz=2.5e9, v_c_lo_v=0.1, v_c_hi_v=0.7,
    l_p_target_h=3e-9, l_s_target_h=0.4e-9, c_var_lo_f=2.1e-12,
    c_var_hi_f=6.3e-12, v_out_pp_v=0.35, max_delta_v_out_v=0.025,
    c_parasitic_f=0.4e-12)

# Planar baseline: a square spiral with the primary's turn count, 10 um
# trace, 2 um spacing and a 60 um hole, sized to just hold its turns.
PLANAR_WIDTH_UM = 10.0
PLANAR_SPACING_UM = 2.0
PLANAR_INNER_UM = 60.0


def model_record(model: transformer.TransformerModel) -> dict:
    return {"L_p": model.l_p, "L_s1": model.l_s1, "L_s2": model.l_s2,
            "k_ps1": model.k_ps1, "k_ps2": model.k_ps2, "k_ss": model.k_ss,
            "R_pac": model.r_pac}


def run_qvco(buffered: bool, tr, periods: int = QVCO_PERIODS) -> dict:
    """One operation: geometry JSON to a validated SimMetrics."""
    with tr.span("geometry.load"):
        geom = TransformerGeometry.from_json_file(QVCO_CONFIG)
    with tr.span("transformer.build"):
        model = transformer.build_transformer(geom)
    params = TopologyParams(transformer=model,
                            c_parasitic_f=QVCO_C_PARASITIC_F,
                            buffers=BufferParams() if buffered else None)
    with tr.span("topologies.build_netlist") as counts:
        net = build_netlist("tc-qvco", params)
        counts["mos_devices"] = sum(isinstance(e, Mos) for e in net.elements)
    f_est = 1.0 / (2.0 * math.pi * math.sqrt(model.l_p * QVCO_C_DIFF_F))
    cfg = default_sim_config(f_est, n_periods=periods)
    with tr.span("engine.transient") as counts:
        waves = transient(net, cfg)
        counts["steps"] = len(waves.time_s) - 1
        # the MNA unknowns, as the engine laid them out
        counts["unknowns"] = len(waves.voltages) + len(waves.currents)
    with tr.span("metrology.measure"):
        metrics = measure_metrics(waves, params.v_dd_v)
    return {"model": model_record(model),
            "metrics": dataclasses.asdict(metrics)}


def sweep_draws(seed: int) -> list[dict]:
    """The geometry documents of one sweep, in drawn order; the same seed
    gives the same documents."""
    return random.Random(seed).sample(sweep_grid(), SWEEP_DRAWS)


def draw_key(draw: dict) -> str:
    return "/".join(f"{draw[axis]:g}" if not isinstance(draw[axis], str)
                    else draw[axis] for axis in SWEEP_AXES)


def sweep_grid() -> list[dict]:
    """Every point of the draw space, for recording the reference."""
    points = [{}]
    for axis, values in SWEEP_AXES.items():
        points = [dict(p, **{axis: v}) for p in points for v in values]
    return points


def planar_baseline(turns: int) -> tuple[float, float]:
    radial = turns * PLANAR_WIDTH_UM + (turns - 1) * PLANAR_SPACING_UM
    return transformer.wheeler_spiral_inductance(
        turns, PLANAR_INNER_UM + 2.0 * radial, PLANAR_INNER_UM,
        PLANAR_WIDTH_UM, PLANAR_SPACING_UM)


def run_design(draw: dict, tr) -> dict:
    """One sweep operation.  A typed rejection of the drawn geometry is
    an outcome, not an error; any other exception propagates."""
    try:
        with tr.span("geometry.load"):
            geom = TransformerGeometry.from_dict(draw)
        coils = transformer.generate_coils(geom)
        with tr.span("transformer.metal_area"):
            area = transformer.metal_area(geom)
        model = transformer.model_from_coils(
            coils, transformer.DEFAULT_EVAL_FREQUENCY_HZ, area,
            geom.process.resistivity_ohm_m)
        with tr.span("analysis.design_tank"):
            _, report = design_tank(DESIGN_SPEC, model)
        with tr.span("transformer.wheeler"):
            planar_l, planar_area = planar_baseline(geom.turns_primary)
    except InputError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return dict(model_record(model), area_mm2=area, verdict=report.verdict,
                planar_L=planar_l, planar_area_mm2=planar_area)


def warm_up(workload: str, inputs: dict, tr) -> None:
    """A short untimed pass through the same code, so the first timed
    operation does not pay for first-call costs the others skip."""
    if workload == "design_sweep":
        for draw in inputs["draws"][:WARMUP_DRAWS]:
            run_design(draw, tr)
    else:
        run_qvco(inputs["buffered"], tr, periods=WARMUP_PERIODS)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def prepare(workload: str, seed: int) -> dict:
    """Everything a workload needs before its first timed operation."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    ref = load_reference()
    if workload == "design_sweep":
        return {"draws": sweep_draws(seed), "reference": ref[workload]}
    if not QVCO_CONFIG.is_file():
        raise FileNotFoundError(f"missing geometry config {QVCO_CONFIG}")
    return {"buffered": workload == "qvco_buffered", "reference": ref[workload]}
