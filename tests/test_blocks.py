"""Every parameter block is valid by construction.

Each block checks its fields once, when it is built, and is frozen, so a
block that exists has passed its check and still holds the values it was
checked with.  For one bad field per block, the typed error and its
message come from the constructor and from dataclasses.replace on a
valid instance, and assigning to a field of a built block fails.
"""
import dataclasses
import re

import numpy as np
import pytest

from tsvqvco.analysis import DesignSpec, TankParams
from tsvqvco.devices import BufferParams, MosParams, TuningArray, VaractorModel
from tsvqvco.engine import SimConfig, Waveforms
from tsvqvco.errors import InvalidGeometryError, InvalidModelError
from tsvqvco.geometry import (CoilGeometry, ProcessParams, TransformerGeometry,
                              round_segment)
from tsvqvco.metrology import SimMetrics
from tsvqvco.topologies import TopologyParams
from tsvqvco.transformer import TransformerModel


def _coil() -> CoilGeometry:
    return CoilGeometry(name="loop", segments=[
        round_segment((0, 0, 0), (0, 0, 60e-6), 9.5e-6),
        round_segment((0, 0, 60e-6), (66e-6, 0, 60e-6), 9.5e-6)])


def _model() -> TransformerModel:
    return TransformerModel(l_p=3e-9, l_s1=0.4e-9, l_s2=0.4e-9, r_pdc=0.3,
                            r_pac=1.4, r_sdc=0.064, r_sac=0.35, k_ps1=0.52,
                            k_ps2=0.52, k_ss=0.15, area_mm2=0.17,
                            eval_frequency_hz=2.5e9)


def _spec() -> DesignSpec:
    return DesignSpec(v_dd_v=0.7, f_c_hz=2.5e9, v_c_lo_v=0.1, v_c_hi_v=0.7,
                      l_p_target_h=3e-9, l_s_target_h=0.4e-9,
                      c_var_lo_f=2.1e-12, c_var_hi_f=6.3e-12, v_out_pp_v=0.35,
                      max_delta_v_out_v=0.025)


def _waveforms() -> Waveforms:
    return Waveforms(time_s=np.arange(4.0), voltages={"V_o1": np.zeros(4)},
                     currents={})


# block -> (a builder of a valid instance, one bad field, the error and
# its message)
BLOCKS = {
    "ProcessParams": (
        ProcessParams, {"tier_height_um": 0.0}, InvalidGeometryError,
        "process field tier_height_um must be positive, got 0.0"),
    "CoilGeometry": (
        _coil, {"segments": []}, InvalidGeometryError,
        "coil 'loop' has no segments"),
    "TransformerGeometry": (
        lambda: TransformerGeometry(style="toroidal", turns_primary=6,
                                    turns_secondary=1, tsv_pitch_um=66.0,
                                    row_spacing_um=90.0),
        {"style": "planar"}, InvalidGeometryError,
        "style must be one of ('toroidal', 'vertical_spiral'), got 'planar'"),
    "TransformerModel": (
        _model, {"k_ps1": 1.0}, InvalidModelError,
        "k_ps1 = 1.000000 outside [0, 1)"),
    "TankParams": (
        lambda: TankParams(r_parallel=500.0, c_tank=2e-12, l_p=3e-9, k=0.8,
                           n=2.5),
        {"k": 1.0}, InvalidModelError, "tank k = 1.0 outside (0, 1)"),
    "DesignSpec": (
        _spec, {"v_c_lo_v": 0.8}, InvalidModelError,
        "control range must satisfy 0 <= lo < hi"),
    "MosParams": (
        lambda: MosParams(polarity="n", k_factor=1e-3, v_th=0.3),
        {"lam": -0.1}, InvalidModelError, "lam must be non-negative"),
    "VaractorModel": (
        lambda: VaractorModel(c_min=2.1e-12, c_max=6.3e-12, v_lo=0.1,
                              v_hi=0.7),
        {"shape": 0.0}, InvalidModelError, "varactor shape must be positive"),
    "TuningArray": (
        lambda: TuningArray(c_unit=2e-12), {"code": "12"}, InvalidModelError,
        "tuning array code must be one of ['00', '01', '10', '11'], got '12'"),
    "BufferParams": (
        BufferParams, {"p_to_n_ratio": 1.0}, InvalidModelError,
        "buffer pull-up must be stronger than pull-down"),
    "SimConfig": (
        lambda: SimConfig(dt_s=1e-12, t_stop_s=1e-9), {"t_stop_s": 1e-12},
        InvalidModelError, "stop time must exceed the time step"),
    "Waveforms": (
        _waveforms, {"time_s": np.array([0.0, 2.0, 1.0, 3.0])},
        InvalidModelError, "time grid must be strictly increasing"),
    "SimMetrics": (
        lambda: SimMetrics(oscillating=True, f_osc_hz=2e9),
        {"f_osc_hz": None}, InvalidModelError,
        "oscillating metrics need a positive frequency"),
    "TopologyParams": (
        TopologyParams, {"v_dd_v": 0.0}, InvalidModelError,
        "supply voltage must be positive"),
}


def _raises(case):
    _, _, error, message = BLOCKS[case]
    return pytest.raises(error, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize("case", sorted(BLOCKS))
def test_bad_field_fails_at_construction(case):
    build, bad, _, _ = BLOCKS[case]
    valid = build()
    fields = {f.name: getattr(valid, f.name)
              for f in dataclasses.fields(valid)}
    with _raises(case):
        type(valid)(**{**fields, **bad})


@pytest.mark.parametrize("case", sorted(BLOCKS))
def test_bad_field_fails_through_replace(case):
    build, bad, _, _ = BLOCKS[case]
    with _raises(case):
        dataclasses.replace(build(), **bad)


@pytest.mark.parametrize("case", sorted(BLOCKS))
def test_built_block_cannot_be_changed(case):
    build, bad, _, _ = BLOCKS[case]
    block = build()
    (name, value), = bad.items()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(block, name, value)
