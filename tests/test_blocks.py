"""Every parameter block is valid by construction.

Each block checks its fields once, when it is built, and is frozen, so a
block that exists has passed its check and still holds the values it was
checked with.  For one bad field per block, the typed error and its
message come from the constructor and from dataclasses.replace on a
valid instance, and assigning to a field of a built block fails.  The
containers a block holds cannot be changed in place either: the geometry
tuples, and the traces and trace mappings of Waveforms, also not through
an array the caller kept, nor in a copy or a pickle.
"""
import copy
import dataclasses
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import coil
from tsvqvco.analysis import DesignSpec, TankParams
from tsvqvco.devices import BufferParams, MosParams, TuningArray, VaractorModel
from tsvqvco.engine import SimConfig, Waveforms
from tsvqvco.errors import InvalidGeometryError, InvalidModelError
from tsvqvco.geometry import (CoilGeometry, ProcessParams, TransformerGeometry,
                              round_row)
from tsvqvco.metrology import SimMetrics
from tsvqvco.topologies import TopologyParams
from tsvqvco.transformer import TransformerModel

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _coil() -> CoilGeometry:
    return coil("loop", [
        round_row((0, 0, 0), (0, 0, 60e-6), 9.5e-6),
        round_row((0, 0, 60e-6), (66e-6, 0, 60e-6), 9.5e-6)])


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
        "process field tier_height_um must be positive"),
    "CoilGeometry": (
        _coil, {"span": slice(0, 0)}, InvalidGeometryError,
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
        {"lam": -0.1}, InvalidModelError, "mos field lam must be non-negative"),
    "VaractorModel": (
        lambda: VaractorModel(c_min=2.1e-12, c_max=6.3e-12, v_lo=0.1,
                              v_hi=0.7),
        {"shape": 0.0}, InvalidModelError, "varactor field shape must be positive"),
    "TuningArray": (
        lambda: TuningArray(c_unit=2e-12), {"code": "12"}, InvalidModelError,
        "tuning array code must be one of ['00', '01', '10', '11'], got '12'"),
    "BufferParams": (
        BufferParams, {"p_to_n_ratio": 1.0}, InvalidModelError,
        "buffer pull-up must be stronger than pull-down"),
    "SimConfig": (
        lambda: SimConfig(dt_s=1e-12, t_stop_s=1e-9), {"t_stop_s": 1e-12},
        InvalidModelError, "stop time must cover at least two steps"),
    "Waveforms": (
        _waveforms, {"time_s": np.array([0.0, 2.0, 1.0, 3.0])},
        InvalidModelError, "time grid must be strictly increasing"),
    "SimMetrics": (
        lambda: SimMetrics(oscillating=True, f_osc_hz=2e9),
        {"f_osc_hz": None}, InvalidModelError,
        "oscillating metrics need a frequency"),
    "TopologyParams": (
        TopologyParams, {"v_dd_v": 0.0}, InvalidModelError,
        "topology field v_dd_v must be positive"),
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


def test_geometry_containers_cannot_be_changed_in_place():
    # The geometry check rejects cell 13 of the 14-turn primary; a stored
    # list would let it in after the check.
    geom = TransformerGeometry.from_json_file(CONFIG_DIR / "toroidal.json")
    assert geom.secondary_slots == ((2, 6), (5, 9))
    with pytest.raises(TypeError):
        geom.secondary_slots[0][0] = 13
    loop = _coil()
    with pytest.raises(ValueError, match="read-only"):
        loop.segments[1, 3] = 0.0
    for column in loop.batch:
        with pytest.raises(ValueError, match="read-only"):
            column[..., 0] = 0
    assert len(loop.segments) == 2


def test_waveforms_cannot_be_changed_in_place():
    # A NaN written into a checked trace, or a trace added after the
    # check, would reach metrology unchecked.
    w = _waveforms()
    with pytest.raises(ValueError, match="read-only"):
        w.voltages["V_o1"][0] = np.nan
    with pytest.raises(TypeError):
        w.voltages["X"] = 1
    with pytest.raises(TypeError):
        w.currents["X"] = 1
    with pytest.raises(ValueError, match="read-only"):
        w.time_s[0] = 1.0
    assert np.isfinite(w.voltages["V_o1"]).all() and "X" not in w.voltages


@pytest.mark.parametrize("given", ["array", "read-only view"])
def test_waveforms_copy_traces_a_caller_can_still_write(given):
    """A caller who keeps a given array, or the writable array behind a
    read-only view of it, cannot change the checked trace."""
    v = np.zeros(4)
    trace = v if given == "array" else v.view()
    trace.flags.writeable = given == "array"
    w = Waveforms(time_s=np.arange(4.0), voltages={"V_o1": trace},
                  currents={})
    v[0] = np.nan
    assert np.isfinite(w.voltages["V_o1"]).all()


@pytest.mark.parametrize("how", ["deepcopy", "copy", "pickle"])
def test_copied_waveforms_and_metrics_stay_read_only(how):
    """Waveforms and SimMetrics hold one read-only mapping type, which
    copy, deepcopy and pickle keep: a copy's traces and dicts still
    refuse writes, and equal the original's."""
    clone = {"deepcopy": copy.deepcopy, "copy": copy.copy,
             "pickle": lambda x: pickle.loads(pickle.dumps(x))}[how]
    w = Waveforms(time_s=np.arange(4.0), voltages={"V_o1": np.ones(4)},
                  currents={"I(v)": np.zeros(4)}, kcl_max_a=1e-12,
                  solve_histogram=(0, 3))
    c = clone(w)
    assert np.array_equal(c.voltages["V_o1"], w.voltages["V_o1"])
    assert (c.kcl_max_a, c.solve_histogram) == (1e-12, (0, 3))
    for trace in (c.time_s, c.voltages["V_o1"], c.currents["I(v)"]):
        with pytest.raises(ValueError, match="read-only"):
            trace[0] = np.nan
    for mapping in (c.voltages, c.currents):
        with pytest.raises(TypeError, match="read-only"):
            mapping["X"] = np.zeros(4)
    m = clone(SimMetrics(oscillating=True, f_osc_hz=2e9,
                         phases_deg={"V_o3": 90.0}))
    assert m.phases_deg == {"V_o3": 90.0}
    with pytest.raises(TypeError, match="read-only"):
        m.phases_deg["V_o3"] = 0.0


def test_waveforms_pass_through_asdict():
    # asdict copies each trace into a plain structure, as it does for
    # SimMetrics; the waveforms themselves stay as they were
    w = _waveforms()
    d = dataclasses.asdict(w)
    assert list(d["voltages"]) == ["V_o1"]
    assert np.array_equal(d["time_s"], w.time_s)
