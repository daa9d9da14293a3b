"""Every scalar numeric input passes errors.check_finite.

TABLE holds one valid call for every public callable and parameter block
of the package that takes a float or int, a point (a fixed-length tuple
of them, such as the start of a segment row), a sequence (a tuple of any length,
such as a coupled set's series_r) or a nested sequence (a tuple of such
tuples, such as a coupled set's matrix).  Each such argument, one
coordinate at a time for a point, at its first and last index for a
sequence and one entry at a time for a nested sequence, is replaced in
turn by NaN, inf, True, an int beyond float range and a string, and the
call must raise its module's typed error with the rule's exact message,
naming that argument, indexed for a sequence.  inspect finds the public
names and their numeric parameters: a name missing from TABLE and
EXEMPT, or a parameter neither tried nor listed in UNCHECKED with its
reason, fails the suite, so a new public input cannot skip the rule
unnoticed.

A field that holds a parameter block is not a number either: BLOCK_FIELDS
finds by inspection every dataclass field annotated with a class of the
package (optional, or a tuple of them, included), and each is tried with
a string, which must raise "<kind> field <name> must be a <class>",
indexed for a tuple.  Its valid call is its TABLE row, or its BLOCKS
row for a class with no numeric input.

Node indices are not numbers but slots: NODE_FIELDS lists the node-index
fields of every netlist element kind, and each is tried through
transient with a float, a string and True, which the engine's netlist
walk must refuse by name.  An element kind missing from NODE_FIELDS, or
an int field of one that it does not list, fails the suite.
"""
import dataclasses
import functools
import importlib
import inspect
import math
import pkgutil
import re
import typing
from typing import Callable, NamedTuple

import numpy as np
import pytest

import tsvqvco
from tsvqvco.analysis import (DesignSpec, TankParams, figure_of_merit,
                              phase_noise_leeson, resonant_frequency)
from tsvqvco.devices import (BufferParams, MosParams, TuningArray,
                             VaractorModel, check_coupled_set,
                             p_channel_mirror)
from tsvqvco.engine import SimConfig, Waveforms, transient
from tsvqvco.errors import InvalidGeometryError, InvalidModelError
from tsvqvco.geometry import (CoilGeometry, ProcessParams, TransformerGeometry,
                              coils_from_rows, rect_row, round_row)
from tsvqvco.inductance import pack_windings, skin_depth, winding_resistances
from tsvqvco.metrology import SimMetrics, measure_metrics
from tsvqvco.netlist import (Capacitor, CoupledInductors, Element, Mos,
                              Netlist, Resistor, Varactor, Vccs, VSource)
from tsvqvco.topologies import TopologyParams, default_sim_config
from tsvqvco.transformer import (DEFAULT_EVAL_FREQUENCY_HZ, TransformerModel,
                                 default_secondary_slots, generate_coils,
                                 model_from_coils, wheeler_spiral_inductance)

SCALARS = {"float", "int", "float | None", "int | None"}
POINT = re.compile(r"tuple\[(float|int)(, (float|int))*\]")
SEQUENCE = re.compile(r"tuple\[(float|int), \.\.\.\]")
NESTED = re.compile(r"tuple\[tuple\[(float|int), \.\.\.\], \.\.\.\]( \| None)?")
TANK = TankParams(r_parallel=500.0, c_tank=2e-12, l_p=3e-9, k=0.8, n=2.5)
COIL = coils_from_rows({"c": [round_row((0.0, 0.0, 0.0), (1e-4, 0.0, 0.0), 1e-5)]})["c"]
GEOMETRY = dict(style="toroidal", turns_primary=6, turns_secondary=1,
                tsv_pitch_um=66.0, row_spacing_um=90.0)
MODEL = dict(l_p=3e-9, l_s1=0.4e-9, l_s2=0.4e-9, r_pdc=0.3, r_pac=1.4,
             r_sdc=0.064, r_sac=0.35, k_ps1=0.52, k_ps2=0.52, k_ss=0.15,
             area_mm2=0.17, eval_frequency_hz=2.5e9)


@functools.cache
def coils():
    return generate_coils(TransformerGeometry(**GEOMETRY))


class Call(NamedTuple):
    """A valid call: run(**kwargs) succeeds, and with one numeric argument
    replaced it raises error "<kind> field <name> ...", where name is the
    argument's (with the entry's index for a sequence), or
    names[argument] where the message names something else."""

    run: Callable
    kwargs: dict
    error: type
    kind: str
    names: dict = {}


TABLE = {
    # analysis
    "analysis.TankParams": Call(
        TankParams, dict(r_parallel=500.0, c_tank=2e-12, l_p=3e-9, k=0.8,
                         n=2.5), InvalidModelError, "tank"),
    "analysis.resonant_frequency": Call(
        resonant_frequency, dict(l_eq=1e-9, c_eq=1e-12), InvalidModelError,
        "resonance"),
    "analysis.figure_of_merit": Call(
        figure_of_merit, dict(f0_hz=2.5e9, offset_hz=1e6, power_mw=1.5,
                              phi_noise_dbc=-114.0),
        InvalidModelError, "figure of merit"),
    "analysis.phase_noise_leeson": Call(
        phase_noise_leeson, dict(t=TANK, p_sig_mw=1.0, offset_hz=1e6,
                                 f_excess_db=3.0),
        InvalidModelError, "phase noise"),
    "analysis.DesignSpec": Call(
        DesignSpec, dict(v_dd_v=0.7, f_c_hz=2.5e9, v_c_lo_v=0.1, v_c_hi_v=0.7,
                         l_p_target_h=3e-9, l_s_target_h=0.4e-9,
                         c_var_lo_f=2.1e-12, c_var_hi_f=6.3e-12,
                         v_out_pp_v=0.35, max_delta_v_out_v=0.025,
                         c_parasitic_f=0.4e-12),
        InvalidModelError, "design spec"),
    # devices
    "devices.MosParams": Call(
        MosParams, dict(polarity="n", k_factor=1e-3, v_th=0.3, lam=0.05),
        InvalidModelError, "mos"),
    "devices.VaractorModel": Call(
        VaractorModel, dict(c_min=1e-12, c_max=3e-12, v_lo=0.0, v_hi=0.7,
                            shape=2.0), InvalidModelError, "varactor"),
    "devices.TuningArray": Call(
        TuningArray, dict(c_unit=1e-12, code="01"), InvalidModelError,
        "tuning array"),
    "devices.p_channel_mirror": Call(
        p_channel_mirror, dict(nmos=MosParams("n", 1e-3, 0.3), k_ratio=2.0),
        InvalidModelError, "mirror"),
    "devices.check_coupled_set": Call(
        check_coupled_set, dict(n=2, matrix=((1e-9, 0.0), (0.0, 1e-9)),
                                series_r=(0.1, 0.1)),
        InvalidModelError, "coupled set"),
    "devices.BufferParams": Call(
        BufferParams, dict(c_couple=1e-12, r_feedback=1e5, p_to_n_ratio=2.0),
        InvalidModelError, "buffer"),
    # engine
    "engine.SimConfig": Call(
        SimConfig, dict(dt_s=1e-12, t_stop_s=1e-9), InvalidModelError,
        "sim config"),
    "engine.Waveforms": Call(
        Waveforms, dict(time_s=np.arange(3.0), voltages={}, currents={},
                        kcl_max_a=1e-12, solve_histogram=(0, 2)),
        InvalidModelError, "waveforms"),
    # geometry
    "geometry.ProcessParams": Call(
        ProcessParams, {}, InvalidGeometryError, "process"),
    # a segment row's values are checked where it enters, in its coil
    "geometry.round_row": Call(
        lambda **kw: coils_from_rows({"c": [round_row(**kw)]}),
        dict(start=(0.0, 0.0, 0.0), end=(1e-4, 0.0, 0.0), radius_m=1e-5),
        InvalidGeometryError, "segment"),
    "geometry.rect_row": Call(
        lambda **kw: coils_from_rows({"c": [rect_row(**kw)]}),
        dict(start=(0.0, 0.0, 0.0), end=(1e-4, 0.0, 0.0), width_m=1e-5,
             thickness_m=5e-6),
        InvalidGeometryError, "segment"),
    "geometry.TransformerGeometry": Call(
        TransformerGeometry, dict(GEOMETRY, trace_width_um=8.0,
                                  secondary_slots=((1,), (2,))),
        InvalidGeometryError, "geometry",
        {"secondary_slots": "secondary_slots"}),
    # inductance
    "inductance.skin_depth": Call(
        skin_depth, dict(freq_hz=2.5e9, resistivity_ohm_m=1.68e-8),
        InvalidGeometryError, "skin depth"),
    "inductance.winding_resistances": Call(
        lambda **kw: winding_resistances(
            pack_windings(list(coils().values())), **kw),
        dict(freq_hz=2.5e9, resistivity_ohm_m=1.68e-8),
        InvalidGeometryError, "resistance"),
    # metrology
    "metrology.SimMetrics": Call(
        SimMetrics, dict(oscillating=True, f_osc_hz=2e9, delta_v_out_v=0.01,
                         startup_s=1e-9, power_core_mw=1.5,
                         power_buffer_mw=0.5), InvalidModelError, "metrics"),
    "metrology.measure_metrics": Call(
        lambda **kw: measure_metrics(Waveforms(
            time_s=np.arange(3.0), voltages={"V_o1": np.zeros(3)},
            currents={}), **kw),
        dict(v_dd=0.7), InvalidModelError, "metrics"),
    # netlist
    "netlist.Resistor": Call(
        Resistor, dict(a=0, b=-1, ohms=1e3, label="r"), InvalidModelError,
        "resistor"),
    "netlist.Capacitor": Call(
        Capacitor, dict(a=0, b=-1, farads=1e-12, label="c"),
        InvalidModelError, "capacitor"),
    "netlist.VSource": Call(
        VSource, dict(p=0, n=-1, volts=0.7, label="v", ramp_s=1e-9),
        InvalidModelError, "vsource"),
    "netlist.CoupledInductors": Call(
        CoupledInductors, dict(pairs=((0, 1), (1, -1)),
                               matrix=((1e-9, 2e-10), (2e-10, 1e-9)),
                               series_r=(0.1, 0.2), label="k",
                               i_initial_a=(0.0, 1e-3)),
        InvalidModelError, "coupled set"),
    "netlist.Vccs": Call(
        Vccs, dict(p=0, n=-1, cp=0, cn=-1, gm=1e-3, label="g"),
        InvalidModelError, "vccs"),
    "netlist.Netlist.add_resistor": Call(
        lambda **kw: Netlist().add_resistor(**kw),
        dict(a="a", b="gnd", ohms=1e3), InvalidModelError, "resistor"),
    "netlist.Netlist.add_capacitor": Call(
        lambda **kw: Netlist().add_capacitor(**kw),
        dict(a="a", b="gnd", farads=1e-12), InvalidModelError, "capacitor"),
    "netlist.Netlist.add_inductor": Call(
        lambda **kw: Netlist().add_inductor(**kw),
        dict(a="a", b="gnd", henries=1e-9, i_initial_a=1e-3),
        InvalidModelError, "inductor"),
    "netlist.Netlist.add_vsource": Call(
        lambda **kw: Netlist().add_vsource(**kw),
        dict(p="a", n="gnd", volts=0.7, ramp_s=1e-9), InvalidModelError,
        "vsource"),
    "netlist.Netlist.add_vccs": Call(
        lambda **kw: Netlist().add_vccs(**kw),
        dict(p="a", n="gnd", cp="b", cn="gnd", gm=1e-3), InvalidModelError,
        "vccs"),
    "netlist.Netlist.set_initial_voltage": Call(
        lambda **kw: Netlist().set_initial_voltage(**kw),
        dict(node="a", volts=0.1), InvalidModelError, "initial condition",
        {"volts": "a"}),
    # topologies
    "topologies.TopologyParams": Call(
        TopologyParams, dict(v_dd_v=0.7, l_tank_h=2e-9, c_tank_f=1e-12,
                             r_tank_ohm=400.0, v_ctrl_v=0.0,
                             c_parasitic_f=1e-13),
        InvalidModelError, "topology"),
    "topologies.default_sim_config": Call(
        default_sim_config, dict(f_est_hz=2.5e9, n_periods=4),
        InvalidModelError, "sim config"),
    # transformer
    "transformer.default_secondary_slots": Call(
        default_secondary_slots, dict(n_primary=14, n_secondary=2),
        InvalidGeometryError, "slots"),
    "transformer.TransformerModel": Call(
        TransformerModel, MODEL, InvalidModelError, "transformer model"),
    "transformer.model_from_coils": Call(
        lambda **kw: model_from_coils(coils(), **kw),
        dict(eval_frequency_hz=DEFAULT_EVAL_FREQUENCY_HZ, area_mm2=0.2,
             resistivity_ohm_m=1.68e-8), InvalidModelError, "extraction"),
    "transformer.wheeler_spiral_inductance": Call(
        wheeler_spiral_inductance, dict(n_turns=3, outer_dim_um=200.0,
                                        inner_dim_um=60.0, width_um=10.0,
                                        spacing_um=2.0),
        InvalidGeometryError, "spiral"),
}

# Public names with a float or int parameter that take no check, and why.
EXEMPT = {
    "analysis.FeasibilityReport":
        "a result that design_tank builds from a checked TankParams",
    "devices.mos_row": "drain, gate and source slots the engine assigns",
    "devices.varactor_eval": "a device evaluator: Newton's inputs",
    "netlist.VSource.value_at": "evaluated at the engine's own step times",
}
# Parameters of TABLE names that take no check, and why.
UNCHECKED = {
    "devices.check_coupled_set.n":
        "the winding count, which the matrix shape check holds to the matrix",
}

# Every netlist element kind: its node-index fields (a winding's two
# terminals for the one-winding set), valid indices for them on the
# nodes of node_netlist, and the element built on given indices.
NODE_FIELDS = {
    Resistor: (("a", "b"), (0, -1), lambda *n: Resistor(*n, 1e3, "x")),
    Capacitor: (("a", "b"), (0, -1), lambda *n: Capacitor(*n, 1e-12, "x")),
    VSource: (("p", "n"), (0, -1), lambda *n: VSource(*n, 0.1, "x")),
    Vccs: (("p", "n", "cp", "cn"), (0, -1, 1, -1),
           lambda *n: Vccs(*n, 1e-3, "x")),
    Mos: (("d", "g", "s"), (0, 1, -1),
          lambda *n: Mos(*n, MosParams("n", 1e-3, 0.3), "x")),
    Varactor: (("a", "b", "cp", "cn"), (0, -1, 1, -1),
               lambda *n: Varactor(*n, VaractorModel(1e-12, 3e-12, 0.0, 0.7),
                                   "x")),
    CoupledInductors: (("pairs[0][0]", "pairs[0][1]"), (0, -1),
                       lambda a, b: CoupledInductors(((a, b),), ((1e-9,),),
                                                     (0.0,), "x", (0.0,))),
}
NODES = {f"netlist.{kind.__name__}.{name}"
         for kind, (names, _, _) in NODE_FIELDS.items() for name in names}


def _public_numeric_inputs() -> dict[str, dict[str, str]]:
    """Every public function, class and public method defined in the
    package, mapped to its float, int, point and sequence parameters,
    where it has any, each with its annotation."""
    found = {}
    for info in pkgutil.iter_modules(tsvqvco.__path__):
        module = importlib.import_module(f"tsvqvco.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__ or not callable(obj):
                continue
            targets = [(name, obj)]
            if inspect.isclass(obj):
                targets += [(f"{name}.{m}", f) for m, f in vars(obj).items()
                            if not m.startswith("_") and inspect.isfunction(f)]
            for qual, target in targets:
                try:
                    signature = inspect.signature(target)
                except ValueError:  # a dict subclass: ReadOnlyDict
                    continue
                params = {p.name: str(p.annotation)
                          for p in signature.parameters.values()
                          if str(p.annotation) in SCALARS
                          or POINT.fullmatch(str(p.annotation))
                          or SEQUENCE.fullmatch(str(p.annotation))
                          or NESTED.fullmatch(str(p.annotation))}
                if params:
                    found[f"{info.name}.{qual}"] = params
    return found


FOUND = _public_numeric_inputs()


def _entries(annotation: str, value) -> tuple[tuple[int, ...], ...]:
    """The entries tried of one argument, each as its index path: every
    coordinate of a point, the first and last of a sequence, every entry
    of a nested sequence, and the argument itself (the empty path) for a
    scalar."""
    if POINT.fullmatch(annotation):
        return tuple((k,) for k in range(len(value)))
    if SEQUENCE.fullmatch(annotation):
        return ((0,), (len(value) - 1,))
    if NESTED.fullmatch(annotation):
        return tuple((k, j) for k, row in enumerate(value) for j in range(len(row)))
    return ((),)


def _replaced(value, path: tuple[int, ...], bad):
    """value with the entry at path replaced by bad, as tuples."""
    if not path:
        return bad
    k, rest = path[0], path[1:]
    return tuple(_replaced(v, rest, bad) if n == k else v for n, v in enumerate(value))


# (name, parameter, entry path): a point is tried one coordinate at a
# time, a sequence at its ends, a nested sequence one entry at a time
TRIED = [(name, p, path) for name in sorted(TABLE)
         for p, annotation in FOUND.get(name, {}).items()
         if f"{name}.{p}" not in UNCHECKED and f"{name}.{p}" not in NODES
         for path in _entries(annotation, TABLE[name].kwargs.get(p))]


def test_every_public_numeric_input_is_tried_or_exempt():
    nodes_only = {name for name, params in FOUND.items()
                  if all(f"{name}.{p}" in NODES for p in params)}
    missing = set(FOUND) - set(TABLE) - set(EXEMPT) - nodes_only
    assert not missing, f"add a valid call to TABLE for {sorted(missing)}"
    assert not set(EXEMPT) & set(TABLE)
    stale = (set(TABLE) | set(EXEMPT)) - set(FOUND)
    assert not stale, f"no public numeric inputs left in {sorted(stale)}"
    for key in UNCHECKED:
        name, param = key.rsplit(".", 1)
        assert param in FOUND.get(name, ()), f"UNCHECKED names no input: {key}"


@pytest.mark.parametrize("name", sorted(TABLE))
def test_valid_call_passes(name):
    call = TABLE[name]
    call.run(**call.kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, True, 10**400, "1"],
                         ids=["nan", "inf", "bool", "huge_int", "str"])
@pytest.mark.parametrize("name, param, path", TRIED, ids=[
    f"{n}.{p}" + "".join(f"[{k}]" for k in path) for n, p, path in TRIED])
def test_bad_number_is_rejected_naming_the_input(name, param, path, bad):
    call = TABLE[name]
    # a sequence's message is indexed, nested or not; a point's is not
    indexed = not POINT.fullmatch(FOUND[name][param])
    field = call.names.get(param, param + "".join(f"[{k}]" for k in path if indexed))
    with pytest.raises(call.error, match="^" + re.escape(
            f"{call.kind} field {field} is not a finite number") + "$"):
        call.run(**{**call.kwargs, param: _replaced(call.kwargs.get(param), path, bad)})


# Valid calls for the classes with a block field and no numeric input.
BLOCKS = {
    "geometry.CoilGeometry": Call(
        CoilGeometry, dict(name="c", batch=COIL.batch, span=COIL.span),
        InvalidGeometryError, "coil"),
    "netlist.Mos": Call(
        Mos, dict(d=0, g=1, s=-1, params=MosParams("n", 1e-3, 0.3), label="m"),
        InvalidModelError, "mos"),
    "netlist.Varactor": Call(
        Varactor, dict(a=0, b=-1, cp=1, cn=-1,
                       model=VaractorModel(1e-12, 3e-12, 0.0, 0.7),
                       label="cv"), InvalidModelError, "varactor"),
}
BLOCK = re.compile(r"(tuple\[)?(\w+)(?(1), \.\.\.\])( \| None)?")


def _block_fields() -> list[tuple[str, str, str, bool]]:
    """(class, field, block class, is a tuple) of every dataclass field
    of the package annotated with a package class."""
    modules = [importlib.import_module(f"tsvqvco.{info.name}")
               for info in pkgutil.iter_modules(tsvqvco.__path__)]
    classes = {name for m in modules for name, obj in vars(m).items()
               if inspect.isclass(obj) and obj.__module__ == m.__name__}
    found = []
    for m in modules:
        for name, obj in vars(m).items():
            if not (dataclasses.is_dataclass(obj) and obj.__module__ == m.__name__):
                continue
            for f in dataclasses.fields(obj):
                match = BLOCK.fullmatch(str(f.type))
                if match and match[2] in classes:
                    found.append((f"{m.__name__.split('.')[1]}.{name}", f.name,
                                  match[2], bool(match[1])))
    return found


BLOCK_FIELDS = _block_fields()


def test_block_fields_are_found():
    assert {(name, field) for name, field, *_ in BLOCK_FIELDS} >= {
        ("topologies.TopologyParams", "transformer"),
        ("geometry.CoilGeometry", "batch")}
    assert not set(BLOCKS) & set(TABLE)
    assert set(BLOCKS) <= {name for name, *_ in BLOCK_FIELDS}


@pytest.mark.parametrize("name, field, cls, seq", BLOCK_FIELDS,
                         ids=[f"{n}.{f}" for n, f, *_ in BLOCK_FIELDS])
def test_string_for_a_block_is_rejected_naming_the_field(name, field, cls, seq):
    call = TABLE[name] if name in TABLE else BLOCKS[name]
    call.run(**call.kwargs)
    with pytest.raises(call.error, match="^" + re.escape(
            f"{call.kind} field {field}{'[0]' if seq else ''} must be a {cls}") + "$"):
        call.run(**{**call.kwargs, field: "x"})


def node_netlist(element) -> Netlist:
    """element beside a resistor on node a (index 0) and a 0.3 V source
    on node b (index 1)."""
    net = Netlist()
    net.add_resistor("a", "gnd", 1e3)
    net.add_vsource("b", "gnd", 0.3)
    net.elements.append(element)
    return net


NODE_SIM = SimConfig(dt_s=1e-12, t_stop_s=2e-12)
NODE_CASES = [(kind, i) for kind, (names, _, _) in NODE_FIELDS.items()
              for i in range(len(names))]


def test_node_table_lists_every_element_kind_and_node_field():
    assert set(typing.get_args(Element)) == set(NODE_FIELDS)
    for kind, (names, _, _) in NODE_FIELDS.items():
        declared = {f.name for f in dataclasses.fields(kind)
                    if re.search(r"\bint\b", str(f.type))}
        assert {name.split("[")[0] for name in names} == declared, kind


@pytest.mark.parametrize("index_type", [int, np.int64])
@pytest.mark.parametrize("kind", NODE_FIELDS, ids=lambda kind: kind.__name__)
def test_integer_node_indices_pass(kind, index_type):
    _, nodes, build = NODE_FIELDS[kind]
    transient(node_netlist(build(*map(index_type, nodes))), NODE_SIM)


@pytest.mark.parametrize("bad", [0.5, "0", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize("kind, i", NODE_CASES, ids=[
    f"{kind.__name__}.{NODE_FIELDS[kind][0][i]}" for kind, i in NODE_CASES])
def test_non_integer_node_index_is_refused(kind, i, bad):
    _, nodes, build = NODE_FIELDS[kind]
    nodes = list(nodes)
    nodes[i] = bad
    with pytest.raises(InvalidModelError, match="^" + re.escape(
            f"element x references unknown node {bad}") + "$"):
        transient(node_netlist(build(*nodes)), NODE_SIM)
