"""Built-in oscillator netlists.

Four topologies share one parameter block:

- "lc-vco":  NMOS cross-coupled pair, two drain inductors to the supply,
  differential RC tank.
- "tf-vco":  the same pair with per-side two-coil transformers; the
  drain coil is the primary and the source sits on the secondary.
- "cr-vco":  one stacked PMOS/NMOS pair with the tank between the two
  drains, gates cross-coupled; supply current is shared by both devices.
- "tc-qvco": two cr-vco cores whose tank inductors are the primaries of
  two three-coil transformers; each transformer's secondaries sit in the
  source paths of the *other* core, so the cores injection-lock in
  quadrature.  Outputs V_o1/V_o2 belong to core A, V_o3/V_o4 to core B.

build_netlist adds the supplies before a topology's own elements and,
when buffers are set, one AC-coupled self-biased inverter on its own
supply after them for every output the topology has.  The PMOS of a
core is the mirror of params.nmos, and both three-coil sets take one
dot sign per winding from DEFAULT_DOT_SIGNS.  A variant, such as a
wrong-dot control, is an edit of the built netlist, not an option here.

One helper, _add_tank, stamps the tank of every core of every topology
the same way.  An array bit is c_unit/2 in series with its switch, the
two-terminal equivalent of c_unit, switch, c_unit in series, whose one
middle node has a DC path.  All supplies ramp from zero over
SOURCE_RAMP_S, and every builder seeds startup itself: V_o1 starts at
PERTURBATION_V, every other node at 0 V.  The engine adds nothing to a
netlist's initial state.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .devices import (SWITCH_OFF_OHM, SWITCH_ON_OHM, BufferParams, MosParams,
                      TuningArray, VaractorModel, p_channel_mirror)
from .engine import SimConfig
from .errors import (NON_NEGATIVE, POSITIVE, InvalidModelError, check_finite,
                     check_type)
from .netlist import BUFFER_SUPPLY, CORE_SUPPLY, OUTPUTS, Netlist
from .transformer import TransformerModel

POINTS_PER_PERIOD = 200
# Ramp time of the built netlists' supplies.
SOURCE_RAMP_S = 1e-9
# Startup seed: the initial voltage of V_o1 in every built netlist.
PERTURBATION_V = 1e-3
# Capacitance on each buffer output: the input of the next stage.
BUFFER_LOAD_F = 20e-15

# Dot convention for the 3-coil sets, one sign per winding (primary,
# secondary1, secondary2): the second secondary is wound inverted, which
# is what turns the cross-core source injection into positive feedback
# once the cores are wired output->far-core-source.
DEFAULT_DOT_SIGNS = (1, 1, -1)


@dataclass(frozen=True)
class TopologyParams:
    """Device, tank and bias block consumed by build_netlist.

    _BUILDERS lists which _TOPOLOGY_FIELDS each topology needs and reads;
    build_netlist refuses any other that is set.  Every topology reads
    the other fields (v_ctrl_v only with a varactor).
    """

    # low-threshold devices: at 0.7 V supply the cores must stay in the
    # soft-switching regime or the quadrature amplitudes walk apart
    v_dd_v: float = 0.7
    nmos: MosParams = field(default_factory=lambda: MosParams(
        polarity="n", k_factor=0.026, v_th=0.09, lam=0.05))
    transformer: TransformerModel | None = None
    l_tank_h: float | None = None
    c_tank_f: float | None = None
    r_tank_ohm: float | None = None
    varactor: VaractorModel | None = None
    v_ctrl_v: float = 0.0
    array: TuningArray | None = None
    c_parasitic_f: float = 0.0
    buffers: BufferParams | None = None

    def __post_init__(self) -> None:
        for name, sign in (("v_dd_v", POSITIVE), ("l_tank_h", POSITIVE),
                           ("c_tank_f", POSITIVE), ("r_tank_ohm", POSITIVE),
                           ("v_ctrl_v", None), ("c_parasitic_f", NON_NEGATIVE)):
            value = getattr(self, name)
            if value is not None:  # the plain-tank values are optional
                check_finite(InvalidModelError, "topology", name, value, sign)
        check_type(InvalidModelError, "topology", "nmos", self.nmos, MosParams)
        for name, cls in (("transformer", TransformerModel), ("varactor", VaractorModel),
                          ("array", TuningArray), ("buffers", BufferParams)):
            value = getattr(self, name)
            if value is not None:  # the optional blocks
                check_type(InvalidModelError, "topology", name, value, cls)
        if self.nmos.polarity != "n":
            raise InvalidModelError("nmos must be an n-channel device")
        if self.v_ctrl_v != 0 and self.varactor is None:
            raise InvalidModelError("v_ctrl_v needs a varactor")

    def pmos(self) -> MosParams:
        """The core PMOS: the mirror of nmos."""
        return p_channel_mirror(self.nmos, 1.0)


def coupled_inductor_matrix(x: TransformerModel,
                            dot_signs=DEFAULT_DOT_SIGNS) -> tuple:
    """Signed inductance matrix of the first len(dot_signs) windings of
    one extracted transformer: entry (i, j) of the model's inductance
    matrix times dot_signs[i] dot_signs[j].  Reversing a winding's dot is
    a congruence, so definiteness is untouched."""
    l = x.inductance_matrix()
    return tuple(tuple(di * dj * l[i][j] for j, dj in enumerate(dot_signs))
                 for i, di in enumerate(dot_signs))


def _add_tank(net: Netlist, p: TopologyParams, a: str, b: str,
              tag: str) -> None:
    """One differential tank between nodes a and b: r_tank_ohm and
    c_tank_f across it when set, then varactor, parasitics and array."""
    if p.r_tank_ohm is not None:
        net.add_resistor(a, b, p.r_tank_ohm, label=f"r_tank_{tag}")
    if p.c_tank_f is not None:
        net.add_capacitor(a, b, p.c_tank_f, label=f"c_tank_{tag}")
    if p.varactor is not None:
        net.add_varactor(a, b, "v_ctrl", "gnd", p.varactor,
                         label=f"cvar_{tag}")
    if p.c_parasitic_f > 0:
        # drain parasitics land on the substrate, not across the tank;
        # grounding them also pins each end's common mode, which the
        # cross-coupled devices alone leave nearly free
        net.add_capacitor(a, "gnd", p.c_parasitic_f, label=f"cpar_{tag}1")
        net.add_capacitor(b, "gnd", p.c_parasitic_f, label=f"cpar_{tag}2")
    if p.array is not None:
        # a bit is c_unit, switch, c_unit in series; both capacitors carry
        # one charge, so c_unit/2 in series with the switch is the same
        # two-terminal branch, with one node and a DC path through it
        for bit, state in enumerate(p.array.code):
            mid = f"{tag}_b{bit}"
            net.add_capacitor(a, mid, 0.5 * p.array.c_unit,
                              label=f"ca_{tag}{bit}")
            ohms = SWITCH_ON_OHM if state == "1" else SWITCH_OFF_OHM
            net.add_resistor(mid, b, ohms, label=f"sw_{tag}{bit}")


def _add_buffer(net: Netlist, buf: BufferParams, src: str, tag: str) -> None:
    gate = f"buf_{tag}_in"
    out = f"buf_{tag}_out"
    net.add_capacitor(src, gate, buf.c_couple, label=f"cc_{tag}")
    net.add_resistor(gate, out, buf.r_feedback, label=f"rf_{tag}")
    net.add_mos(out, gate, "vdd_buf", buf.pmos(), label=f"mpb_{tag}")
    net.add_mos(out, gate, "gnd", buf.nmos, label=f"mnb_{tag}")
    net.add_capacitor(out, "gnd", BUFFER_LOAD_F, label=f"cl_{tag}")


def _build_lc_vco(net: Netlist, p: TopologyParams) -> None:
    net.add_inductor("vdd", "V_o1", p.l_tank_h, label="l_1")
    net.add_inductor("vdd", "V_o2", p.l_tank_h, label="l_2")
    _add_tank(net, p, "V_o1", "V_o2", "a")
    net.add_mos("V_o1", "V_o2", "gnd", p.nmos, label="mn_1")
    net.add_mos("V_o2", "V_o1", "gnd", p.nmos, label="mn_2")


def _build_tf_vco(net: Netlist, p: TopologyParams) -> None:
    x = p.transformer
    # drain coil is the primary, source rides the secondary; the inverted
    # dot makes the source swing opposite the drain (feedback boost)
    m = coupled_inductor_matrix(x, (1, -1))
    series = (x.r_pac, x.r_sac)
    net.add_coupled_inductors([("vdd", "V_o1"), ("src_1", "gnd")], m, series,
                              label="xfmr_1")
    net.add_coupled_inductors([("vdd", "V_o2"), ("src_2", "gnd")], m, series,
                              label="xfmr_2")
    _add_tank(net, p, "V_o1", "V_o2", "a")
    net.add_mos("V_o1", "V_o2", "src_1", p.nmos, label="mn_1")
    net.add_mos("V_o2", "V_o1", "src_2", p.nmos, label="mn_2")


def _build_cr_vco(net: Netlist, p: TopologyParams) -> None:
    net.add_mos("V_o1", "V_o2", "vdd", p.pmos(), label="mp_1")
    net.add_mos("V_o2", "V_o1", "gnd", p.nmos, label="mn_1")
    net.add_inductor("V_o1", "V_o2", p.l_tank_h, label="l_tank")
    _add_tank(net, p, "V_o1", "V_o2", "a")


def _build_tc_qvco(net: Netlist, p: TopologyParams) -> None:
    x = p.transformer
    series = (x.r_pac, x.r_sac, x.r_sac)
    m = coupled_inductor_matrix(x)

    # Transformer A's primary is core A's tank and its secondaries sit in
    # core B's source paths; transformer B mirrors this back.  With the s2
    # dot inverted these windings make each injection differential (the
    # receiving core's sources move apart), and reversing both of B's
    # secondaries makes the round trip antisymmetric: quadrature lock.
    net.add_coupled_inductors(
        [("V_o1", "V_o2"), ("vdd", "src_p_b"), ("gnd", "src_n_b")],
        m, series, label="xfmr_a")
    net.add_coupled_inductors(
        [("V_o3", "V_o4"), ("src_p_a", "vdd"), ("src_n_a", "gnd")],
        m, series, label="xfmr_b")

    for core, (op, on) in (("a", ("V_o1", "V_o2")), ("b", ("V_o3", "V_o4"))):
        net.add_mos(op, on, f"src_p_{core}", p.pmos(), label=f"mp_{core}")
        net.add_mos(on, op, f"src_n_{core}", p.nmos, label=f"mn_{core}")
        _add_tank(net, p, op, on, core)


# Each topology's builder, the _TOPOLOGY_FIELDS it needs and those it
# reads when set; it refuses the others, so none is silently ignored.
_TOPOLOGY_FIELDS = ("transformer", "l_tank_h", "c_tank_f", "r_tank_ohm")
_BUILDERS = {
    "lc-vco": (_build_lc_vco, ("l_tank_h", "c_tank_f", "r_tank_ohm"), ()),
    "tf-vco": (_build_tf_vco, ("transformer", "c_tank_f"), ("r_tank_ohm",)),
    "cr-vco": (_build_cr_vco, ("l_tank_h", "c_tank_f", "r_tank_ohm"), ()),
    "tc-qvco": (_build_tc_qvco, ("transformer",),
                ("c_tank_f", "r_tank_ohm")),
}
TOPOLOGIES = tuple(_BUILDERS)


def build_netlist(topology: str, params: TopologyParams) -> Netlist:
    """Construct one of the built-in oscillators; see module docstring."""
    if topology not in _BUILDERS:
        raise InvalidModelError(
            f"unknown topology {topology!r}; expected one of {TOPOLOGIES}")
    build, needs, reads = _BUILDERS[topology]
    missing = [n for n in needs if getattr(params, n) is None]
    unread = [n for n in _TOPOLOGY_FIELDS if n not in needs + reads
              and getattr(params, n) is not None]
    for names, verb in ((missing, "needs"), (unread, "does not read")):
        if names:
            raise InvalidModelError(f"{topology} {verb} {', '.join(names)}")
    net = Netlist()
    net.add_vsource("vdd", "gnd", params.v_dd_v, label=CORE_SUPPLY,
                    ramp_s=SOURCE_RAMP_S)
    if params.buffers is not None:
        net.add_vsource("vdd_buf", "gnd", params.v_dd_v, label=BUFFER_SUPPLY,
                        ramp_s=SOURCE_RAMP_S)
    if params.varactor is not None:
        net.add_vsource("v_ctrl", "gnd", params.v_ctrl_v, label="v_c",
                        ramp_s=SOURCE_RAMP_S)
    build(net, params)
    if params.buffers is not None:
        for tag, src in enumerate(OUTPUTS, start=1):
            if src in net.node_names:
                _add_buffer(net, params.buffers, src, str(tag))
    net.set_initial_voltage("V_o1", PERTURBATION_V)
    return net


def default_sim_config(f_est_hz: float, n_periods: int) -> SimConfig:
    """Step and span sized from an expected oscillation frequency:
    n_periods periods at POINTS_PER_PERIOD steps each."""
    check_finite(InvalidModelError, "sim config", "f_est_hz", f_est_hz, POSITIVE)
    check_finite(InvalidModelError, "sim config", "n_periods", n_periods)
    if n_periods < 2:
        raise InvalidModelError("simulation span too small")
    return SimConfig(dt_s=1.0 / (POINTS_PER_PERIOD * f_est_hz),
                     t_stop_s=n_periods / f_est_hz)
