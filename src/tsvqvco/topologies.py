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
core is the mirror of params.nmos, and the three-coil sets take their
dot signs from DEFAULT_DOT_SIGNS (flip_dots reverses transformer B's
primary dots).

Tank capacitance in every topology is the sum of an optional varactor,
an optional switched 2-bit array and a fixed parasitic.  All supplies
ramp from zero over SOURCE_RAMP_S, and every builder seeds startup
itself: V_o1 starts at PERTURBATION_V, every other node at 0 V.  The
engine adds nothing to a netlist's initial state.

build_quadrature_bench is different in kind: it is the linearized
small-signal model of the coupled cores (controlled sources instead of
transistors), used to check growth thresholds and the oscillation
frequency against the closed-form tank analysis.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import TankParams, min_transconductance
from .devices import (SWITCH_OFF_OHM, SWITCH_ON_OHM, BufferParams, MosParams,
                      TuningArray, VaractorModel, p_channel_mirror)
from .engine import SimConfig
from .errors import InvalidModelError, check_finite
from .netlist import BUFFER_SUPPLY, CORE_SUPPLY, OUTPUTS, Netlist
from .transformer import TransformerModel

POINTS_PER_PERIOD = 200
# Ramp time of the built netlists' supplies.
SOURCE_RAMP_S = 1e-9
# Startup seed: the initial voltage of V_o1 in every built netlist.
PERTURBATION_V = 1e-3
# Capacitance on each buffer output: the input of the next stage.
BUFFER_LOAD_F = 20e-15

# Dot convention for the 3-coil sets: the secondaries are wound so that
# coupling into the second secondary is inverted, which is what turns the
# cross-core source injection into positive feedback once the cores are
# wired output->far-core-source.  flip_dots departs from it to show lock
# failure.
DEFAULT_DOT_SIGNS = ((1, 1, -1),
                     (1, 1, -1),
                     (-1, -1, 1))


@dataclass(frozen=True)
class TopologyParams:
    """Device, tank and bias block consumed by build_netlist.

    Per-topology requirements are checked by the builders: the
    transformer-based topologies need `transformer`, the plain-tank ones
    need l_tank_h / c_tank_f / r_tank_ohm.
    """

    # low-threshold devices: at 0.7 V supply the cores must stay in the
    # soft-switching regime or the quadrature amplitudes walk apart
    v_dd_v: float = 0.7
    nmos: MosParams = field(default_factory=lambda: MosParams(
        polarity="n", k_factor=0.026, v_th=0.09, lam=0.05))
    transformer: TransformerModel | None = None
    flip_dots: bool = False
    l_tank_h: float | None = None
    c_tank_f: float | None = None
    r_tank_ohm: float | None = None
    varactor: VaractorModel | None = None
    v_ctrl_v: float = 0.0
    array: TuningArray | None = None
    c_parasitic_f: float = 0.0
    buffers: BufferParams | None = None

    def __post_init__(self) -> None:
        for name in ("v_dd_v", "l_tank_h", "c_tank_f", "r_tank_ohm",
                     "v_ctrl_v", "c_parasitic_f"):
            value = getattr(self, name)
            if value is not None:  # the plain-tank values are optional
                check_finite(InvalidModelError, "topology", name, value)
        if self.v_dd_v <= 0:
            raise InvalidModelError("supply voltage must be positive")
        if self.nmos.polarity != "n":
            raise InvalidModelError("nmos must be an n-channel device")
        if self.c_parasitic_f < 0:
            raise InvalidModelError("parasitic capacitance cannot be negative")

    def pmos(self) -> MosParams:
        """The core PMOS: the mirror of nmos."""
        return p_channel_mirror(self.nmos, 1.0)


def flip_ps_signs(dot_signs) -> tuple:
    """Reverse both primary dots: negates primary-secondary coupling and
    keeps the secondary-secondary term (congruence, so definiteness is
    untouched)."""
    d = (1, -1, -1)
    return tuple(tuple(d[i] * dot_signs[i][j] * d[j] for j in range(3))
                 for i in range(3))


def coupled_inductor_matrix(x: TransformerModel,
                            dot_signs=DEFAULT_DOT_SIGNS) -> tuple:
    """Signed 3x3 inductance matrix of one extracted transformer: the
    model's inductance matrix with each entry multiplied by its dot sign."""
    return tuple(
        tuple(dot_signs[i][j] * m_ij for j, m_ij in enumerate(row))
        for i, row in enumerate(x.inductance_matrix()))


def _require(p: TopologyParams, names: tuple[str, ...], topo: str) -> None:
    missing = [n for n in names if getattr(p, n) is None]
    if missing:
        raise InvalidModelError(f"{topo} needs {', '.join(missing)}")


def _add_tank_caps(net: Netlist, p: TopologyParams, a: str, b: str,
                   tag: str) -> None:
    """Capacitive side of one differential tank: varactor and switched
    array between nodes a and b, parasitic junction caps to ground."""
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
        # one series C-switch-C branch per bit; each branch contributes
        # c_unit/2 differentially when closed and almost nothing when open
        for bit, state in enumerate(p.array.code):
            m1 = f"{tag}_b{bit}p"
            m2 = f"{tag}_b{bit}n"
            net.add_capacitor(a, m1, p.array.c_unit, label=f"ca_{tag}{bit}")
            ohms = SWITCH_ON_OHM if state == "1" else SWITCH_OFF_OHM
            net.add_resistor(m1, m2, ohms, label=f"sw_{tag}{bit}")
            net.add_capacitor(m2, b, p.array.c_unit, label=f"cb_{tag}{bit}")


def _add_buffer(net: Netlist, buf: BufferParams, src: str, tag: str) -> None:
    gate = f"buf_{tag}_in"
    out = f"buf_{tag}_out"
    net.add_capacitor(src, gate, buf.c_couple, label=f"cc_{tag}")
    net.add_resistor(gate, out, buf.r_feedback, label=f"rf_{tag}")
    net.add_mos(out, gate, "vdd_buf", buf.pmos(), label=f"mpb_{tag}")
    net.add_mos(out, gate, "gnd", buf.nmos, label=f"mnb_{tag}")
    net.add_capacitor(out, "gnd", BUFFER_LOAD_F, label=f"cl_{tag}")


def _build_lc_vco(net: Netlist, p: TopologyParams) -> None:
    _require(p, ("l_tank_h", "c_tank_f", "r_tank_ohm"), "lc-vco")
    net.add_inductor("vdd", "V_o1", p.l_tank_h, label="l_1")
    net.add_inductor("vdd", "V_o2", p.l_tank_h, label="l_2")
    net.add_resistor("V_o1", "V_o2", p.r_tank_ohm, label="r_tank")
    net.add_capacitor("V_o1", "V_o2", p.c_tank_f, label="c_tank")
    _add_tank_caps(net, p, "V_o1", "V_o2", "a")
    net.add_mos("V_o1", "V_o2", "gnd", p.nmos, label="mn_1")
    net.add_mos("V_o2", "V_o1", "gnd", p.nmos, label="mn_2")


def _build_tf_vco(net: Netlist, p: TopologyParams) -> None:
    _require(p, ("transformer", "c_tank_f"), "tf-vco")
    x = p.transformer
    # drain coil is the primary, source rides the secondary; the inverted
    # dot makes the source swing opposite the drain (feedback boost)
    l = x.inductance_matrix()
    m = ((l[0][0], -l[0][1]), (-l[1][0], l[1][1]))
    series = (x.r_pac, x.r_sac)
    net.add_coupled_inductors([("vdd", "V_o1"), ("src_1", "gnd")], m, series,
                              label="xfmr_1")
    net.add_coupled_inductors([("vdd", "V_o2"), ("src_2", "gnd")], m, series,
                              label="xfmr_2")
    net.add_capacitor("V_o1", "V_o2", p.c_tank_f, label="c_tank")
    if p.r_tank_ohm is not None:
        net.add_resistor("V_o1", "V_o2", p.r_tank_ohm, label="r_tank")
    _add_tank_caps(net, p, "V_o1", "V_o2", "a")
    net.add_mos("V_o1", "V_o2", "src_1", p.nmos, label="mn_1")
    net.add_mos("V_o2", "V_o1", "src_2", p.nmos, label="mn_2")


def _build_cr_vco(net: Netlist, p: TopologyParams) -> None:
    _require(p, ("l_tank_h", "c_tank_f", "r_tank_ohm"), "cr-vco")
    net.add_mos("V_o1", "V_o2", "vdd", p.pmos(), label="mp_1")
    net.add_mos("V_o2", "V_o1", "gnd", p.nmos, label="mn_1")
    net.add_inductor("V_o1", "V_o2", p.l_tank_h, label="l_tank")
    net.add_resistor("V_o1", "V_o2", p.r_tank_ohm, label="r_tank")
    net.add_capacitor("V_o1", "V_o2", p.c_tank_f, label="c_tank")
    _add_tank_caps(net, p, "V_o1", "V_o2", "a")


def _build_tc_qvco(net: Netlist, p: TopologyParams) -> None:
    _require(p, ("transformer",), "tc-qvco")
    x = p.transformer
    series = (x.r_pac, x.r_sac, x.r_sac)
    # flipping one transformer's primary dots turns the antisymmetric
    # round trip into a symmetric one, which locks the cores at 0/180
    # instead of quadrature; flipping both would just relabel the modes
    signs_b = (flip_ps_signs(DEFAULT_DOT_SIGNS) if p.flip_dots
               else DEFAULT_DOT_SIGNS)

    # Transformer A: primary is core A's tank, secondaries feed core B's
    # sources.  Transformer B mirrors this back with the secondary
    # connections reversed, which is what makes the round-trip coupling
    # antisymmetric and locks the cores 90 degrees apart.
    # Winding order encodes the polarity: with the s2 dot inverted, these
    # orientations make each injection differential (the two sources of
    # the receiving core move apart), and reversing both of transformer
    # B's secondaries makes the round trip antisymmetric.
    net.add_coupled_inductors(
        [("V_o1", "V_o2"), ("vdd", "src_p_b"), ("gnd", "src_n_b")],
        coupled_inductor_matrix(x), series, label="xfmr_a")
    net.add_coupled_inductors(
        [("V_o3", "V_o4"), ("src_p_a", "vdd"), ("src_n_a", "gnd")],
        coupled_inductor_matrix(x, signs_b), series, label="xfmr_b")

    for core, (op, on) in (("a", ("V_o1", "V_o2")), ("b", ("V_o3", "V_o4"))):
        net.add_mos(op, on, f"src_p_{core}", p.pmos(), label=f"mp_{core}")
        net.add_mos(on, op, f"src_n_{core}", p.nmos, label=f"mn_{core}")
        if p.r_tank_ohm is not None:
            net.add_resistor(op, on, p.r_tank_ohm, label=f"r_tank_{core}")
        _add_tank_caps(net, p, op, on, core)


_BUILDERS = {
    "lc-vco": _build_lc_vco,
    "tf-vco": _build_tf_vco,
    "cr-vco": _build_cr_vco,
    "tc-qvco": _build_tc_qvco,
}
TOPOLOGIES = tuple(_BUILDERS)


def build_netlist(topology: str, params: TopologyParams) -> Netlist:
    """Construct one of the built-in oscillators; see module docstring."""
    if topology not in _BUILDERS:
        raise InvalidModelError(
            f"unknown topology {topology!r}; expected one of {TOPOLOGIES}")
    net = Netlist()
    net.add_vsource("vdd", "gnd", params.v_dd_v, label=CORE_SUPPLY,
                    ramp_s=SOURCE_RAMP_S)
    if params.buffers is not None:
        net.add_vsource("vdd_buf", "gnd", params.v_dd_v, label=BUFFER_SUPPLY,
                        ramp_s=SOURCE_RAMP_S)
    if params.varactor is not None:
        net.add_vsource("v_ctrl", "gnd", params.v_ctrl_v, label="v_c",
                        ramp_s=SOURCE_RAMP_S)
    _BUILDERS[topology](net, params)
    if params.buffers is not None:
        for tag, src in enumerate(OUTPUTS, start=1):
            if src in net.node_names:
                _add_buffer(net, params.buffers, src, str(tag))
    net.set_initial_voltage("V_o1", PERTURBATION_V)
    return net


def build_quadrature_bench(t: TankParams, g_m_margin: float) -> Netlist:
    """Linearized two-core quadrature model: per core one parallel RLC to
    ground (L is the reflected k^2 L_p) plus controlled sources carrying
    the small-signal core action.

    The self term g_m (1/2 - 1/kn^2) turns into exactly 1/R at margin 1,
    so the envelope grows above margin 1 and decays below it; the cross
    term 1.5 g_m / kn is antisymmetric between the cores, which selects
    the +-90 degree modes.  Like build_netlist, it seeds startup with
    V_o1 at PERTURBATION_V.
    """
    check_finite(InvalidModelError, "quadrature bench", "g_m_margin",
                 g_m_margin)
    if g_m_margin <= 0:
        raise InvalidModelError("transconductance margin must be positive")
    g_m = g_m_margin * min_transconductance(t)
    g_self = g_m * (0.5 - 1.0 / (t.kn * t.kn))
    g_cross = 1.5 * g_m / t.kn

    net = Netlist()
    for node in ("V_o1", "V_o3"):
        net.add_resistor(node, "gnd", t.r_parallel, label=f"r_{node}")
        net.add_inductor(node, "gnd", t.l_eq, label=f"l_{node}")
        net.add_capacitor(node, "gnd", t.c_tank, label=f"c_{node}")
    net.add_vccs("V_o1", "gnd", "V_o1", "gnd", -g_self, label="g_self_1")
    net.add_vccs("V_o3", "gnd", "V_o3", "gnd", -g_self, label="g_self_3")
    net.add_vccs("V_o1", "gnd", "V_o3", "gnd", -g_cross, label="g_cross_13")
    net.add_vccs("V_o3", "gnd", "V_o1", "gnd", g_cross, label="g_cross_31")
    net.set_initial_voltage("V_o1", PERTURBATION_V)
    return net


def default_sim_config(f_est_hz: float, n_periods: int) -> SimConfig:
    """Step and span sized from an expected oscillation frequency:
    n_periods periods at POINTS_PER_PERIOD steps each."""
    check_finite(InvalidModelError, "sim config", "f_est_hz", f_est_hz)
    check_finite(InvalidModelError, "sim config", "n_periods", n_periods)
    if f_est_hz <= 0:
        raise InvalidModelError("frequency estimate must be positive")
    if n_periods < 2:
        raise InvalidModelError("simulation span too small")
    return SimConfig(dt_s=1.0 / (POINTS_PER_PERIOD * f_est_hz),
                     t_stop_s=n_periods / f_est_hz)
