"""Circuit netlists for the transient engine.

Nodes are referenced by name; "0" and "gnd" are the ground node.  Elements
are added through the add_* methods, which resolve names to indices at
insertion time so a finished netlist is a flat, ordered element list.  The
element order and the node registration order together fix the MNA unknown
ordering, which is what makes repeated runs bit-identical.

Branch-current unknowns exist for inductors, every winding of a coupled
set, and voltage sources; everything else is stamped as a conductance or
a nonlinear current.  An inductor is a coupled set with one winding and
no series loss, whose branch is named by its label alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .devices import MosParams, VaractorModel, check_coupled_set
from .errors import InvalidModelError, check_finite

GROUND_NAMES = ("0", "gnd")
GROUND = -1
# Labels of the built topologies' core and buffer supply sources; their
# branch currents I(<label>) give the supply power.
CORE_SUPPLY = "vdd_core"
BUFFER_SUPPLY = "vdd_buf"
# Output nodes of the built topologies, in order; each topology has the
# first two or all four.
OUTPUTS = ("V_o1", "V_o2", "V_o3", "V_o4")


@dataclass(frozen=True)
class Resistor:
    a: int
    b: int
    ohms: float
    label: str


@dataclass(frozen=True)
class Capacitor:
    a: int
    b: int
    farads: float
    label: str


@dataclass(frozen=True)
class CoupledInductors:
    """N windings with a full, signed inductance matrix and series loss.

    pairs[w] = (a, b) is winding w from node a to node b; the branch
    current flows a -> b inside the winding and starts at i_initial_a[w].
    """

    pairs: tuple[tuple[int, int], ...]
    matrix: tuple[tuple[float, ...], ...]
    series_r: tuple[float, ...]
    label: str
    i_initial_a: tuple[float, ...]


@dataclass(frozen=True)
class Mos:
    d: int
    g: int
    s: int
    params: MosParams
    label: str


@dataclass(frozen=True)
class Varactor:
    """Voltage-controlled capacitor between a and b.

    The control pair (cp, cn) only senses a voltage; no current flows
    through it.  Charge is q = C(v_ctrl) * v_ab.
    """

    a: int
    b: int
    cp: int
    cn: int
    model: VaractorModel
    label: str


@dataclass(frozen=True)
class VSource:
    """Voltage source p -> n; value ramps linearly from 0 over ramp_s."""

    p: int
    n: int
    volts: float
    label: str
    ramp_s: float = 0.0

    def value_at(self, t: float) -> float:
        if self.ramp_s <= 0.0 or t >= self.ramp_s:
            return self.volts
        return self.volts * (t / self.ramp_s)


@dataclass(frozen=True)
class Vccs:
    """Current gm * (v_cp - v_cn) flowing from p through the element to n.

    Not part of any built topology; exists so linearized benches can be
    wired from the same netlist machinery.  Gain may be negative.
    """

    p: int
    n: int
    cp: int
    cn: int
    gm: float
    label: str


Element = (Resistor | Capacitor | CoupledInductors | Mos | Varactor | VSource
           | Vccs)


@dataclass
class Netlist:
    node_names: list[str] = field(default_factory=list)
    elements: list[Element] = field(default_factory=list)
    initial_voltages: dict[str, float] = field(default_factory=dict)

    def node(self, name: str) -> int:
        """Index for a named node, creating it on first use."""
        if not isinstance(name, str) or not name:
            raise InvalidModelError("node names must be non-empty strings")
        if name in GROUND_NAMES:
            return GROUND
        try:
            return self.node_names.index(name)
        except ValueError:
            self.node_names.append(name)
            return len(self.node_names) - 1

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    def _resolve(self, label: str | None, kind: str, *names: str) -> tuple[str, list[int]]:
        """An element's label and terminal indices; every check runs before
        the first new node is registered, so a rejected add changes nothing."""
        out = label if label is not None else f"{kind}{len(self.elements)}"
        # "<label>.w<w>" names a coupled set's windings, so no label has a dot
        if not isinstance(out, str) or "." in out:
            raise InvalidModelError(f"element label {out!r} must be a string without '.'")
        if any(e.label == out for e in self.elements):
            raise InvalidModelError(f"duplicate element label {out!r}")
        if not all(isinstance(name, str) and name for name in names):
            raise InvalidModelError("node names must be non-empty strings")
        return out, [self.node(name) for name in names]

    def add_resistor(self, a: str, b: str, ohms: float,
                     label: str | None = None) -> None:
        check_finite(InvalidModelError, "resistor", "ohms", ohms)
        if ohms <= 0:
            raise InvalidModelError("resistance must be positive")
        label, nodes = self._resolve(label, "r", a, b)
        self.elements.append(Resistor(*nodes, ohms, label))

    def add_capacitor(self, a: str, b: str, farads: float,
                      label: str | None = None) -> None:
        check_finite(InvalidModelError, "capacitor", "farads", farads)
        if farads <= 0:
            raise InvalidModelError("capacitance must be positive")
        label, nodes = self._resolve(label, "c", a, b)
        self.elements.append(Capacitor(*nodes, farads, label))

    def add_inductor(self, a: str, b: str, henries: float,
                     label: str | None = None,
                     i_initial_a: float = 0.0) -> None:
        check_finite(InvalidModelError, "inductor", "henries", henries)
        check_finite(InvalidModelError, "inductor", "i_initial_a", i_initial_a)
        if henries <= 0:
            raise InvalidModelError("inductance must be positive")
        label, nodes = self._resolve(label, "l", a, b)
        self.elements.append(CoupledInductors(
            pairs=(tuple(nodes),), matrix=((henries,),), series_r=(0.0,),
            label=label, i_initial_a=(i_initial_a,)))

    def add_coupled_inductors(self, pairs, matrix, series_r,
                              label: str | None = None,
                              i_initial_a=None) -> None:
        n = len(pairs)
        check_coupled_set(n, matrix, series_r)
        ic = tuple(i_initial_a) if i_initial_a is not None else (0.0,) * n
        if len(ic) != n:
            raise InvalidModelError("initial currents must match winding count")
        for w, i0 in enumerate(ic):
            check_finite(InvalidModelError, "coupled set", f"i_initial_a[{w}]",
                         i0)
        label, nodes = self._resolve(label, "k", *(t for a, b in pairs for t in (a, b)))
        self.elements.append(CoupledInductors(
            pairs=tuple(zip(nodes[0::2], nodes[1::2])),
            matrix=tuple(tuple(float(v) for v in row) for row in matrix),
            series_r=tuple(float(r) for r in series_r),
            label=label, i_initial_a=ic))

    def add_mos(self, d: str, g: str, s: str, params: MosParams,
                label: str | None = None) -> None:
        label, nodes = self._resolve(label, "m", d, g, s)
        self.elements.append(Mos(*nodes, params, label))

    def add_varactor(self, a: str, b: str, cp: str, cn: str,
                     model: VaractorModel, label: str | None = None) -> None:
        label, nodes = self._resolve(label, "cv", a, b, cp, cn)
        self.elements.append(Varactor(*nodes, model, label))

    def add_vsource(self, p: str, n: str, volts: float,
                    label: str | None = None, ramp_s: float = 0.0) -> None:
        check_finite(InvalidModelError, "vsource", "volts", volts)
        check_finite(InvalidModelError, "vsource", "ramp_s", ramp_s)
        if ramp_s < 0:
            raise InvalidModelError("source ramp must be non-negative")
        label, nodes = self._resolve(label, "v", p, n)
        self.elements.append(VSource(*nodes, volts, label, ramp_s))

    def add_vccs(self, p: str, n: str, cp: str, cn: str, gm: float,
                 label: str | None = None) -> None:
        check_finite(InvalidModelError, "vccs", "gm", gm)
        label, nodes = self._resolve(label, "g", p, n, cp, cn)
        self.elements.append(Vccs(*nodes, gm, label))

    def set_initial_voltage(self, node: str, volts: float) -> None:
        if node in GROUND_NAMES:
            raise InvalidModelError("ground is fixed at 0 V")
        check_finite(InvalidModelError, "initial condition", node, volts)
        self.node(node)
        self.initial_voltages[node] = volts

    def _terminal_nodes(self, e: Element) -> tuple[int, ...]:
        if isinstance(e, CoupledInductors):
            return tuple(n for pair in e.pairs for n in pair)
        if isinstance(e, Mos):
            return (e.d, e.g, e.s)
        if isinstance(e, (Varactor, Vccs)):
            return (e.a, e.b, e.cp, e.cn) if isinstance(e, Varactor) \
                else (e.p, e.n, e.cp, e.cn)
        if isinstance(e, VSource):
            return (e.p, e.n)
        return (e.a, e.b)

    def validate(self) -> None:
        if not self.elements:
            raise InvalidModelError("netlist has no elements")
        touched: set[int] = set()
        grounded = False
        for e in self.elements:
            for n in self._terminal_nodes(e):
                if n == GROUND:
                    grounded = True
                elif not 0 <= n < self.n_nodes:
                    raise InvalidModelError(
                        f"element {e.label} references unknown node {n}")
                else:
                    touched.add(n)
        if not grounded:
            raise InvalidModelError("no element is connected to ground")
        floating = set(range(self.n_nodes)) - touched
        if floating:
            names = sorted(self.node_names[i] for i in floating)
            raise InvalidModelError(f"nodes used by no element: {names}")
        for name in self.initial_voltages:
            if name not in self.node_names:
                raise InvalidModelError(
                    f"initial condition on unknown node {name!r}")
