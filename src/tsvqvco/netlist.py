"""Circuit netlists for the transient engine.

Nodes are referenced by name; "0" and "gnd" are the ground node.  Elements
are added through the add_* methods, which resolve names to indices at
insertion time so a finished netlist is a flat, ordered element list.  The
element order and the node registration order together fix the MNA unknown
ordering, which is what makes repeated runs bit-identical.

Each element checks its own values when it is built, so one appended to
elements directly is checked too.  The add_* methods check labels and
node names, and a rejected add changes nothing.  What needs the whole
netlist (known terminals, ground, no floating node) is checked by
engine._System.

Branch-current unknowns exist for inductors, every winding of a coupled
set, and voltage sources; everything else is stamped as a conductance or
a nonlinear current.  An inductor is a coupled set with one winding and
no series loss, whose branch is named by its label alone.
"""
from __future__ import annotations

from collections.abc import Collection, Sized
from dataclasses import dataclass, field

import numpy as np

from .devices import MosParams, VaractorModel, check_coupled_set
from .errors import (NON_NEGATIVE, POSITIVE, InvalidModelError, check_finite,
                     check_type)

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

    def __post_init__(self) -> None:
        check_finite(InvalidModelError, "resistor", "ohms", self.ohms, POSITIVE)


@dataclass(frozen=True)
class Capacitor:
    a: int
    b: int
    farads: float
    label: str

    def __post_init__(self) -> None:
        check_finite(InvalidModelError, "capacitor", "farads", self.farads, POSITIVE)


def _check_pairs(pairs) -> None:
    """Every winding of a coupled set has two terminals: node names for
    Netlist.add_coupled_inductors, node indices for CoupledInductors."""
    if not isinstance(pairs, Collection):
        raise InvalidModelError("coupled set field pairs must be a sequence")
    for w, pair in enumerate(pairs):
        if not (isinstance(pair, Sized) and len(pair) == 2):
            raise InvalidModelError(
                f"coupled set field pairs[{w}] must be a pair of terminals")


@dataclass(frozen=True)
class CoupledInductors:
    """N windings with a full, signed inductance matrix and series loss.

    pairs[w] = (a, b) is winding w from node a to node b; the branch
    current flows a -> b inside the winding and starts at i_initial_a[w].
    The two terminals of every pair are checked first, then the
    initial-current count, and devices.check_coupled_set checks every
    set; one winding with a 1x1 matrix is an inductor
    (Netlist.add_inductor), whose own messages come before the set's.
    The values are stored as tuples of floats.
    """

    pairs: tuple[tuple[int, int], ...]
    matrix: tuple[tuple[float, ...], ...]
    series_r: tuple[float, ...]
    label: str
    i_initial_a: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_pairs(self.pairs)
        n = len(self.pairs)
        if len(self.i_initial_a) != n:
            raise InvalidModelError("initial currents must match winding count")
        # one winding with a 1x1 matrix is an inductor, checked as one first
        if n == 1 and np.asarray(self.matrix, dtype=object).shape == (1, 1):
            check_finite(InvalidModelError, "inductor", "henries",
                         self.matrix[0][0], POSITIVE)
            check_finite(InvalidModelError, "inductor", "i_initial_a",
                         self.i_initial_a[0])
        check_coupled_set(n, self.matrix, self.series_r)
        for w, i0 in enumerate(self.i_initial_a):
            check_finite(InvalidModelError, "coupled set", f"i_initial_a[{w}]",
                         i0)
        object.__setattr__(self, "matrix", tuple(
            tuple(float(v) for v in row) for row in self.matrix))
        object.__setattr__(self, "series_r",
                           tuple(float(r) for r in self.series_r))
        object.__setattr__(self, "i_initial_a", tuple(self.i_initial_a))


@dataclass(frozen=True)
class Mos:
    d: int
    g: int
    s: int
    params: MosParams
    label: str

    def __post_init__(self) -> None:
        check_type(InvalidModelError, "mos", "params", self.params, MosParams)


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

    def __post_init__(self) -> None:
        check_type(InvalidModelError, "varactor", "model", self.model,
                   VaractorModel)


@dataclass(frozen=True)
class VSource:
    """Voltage source p -> n; value ramps linearly from 0 over ramp_s."""

    p: int
    n: int
    volts: float
    label: str
    ramp_s: float = 0.0

    def __post_init__(self) -> None:
        check_finite(InvalidModelError, "vsource", "volts", self.volts)
        check_finite(InvalidModelError, "vsource", "ramp_s", self.ramp_s, NON_NEGATIVE)

    def value_at(self, t: float) -> float:
        if self.ramp_s <= 0.0 or t >= self.ramp_s:
            return self.volts
        return self.volts * (t / self.ramp_s)


@dataclass(frozen=True)
class Vccs:
    """Current gm * (v_cp - v_cn) flowing from p through the element to n.

    Not part of any built topology; it wires the tests' linearized
    quadrature bench from the same netlist machinery.  Gain may be
    negative.
    """

    p: int
    n: int
    cp: int
    cn: int
    gm: float
    label: str

    def __post_init__(self) -> None:
        check_finite(InvalidModelError, "vccs", "gm", self.gm)


Element = (Resistor | Capacitor | CoupledInductors | Mos | Varactor | VSource
           | Vccs)


@dataclass
class Netlist:
    node_names: list[str] = field(default_factory=list)
    elements: list[Element] = field(default_factory=list)
    initial_voltages: dict[str, float] = field(default_factory=dict)

    def _add(self, kind: str, label: str | None, names, build) -> None:
        """Append build(label, *indices).  The label and node names are
        checked first; then the element checks its values as it is
        built, with the indices its names will get; only then are new
        nodes registered, so a rejected add changes nothing."""
        out = label if label is not None else f"{kind}{len(self.elements)}"
        # "<label>.w<w>" names a coupled set's windings, so no label has a dot
        if not isinstance(out, str) or "." in out:
            raise InvalidModelError(f"element label {out!r} must be a string without '.'")
        if any(e.label == out for e in self.elements):
            raise InvalidModelError(f"duplicate element label {out!r}")
        if not all(isinstance(name, str) and name for name in names):
            raise InvalidModelError("node names must be non-empty strings")
        new = [name for name in dict.fromkeys(names)
               if name not in GROUND_NAMES and name not in self.node_names]
        known = self.node_names + new
        element = build(out, *(GROUND if name in GROUND_NAMES
                                 else known.index(name) for name in names))
        self.node_names.extend(new)
        self.elements.append(element)

    def add_resistor(self, a: str, b: str, ohms: float,
                     label: str | None = None) -> None:
        self._add("r", label, (a, b),
                  lambda lbl, *nodes: Resistor(*nodes, ohms, lbl))

    def add_capacitor(self, a: str, b: str, farads: float,
                      label: str | None = None) -> None:
        self._add("c", label, (a, b),
                  lambda lbl, *nodes: Capacitor(*nodes, farads, lbl))

    def add_inductor(self, a: str, b: str, henries: float,
                     label: str | None = None,
                     i_initial_a: float = 0.0) -> None:
        self._add("l", label, (a, b), lambda lbl, *nodes: CoupledInductors(
            pairs=(nodes,), matrix=((henries,),), series_r=(0.0,),
            label=lbl, i_initial_a=(i_initial_a,)))

    def add_coupled_inductors(self, pairs, matrix, series_r,
                              label: str | None = None,
                              i_initial_a=None) -> None:
        _check_pairs(pairs)
        n = len(pairs)
        if n < 2:  # one winding is an inductor: add_inductor
            raise InvalidModelError("coupled set needs at least two windings")
        ic = i_initial_a if i_initial_a is not None else (0.0,) * n
        self._add("k", label, [t for a, b in pairs for t in (a, b)],
                  lambda lbl, *nodes: CoupledInductors(
                      pairs=tuple(zip(nodes[0::2], nodes[1::2])),
                      matrix=matrix, series_r=series_r, label=lbl,
                      i_initial_a=ic))

    def add_mos(self, d: str, g: str, s: str, params: MosParams,
                label: str | None = None) -> None:
        self._add("m", label, (d, g, s),
                  lambda lbl, *nodes: Mos(*nodes, params, lbl))

    def add_varactor(self, a: str, b: str, cp: str, cn: str,
                     model: VaractorModel, label: str | None = None) -> None:
        self._add("cv", label, (a, b, cp, cn),
                  lambda lbl, *nodes: Varactor(*nodes, model, lbl))

    def add_vsource(self, p: str, n: str, volts: float,
                    label: str | None = None, ramp_s: float = 0.0) -> None:
        self._add("v", label, (p, n),
                  lambda lbl, *nodes: VSource(*nodes, volts, lbl, ramp_s))

    def add_vccs(self, p: str, n: str, cp: str, cn: str, gm: float,
                 label: str | None = None) -> None:
        self._add("g", label, (p, n, cp, cn),
                  lambda lbl, *nodes: Vccs(*nodes, gm, lbl))

    def set_initial_voltage(self, node: str, volts: float) -> None:
        """Start node at volts.  Only elements register nodes, so a name
        that no element uses fails the engine's check as an initial
        condition on an unknown node."""
        if node in GROUND_NAMES:
            raise InvalidModelError("ground is fixed at 0 V")
        check_finite(InvalidModelError, "initial condition", node, volts)
        if not isinstance(node, str) or not node:
            raise InvalidModelError("node names must be non-empty strings")
        self.initial_voltages[node] = volts
