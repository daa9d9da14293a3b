"""Transient MNA engine: trapezoidal integration, Newton per step.

Unknown ordering is node voltages (registration order) followed by branch
currents (element order); branches exist for inductors, coupled-set
windings (an inductor is a one-winding set) and voltage sources.  Every
size + 1 array ends in a ground slot, which GROUND = -1 indexes.  The
circuit is a_static x + dq/dt = s(t): the charge q(x) is a_react x (node
charge, negated branch flux) plus each varactor's C(v_ctl) v_ab on its
two node rows.  The linear stamps are assembled once per run; per step
only the right-hand side moves.

Every transistor and varactor fits one stamp pattern: it drives a current
into row p and out of row n, and that current has one partial on each of
two column differences (a MOS: i_d from d to s, g_m on g - s and g_ds on
d - s; a varactor: coef C v_sig from a to b, coef C on a - b and
coef v_sig dC/dv on cp - cn).  _System turns the pattern into two
constant matrices, built once per run: the incidence inc (rows by
devices) and the Jacobian stamp matrix jst (flattened rows and columns by
partials).  A Newton iteration evaluates the devices once (_device_values:
one devices.mos_eval per transistor and one devices.varactor_eval per
varactor, so the engine has no device equations of its own), forms the
residual a0 x - b + inc @ currents and tests it; only when a solve follows
does it build the Jacobian, in one product.

Solves are row-equilibrated: branch rows mix +-1 voltage entries with
L/h terms in the hundreds, which would otherwise eat the pivots.  The
scales r = 1 / max_j |a0[i, j]| come from the linear stamps alone, so each
integrator coefficient gets a _Stage, built once per run, holding a0, |a0|,
r, r a0 and r jst; a solve is (r a0 + (r jst) @ partials) dx = r f.  The
scaling only steers the pivots: every accepted point passes the unscaled
residual test and the per-step KCL gate.

Every step, linear circuits included, is solved by Newton from the
quadratic extrapolation of the last three accepted solutions (linear
through two, else the previous one); a linear circuit converges after
one solve, and the residual test accepts it.  Accepted solutions keep
the ground slot, always 0, so the extrapolation is the extended start.

The step history is q and its derivative i at the last accepted step.
A trapezoidal step (coef = 2/h) solves
a_static x + coef q(x) = s(t) + coef q_prev + i_prev and then sets
i = coef (q - q_prev) - i_prev.  The first step is backward Euler: the
same two equations with coef = 1/h and the initial i_prev = 0.  It needs
no derivative history, so a discontinuous turn-on (step sources, charged
capacitors) does not poison the trapezoidal rule with an inconsistent
initial derivative.  The initial state is what the netlist declares: its
initial node voltages and winding currents, zero everywhere else.

All arithmetic is straight float64 numpy with a fixed evaluation order,
so repeated runs of the same netlist are bit-identical.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .devices import mos_eval, varactor_eval
from .errors import InvalidModelError, NumericFailure, check_finite
from .netlist import (
    GROUND,
    Capacitor,
    CoupledInductors,
    Mos,
    Netlist,
    Resistor,
    Varactor,
    Vccs,
    VSource,
)

NEWTON_REL = 1e-9
NEWTON_ABS = 1e-12
MAX_NEWTON = 50
# Per-step KCL gate on every node row (amperes).
KCL_ABS_A = 1e-9
# Leak conductance (siemens) from every transistor drain and source
# terminal to ground.  Without it a circuit region whose transistors are
# all cut off has no defined common-mode voltage and the matrix is
# singular.  1 nS is nine decades below the operating conductances here,
# so it never shows in the waveforms.
GMIN = 1e-9
# Largest step-size spread, relative to the mean step, of a uniform grid.
UNIFORM_STEP_REL = 1e-6


@dataclass(frozen=True)
class SimConfig:
    """Fixed step and stop time of one transient; the Newton tolerances,
    the KCL gate and the leak are the constants above."""

    dt_s: float
    t_stop_s: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            check_finite(InvalidModelError, "sim config", name, value)
        if self.dt_s <= 0:
            raise InvalidModelError("time step must be positive")
        if self.t_stop_s <= self.dt_s:
            raise InvalidModelError("stop time must exceed the time step")


@dataclass(frozen=True)
class Waveforms:
    """Uniform-grid simulation output and what the run cost: the worst
    per-step KCL residual, the Newton iterations (device evaluations:
    the linear solves plus one per step) and the linear solves over all
    steps."""

    time_s: np.ndarray
    voltages: dict[str, np.ndarray]
    currents: dict[str, np.ndarray]
    kcl_max_a: float = 0.0
    newton_iterations: int = 0
    linear_solves: int = 0

    def __post_init__(self) -> None:
        traces = [("time_s", self.time_s), *self.voltages.items(),
                  *self.currents.items()]
        for name, trace in traces:
            if not np.isfinite(trace).all():
                raise InvalidModelError(
                    f"waveforms field {name} is not a finite number")
        dt = np.diff(self.time_s)
        if np.any(dt <= 0):
            raise InvalidModelError("time grid must be strictly increasing")
        if len(dt) and np.ptp(dt) > UNIFORM_STEP_REL * dt.mean():
            raise InvalidModelError("time grid must be uniform")
        n = len(self.time_s)
        for name, trace in traces[1:]:
            if len(trace) != n:
                raise InvalidModelError(f"trace {name} length mismatch")


@dataclass
class _Stage:
    """The constant part of the Newton system at one integrator
    coefficient: a0 = a_static + coef a_react, extended by the ground
    slot, and over the unknowns |a0| for the residual reference, the row
    scales r, and r a0 and jst with each row times r."""

    coef: float
    a0: np.ndarray
    abs_a0: np.ndarray
    r: np.ndarray
    a0s: np.ndarray
    jsts: np.ndarray


class _System:
    """Assembled MNA stamps for one netlist at one step size.

    The reactive part scales linearly with the integrator coefficient
    (2/h trapezoidal, 1/h backward Euler), so one static matrix and one
    reactive matrix cover both methods; each method gets its _Stage,
    be for the first step and tr after it, built here once per run.
    Transistors and varactors are kept as terminal tuples of
    extended-system slots, and their stamps as the constant pattern inc
    and jst (module docstring).
    """

    def __init__(self, net: Netlist, cfg: SimConfig):
        self.net = net
        self.h = cfg.dt_s
        self.n = net.n_nodes
        self.m = sum(len(e.pairs) if isinstance(e, CoupledInductors)
                     else isinstance(e, VSource) for e in net.elements)
        self.size = self.n + self.m

        self._build_linear()
        self._build_device_pattern()

        self.be = self._stage(1.0 / self.h)
        self.tr = self._stage(2.0 / self.h)
        # per-row cap on the Newton residual: node rows must also clear
        # the per-step KCL gate with margin, branch rows have no gate
        self.kcl_cap = np.full(self.size, np.inf)
        self.kcl_cap[:self.n] = 0.1 * KCL_ABS_A

    def _stage(self, coef: float) -> _Stage:
        size, dim = self.size, self.size + 1
        a0 = self.a_static + coef * self.a_react
        abs_a0 = np.abs(a0[:size, :size])
        peak = abs_a0.max(axis=1)
        peak[peak == 0.0] = 1.0
        r = 1.0 / peak
        jsts = self.jst.reshape(dim, dim, -1)[:size, :size] * r[:, None, None]
        return _Stage(coef=coef, a0=a0, abs_a0=abs_a0, r=r,
                      a0s=r[:, None] * a0[:size, :size],
                      jsts=jsts.reshape(size * size, -1))

    def _build_device_pattern(self) -> None:
        """inc[:, k] is +1 on row p and -1 on row n of device k, in the
        order _device_values returns them (transistors, then varactors);
        column 2k + c of jst is the flattened outer product of that
        incidence with partial c's column difference.  Ground terminals
        land in the ground slot, and coinciding slots accumulate."""
        terms = ([(d, s, (g, s), (d, s)) for d, g, s, _ in self.mos]
                 + [(a, b, (a, b), (cp, cn))
                    for a, b, cp, cn, _ in self.varactors])
        dim = self.size + 1
        self.inc = np.zeros((dim, len(terms)))
        jst = np.zeros((dim, dim, 2 * len(terms)))
        for k, (p, n, *columns) in enumerate(terms):
            self.inc[p, k] += 1.0
            self.inc[n, k] -= 1.0
            for c, (c_pos, c_neg) in enumerate(columns):
                diff = np.zeros(dim)
                diff[c_pos] += 1.0
                diff[c_neg] -= 1.0
                jst[:, :, 2 * k + c] = np.outer(self.inc[:, k], diff)
        self.jst = jst.reshape(dim * dim, 2 * len(terms))

    def _build_linear(self) -> None:
        """The one walk over the elements: in element order it assigns
        branch rows and labels as it stamps, fills the initial state
        x_init and collects the sources, transistors and varactors."""
        net = self.net
        dim = self.size + 1
        a_static = np.zeros((dim, dim))
        a_react = np.zeros((dim, dim))
        x_init = np.zeros(dim)
        for name, v in net.initial_voltages.items():
            x_init[net.node_names.index(name)] = v
        self.branch_labels: list[str] = []
        self.vsources: list[tuple[int, VSource]] = []
        self.mos, self.varactors = [], []

        def conductance(a, i, j, g):
            a[i, i] += g
            a[j, j] += g
            a[i, j] -= g
            a[j, i] -= g

        def branch(na, nb, label) -> int:
            row = self.n + len(self.branch_labels)
            self.branch_labels.append(label)
            a_static[na, row] += 1.0
            a_static[nb, row] -= 1.0
            a_static[row, na] += 1.0
            a_static[row, nb] -= 1.0
            return row

        for e in net.elements:
            if isinstance(e, Resistor):
                conductance(a_static, e.a, e.b, 1.0 / e.ohms)
            elif isinstance(e, Capacitor):
                conductance(a_react, e.a, e.b, e.farads)
            elif isinstance(e, Vccs):
                a_static[e.p, e.cp] += e.gm
                a_static[e.p, e.cn] -= e.gm
                a_static[e.n, e.cp] -= e.gm
                a_static[e.n, e.cn] += e.gm
            elif isinstance(e, CoupledInductors):
                k = len(e.pairs)
                row0 = self.n + len(self.branch_labels)
                for w, (na, nb) in enumerate(e.pairs):
                    row = branch(na, nb,
                                 e.label if k == 1 else f"{e.label}.w{w}")
                    a_static[row, row] -= e.series_r[w]
                    a_react[row, row0:row0 + k] -= e.matrix[w]
                    x_init[row] = e.i_initial_a[w]
            elif isinstance(e, VSource):
                self.vsources.append((branch(e.p, e.n, e.label), e))
            elif isinstance(e, Mos):
                # the nonlinear part is stamped per Newton iteration;
                # the leak keeps cut-off regions non-singular
                conductance(a_static, e.d, GROUND, GMIN)
                conductance(a_static, e.s, GROUND, GMIN)
                self.mos.append((e.d, e.g, e.s, e.params))
            elif isinstance(e, Varactor):
                self.varactors.append((e.a, e.b, e.cp, e.cn, e.model))

        self.a_static = a_static
        self.a_react = a_react
        self.x_init = x_init


def _charge(sys: _System, x: np.ndarray) -> np.ndarray:
    """q(x): the linear reactive stamps plus each varactor's charge."""
    q = sys.a_react @ x
    if sys.varactors:
        v = x.tolist()
        q += sys.inc[:, len(sys.mos):] @ [
            varactor_eval(model, v[cp] - v[cn])[0] * (v[na] - v[nb])
            for na, nb, cp, cn, model in sys.varactors]
    return q


def _singular_diagnostic(sys: _System, js: np.ndarray) -> str:
    """Name the first unknown with an all-zero row or column in the
    scaled matrix js; positive row scales keep those zero."""
    scale = np.abs(js)
    dead = np.where((scale.max(axis=1) == 0.0) | (scale.max(axis=0) == 0.0))[0]
    if len(dead):
        i = int(dead[0])
        name = (sys.net.node_names[i] if i < sys.n
                else f"branch {sys.branch_labels[i - sys.n]}")
        return f"MNA matrix is singular: no finite stamp at {name}"
    return "MNA matrix is singular (structurally ill-posed netlist)"


def _device_values(sys: _System, x: np.ndarray, coef: float):
    """Currents of every transistor and varactor at x, in the column
    order of sys.inc, and their partials, in the column order of
    sys.jst."""
    v = x.tolist()
    cur, part = [], []
    for d, g, s, p in sys.mos:
        i_d, g_m, g_ds = mos_eval(p, v[g] - v[s], v[d] - v[s])
        cur.append(i_d)
        part += (g_m, g_ds)
    for na, nb, cp, cn, model in sys.varactors:
        v_sig = v[na] - v[nb]
        c, dc_dv = varactor_eval(model, v[cp] - v[cn])
        gv = coef * c
        cur.append(gv * v_sig)
        part += (gv, coef * v_sig * dc_dv)
    return np.array(cur), np.array(part)


def _newton_step(sys: _System, x: np.ndarray, stage: _Stage,
                 b: np.ndarray, t: float):
    """Newton on a0 x + stamps(x) = b from x, which is extended by the
    ground slot and updated in place.  Returns the solution, its residual
    and the linear solves; the iterations are the solves plus one."""
    size = sys.size
    abs_b = np.abs(b[:size])

    for it in range(MAX_NEWTON):
        cur, part = _device_values(sys, x, stage.coef)
        f = (stage.a0 @ x - b + sys.inc @ cur)[:size]
        if it > 0:
            # Residual acceptance: each row balances to within tolerance
            # relative to the magnitudes summed in that row, and node rows
            # additionally clear the per-step KCL gate with margin.
            # Update-only tests stall at the linear-solve noise floor on
            # stiff systems.
            f_ref = stage.abs_a0 @ np.abs(x[:size]) + abs_b
            limit = np.minimum(NEWTON_ABS + NEWTON_REL * f_ref, sys.kcl_cap)
            if (np.abs(f) <= limit).all():
                return x, f, it
        # the Jacobian only now: an accepted residual needs none
        js = stage.a0s + (stage.jsts @ part).reshape(size, size)
        try:
            dx = np.linalg.solve(js, stage.r * f)
        except np.linalg.LinAlgError:
            raise NumericFailure(_singular_diagnostic(sys, js))
        dx_max = float(np.abs(dx).max())  # NaN or inf if any entry is
        if not math.isfinite(dx_max):
            raise NumericFailure(f"non-finite Newton update at t = {t:.6e} s")
        x[:size] -= dx
    raise NumericFailure(
        f"Newton did not converge at t = {t:.6e} s after "
        f"{MAX_NEWTON} iterations; last update {dx_max:.3e}")


def transient(net: Netlist, cfg: SimConfig) -> Waveforms:
    """Run one fixed-step transient; see module docstring for method."""
    net.validate()
    h = cfg.dt_s
    n_steps = int(round(cfg.t_stop_s / h))
    if n_steps < 2:
        raise InvalidModelError("stop time must cover at least two steps")
    times = h * np.arange(n_steps + 1)

    sys = _System(net, cfg)
    x = sys.x_init
    # the step history: charge q(x) and its derivative i, extended by
    # the ground slot; the first step's i is the zero initial derivative
    q, i = _charge(sys, x), np.zeros(sys.size + 1)
    out = np.empty((n_steps + 1, sys.size + 1))
    out[0] = x
    kcl_max = 0.0
    linear_solves = 0
    stages = itertools.chain([sys.be], itertools.repeat(sys.tr, n_steps - 1))
    for step, stage in enumerate(stages, start=1):
        t = times[step]
        # Newton starts from the rows of out already accepted, the
        # initial state excluded from the extrapolation
        past = out[max(1, step - 3):step]
        if len(past) == 3:
            x0 = 3.0 * (past[2] - past[1]) + past[0]
        elif len(past) == 2:
            x0 = 2.0 * past[1] - past[0]
        else:
            x0 = out[step - 1].copy()
        b = stage.coef * q + i
        for row, e in sys.vsources:
            b[row] = e.value_at(t)
        x, resid, solves = _newton_step(sys, x0, stage, b, t)
        linear_solves += solves
        step_kcl = float(np.abs(resid[:sys.n]).max())
        if not step_kcl <= KCL_ABS_A:  # a NaN residual fails too
            raise NumericFailure(
                f"KCL residual {step_kcl:.3e} A exceeds {KCL_ABS_A:.1e} A "
                f"at t = {t:.6e} s")
        kcl_max = max(kcl_max, step_kcl)
        out[step] = x

        q_next = _charge(sys, x)
        i = stage.coef * (q_next - q) - i
        q = q_next

    voltages = {name: out[:, i].copy()
                for i, name in enumerate(net.node_names)}
    currents = {f"I({lbl})": out[:, sys.n + j].copy()
                for j, lbl in enumerate(sys.branch_labels)}
    return Waveforms(time_s=times, voltages=voltages, currents=currents,
                     kcl_max_a=kcl_max,
                     newton_iterations=linear_solves + n_steps,
                     linear_solves=linear_solves)
