"""Transient MNA engine: trapezoidal integration, Newton per step.

Unknown ordering is node voltages (registration order) followed by branch
currents (element order); branches exist for inductors, coupled-set
windings and voltage sources.  The linear stamps are assembled once per
run; per step only the right-hand side moves, and only transistor and
varactor stamps are re-evaluated inside the Newton loop.  Transistors are
evaluated one by one through devices.mos_current and mos_small_signal,
so the engine has no device equations of its own.  Circuits with no
nonlinear elements skip Newton entirely and reuse one LU factorization
for every step.

The first step is backward Euler: it needs no capacitor-current history,
so a discontinuous turn-on (step sources, charged capacitors) does not
poison the trapezoidal rule with an inconsistent initial derivative.
Every later step is trapezoidal.  If Newton fails on the first step (a
hard turn-on), the run is retried once from the start with every faster
source ramped over SimConfig.source_ramp_s; a second failure propagates.

All arithmetic is straight float64 numpy with a fixed evaluation order,
so repeated runs of the same netlist are bit-identical.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .devices import (
    mos_current,
    mos_small_signal,
    varactor_capacitance,
    varactor_capacitance_slope,
)
from .errors import InvalidModelError, NumericFailure
from .netlist import (
    GROUND,
    Capacitor,
    CoupledInductors,
    Inductor,
    ISource,
    Mos,
    Netlist,
    Resistor,
    Switch,
    Varactor,
    Vccs,
    VSource,
)

PERTURB_NODE = "V_o1"


@dataclass
class SimConfig:
    """Fixed-step transient settings; the perturbation seeds startup by
    biasing the initial voltage of V_o1 (when that node exists)."""

    dt_s: float
    t_stop_s: float
    newton_rel: float = 1e-9
    newton_abs: float = 1e-12
    max_newton: int = 50
    perturbation_v: float = 1e-3
    source_ramp_s: float = 1e-9
    kcl_abs_a: float = 1e-9
    # Leak conductance (siemens) from every transistor drain and source
    # terminal to ground.  Without it a circuit region whose transistors
    # are all cut off has no defined common-mode voltage and the matrix
    # is singular.  1 nS is nine decades below the operating
    # conductances here, so it never shows in the waveforms.
    gmin: float = 1e-9

    def validate(self) -> None:
        if self.dt_s <= 0:
            raise InvalidModelError("time step must be positive")
        if self.t_stop_s <= self.dt_s:
            raise InvalidModelError("stop time must exceed the time step")
        if self.newton_rel <= 0 or self.newton_abs <= 0 or self.kcl_abs_a <= 0:
            raise InvalidModelError("Newton tolerances must be positive")
        if self.gmin < 0:
            raise InvalidModelError("gmin cannot be negative")
        if self.max_newton < 1:
            raise InvalidModelError("max_newton must be at least 1")
        if self.source_ramp_s < 0:
            raise InvalidModelError("source ramp must be non-negative")


@dataclass
class Waveforms:
    """Uniform-grid simulation output."""

    time_s: np.ndarray
    voltages: dict[str, np.ndarray]
    currents: dict[str, np.ndarray]
    kcl_max_a: float = 0.0

    def validate(self) -> None:
        if np.any(np.diff(self.time_s) <= 0):
            raise InvalidModelError("time grid must be strictly increasing")
        n = len(self.time_s)
        for name, trace in list(self.voltages.items()) + list(self.currents.items()):
            if len(trace) != n:
                raise InvalidModelError(f"trace {name} length mismatch")


class _System:
    """Assembled MNA stamps for one netlist at one step size.

    The reactive part scales linearly with the integrator coefficient
    (2/h trapezoidal, 1/h backward Euler), so one static matrix and one
    reactive matrix cover both methods.  Transistors and varactors are
    kept as terminal tuples of extended-system slots.
    """

    def __init__(self, net: Netlist, cfg: SimConfig):
        self.net = net
        self.cfg = cfg
        self.h = cfg.dt_s
        self.n = net.n_nodes

        self.branch_labels: list[str] = []
        self.branch_of: dict[int, int] = {}
        for idx, e in enumerate(net.elements):
            if isinstance(e, Inductor):
                self.branch_of[idx] = self.n + len(self.branch_labels)
                self.branch_labels.append(e.label)
            elif isinstance(e, CoupledInductors):
                self.branch_of[idx] = self.n + len(self.branch_labels)
                for w in range(len(e.pairs)):
                    self.branch_labels.append(f"{e.label}.w{w}")
            elif isinstance(e, VSource):
                self.branch_of[idx] = self.n + len(self.branch_labels)
                self.branch_labels.append(e.label)
        self.m = len(self.branch_labels)
        self.size = self.n + self.m
        self.gslot = self.size  # extended slot absorbing ground stamps

        self._build_linear()
        self.mos = [(self._ext(e.d), self._ext(e.g), self._ext(e.s), e.params)
                    for e in net.elements if isinstance(e, Mos)]
        self.varactors = [(self._ext(e.a), self._ext(e.b), self._ext(e.cp),
                           self._ext(e.cn), e.model)
                          for e in net.elements if isinstance(e, Varactor)]
        self.linear_only = not self.mos and not self.varactors

        self.coef_tr, self.coef_be = 2.0 / self.h, 1.0 / self.h
        self.a_tr = self.a_static + self.coef_tr * self.a_react
        self.a_be = self.a_static + self.coef_be * self.a_react
        if self.linear_only:
            size = self.size
            self.sc_tr = _row_scale(self.a_tr[:size, :size])
            self.sc_be = _row_scale(self.a_be[:size, :size])
            try:
                with warnings.catch_warnings():
                    # lu_factor only warns on a zero pivot; the pivot
                    # check below turns that into NumericFailure.
                    warnings.simplefilter("ignore", LinAlgWarning)
                    self.lu_tr = lu_factor(self.a_tr[:size, :size]
                                           * self.sc_tr[:, None])
                    self.lu_be = lu_factor(self.a_be[:size, :size]
                                           * self.sc_be[:, None])
            except Exception:
                raise NumericFailure(_singular_diagnostic(self, self.a_tr))
            pivots = np.concatenate((np.diag(self.lu_tr[0]), np.diag(self.lu_be[0])))
            if not np.all(np.isfinite(pivots) & (pivots != 0.0)):
                raise NumericFailure(_singular_diagnostic(self, self.a_tr))

    def _ext(self, node: int) -> int:
        return self.gslot if node == GROUND else node

    def _build_linear(self) -> None:
        net = self.net
        dim = self.size + 1
        a_static = np.zeros((dim, dim))
        a_react = np.zeros((dim, dim))

        def conductance(a, na, nb, g):
            i, j = self._ext(na), self._ext(nb)
            a[i, i] += g
            a[j, j] += g
            a[i, j] -= g
            a[j, i] -= g

        # per-step RHS sources; arrays are built after the scan
        caps: list[tuple[int, int, float]] = []
        self.inductors: list[tuple[int, int, int, float]] = []
        self.coupled: list[tuple[int, np.ndarray, np.ndarray, list]] = []
        self.vsources: list[tuple[int, VSource]] = []
        self.isources: list[ISource] = []

        for idx, e in enumerate(net.elements):
            if isinstance(e, (Resistor, Switch)):
                conductance(a_static, e.a, e.b, 1.0 / e.ohms)
            elif isinstance(e, Capacitor):
                conductance(a_react, e.a, e.b, e.farads)
                caps.append((self._ext(e.a), self._ext(e.b), e.farads))
            elif isinstance(e, Vccs):
                p, n = self._ext(e.p), self._ext(e.n)
                cp, cn = self._ext(e.cp), self._ext(e.cn)
                a_static[p, cp] += e.gm
                a_static[p, cn] -= e.gm
                a_static[n, cp] -= e.gm
                a_static[n, cn] += e.gm
            elif isinstance(e, Inductor):
                row = self.branch_of[idx]
                na, nb = self._ext(e.a), self._ext(e.b)
                a_static[na, row] += 1.0
                a_static[nb, row] -= 1.0
                a_static[row, na] += 1.0
                a_static[row, nb] -= 1.0
                a_react[row, row] -= e.henries
                self.inductors.append((row, na, nb, e.henries))
            elif isinstance(e, CoupledInductors):
                row0 = self.branch_of[idx]
                nw = len(e.pairs)
                m = np.asarray(e.matrix)
                pairs_ext = [(self._ext(pa), self._ext(pb)) for pa, pb in e.pairs]
                for w, (na, nb) in enumerate(pairs_ext):
                    row = row0 + w
                    a_static[na, row] += 1.0
                    a_static[nb, row] -= 1.0
                    a_static[row, na] += 1.0
                    a_static[row, nb] -= 1.0
                    a_static[row, row] -= e.series_r[w]
                    for k in range(nw):
                        a_react[row, row0 + k] -= m[w, k]
                self.coupled.append((row0, m, np.asarray(e.series_r), pairs_ext))
            elif isinstance(e, VSource):
                row = self.branch_of[idx]
                p, n = self._ext(e.p), self._ext(e.n)
                a_static[p, row] += 1.0
                a_static[n, row] -= 1.0
                a_static[row, p] += 1.0
                a_static[row, n] -= 1.0
                self.vsources.append((row, e))
            elif isinstance(e, ISource):
                self.isources.append(e)
            elif isinstance(e, Mos) and self.cfg.gmin > 0:
                # the nonlinear part is stamped per Newton iteration;
                # the leak keeps cut-off regions non-singular
                conductance(a_static, e.d, GROUND, self.cfg.gmin)
                conductance(a_static, e.s, GROUND, self.cfg.gmin)

        self.a_static = a_static
        self.a_react = a_react
        self.cap_a = np.array([c[0] for c in caps], dtype=int)
        self.cap_b = np.array([c[1] for c in caps], dtype=int)
        self.cap_c = np.array([c[2] for c in caps])


@dataclass
class _StepState:
    """Solution and reactive-element history carried between steps:
    capacitor voltages and currents, varactor charges and currents."""

    cap_v: np.ndarray
    cap_i: np.ndarray
    var_q: np.ndarray
    var_i: np.ndarray
    x: np.ndarray


def _initial_state(sys: _System) -> _StepState:
    net, cfg = sys.net, sys.cfg
    x = np.zeros(sys.size + 1)
    ics = dict(net.initial_voltages)
    if cfg.perturbation_v != 0.0 and PERTURB_NODE in net.node_names:
        ics[PERTURB_NODE] = ics.get(PERTURB_NODE, 0.0) + cfg.perturbation_v
    for name, v in ics.items():
        x[net.node_names.index(name)] = v
    for idx, e in enumerate(net.elements):
        if isinstance(e, Inductor):
            x[sys.branch_of[idx]] = e.i_initial_a
        elif isinstance(e, CoupledInductors):
            for w, i0 in enumerate(e.i_initial_a):
                x[sys.branch_of[idx] + w] = i0
    return _StepState(
        cap_v=x[sys.cap_a] - x[sys.cap_b],
        cap_i=np.zeros(len(sys.cap_c)),
        var_q=np.array([varactor_capacitance(model, x[cp] - x[cn])
                        * (x[na] - x[nb])
                        for na, nb, cp, cn, model in sys.varactors]),
        var_i=np.zeros(len(sys.varactors)),
        x=x)


def _singular_diagnostic(sys: _System, a: np.ndarray) -> str:
    scale = np.abs(a[:sys.size, :sys.size])
    dead = np.where((scale.max(axis=1) == 0.0) | (scale.max(axis=0) == 0.0))[0]
    if len(dead):
        i = int(dead[0])
        name = (sys.net.node_names[i] if i < sys.n
                else f"branch {sys.branch_labels[i - sys.n]}")
        return f"MNA matrix is singular: no finite stamp at {name}"
    return "MNA matrix is singular (structurally ill-posed netlist)"


def _rhs(sys: _System, st: _StepState, t: float, coef: float,
         history: bool) -> np.ndarray:
    """Right-hand side for one step; coef is 2/h (trapezoidal, with
    history currents) or 1/h (backward Euler, without)."""
    b = np.zeros(sys.size + 1)
    x = st.x
    if len(sys.cap_c):
        ieq = coef * sys.cap_c * st.cap_v + (st.cap_i if history else 0.0)
        np.add.at(b, sys.cap_a, ieq)
        np.add.at(b, sys.cap_b, -ieq)
    for row, na, nb, henries in sys.inductors:
        b[row] = -coef * henries * x[row] - ((x[na] - x[nb]) if history else 0.0)
    for row0, m, series_r, pairs_ext in sys.coupled:
        i_prev = x[row0:row0 + len(series_r)]
        rhs = -coef * (m @ i_prev)
        if history:
            v_prev = np.array([x[na] - x[nb] for na, nb in pairs_ext])
            rhs += -v_prev + series_r * i_prev
        b[row0:row0 + len(series_r)] = rhs
    for row, e in sys.vsources:
        b[row] = e.value_at(t)
    for e in sys.isources:
        val = e.value_at(t)
        b[sys._ext(e.p)] -= val
        b[sys._ext(e.n)] += val
    b[sys.gslot] = 0.0
    return b


def _nonlinear_stamps(sys: _System, st: _StepState, x: np.ndarray,
                      coef: float, history: bool,
                      f: np.ndarray, j: np.ndarray | None) -> None:
    """Add transistor and varactor contributions to the residual (and the
    Jacobian when j is given)."""
    v = x.tolist()
    for d, g, s, p in sys.mos:
        v_gs = v[g] - v[s]
        v_ds = v[d] - v[s]
        i_d = mos_current(p, v_gs, v_ds)
        f[d] += i_d
        f[s] -= i_d
        if j is not None:
            g_m, g_ds, _ = mos_small_signal(p, v_gs, v_ds)
            g_sum = g_m + g_ds
            j[d, g] += g_m
            j[d, d] += g_ds
            j[d, s] -= g_sum
            j[s, g] -= g_m
            j[s, d] -= g_ds
            j[s, s] += g_sum
    for vi, (na, nb, cp, cn, model) in enumerate(sys.varactors):
        v_sig = v[na] - v[nb]
        v_ctl = v[cp] - v[cn]
        c = varactor_capacitance(model, v_ctl)
        i_now = (coef * (c * v_sig - st.var_q[vi])
                 - (st.var_i[vi] if history else 0.0))
        f[na] += i_now
        f[nb] -= i_now
        if j is not None:
            dc = varactor_capacitance_slope(model, v_ctl)
            gv = coef * c
            gc = coef * v_sig * dc
            j[na, na] += gv
            j[na, nb] -= gv
            j[nb, na] -= gv
            j[nb, nb] += gv
            j[na, cp] += gc
            j[na, cn] -= gc
            j[nb, cp] -= gc
            j[nb, cn] += gc


def _row_scale(a: np.ndarray) -> np.ndarray:
    """Equilibration factors; branch rows mix +-1 voltage entries with
    L/h terms in the hundreds, which would otherwise eat the pivots."""
    m = np.abs(a).max(axis=1)
    m[m == 0.0] = 1.0
    return 1.0 / m


def _newton_step(sys: _System, st: _StepState, a0: np.ndarray,
                 b: np.ndarray, t: float, coef: float, history: bool):
    cfg = sys.cfg
    x = st.x.copy()
    size, gslot = sys.size, sys.gslot

    for it in range(cfg.max_newton):
        f = a0 @ x - b
        j = a0.copy()
        _nonlinear_stamps(sys, st, x, coef, history, f, j)
        f[gslot] = 0.0
        if it > 0:
            # Residual acceptance: each row balances to within tolerance
            # relative to the magnitudes summed in that row, and node rows
            # additionally clear the per-step KCL gate with margin.
            # Update-only tests stall at the linear-solve noise floor on
            # stiff systems.
            f_ref = (np.abs(a0[:size, :size]) @ np.abs(x[:size])
                     + np.abs(b[:size]))
            if (np.all(np.abs(f[:size]) <= cfg.newton_abs
                       + cfg.newton_rel * f_ref)
                    and float(np.abs(f[:sys.n]).max())
                    <= 0.1 * cfg.kcl_abs_a):
                return x, f[:size]
        try:
            jj = j[:size, :size]
            scale = _row_scale(jj)
            dx = np.linalg.solve(jj * scale[:, None], -f[:size] * scale)
        except np.linalg.LinAlgError:
            raise NumericFailure(_singular_diagnostic(sys, j))
        x[:size] += dx
        x[gslot] = 0.0
        tol = cfg.newton_abs + cfg.newton_rel * float(np.abs(x[:size]).max())
        if float(np.abs(dx).max()) <= tol:
            f = a0 @ x - b
            _nonlinear_stamps(sys, st, x, coef, history, f, None)
            f[gslot] = 0.0
            return x, f[:size]
    raise NumericFailure(
        f"Newton did not converge at t = {t:.6e} s after "
        f"{cfg.max_newton} iterations; last update {float(np.abs(dx).max()):.3e}")


def _solve_step(sys: _System, st: _StepState, t: float, first: bool):
    """Solution at time t from the state one step earlier, and the
    residual it leaves; the first step is backward Euler."""
    coef = sys.coef_be if first else sys.coef_tr
    a0 = sys.a_be if first else sys.a_tr
    b = _rhs(sys, st, t, coef, history=not first)
    if not sys.linear_only:
        return _newton_step(sys, st, a0, b, t, coef, history=not first)
    size = sys.size
    x = np.empty(size + 1)
    x[:size] = lu_solve(sys.lu_be if first else sys.lu_tr,
                        b[:size] * (sys.sc_be if first else sys.sc_tr))
    x[sys.gslot] = 0.0
    return x, a0[:size, :size] @ x[:size] - b[:size]


def transient(net: Netlist, cfg: SimConfig) -> Waveforms:
    """Run one fixed-step transient; see module docstring for method."""
    net.validate()
    cfg.validate()
    h = cfg.dt_s
    n_steps = int(round(cfg.t_stop_s / h))
    if n_steps < 2:
        raise InvalidModelError("stop time must cover at least two steps")
    times = h * np.arange(n_steps + 1)

    sys = _System(net, cfg)
    st = _initial_state(sys)
    try:
        x, resid = _solve_step(sys, st, times[1], first=True)
    except NumericFailure:
        # hard turn-on rescue: one retry with the sources ramped
        ramped = net.with_source_ramp(cfg.source_ramp_s)
        if cfg.source_ramp_s <= 0 or ramped.elements == net.elements:
            raise
        sys = _System(ramped, cfg)
        st = _initial_state(sys)
        x, resid = _solve_step(sys, st, times[1], first=True)

    out = np.empty((n_steps + 1, sys.size))
    out[0] = st.x[:sys.size]
    kcl_max = 0.0
    for step in range(1, n_steps + 1):
        t = times[step]
        first = step == 1
        if not first:
            x, resid = _solve_step(sys, st, t, first=False)
        step_kcl = float(np.abs(resid[:sys.n]).max())
        if not step_kcl <= cfg.kcl_abs_a:  # a NaN residual fails too
            raise NumericFailure(
                f"KCL residual {step_kcl:.3e} A exceeds {cfg.kcl_abs_a:.1e} A "
                f"at t = {t:.6e} s")
        kcl_max = max(kcl_max, step_kcl)
        out[step] = x[:sys.size]

        # advance histories
        coef = sys.coef_be if first else sys.coef_tr
        if len(sys.cap_c):
            v_now = x[sys.cap_a] - x[sys.cap_b]
            st.cap_i = (coef * sys.cap_c * (v_now - st.cap_v)
                        - (st.cap_i if not first else 0.0))
            st.cap_v = v_now
        for vi, (na, nb, cp, cn, model) in enumerate(sys.varactors):
            q_now = varactor_capacitance(model, x[cp] - x[cn]) * (x[na] - x[nb])
            st.var_i[vi] = (coef * (q_now - st.var_q[vi])
                            - (st.var_i[vi] if not first else 0.0))
            st.var_q[vi] = q_now
        st.x = x

    voltages = {name: out[:, i].copy()
                for i, name in enumerate(net.node_names)}
    currents = {f"I({lbl})": out[:, sys.n + j].copy()
                for j, lbl in enumerate(sys.branch_labels)}
    wave = Waveforms(time_s=times, voltages=voltages, currents=currents,
                     kcl_max_a=kcl_max)
    wave.validate()
    return wave
