"""Transient MNA engine: trapezoidal integration, Newton per step.

Unknown ordering is node voltages (registration order) followed by branch
currents (element order); branches exist for inductors, coupled-set
windings (an inductor is a one-winding set) and voltage sources.  Every
size + 1 array ends in a ground slot, which GROUND = -1 indexes.  The
circuit is a_static x + dq/dt = s(t): the charge q(x) is a_react x (node
charge, negated branch flux) plus each varactor's C(v_ctl) v_ab on its
two node rows.  The linear stamps are assembled once per run; per step
only the right-hand side moves.  _System(net) is the one reader of the
netlist's element kinds and checks its structure as it stamps; the step
size enters only through the _Stage a run builds per coefficient.

Every transistor and varactor fits one stamp pattern: it puts a value
into row p and out of row n, and that value has one partial on each of
two column differences (a MOS: the current i_d from d to s, g_m on g - s
and g_ds on d - s; a varactor: the charge C v_sig from a to b, C on
a - b and v_sig dC/dv on cp - cn).  _System turns the pattern into two
constant matrices, built once per run: the incidence inc (rows by
devices) and the Jacobian stamp matrix jst (flattened rows and columns by
partials).  The transistors are one table (devices.mos_row) and the
varactors another, evaluated by devices.mos_bank and
devices.varactor_bank; the engine has no device equations of its own.

A run keeps its whole step state in one vector

    y = [x (size + 1, the ground slot included) | device values (k) |
         partials (2k) | 1 | b (size)],

with k devices (transistors, then varactors) and b the right-hand side
of the step.  The device slots hold device physics and no integrator
coefficient: each transistor's current and each varactor's charge, then
their partials.  Each integrator coefficient gets a _Stage, built once
per run, holding three matrices over y:

    F  = [a0 | inc w | 0 | 0 | -I]                     f = F y
    R  = [NEWTON_REL |a0| | 0 | NEWTON_ABS | NEWTON_REL I]
    Jm = [jst w | a0]                   J = (Jm y[partials, 1]) as size x size

over the unknown rows, with a0 = a_static + coef a_react and the device
weights w, 1 on a transistor and coef on a varactor and its partials.
At coef 0, F y is the static residual and Jm the static Jacobian.  The
_Stage keeps Jm as J0 = a0, the constant Jacobian, and Jt, the rows of
Jm at the entries _System.touched that a device partial stamps.  A
Newton iteration writes the device values into y with one slice
assignment, forms the residual f = a0 x - b + inc w @ values as F y,
and accepts when |f| <= min(R |y|, kcl_cap) on every row: each row
balances to within tolerance relative to the magnitudes summed in it,
and every node row also within KCL_ABS_A (update-only tests stall at
the linear-solve noise floor on stiff systems).  This is the engine's
one KCL check, and a NaN row fails it.  Only when a solve follows does
it form the Jacobian J, writing Jt y[partials, 1] into the touched
entries: the same rows and sums as the dense Jm y[partials, 1], so J is
that product bit for bit.  The rest of J holds J0, which the solver
rewrites only when called with another stage than the one it holds.
The update dx solves J dx = f, and x steps to x - dx.  _solve makes
that solve with the LAPACK gesv gufunc that np.linalg.solve wraps: J
and f are always float64, square and 1-D, so only the wrapper's
argument checks and type dispatch are skipped and the update is the
same to the bit.  transient and small_signal enter np.errstate(all=
"ignore") once around their Newton calls, so no ufunc of a step raises
or warns.  A non-finite update is solved again under invalid="raise":
NumericFailure names an exactly singular J, for which gesv raises, by an
unknown with no stamp if there is one, and any other by its time.

A run allocates its working arrays once: transient holds y, the solution
rows and the worst accepted |f| of each row, and the _System five
scratch arrays that every iteration writes in place (f, |y|, the
acceptance reference, |f| and the row mask), where the accepted f and
|f| stay until the next call.  An iteration allocates only the device
values and the solve's update dx.  The acceptance test counts the rows
that pass; the update is screened by dx . tiny, with every entry of
tiny 2^-600: a finite entry times 2^-600 is below 2^424, so the sum
stays finite and raises no overflow, while a NaN or inf entry makes it
NaN or inf.  A run binds its Newton solver once, with every view of y
and of the scratch arrays, the device banks and _solve; it owns its
Jacobian and the stage whose J0 that holds, so a deep copy of a
_System, or two solvers bound on one, step exactly as each would alone.

Every step, linear circuits included, is solved by Newton from a
polynomial predictor: the degree-PREDICTOR_ORDER extrapolation of the
last PREDICTOR_ORDER + 1 accepted solutions, one weighted sum of those
rows written straight into x.  Early in the run fewer rows give a lower
degree; the initial state is never extrapolated from, and the first
step starts from it.  A linear circuit converges after one solve, and
the residual test accepts it.  Accepted solutions keep the ground slot,
always 0, so the extrapolation is the extended start.

The charge is q(x) = q_map y, with q_map = [a_react | 0 | inc over the
varactors | 0 | 0] on the unknown rows.  A step with coefficient c
solves a_static x + c q(x) = b, where a trapezoidal step (c = 2/h) has
b = c q_prev + i_prev, the history of the charge and its derivative.
The first step is backward Euler: c = 1/h and the initial i_prev = 0.
It needs no derivative history, so a discontinuous turn-on (step
sources, charged capacitors) does not poison the trapezoidal rule with
an inconsistent initial derivative.  After step n the history is one
recursion,

    b_{n+1} = (c_n + c_{n+1}) q(x_n) - b_n,

a fourth matrix of the _Stage over y, hist = (c_n + c_{n+1}) q_map with
-I on the b columns.  Started from b_0 = 0 and c_0 = 0 it opens the run
at b_1 = q(x_0)/h, which transient forms from q_map after one device
evaluation at x_0.  A source row of b is the source value instead:
transient writes it up to the first step past the last ramp's end, and
hist, with a zero q_map row and +1 on its b column, keeps it after.
The initial state is what the netlist declares: its initial node
voltages and winding currents, zero everywhere else.

small_signal(net) linearizes the same stamps about the DC point, the
Newton solution of the coefficient-0 stage with b at the sources' final
values.  _System.linearize gives G (a_static plus the transistor
partials' stamps) and C (a_react plus the varactor partials' stamps),
and the poles are the finite s with (G + s C) v = 0: s = -1/mu over the
eigenvalues mu of G^-1 C.  An infinite pole (no charge) is mu = 0; a
cutset with no capacitor makes Jordan pairs of them, which roundoff
splits by up to about sqrt(eps) |G^-1 C|_1, so every mu that small goes.

All arithmetic is straight float64 numpy with a fixed evaluation order,
so repeated runs of the same netlist are bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .devices import mos_bank, mos_row, varactor_bank
from .errors import (NON_NEGATIVE, POSITIVE, InvalidModelError, NumericFailure,
                     check_finite)
from .netlist import (GROUND, Capacitor, CoupledInductors, Mos, Netlist,
                      Resistor, Varactor, Vccs, VSource)

NEWTON_REL = 1e-9
NEWTON_ABS = 1e-12
MAX_NEWTON = 50
# Newton's acceptance cap on every node row (amperes).
KCL_ABS_A = 1e-10
# Leak conductance (siemens) from every transistor drain and source
# terminal to ground.  Without it a circuit region whose transistors are
# all cut off has no defined common-mode voltage and the matrix is
# singular.  1 nS is nine decades below the operating conductances here,
# so it never shows in the waveforms.
GMIN = 1e-9
# Degree of the Newton start-point predictor.  Measured at 100 periods
# on the toroidal tc-qvco (CHANGES.md has the table over every
# topology), solves per step at degrees 2, 3, 4 and 5: buffered 1.467,
# 1.204, 1.151, 1.163; core 1.117, 1.102, 1.102, 1.102.
PREDICTOR_ORDER = 4
# Largest step-size spread, relative to the mean step, of a uniform grid.
UNIFORM_STEP_REL = 1e-6

# _PREDICTOR[k] extrapolates the next row of a uniform grid from the last
# k rows, oldest first: the backward-difference weights
# (-1)^(i+1) C(k, i) of the row i steps back, exact for polynomials of
# degree below k (Brayton, Gustavson & Hachtel, Proc. IEEE 1972).
_PREDICTOR = {k: np.array([(-1.0) ** (k - j + 1) * math.comb(k, j)
                           for j in range(k)])
              for k in range(1, PREDICTOR_ORDER + 2)}


@dataclass(frozen=True)
class SimConfig:
    """Fixed step and stop time of one transient; the Newton tolerances,
    the KCL cap and the leak are the constants above."""

    dt_s: float
    t_stop_s: float

    def __post_init__(self) -> None:
        check_finite(InvalidModelError, "sim config", "dt_s", self.dt_s, POSITIVE)
        check_finite(InvalidModelError, "sim config", "t_stop_s", self.t_stop_s)
        # transient takes round(t_stop_s / dt_s) steps: a finite count of
        # at least two
        steps = float(self.t_stop_s) / float(self.dt_s)
        if not math.isfinite(steps):
            raise InvalidModelError("stop time over time step is not a finite step count")
        if not steps >= 1.5:
            raise InvalidModelError("stop time must cover at least two steps")


class ReadOnlyDict(dict):
    """A dict that refuses every change after construction.  It stays a
    dict, so dataclasses.asdict, json.dumps and == against a plain dict
    work as on any dict; copies and pickles rebuild it from its items."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    update = pop = popitem = clear = setdefault = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def _frozen(trace) -> np.ndarray:
    """A read-only view of trace, over a copy of it unless the memory
    behind it is read-only too (as transient's solution array is)."""
    trace = np.asarray(trace)
    owner = trace if trace.base is None else trace.base
    if (trace.flags.writeable or not isinstance(owner, np.ndarray)
            or owner.flags.writeable):
        trace = trace.copy()
    view = trace.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class Waveforms:
    """Uniform-grid simulation output and what the run cost: the worst
    accepted node-row residual and solve_histogram[k], the steps that
    took k linear solves, which fixes the solve and iteration counts."""

    time_s: np.ndarray
    voltages: dict[str, np.ndarray]
    currents: dict[str, np.ndarray]
    kcl_max_a: float = 0.0
    solve_histogram: tuple[int, ...] = ()

    @property
    def linear_solves(self) -> int:
        """The linear solves over all steps."""
        return sum(k * n for k, n in enumerate(self.solve_histogram))

    @property
    def newton_iterations(self) -> int:
        """The device evaluations: the linear solves plus one per step."""
        return sum((k + 1) * n for k, n in enumerate(self.solve_histogram))

    def __reduce__(self):
        # copies and pickles are built, so checked and frozen, anew
        return type(self), tuple(vars(self).values())

    def __post_init__(self) -> None:
        check_finite(InvalidModelError, "waveforms", "kcl_max_a",
                     self.kcl_max_a, NON_NEGATIVE)
        # read-only, so the checks below hold wherever the waveforms go
        object.__setattr__(self, "time_s", _frozen(self.time_s))
        for name in ("voltages", "currents"):
            object.__setattr__(self, name, ReadOnlyDict(
                {k: _frozen(v) for k, v in getattr(self, name).items()}))
        traces = [("time_s", self.time_s), *self.voltages.items(),
                  *self.currents.items()]
        n = self.time_s.size
        if not n:
            raise InvalidModelError("time grid has no sample")
        for name, trace in traces:
            if trace.ndim != 1:
                raise InvalidModelError(f"trace {name} must be one-dimensional")
            if not np.isfinite(trace).all():
                raise InvalidModelError(
                    f"waveforms field {name} is not a finite number")
            if len(trace) != n:
                raise InvalidModelError(f"trace {name} length mismatch")
        dt = np.diff(self.time_s)
        if np.any(dt <= 0):
            raise InvalidModelError("time grid must be strictly increasing")
        if len(dt) and np.ptp(dt) > UNIFORM_STEP_REL * dt.mean():
            raise InvalidModelError("time grid must be uniform")
        hist = self.solve_histogram
        for k, count in enumerate(hist):
            name = f"solve_histogram[{k}]"
            check_finite(InvalidModelError, "waveforms", name, count,
                         NON_NEGATIVE)
            if not isinstance(count, (int, np.integer)):
                raise InvalidModelError(
                    f"waveforms field {name} must be an integer")
        if hist and sum(hist) != n - 1:
            raise InvalidModelError(
                f"solve histogram counts {sum(hist)} steps, not {n - 1}")


@dataclass
class _Stage:
    """The constant part of the Newton system at one integrator
    coefficient, as matrices over the step state y (module docstring):
    the residual F, the acceptance reference R, the Jacobian as J0 and
    Jt, and hist, which maps the accepted y of a step to the next step's
    b, for the next coefficient the stage was built with."""

    F: np.ndarray
    R: np.ndarray
    J0: np.ndarray
    Jt: np.ndarray
    hist: np.ndarray


class _System:
    """Assembled MNA stamps of one netlist, for any step size.

    Building one checks the netlist's structure (_build_linear), once
    for every consumer of the stamps.  The reactive part scales linearly
    with the integrator coefficient (2/h trapezoidal, 1/h backward
    Euler), so one static matrix and one reactive matrix cover both
    methods; a run builds the _Stage of each coefficient it steps with.
    Transistors and varactors are kept as the rows of their devices
    tables (module docstring), both over extended-system slots, and
    their stamps as the constant pattern inc and jst.  The slices dev,
    jac and rhs place the device values, the partials with the 1, and b
    in the step state y of length ylen, and q_map @ y is the charge
    q(x) (module docstring).  f, abs_y, ref, abs_f and accept are the
    scratch arrays a bound Newton solver writes in place through its own
    views, and tiny the constant it screens each update with.
    """

    def __init__(self, net: Netlist):
        self.net = net
        self.n = len(net.node_names)
        self.m = sum(len(e.pairs) if isinstance(e, CoupledInductors)
                     else isinstance(e, VSource) for e in net.elements)
        self.size = self.n + self.m

        self._build_linear()
        self._build_device_pattern()
        dim, k = self.size + 1, self.inc.shape[1]
        self.dev = slice(dim, dim + 3 * k)
        self.jac = slice(dim + k, dim + 3 * k + 1)
        self.rhs = slice(dim + 3 * k + 1, dim + 3 * k + 1 + self.size)
        self.ylen = self.rhs.stop
        n_mos = len(self.mos)
        self.q_map = np.zeros((self.size, self.ylen))
        self.q_map[:, :dim] = self.a_react[:self.size]
        self.q_map[:, dim + n_mos:dim + k] = self.inc[:self.size, n_mos:]

        # per-row cap on the Newton residual: KCL_ABS_A on node rows,
        # none on branch rows
        self.kcl_cap = np.full(self.size, np.inf)
        self.kcl_cap[:self.n] = KCL_ABS_A
        # Newton's scratch arrays: whole arrays, never views, so
        # a deep copy of the system keeps them (module docstring)
        self.f = np.empty(self.size)
        self.abs_y = np.empty(self.ylen)
        self.ref = np.empty(self.size)
        self.abs_f = np.empty(self.size)
        self.accept = np.empty(self.size, dtype=bool)
        self.tiny = np.full(self.size, 2.0**-600)

    def linearize(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(G, C) over the unknowns at the step state y: G is a_static
        plus the transistor partials' stamps, C is a_react plus the
        varactor partials' stamps, so G dx + C d(dx)/dt = 0 is the
        circuit linearized about y's x."""
        size, p = self.size, 2 * len(self.mos)
        part = y[self.jac][:-1]
        stamps = self.jst.reshape(size + 1, size + 1, -1)[:size, :size]
        return (self.a_static[:size, :size] + stamps[..., :p] @ part[:p],
                self.a_react[:size, :size] + stamps[..., p:] @ part[p:])

    def stage(self, coef: float, next_coef: float) -> _Stage:
        size, dim = self.size, self.size + 1
        k = self.inc.shape[1]
        a0 = (self.a_static + coef * self.a_react)[:size]
        eye = np.eye(size)
        w = np.ones(k)  # the device weights: coef on each varactor
        w[len(self.mos):] = coef

        def zeros(n):
            return np.zeros((size, n))

        jsts = self.jst.reshape(dim, dim, -1)[:size, :size] * np.repeat(w, 2)
        j0 = a0[:, :size].reshape(size * size, 1)
        hist = (coef + next_coef) * self.q_map
        hist[:, self.rhs] = -eye
        for row, _ in self.vsources:  # b keeps it: its q_map row is zero
            hist[row, self.rhs.start + row] = 1.0
        return _Stage(
            F=np.hstack([a0, self.inc[:size] * w, zeros(2 * k + 1), -eye]),
            R=np.hstack([NEWTON_REL * np.abs(a0), zeros(3 * k),
                         np.full((size, 1), NEWTON_ABS), NEWTON_REL * eye]),
            J0=j0.ravel(),
            Jt=np.hstack([jsts.reshape(size * size, -1), j0])[self.touched],
            hist=hist)

    def _build_device_pattern(self) -> None:
        """inc[:, k] is +1 on row p and -1 on row n of device k, in the
        order of y's device slots (transistors, then varactors);
        column 2k + c of jst is the flattened outer product of that
        incidence with partial c's column difference.  Ground terminals
        land in the ground slot, and coinciding slots accumulate."""
        terms = ([(d, s, (g, s), (d, s)) for d, g, s, *_ in self.mos]
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
        self.touched = np.flatnonzero(jst[:self.size, :self.size].any(axis=2))

    def _build_linear(self) -> None:
        """The one walk over the elements: in element order it checks
        each element's terminals as it stamps them, assigns branch rows
        and labels, fills x_init and collects the sources, transistors
        and varactors; then it checks for ground, floating nodes and
        initial voltages on unknown nodes, in that order.  A netlist with
        no element or no node besides ground is refused first."""
        net = self.net
        if not net.elements:
            raise InvalidModelError("netlist has no elements")
        if not self.n:
            raise InvalidModelError("netlist has no node besides ground")
        dim = self.size + 1
        a_static = np.zeros((dim, dim))
        a_react = np.zeros((dim, dim))
        x_init = np.zeros(dim)
        self.branch_labels: list[str] = []
        self.vsources: list[tuple[int, VSource]] = []
        self.mos, self.varactors = [], []
        touched: set[int] = set()

        def nodes(e, *idx):
            for i in idx:
                # an int or numpy integer; a bool would index node 0 or 1
                if (isinstance(i, bool) or not isinstance(i, (int, np.integer))
                        or not GROUND <= i < self.n):
                    raise InvalidModelError(
                        f"element {e.label} references unknown node {i}")
            touched.update(idx)
            return idx

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
                conductance(a_static, *nodes(e, e.a, e.b), 1.0 / e.ohms)
            elif isinstance(e, Capacitor):
                conductance(a_react, *nodes(e, e.a, e.b), e.farads)
            elif isinstance(e, Vccs):
                p, n, cp, cn = nodes(e, e.p, e.n, e.cp, e.cn)
                a_static[p, cp] += e.gm
                a_static[p, cn] -= e.gm
                a_static[n, cp] -= e.gm
                a_static[n, cn] += e.gm
            elif isinstance(e, CoupledInductors):
                nodes(e, *(t for pair in e.pairs for t in pair))
                k = len(e.pairs)
                row0 = self.n + len(self.branch_labels)
                for w, (na, nb) in enumerate(e.pairs):
                    row = branch(na, nb,
                                 e.label if k == 1 else f"{e.label}.w{w}")
                    a_static[row, row] -= e.series_r[w]
                    a_react[row, row0:row0 + k] -= e.matrix[w]
                    x_init[row] = e.i_initial_a[w]
            elif isinstance(e, VSource):
                self.vsources.append((branch(*nodes(e, e.p, e.n), e.label), e))
            elif isinstance(e, Mos):
                d, g, s = nodes(e, e.d, e.g, e.s)
                # the nonlinear part is stamped per Newton iteration;
                # the leak keeps cut-off regions non-singular
                conductance(a_static, d, GROUND, GMIN)
                conductance(a_static, s, GROUND, GMIN)
                self.mos.append(mos_row(d, g, s, e.params))
            elif isinstance(e, Varactor):
                self.varactors.append((*nodes(e, e.a, e.b, e.cp, e.cn),
                                       e.model))

        if GROUND not in touched:
            raise InvalidModelError("no element is connected to ground")
        floating = set(range(self.n)) - touched
        if floating:
            names = sorted(net.node_names[i] for i in floating)
            raise InvalidModelError(f"nodes used by no element: {names}")
        for name, v in net.initial_voltages.items():
            if name not in net.node_names:
                raise InvalidModelError(
                    f"initial condition on unknown node {name!r}")
            x_init[net.node_names.index(name)] = v

        self.a_static = a_static
        self.a_react = a_react
        self.x_init = x_init


def _non_finite(sys: _System, js: np.ndarray, f: np.ndarray, t: float) -> str:
    """Why js dx = f has a non-finite update: a singular js, named by its
    first all-zero row or column if it has one, or the update at t."""
    try:
        with np.errstate(invalid="raise"):
            _umath_linalg.solve1(js, f, signature="dd->d")
    except FloatingPointError:
        scale = np.abs(js)
        dead = np.where((scale.max(1) == 0.0) | (scale.max(0) == 0.0))[0]
        if len(dead):
            i = int(dead[0])
            name = (sys.net.node_names[i] if i < sys.n
                    else f"branch {sys.branch_labels[i - sys.n]}")
            return f"MNA matrix is singular: no finite stamp at {name}"
        return "MNA matrix is singular (structurally ill-posed netlist)"
    return f"non-finite Newton update at t = {t:.6e} s"


def _devices(sys: _System):
    """The device slots of y as a function of the node voltages v: every
    transistor's current and every varactor's charge, in the column order
    of sys.inc, then their partials, in the column order of sys.jst.  The
    banks are looked up here, when a run binds them."""
    mos, varactors, bank, var_bank = (sys.mos, sys.varactors, mos_bank,
                                      varactor_bank)

    def devices(v: list) -> list:
        cur, part = bank(mos, v)
        if not varactors:
            return cur + part
        charge, charge_part = var_bank(varactors, v)
        return cur + charge + part + charge_part
    return devices


def _solve(js: np.ndarray, f: np.ndarray) -> np.ndarray:
    """np.linalg.solve(js, f) without its wrapper: the gesv gufunc, which
    flags a singular js as invalid and fills the update with NaN (module
    docstring)."""
    return _umath_linalg.solve1(js, f, signature="dd->d")


def _newton(sys: _System, y: np.ndarray):
    """Newton on F y = 0 as a solver bound once per run to the step
    state y (module docstring): newton(stage, t) starts from the x in y,
    updates it in place with y's device slots (b is y's rhs slice) and
    returns the linear solves, the iterations being the solves plus one;
    sys.f and sys.abs_f hold the accepted residual and its magnitude.
    Its caller enters np.errstate(all="ignore") around it."""
    size, dev, kcl_cap, accept = sys.size, sys.dev, sys.kcl_cap, sys.accept
    f, abs_y, ref, abs_f, tiny = sys.f, sys.abs_y, sys.ref, sys.abs_f, sys.tiny
    x, xs, part = y[:size + 1], y[:size], y[sys.jac]
    # the solver's own Jacobian, holding the J0 of the stage last called
    js, jt = np.empty((size, size)), np.empty(sys.touched.size)
    flat, touched, held = js.ravel(), sys.touched, None
    devices, solve, isfinite = _devices(sys), _solve, math.isfinite
    dot, absolute, minimum, subtract = np.dot, np.abs, np.minimum, np.subtract
    less_equal, count_nonzero = np.less_equal, np.count_nonzero

    def newton(stage: _Stage, t: float) -> int:
        nonlocal held
        F, R, Jt = stage.F, stage.R, stage.Jt
        if stage is not held:
            flat[:], held = stage.J0, stage
        for it in range(MAX_NEWTON):
            y[dev] = devices(x.tolist())
            dot(F, y, out=f)
            if it:
                # |f| <= min(R |y|, kcl_cap) on every row, NaN rows failing
                dot(R, absolute(y, out=abs_y), out=ref)
                minimum(ref, kcl_cap, out=ref)
                less_equal(absolute(f, out=abs_f), ref, out=accept)
                if count_nonzero(accept) == size:
                    return it
            # the Jacobian only now: an accepted residual needs none
            dot(Jt, part, out=jt)
            flat[touched] = jt
            dx = solve(js, f)
            # NaN or inf exactly when an entry is: 2^-600 keeps a finite
            # update's sum far below overflow (module docstring)
            if not isfinite(dot(dx, tiny)):
                raise NumericFailure(_non_finite(sys, js, f, t))
            subtract(xs, dx, out=xs)
        raise NumericFailure(
            f"Newton did not converge at t = {t:.6e} s after "
            f"{MAX_NEWTON} iterations; last update {np.abs(dx).max():.3e}")
    return newton


def small_signal(net: Netlist) -> tuple[np.ndarray, np.ndarray]:
    """The finite poles of net linearized at its DC point, largest real
    part first, and their eigenvectors as columns over the unknowns
    (module docstring)."""
    sys = _System(net)
    y = np.zeros(sys.ylen)
    y[:sys.size + 1] = sys.x_init
    y[sys.dev.stop] = 1.0
    for row, e in sys.vsources:
        y[sys.rhs.start + row] = e.volts
    with np.errstate(all="ignore"):
        _newton(sys, y)(sys.stage(0.0, 0.0), 0.0)
    g, c = sys.linearize(y)
    a = np.linalg.solve(g, c)
    mu, v = np.linalg.eig(a)
    finite = np.abs(mu) > 2.0**-26 * np.linalg.norm(a, 1)  # sqrt(eps)
    poles = -1.0 / mu[finite]
    order = np.argsort(-poles.real, kind="stable")
    return poles[order], v[:, finite][:, order]


def transient(net: Netlist, cfg: SimConfig) -> Waveforms:
    """One fixed-step transient, Newton bound once; see module docstring."""
    sys = _System(net)
    h = cfg.dt_s
    n_steps = int(round(cfg.t_stop_s / h))
    times = h * np.arange(n_steps + 1)
    times.flags.writeable = False
    # backward Euler for the first step, trapezoidal after it
    first, trap = sys.stage(1.0 / h, 2.0 / h), sys.stage(2.0 / h, 2.0 / h)
    y = np.zeros(sys.ylen)
    x, b = y[:sys.size + 1], y[sys.rhs]
    x[:] = sys.x_init
    y[sys.dev] = _devices(sys)(x.tolist())
    y[sys.dev.stop] = 1.0  # the 1 between the partials and b
    # the first step's history, b_1 = q(x_0)/h: the zero initial derivative
    b[:] = (1.0 / h) * (sys.q_map @ y)
    out = np.empty((n_steps + 1, sys.size + 1))
    out[0] = x
    worst = np.zeros(sys.size)  # the largest accepted |f| of each row
    histogram = [0] * MAX_NEWTON  # Newton solves at most MAX_NEWTON - 1
    newton, abs_f = _newton(sys, y), sys.abs_f
    sources = [(row, e.value_at) for row, e in sys.vsources]
    ramp_end = max((e.ramp_s for _, e in sys.vsources), default=0.0)
    matmul, maximum, dot = np.matmul, np.maximum, np.dot
    stage = first
    with np.errstate(all="ignore"):
        for step in range(1, n_steps + 1):
            t = h * step  # the float times[step] holds
            # Newton starts from the predictor over the rows of out already
            # accepted, the initial state excluded; with none accepted yet,
            # k = 1 copies the initial state
            k = min(max(step - 1, 1), PREDICTOR_ORDER + 1)
            matmul(_PREDICTOR[k], out[step - k:step], out=x)
            if sources:  # up to the first step past the last ramp's end
                for row, value_at in sources:
                    b[row] = value_at(t)
                if t >= ramp_end:
                    sources = []
            histogram[newton(stage, t)] += 1
            maximum(worst, abs_f, out=worst)
            out[step] = x
            dot(stage.hist, y, out=b)  # numpy buffers the b it reads
            stage = trap

    # read-only column views of out, which Waveforms then needs not copy
    out.flags.writeable = False
    while not histogram[-1]:
        histogram.pop()
    voltages = {name: out[:, i] for i, name in enumerate(net.node_names)}
    currents = {f"I({lbl})": out[:, sys.n + j]
                for j, lbl in enumerate(sys.branch_labels)}
    return Waveforms(time_s=times, voltages=voltages, currents=currents,
                     kcl_max_a=float(worst[:sys.n].max()),
                     solve_histogram=tuple(histogram))
