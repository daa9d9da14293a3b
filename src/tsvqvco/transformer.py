"""Winding generators for the two TSV transformer styles and their lumped model.

The toroidal style threads the primary through every cell of a TSV row pair
and lets each secondary turn ride inside a chosen cell at a small x offset,
so every secondary turn sits between two primary turns.  The primary winds
bottom row to top row and advances past the top; the secondaries wind top to
bottom, take their cells in descending order, and advance past the bottom, so
their advance rails carry current the same way their turns circulate.  The
three advance rails stack on the centerline, one metal layer each, which both
keeps the crossings on distinct planes and adds rail-to-rail coupling on top
of the cell-sharing coupling.
The vertical-spiral style winds each coil along one straight TSV line as a
row of same-sense loops standing in the substrate, top metal across each pair
and backside advances between pairs; the two secondary lines shadow the
middle primary cells from opposite sides of the primary line.

Crossings between segments on different planes, and the perpendicular
TSV-over-trace crossings a layout would resolve with stacked vias, contribute
zero mutual inductance; their resistance is counted through segment lengths.
Perpendicular pairs also skip the overlap check, so the toroidal generator
verifies its own clearances explicitly before emitting any segment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGeometryError, InvalidModelError, check_finite
from .geometry import (UM, STYLE_TOROIDAL, STYLE_VERTICAL_SPIRAL,
                       CoilGeometry, ProcessParams, TransformerGeometry,
                       rect_segment, round_segment)
from .inductance import (MU0, _pack, coil_resistance, coupling_coefficient,
                         loop_inductance, mutual_loop_inductance, pack_coil)

DEFAULT_EVAL_FREQUENCY_HZ = 2.5e9

ROLE_PRIMARY = "primary"
ROLE_SECONDARY1 = "secondary1"
ROLE_SECONDARY2 = "secondary2"
ROLES = (ROLE_PRIMARY, ROLE_SECONDARY1, ROLE_SECONDARY2)

_CLEARANCE_UM = 2.0


def _layer_stack(proc: ProcessParams) -> list[tuple[float, float]]:
    """(z_center_um, thickness_um) for the top three metals, top down."""
    z9 = 0.0
    z8 = z9 - (proc.m9_thickness_um / 2 + proc.via_m9_m8_um + proc.m8_thickness_um / 2)
    z7 = z8 - (proc.m8_thickness_um / 2 + proc.via_m8_m7_um + proc.m7_thickness_um / 2)
    return [(z9, proc.m9_thickness_um),
            (z8, proc.m8_thickness_um),
            (z7, proc.m7_thickness_um)]


def default_secondary_slots(n_primary: int, n_secondary: int) -> list[list[int]]:
    """Cell assignment for the two secondary coils of a toroidal pair.

    The riders take one centered block of consecutive cells, alternating
    between the two secondaries, so every secondary turn has primary turns on
    both sides and the two secondaries overlap over their whole span.
    """
    if n_primary < 1 or n_secondary < 1:
        raise InvalidGeometryError("both coils need at least one turn")
    need = 2 * n_secondary
    if n_primary - 1 < need:
        raise InvalidGeometryError(
            f"turns_primary {n_primary} offers {max(0, n_primary - 1)} rider "
            f"cells, fewer than the {need} the secondaries need")
    start = (n_primary - 1 - need) // 2
    cells = list(range(start, start + need))
    return [cells[0::2], cells[1::2]]


def _toroidal_trace_width(geom: TransformerGeometry) -> float:
    # Three constraints bound the rung/advance width: the far rider offset
    # grows with width and must leave a legal TSV pitch to the next cell, the
    # centerline jogs need a quarter of the row spacing each, and jogs
    # shorter than the top-metal thickness break the closed-form validity.
    proc = geom.process
    t = proc.m9_thickness_um
    cap_pitch = (geom.tsv_pitch_um - proc.min_pitch_um - proc.tsv_radius_um
                 - 2.0 * _CLEARANCE_UM) / 2.5
    cap = min(proc.m9_width_um, cap_pitch, geom.row_spacing_um / 8.0)
    w = geom.trace_width_um if geom.trace_width_um is not None else cap
    if w > cap * (1.0 + 1e-9):
        raise InvalidGeometryError(
            f"trace_width_um {w:g} above {cap:g}, the widest trace that "
            f"tsv_pitch_um {geom.tsv_pitch_um:g} and row_spacing_um "
            f"{geom.row_spacing_um:g} can route")
    if w < t:
        if geom.trace_width_um is not None:
            raise InvalidGeometryError(
                f"trace_width_um {w:g} below the top-metal thickness {t:g}; "
                f"lane-change jogs would break the closed-form validity")
        raise InvalidGeometryError(
            f"tsv_pitch_um {geom.tsv_pitch_um:g} or row_spacing_um "
            f"{geom.row_spacing_um:g} too tight for a {t:g} um thick trace; "
            f"the widest routable width is {cap:g}")
    return w


@dataclass(frozen=True)
class _ToroidalLane:
    """Advance routing for one coil: rows, rail lane, rail layer, dip point.

    A coil with y_lo_um > y_hi_um winds the opposite way around the core.
    dip_um is the y where the advance leaves the top metal for its rail
    layer; it sits one jog to the coil's own side of the lane so the via
    drops clear of the other rails, and equals lane_um for the coil whose
    rail stays on the top metal.
    """
    y_lo_um: float
    y_hi_um: float
    lane_um: float
    dip_um: float
    run_z_um: float
    run_thickness_um: float


def _toroidal_layout(d_um: float, w_um: float, jog_um: float,
                     proc: ProcessParams) -> dict[str, _ToroidalLane]:
    """Assign winding sense, advance rails and rail layers to the three coils.

    The primary winds bottom row to top and advances past the top row on the
    first metal below the top; the secondaries wind top to bottom and advance
    past the bottom row, one on the deepest routable metal and one staying on
    the top metal.  All three rails run along the centerline stacked in z, so
    the rail currents couple to each other while every crossing between coils
    lands on its own layer.
    """
    stack = _layer_stack(proc)
    mid = d_um / 2.0
    if mid - 2.0 * w_um < jog_um * (1.0 - 1e-9):
        raise InvalidGeometryError(
            f"row_spacing_um {d_um:g} leaves no room between the rail stack "
            f"and the rows; needs at least {2.0 * (jog_um + 2.0 * w_um):g} at "
            f"trace width {w_um:g}")
    return {
        ROLE_PRIMARY: _ToroidalLane(0.0, d_um, mid, mid + 2.0 * w_um, *stack[1]),
        ROLE_SECONDARY1: _ToroidalLane(d_um, 0.0, mid, mid - 2.0 * w_um, *stack[2]),
        ROLE_SECONDARY2: _ToroidalLane(d_um, 0.0, mid, mid, *stack[0]),
    }


def _toroidal_coil(name: str, xs_um: list[float], lane: _ToroidalLane,
                   width_um: float, jog_um: float,
                   proc: ProcessParams) -> CoilGeometry:
    h = proc.tier_height_um * UM
    r = proc.tsv_radius_um * UM
    w = width_um * UM
    t_top = proc.m9_thickness_um * UM
    t_run = lane.run_thickness_um * UM
    y_lo = lane.y_lo_um * UM
    y_hi = lane.y_hi_um * UM
    y_lane = lane.lane_um * UM
    y_dip = lane.dip_um * UM
    z_run = lane.run_z_um * UM
    # Offsetting the descent by one jog keeps each advance clear of the
    # previous one's landing at the shared lane.
    dx = jog_um * UM
    via_r = min(0.5 * w, 5.0 * UM)
    segs = []
    for idx, x_um in enumerate(xs_um):
        x = x_um * UM
        # Entering on the rail layer keeps the first turn's port out of the
        # top-metal plane the other coils route their row traces on.
        segs.append(round_segment((x, y_lo, z_run), (x, y_lo, -h), r))
        segs.append(rect_segment((x, y_lo, -h), (x, y_hi, -h), w, t_top))
        segs.append(round_segment((x, y_hi, -h), (x, y_hi, 0.0), r))
        if idx + 1 < len(xs_um):
            x2 = xs_um[idx + 1] * UM
            xj = x + dx
            segs.append(rect_segment((x, y_hi, 0.0), (xj, y_hi, 0.0),
                                     w, t_top))
            segs.append(rect_segment((xj, y_hi, 0.0), (xj, y_dip, 0.0),
                                     w, t_top))
            if z_run != 0.0:
                segs.append(round_segment((xj, y_dip, 0.0),
                                          (xj, y_dip, z_run), via_r))
            if y_dip != y_lane:
                segs.append(rect_segment((xj, y_dip, z_run),
                                         (xj, y_lane, z_run), w, t_run))
            segs.append(rect_segment((xj, y_lane, z_run),
                                     (x2, y_lane, z_run), w, t_run))
            segs.append(rect_segment((x2, y_lane, z_run), (x2, y_lo, z_run),
                                     w, t_run))
    return CoilGeometry(name=name, segments=segs)


def _generate_toroidal(geom: TransformerGeometry) -> dict[str, CoilGeometry]:
    proc = geom.process
    n_p = int(geom.turns_primary)
    n_s = int(geom.turns_secondary)
    p = geom.tsv_pitch_um
    w = _toroidal_trace_width(geom)
    slots = geom.secondary_slots
    if slots is None:
        slots = default_secondary_slots(n_p, n_s)
    # Rider offsets inside a cell.  The near rider keeps the minimum TSV
    # pitch to the cell's primary; the far rider also clears the primary's
    # advance stub, because its rail is the top metal itself and both its
    # TSVs reach the stub plane.  The overlap check cannot see perpendicular
    # crossings, so these clearances carry the collision safety.
    r = proc.tsv_radius_um
    min_pitch = proc.min_pitch_um
    # Lane-change jog length, shared by the rider offset, the rail stack
    # clearance and each advance's descent offset.
    jog = 2.0 * max(w, proc.m9_thickness_um)
    off1 = min_pitch
    off2 = jog + w / 2.0 + r + 2.0 * _CLEARANCE_UM
    if p - off2 < min_pitch * (1.0 - 1e-9) or off2 <= off1:
        raise InvalidGeometryError(
            f"tsv_pitch_um {p:g} cannot hold the far rider at offset "
            f"{off2:g} and still keep the minimum pitch {min_pitch:g}")
    xs = {
        ROLE_PRIMARY: [k * p for k in range(n_p)],
        ROLE_SECONDARY1: [c * p + off1 for c in sorted(slots[0], reverse=True)],
        ROLE_SECONDARY2: [c * p + off2 for c in sorted(slots[1], reverse=True)],
    }
    layout = _toroidal_layout(geom.row_spacing_um, w, jog, proc)
    return {role: _toroidal_coil(role, xs[role], layout[role], w, jog, proc)
            for role in ROLES}


def _vertical_spiral_coil(name: str, cells: list[int], pitch_um: float,
                          y_row_um: float, width_um: float,
                          proc: ProcessParams) -> CoilGeometry:
    """One coil of the vertical-spiral style: a line of same-sense loops.

    Cell c owns the TSV pair at x = 2c and 2c+1 pitches.  Each turn rises
    through the first TSV, crosses on the top metal, and drops through the
    second; the advance to the next cell runs on the backside, so the whole
    coil lives on one straight TSV line and every loop faces the same way.
    """
    h = proc.tier_height_um * UM
    r = proc.tsv_radius_um * UM
    w = width_um * UM
    t = proc.m9_thickness_um * UM
    y = y_row_um * UM
    segs = []
    for i, c in enumerate(cells):
        xa = (2 * c) * pitch_um * UM
        xb = (2 * c + 1) * pitch_um * UM
        segs.append(round_segment((xa, y, -h), (xa, y, 0.0), r))
        segs.append(rect_segment((xa, y, 0.0), (xb, y, 0.0), w, t))
        segs.append(round_segment((xb, y, 0.0), (xb, y, -h), r))
        if i + 1 < len(cells):
            xc = (2 * cells[i + 1]) * pitch_um * UM
            segs.append(rect_segment((xb, y, -h), (xc, y, -h), w, t))
    return CoilGeometry(name=name, segments=segs)


def _generate_vertical_spiral(geom: TransformerGeometry) -> dict[str, CoilGeometry]:
    proc = geom.process
    n_p = int(geom.turns_primary)
    n_s = int(geom.turns_secondary)
    q = geom.tsv_pitch_um
    if n_s > n_p:
        raise InvalidGeometryError(
            f"vertical spiral secondaries shadow primary cells; "
            f"turns_secondary {n_s} exceeds turns_primary {n_p}")
    cap = min(proc.m9_width_um, q / 2.0)
    w = geom.trace_width_um if geom.trace_width_um is not None else cap
    if w > cap * (1.0 + 1e-9):
        raise InvalidGeometryError(
            f"trace_width_um {w:g} above {cap:g}; rungs span one tsv_pitch_um "
            f"{q:g} and must stay twice as long as they are wide")
    # Both secondaries shadow the same centered primary cells from opposite
    # sides of the row, one TSV line each, which is what keeps their coupling
    # to the primary equal.
    shadow = list(range((n_p - n_s) // 2, (n_p - n_s) // 2 + n_s))
    return {
        ROLE_PRIMARY: _vertical_spiral_coil(
            ROLE_PRIMARY, list(range(n_p)), q, 0.0, w, proc),
        ROLE_SECONDARY1: _vertical_spiral_coil(
            ROLE_SECONDARY1, shadow, q, geom.row_spacing_um, w, proc),
        ROLE_SECONDARY2: _vertical_spiral_coil(
            ROLE_SECONDARY2, shadow, q, -geom.row_spacing_um, w, proc),
    }


def generate_coils(geom: TransformerGeometry) -> dict[str, CoilGeometry]:
    """Generate the three winding paths described by a parametric geometry."""
    if geom.style == STYLE_TOROIDAL:
        return _generate_toroidal(geom)
    return _generate_vertical_spiral(geom)


def _footprint_mm2(coils: dict[str, CoilGeometry]) -> float:
    # in x and y a body reaches half[0] (r, or w/2 flat) across its axis
    rows = _pack("all", [s for c in coils.values() for s in c.segments]).rows
    reach = rows.half[0] * (1.0 - np.abs(rows.unit[:2]))
    lo = np.minimum(rows.start, rows.end)[:2] - reach
    hi = np.maximum(rows.start, rows.end)[:2] + reach
    width, height = hi.max(axis=1) - lo.min(axis=1)
    return float(width * height * 1e6)


def metal_area(geom: TransformerGeometry) -> float:
    """Footprint of the bounding metal/TSV usage, in mm^2."""
    return _footprint_mm2(generate_coils(geom))


@dataclass(frozen=True)
class TransformerModel:
    """Lumped three-coil transformer extracted at one evaluation frequency."""

    l_p: float
    l_s1: float
    l_s2: float
    r_pdc: float
    r_pac: float
    r_sdc: float
    r_sac: float
    k_ps1: float
    k_ps2: float
    k_ss: float
    area_mm2: float
    eval_frequency_hz: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            check_finite(InvalidModelError, "transformer model", name, value)
        for name in ("l_p", "l_s1", "l_s2"):
            if getattr(self, name) <= 0:
                raise InvalidModelError(f"{name} must be positive")
        for name in ("k_ps1", "k_ps2", "k_ss"):
            k = getattr(self, name)
            if not 0.0 <= k < 1.0:
                raise InvalidModelError(f"{name} = {k:.6f} outside [0, 1)")
        for dc, ac in (("r_pdc", "r_pac"), ("r_sdc", "r_sac")):
            if getattr(self, dc) <= 0:
                raise InvalidModelError(f"{dc} must be positive")
            if getattr(self, ac) < getattr(self, dc) * (1 - 1e-12):
                raise InvalidModelError(f"{ac} below {dc}")
        if self.area_mm2 <= 0:
            raise InvalidModelError("area must be positive")
        if self.eval_frequency_hz < 0:
            raise InvalidModelError("evaluation frequency must be non-negative")

    def inductance_matrix(self) -> list[list[float]]:
        """Symmetric 3x3 [primary, secondary1, secondary2] inductance matrix."""
        m_ps1 = self.k_ps1 * math.sqrt(self.l_p * self.l_s1)
        m_ps2 = self.k_ps2 * math.sqrt(self.l_p * self.l_s2)
        m_ss = self.k_ss * math.sqrt(self.l_s1 * self.l_s2)
        return [[self.l_p, m_ps1, m_ps2],
                [m_ps1, self.l_s1, m_ss],
                [m_ps2, m_ss, self.l_s2]]


def model_from_coils(coils: dict[str, CoilGeometry], eval_frequency_hz: float,
                     area_mm2: float, resistivity_ohm_m: float) -> TransformerModel:
    """Lumped model from explicit winding paths; labels follow the dict keys."""
    for role in ROLES:
        if role not in coils:
            raise InvalidModelError(f"missing coil {role!r}")
    # Each winding arrives valid and is packed once, right before its own
    # terms, so the first defect reported follows the role order.
    packed, inductance = [], []
    for role in ROLES:
        packed.append(pack_coil(coils[role]))
        inductance.append(loop_inductance(packed[-1]))
    prim, s1, s2 = packed
    l_p, l_s1, l_s2 = inductance
    k_ps1 = abs(coupling_coefficient(l_p, l_s1, mutual_loop_inductance(prim, s1)))
    k_ps2 = abs(coupling_coefficient(l_p, l_s2, mutual_loop_inductance(prim, s2)))
    k_ss = abs(coupling_coefficient(l_s1, l_s2, mutual_loop_inductance(s1, s2)))
    r_pdc, r_pac = coil_resistance(prim, eval_frequency_hz, resistivity_ohm_m)
    r_s1dc, r_s1ac = coil_resistance(s1, eval_frequency_hz, resistivity_ohm_m)
    r_s2dc, r_s2ac = coil_resistance(s2, eval_frequency_hz, resistivity_ohm_m)
    return TransformerModel(
        l_p=l_p, l_s1=l_s1, l_s2=l_s2,
        r_pdc=r_pdc, r_pac=r_pac,
        r_sdc=0.5 * (r_s1dc + r_s2dc), r_sac=0.5 * (r_s1ac + r_s2ac),
        k_ps1=k_ps1, k_ps2=k_ps2, k_ss=k_ss,
        area_mm2=area_mm2, eval_frequency_hz=eval_frequency_hz)


def build_transformer(geom: TransformerGeometry) -> TransformerModel:
    """Generate the windings and extract the lumped transformer model at
    DEFAULT_EVAL_FREQUENCY_HZ."""
    coils = generate_coils(geom)
    return model_from_coils(coils, DEFAULT_EVAL_FREQUENCY_HZ, _footprint_mm2(coils),
                            geom.process.resistivity_ohm_m)


def wheeler_spiral_inductance(n_turns: int, outer_dim_um: float, inner_dim_um: float,
                              width_um: float, spacing_um: float) -> tuple[float, float]:
    """Inductance (H) and footprint (mm^2) of a square planar spiral.

    Modified-Wheeler fit for square spirals,
    L = 2.34 mu0 n^2 d_avg / (1 + 2.75 rho), with d_avg the mean of the outer
    and inner dimensions and rho their fill ratio.  Serves as the 2D baseline
    the TSV structures are compared against.
    """
    if int(n_turns) != n_turns or n_turns < 1:
        raise InvalidGeometryError("spiral needs a positive integer turn count")
    if not outer_dim_um > inner_dim_um > 0:
        raise InvalidGeometryError("spiral needs outer_dim > inner_dim > 0")
    if width_um <= 0 or spacing_um < 0:
        raise InvalidGeometryError("spiral width must be positive, spacing non-negative")
    radial = n_turns * width_um + (n_turns - 1) * spacing_um
    available = (outer_dim_um - inner_dim_um) / 2.0
    if radial > available + 1e-9:
        raise InvalidGeometryError(
            f"{n_turns} turns need {radial:g} um radially, only {available:g} available")
    d_avg = 0.5 * (outer_dim_um + inner_dim_um) * UM
    fill = (outer_dim_um - inner_dim_um) / (outer_dim_um + inner_dim_um)
    inductance = 2.34 * MU0 * n_turns**2 * d_avg / (1.0 + 2.75 * fill)
    return inductance, (outer_dim_um * 1e-3) ** 2
