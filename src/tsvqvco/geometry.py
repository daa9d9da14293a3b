"""Conductor geometry primitives and the process description they live in.

Lengths follow the units in their names: process and transformer
parameters are entered in micrometers (the natural authoring unit for a
TSV stack), while segment rows are SI meters because they feed the field
formulas directly.

A segment is a row of ten numbers (``round_row``, ``rect_row``).
``coils_from_rows`` is the one entrance of a coil, generated or built by
hand: it checks a batch of coils' rows against one set of segment rules
(``_broken_rules``) and the one path-gap rule, then packs them as the
read-only ``Columns`` the inductance formulas read, one column per
segment.  ``join_columns`` puts coils side by side.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sized
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .errors import POSITIVE, InvalidGeometryError, check_finite, check_type

UM = 1e-6
PATH_GAP_TOL_M = 1e-9  # largest end-to-start gap of a connected winding path

STYLE_TOROIDAL = "toroidal"
STYLE_VERTICAL_SPIRAL = "vertical_spiral"
_STYLES = (STYLE_TOROIDAL, STYLE_VERTICAL_SPIRAL)


def check_turns(kind: str, name: str, turns) -> None:
    """A turn count passes check_finite and is a positive integer."""
    check_finite(InvalidGeometryError, kind, name, turns)
    if int(turns) != turns or turns < 1:
        raise InvalidGeometryError(f"{kind} field {name} must be a positive integer")


@dataclass(frozen=True)
class ProcessParams:
    """Stack parameters of the 3D process, one tier of which hosts the TSVs.

    Copper resistivity applies to TSVs, traces and vias alike.  The lumped
    extraction does not model substrate eddy loss.
    """

    tier_height_um: float = 60.0
    tsv_diameter_um: float = 20.0
    tsv_liner_um: float = 0.5
    min_tsv_pitch_um: float = 5.0
    m9_thickness_um: float = 7.0
    m9_width_um: float = 24.0
    m8_thickness_um: float = 7.0
    m7_thickness_um: float = 2.0
    via_m9_m8_um: float = 5.0
    via_m8_m7_um: float = 3.0
    resistivity_ohm_m: float = 1.68e-8

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            check_finite(InvalidGeometryError, "process", name, value, POSITIVE)
        if self.tsv_liner_um >= self.tsv_diameter_um / 2:
            raise InvalidGeometryError("TSV liner consumes the whole via cross section")

    @property
    def tsv_radius_um(self) -> float:
        """Conducting radius: drawn radius minus the dielectric liner."""
        return self.tsv_diameter_um / 2 - self.tsv_liner_um

    @property
    def min_pitch_um(self) -> float:
        """Smallest TSV center-to-center distance: diameter plus keep-out."""
        return self.tsv_diameter_um + self.min_tsv_pitch_um

    @classmethod
    def from_dict(cls, data: dict) -> "ProcessParams":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise InvalidGeometryError(f"unknown process fields: {sorted(extra)}")
        return cls(**data)


# A segment row, as round_row and rect_row build one: start x, y, z, end
# x, y, z, 1.0 for round or 0.0 for rect, radius, width, thickness, in
# meters; a round row's width and thickness are 0, as is a rect row's
# radius.  Current flows from start to end, and mutual terms take their
# sign from that orientation.
def round_row(start: tuple[float, float, float], end: tuple[float, float, float],
              radius_m: float) -> tuple[float, ...]:
    try:
        (x0, y0, z0), (x1, y1, z1) = start, end
    except (TypeError, ValueError):
        raise _point_error(start) from None
    return (x0, y0, z0, x1, y1, z1, 1.0, radius_m, 0.0, 0.0)


def rect_row(start: tuple[float, float, float], end: tuple[float, float, float],
             width_m: float, thickness_m: float) -> tuple[float, ...]:
    try:
        (x0, y0, z0), (x1, y1, z1) = start, end
    except (TypeError, ValueError):
        raise _point_error(start) from None
    return (x0, y0, z0, x1, y1, z1, 0.0, 0.0, width_m, thickness_m)


def _point_error(start) -> InvalidGeometryError:
    """The error of a row whose start, or else end, is not three coordinates."""
    name = "end" if isinstance(start, Sized) and len(start) == 3 else "start"
    return InvalidGeometryError(f"segment field {name} must be a point of three coordinates")


def _number(value) -> float:
    """value as a float, or NaN where check_finite refuses it."""
    try:
        check_finite(InvalidGeometryError, "segment", "value", value)
    except InvalidGeometryError:
        return math.nan
    return float(value)


def _raw(rows) -> np.ndarray:
    """The rows as columns, (10, n).  Floats, all the generators
    emit, are taken as they are.  Otherwise each value is taken where
    check_finite takes it, and read as NaN where it does not (a bool, a
    string, None, an int beyond float range), so that the rule on its
    field reports it."""
    values = list(chain.from_iterable(rows))
    if not set(map(type, values)) <= {float}:
        values = list(map(_number, values))
    return np.fromiter(values, float, len(values)).reshape(-1, 10).T.copy()


# The rules on a segment as a whole, in the order they are checked: each
# value of its row finite (one rule per value, named by its field in
# round_row and rect_row), a known shape, a positive length, then a
# positive radius, or width and thickness.  A segment's message is that
# of the first rule it breaks.
_RULES = (*(f"segment field {name} is not a finite number" for name in (
              *("start",) * 3, *("end",) * 3, "shape",
              "radius_m", "width_m", "thickness_m")),
          "unknown segment shape: 1.0 is round (round_row), 0.0 rect (rect_row)",
          "zero-length segment",
          "round segment needs a positive radius",
          "rect segment needs positive width and thickness")


def _broken_rules(raw: np.ndarray) -> np.ndarray:
    """Which of _RULES each segment (a column of raw) breaks, as a
    (len(_RULES), n) mask; a segment's message is its first rule's."""
    broken = np.empty((len(_RULES), raw.shape[1]), dtype=bool)
    np.logical_not(np.isfinite(raw), out=broken[:10])
    is_round, positive = raw[6] == 1.0, raw[7:10] > 0.0
    np.logical_and(raw[6] != 0.0, ~is_round, out=broken[10])
    same = raw[0:3] == raw[3:6]  # math.dist is 0 only where all three are
    np.logical_and(same[0], same[1] & same[2], out=broken[11])
    np.greater(is_round, positive[0], out=broken[12])
    np.greater(~is_round, positive[1] & positive[2], out=broken[13])
    return broken


def _check_rows(names, raw: np.ndarray, bounds) -> None:
    """Raise the first defect of the coils whose segments are the columns
    of raw, coil k in columns bounds[k]:bounds[k + 1], coil by coil in
    order: the first bad segment's first broken rule, no segments at all,
    then the first end-to-start gap above PATH_GAP_TOL_M inside the coil."""
    broken = _broken_rules(raw)
    # where a segment's end is not the next one's start, coil ends aside
    apart = raw[3:6, :-1] != raw[0:3, 1:]
    apart[:, [hi - 1 for hi in bounds[1:-1] if 0 < hi < raw.shape[1]]] = False
    if not (broken.any() or apart.any()) and all(
            lo < hi for lo, hi in zip(bounds, bounds[1:])):
        return
    for name, lo, hi in zip(names, bounds, bounds[1:]):
        bad = np.flatnonzero(broken[:, lo:hi].any(axis=0))
        if bad.size:
            raise InvalidGeometryError(_RULES[broken[:, lo + bad[0]].argmax()])
        if lo == hi:
            raise InvalidGeometryError(f"coil {name!r} has no segments")
        for k in lo + np.flatnonzero(apart[:, lo:hi - 1].any(axis=0)):
            a, b = tuple(raw[3:6, k].tolist()), tuple(raw[0:3, k + 1].tolist())
            if math.dist(a, b) > PATH_GAP_TOL_M:
                raise InvalidGeometryError(
                    f"coil {name!r} path breaks between {a} and {b}")


class Columns(NamedTuple):
    """Per-segment arrays, one column per segment, read-only once packed;
    the pair kernel gathers from them, by column index, the fields each
    projection reads."""

    start: np.ndarray   # (3, n) meters
    end: np.ndarray     # (3, n) meters
    mid: np.ndarray     # (3, n) meters
    unit: np.ndarray    # (3, n) unit vectors start -> end
    length: np.ndarray  # (n,) meters
    half: np.ndarray    # (2, n) body half extents (horizontal, vertical)
    cross: np.ndarray   # (2, n) width and thickness; a round one's radius twice
    is_round: np.ndarray  # (n,) bool


def _pack(raw: np.ndarray) -> Columns:
    """Columns of the segments whose rows are raw's columns; a length is
    math.dist(start, end) and a unit vector is (end - start) / length."""
    start, end = raw[0:3], raw[3:6]
    is_round = raw[6] == 1.0
    d = end - start
    # math.dist gives |d| exactly along an axis, as every generated
    # segment lies, and is called for the others
    ad, nz = np.abs(d), d != 0.0
    length = np.maximum(np.maximum(ad[0], ad[1]), ad[2])
    for k in np.flatnonzero(nz[0] & (nz[1] | nz[2]) | nz[1] & nz[2]):
        length[k] = math.dist(start[:, k].tolist(), end[:, k].tolist())
    cross = np.where(is_round, raw[7], raw[8:10])
    unit = d / length
    # Rectangular traces lie flat: width spans horizontally, thickness
    # vertically.  A vertical rect (not produced by the winding generators)
    # falls back to an isotropic bound.
    upright = ~is_round & (np.abs(unit[2]) > 0.5)
    half = np.where(upright, 0.5 * np.maximum(cross[0], cross[1]),
                    np.where(is_round, cross, 0.5 * cross))
    columns = Columns(start=start, end=end, mid=0.5 * (start + end), unit=unit,
                      length=length, half=half, cross=cross, is_round=is_round)
    for a in columns:
        a.flags.writeable = False
    return columns


@dataclass(frozen=True, eq=False)
class CoilGeometry:
    """Ordered, electrically connected segment path of one winding.

    ``coils_from_rows`` builds it, checked: the span of the read-only
    columns (``batch``) of every coil packed with it, so the coils of one
    generation join (``join_columns``) as that batch, with no copy.  The
    span is a forward run of the batch's columns, with no step.
    """

    name: str
    batch: Columns
    span: slice

    def __post_init__(self) -> None:
        check_type(InvalidGeometryError, "coil", "name", self.name, str)
        check_type(InvalidGeometryError, "coil", "batch", self.batch, Columns)
        check_type(InvalidGeometryError, "coil", "span", self.span, slice)
        lo, hi = self.span.start, self.span.stop
        if not (type(lo) is type(hi) is int and self.span.step is None
                and 0 <= lo and hi <= self.batch.length.size):
            raise InvalidGeometryError(
                f"coil {self.name!r} span must be a slice within its batch")
        if lo >= hi:
            raise InvalidGeometryError(f"coil {self.name!r} has no segments")

    @property
    def columns(self) -> Columns:
        return Columns(*(a[..., self.span] for a in self.batch))

    @property
    def segments(self) -> np.ndarray:
        """The segment rows as round_row and rect_row write them, read-only,
        (n, 10): len() is the segment count."""
        c = self.columns  # a round row's width and thickness are 0, a rect's radius
        rows = np.vstack((c.start, c.end, c.is_round, c.is_round * c.cross[0],
                          ~c.is_round * c.cross)).T
        rows.flags.writeable = False
        return rows


def _bounds(rows: dict) -> tuple[int, ...]:
    """Where each coil's rows start and end in the batch, once rows maps
    names to coils, each coil's rows are a sequence and each row is ten
    values."""
    if not isinstance(rows, Mapping):
        raise InvalidGeometryError("coils must be a mapping of name to rows")
    try:
        bounds = tuple(accumulate(map(len, rows.values()), initial=0))
        if set(map(len, chain.from_iterable(rows.values()))) <= {10}:
            return bounds
    except TypeError:  # a coil's rows or a row without a length
        pass
    for name, segments in rows.items():
        if not isinstance(segments, Sized):
            raise InvalidGeometryError(f"coil {name!r} segments must be a sequence of rows")
        for k, row in enumerate(segments):
            if not (isinstance(row, Sized) and len(row) == 10):
                raise InvalidGeometryError(
                    f"coil {name!r} segment {k} must be a row of 10 values "
                    "(round_row, rect_row)")


def coils_from_rows(rows: dict[str, list]) -> dict[str, CoilGeometry]:
    """Coils from their segment rows (``round_row``, ``rect_row``),
    checked and packed in one batch: the one entrance of a coil, whether
    generated or built by hand.  Coils that are not a mapping, a coil's
    rows that are not a sequence, or a row that is not ten values, are
    reported first; then the first defect, coil by coil (``_check_rows``)."""
    bounds = _bounds(rows)
    names = tuple(rows)
    raw = _raw(chain.from_iterable(rows.values()))
    _check_rows(names, raw, bounds)
    batch = _pack(raw)
    return {name: CoilGeometry(name, batch, slice(lo, hi))
            for name, lo, hi in zip(names, bounds, bounds[1:])}


def join_columns(coils: list[CoilGeometry]) -> tuple[tuple[int, ...], Columns]:
    """The coils' columns, in order, as one set, coil k in columns
    bounds[k]:bounds[k + 1], as (bounds, columns): their batch's own where
    they are its coils in order, as a generation's are, and a
    concatenation otherwise."""
    bounds = tuple(accumulate((c.span.stop - c.span.start for c in coils), initial=0))
    batch = coils[0].batch
    if (all(c.batch is batch for c in coils) and bounds[-1] == batch.length.size
            and all(c.span.start == lo for c, lo in zip(coils, bounds))):
        return bounds, batch
    return bounds, Columns(*(np.concatenate(a, axis=-1)
                             for a in zip(*(c.columns for c in coils))))


@dataclass(frozen=True)
class TransformerGeometry:
    """Parametric description of a three-coil TSV transformer.

    trace_width_um of None lets the winding generator pick the widest trace
    that keeps every routed segment long enough for the closed-form
    inductance formulas (length >= 2x largest cross-section dimension).

    secondary_slots applies to the toroidal style only: two sequences of
    primary cell indices (stored as tuples), one per secondary coil, naming
    the cells whose TSV pair each secondary turn rides beside.  None picks
    two interleaved blocks centered on the row.  Cells run
    0..turns_primary-1 and the last cell has no room for a rider, so slots
    stay at or below turns_primary-2.
    """

    style: str
    turns_primary: int
    turns_secondary: int
    tsv_pitch_um: float
    row_spacing_um: float
    trace_width_um: float | None = None
    secondary_slots: tuple[tuple[int, ...], ...] | None = None
    process: ProcessParams = field(default_factory=ProcessParams)

    def __post_init__(self) -> None:
        if self.style not in _STYLES:
            raise InvalidGeometryError(
                f"style must be one of {_STYLES}, got {self.style!r}")
        for name in ("turns_primary", "turns_secondary"):
            check_turns("geometry", name, getattr(self, name))
        for name in ("tsv_pitch_um", "row_spacing_um", "trace_width_um"):
            value = getattr(self, name)
            if value is not None:  # trace_width_um is optional
                check_finite(InvalidGeometryError, "geometry", name, value, POSITIVE)
        check_type(InvalidGeometryError, "geometry", "process", self.process,
                   ProcessParams)
        min_pitch = self.process.min_pitch_um
        if self.tsv_pitch_um < min_pitch:
            raise InvalidGeometryError(
                f"tsv_pitch_um {self.tsv_pitch_um} below minimum {min_pitch} "
                "(diameter plus keep-out)")
        if self.row_spacing_um < min_pitch:
            raise InvalidGeometryError(
                f"row_spacing_um {self.row_spacing_um} below minimum {min_pitch}")
        if self.secondary_slots is not None:
            if self.style != STYLE_TOROIDAL:
                raise InvalidGeometryError(
                    "secondary_slots only applies to the toroidal style")
            lists = (list, tuple)
            if not (isinstance(self.secondary_slots, lists)
                    and len(self.secondary_slots) == 2
                    and all(isinstance(s, lists) for s in self.secondary_slots)):
                raise InvalidGeometryError(
                    "secondary_slots needs one slot list per secondary coil")
            seen: set[int] = set()
            for slots in self.secondary_slots:
                if len(slots) != self.turns_secondary:
                    raise InvalidGeometryError(
                        f"each secondary needs {self.turns_secondary} slots, "
                        f"got {len(slots)}")
                for s in slots:
                    check_finite(InvalidGeometryError, "geometry",
                                 "secondary_slots", s)
                    if int(s) != s:
                        raise InvalidGeometryError(
                            f"secondary slot {s!r} is not an integer cell index")
                    if not 0 <= s <= self.turns_primary - 2:
                        raise InvalidGeometryError(
                            f"secondary slot {s!r} outside cells "
                            f"0..{self.turns_primary - 2}")
                    if int(s) in seen:
                        raise InvalidGeometryError(
                            f"secondary slot {int(s)} assigned twice")
                    seen.add(int(s))
            object.__setattr__(self, "secondary_slots",
                               tuple(map(tuple, self.secondary_slots)))

    @classmethod
    def from_dict(cls, data: dict) -> "TransformerGeometry":
        if not isinstance(data, dict):
            raise InvalidGeometryError("geometry document must be a JSON object")
        data = dict(data)
        proc = data.pop("process", {})
        if not isinstance(proc, dict):
            raise InvalidGeometryError("process must be an object")
        known = {f for f in cls.__dataclass_fields__ if f != "process"}
        extra = set(data) - known
        if extra:
            raise InvalidGeometryError(f"unknown geometry fields: {sorted(extra)}")
        missing = {"style", "turns_primary", "turns_secondary",
                   "tsv_pitch_um", "row_spacing_um"} - set(data)
        if missing:
            raise InvalidGeometryError(f"missing geometry fields: {sorted(missing)}")
        return cls(process=ProcessParams.from_dict(proc), **data)

    @classmethod
    def from_json_file(cls, path) -> "TransformerGeometry":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InvalidGeometryError(f"cannot read geometry file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidGeometryError(f"geometry file is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
