"""Conductor geometry primitives and the process description they live in.

Lengths on the dataclasses below follow the units in their field names:
process and transformer parameters are entered in micrometers (the natural
authoring unit for a TSV stack), while Segment coordinates are SI meters
because they feed the field formulas directly.

A coil keeps its segments packed, as the read-only ``Columns`` the
inductance formulas read, one column per segment.  A hand-built
``CoilGeometry`` packs the Segments it is given; ``coils_from_rows``
checks and packs the plain rows of a whole generation at once and builds
no Segment.  Both apply one set of segment rules (``_broken_rules``) and
the one path-gap rule, and ``join_columns`` puts coils side by side.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence, Sized
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


# The coordinate and dimension types Segment's fast path takes as they are.
_DIM_TYPES = frozenset({float, int})
_FLOAT = frozenset({float})


@dataclass(frozen=True)
class Segment:
    """Straight conductor segment with a round or rectangular cross section.

    Coordinates are meters, three to a point.  Current is taken to flow
    from start to end; mutual terms pick up their sign from that
    orientation.  Each value is checked here, then the rules on the
    segment as a whole (``_broken_rules``), which generated rows pass too.
    """

    start: tuple[float, float, float]
    end: tuple[float, float, float]
    shape: str = "round"
    radius_m: float = 0.0
    width_m: float = 0.0
    thickness_m: float = 0.0

    def __post_init__(self) -> None:
        # the common case: three float or int coordinates a point and
        # float or int dimensions, whose sum a NaN or inf makes non-finite;
        # anything else (a bool, which isfinite takes as 1, a string, a
        # numpy scalar, another length) goes to check_finite, which names it
        start, end = self.start, self.end
        try:
            values = (*start, *end, self.radius_m, self.width_m,
                      self.thickness_m)
            types = set(map(type, values))
            fast = (len(values) == 9 and len(start) == 3
                    and types <= _DIM_TYPES and math.isfinite(sum(values)))
        except (TypeError, OverflowError):  # not a sequence; a huge int
            fast = False
        if not fast:
            for name in ("start", "end", "radius_m", "width_m", "thickness_m"):
                value = getattr(self, name)
                point = name in ("start", "end")
                if point and not (isinstance(value, Sized) and len(value) == 3):
                    raise InvalidGeometryError(
                        f"segment field {name} must be a point of three coordinates")
                for v in value if point else (value,):
                    check_finite(InvalidGeometryError, "segment", name, v)
        # points of floats, as hand-built coils usually give them, are kept
        if not (fast and types == _FLOAT and type(start) is type(end) is tuple):
            object.__setattr__(self, "start", tuple(map(float, start)))
            object.__setattr__(self, "end", tuple(map(float, end)))
        if self.shape not in ("round", "rect"):
            raise InvalidGeometryError(f"unknown segment shape {self.shape!r}")
        broken = _broken_rules(_raw(_segment_rows([self])))[:, 0]
        if broken.any():
            raise InvalidGeometryError(_RULES[broken.argmax()])

    @property
    def length_m(self) -> float:
        return math.dist(self.start, self.end)


def round_segment(start, end, radius_m) -> Segment:
    return Segment(start=start, end=end, shape="round", radius_m=radius_m)


def rect_segment(start, end, width_m, thickness_m) -> Segment:
    return Segment(start=start, end=end, shape="rect",
                   width_m=width_m, thickness_m=thickness_m)


# A segment row, as the winding generators emit one: start x, y, z, end
# x, y, z, 1.0 for round (anything else is rect), radius, width,
# thickness, in Segment's units; a round row's width and thickness are 0,
# as is a rect row's radius.
def round_row(start, end, radius_m) -> tuple[float, ...]:
    return (*start, *end, 1.0, radius_m, 0.0, 0.0)


def rect_row(start, end, width_m, thickness_m) -> tuple[float, ...]:
    return (*start, *end, 0.0, 0.0, width_m, thickness_m)


def _raw(rows) -> np.ndarray:
    """The rows as read-only columns, (10, n)."""
    raw = np.fromiter(chain.from_iterable(rows), dtype=float).reshape(-1, 10).T.copy()
    raw.flags.writeable = False
    return raw


def _segment_rows(segments):
    return ((*s.start, *s.end, s.shape == "round", s.radius_m, s.width_m,
             s.thickness_m) for s in segments)


# The rules on a segment as a whole, in the order they are checked: each
# value of its row finite (one rule per value, named by its Segment
# field), a positive length, then a positive radius, or width and
# thickness.  A segment's message is that of the first rule it breaks.
_RULES = (*(f"segment field {name} is not a finite number" for name in (
              *("start",) * 3, *("end",) * 3, "shape",
              "radius_m", "width_m", "thickness_m")),
          "zero-length segment",
          "round segment needs a positive radius",
          "rect segment needs positive width and thickness")


def _broken_rules(raw: np.ndarray) -> np.ndarray:
    """Which of _RULES each segment (a column of raw) breaks, as a
    (len(_RULES), n) mask; a segment's message is its first rule's."""
    broken = np.empty((len(_RULES), raw.shape[1]), dtype=bool)
    np.logical_not(np.isfinite(raw), out=broken[:10])
    same = raw[0:3] == raw[3:6]  # math.dist is 0 only where all three are
    np.logical_and(same[0], same[1] & same[2], out=broken[10])
    is_round, positive = raw[6] == 1.0, raw[7:10] > 0.0
    np.greater(is_round, positive[0], out=broken[11])
    np.greater(~is_round, positive[1] & positive[2], out=broken[12])
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
    ``Segment.length_m``'s value and a unit vector is (end - start) / length."""
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


def pack_segments(segments) -> Columns:
    """Columns of the segments, in order."""
    return _pack(_raw(_segment_rows(segments)))


class _SegmentRows(Sequence):
    """Segments lo:hi of a checked batch, kept as the batch's rows (raw)
    and packed columns: len() reads the row count, and an index builds
    that row's Segment, which the batch has already checked."""

    __slots__ = ("raw", "batch", "lo", "hi")

    def __init__(self, raw: np.ndarray, batch: Columns, lo: int, hi: int) -> None:
        self.raw, self.batch, self.lo, self.hi = raw, batch, lo, hi

    @property
    def columns(self) -> Columns:
        if (self.lo, self.hi) == (0, self.raw.shape[1]):
            return self.batch
        return Columns(*(a[..., self.lo:self.hi] for a in self.batch))

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        row = self.raw[:, self.lo + range(len(self))[i]].tolist()
        # the batch checked this row, so its Segment is not checked again
        segment = Segment.__new__(Segment)
        vars(segment).update(
            start=tuple(row[0:3]), end=tuple(row[3:6]),
            shape="round" if row[6] == 1.0 else "rect",
            radius_m=row[7], width_m=row[8], thickness_m=row[9])
        return segment

    def __eq__(self, other) -> bool:
        if isinstance(other, _SegmentRows):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class CoilGeometry:
    """Ordered, electrically connected segment path of one winding.

    Its segments are kept as rows and read-only packed ``columns``, so a
    generated coil (``coils_from_rows``) builds no Segment until one is
    read from ``segments``.
    """

    name: str
    segments: tuple[Segment, ...] = ()

    def __post_init__(self) -> None:
        check_type(InvalidGeometryError, "coil", "name", self.name, str)
        if type(self.segments) is _SegmentRows:  # checked in its batch
            return
        if not isinstance(self.segments, Iterable):
            raise InvalidGeometryError("coil field segments must be a sequence")
        segments = tuple(self.segments)
        if not segments:
            raise InvalidGeometryError(f"coil {self.name!r} has no segments")
        if set(map(type, segments)) != {Segment}:
            for i, seg in enumerate(segments):
                check_type(InvalidGeometryError, "coil", f"segments[{i}]", seg, Segment)
        raw = _raw(_segment_rows(segments))
        _check_rows((self.name,), raw, (0, len(segments)))
        object.__setattr__(self, "segments",
                           _SegmentRows(raw, _pack(raw), 0, len(segments)))

    @property
    def columns(self) -> Columns:
        return self.segments.columns


def coils_from_rows(rows: dict[str, list]) -> dict[str, CoilGeometry]:
    """Coils from their segment rows (``round_row``, ``rect_row``), checked
    and packed in one batch.  The first defect, coil by coil, raises what
    building the Segments and then the CoilGeometry of each coil would."""
    names = tuple(rows)
    bounds = tuple(accumulate(map(len, rows.values()), initial=0))
    raw = _raw(chain.from_iterable(rows.values()))
    _check_rows(names, raw, bounds)
    batch = _pack(raw)
    return {name: CoilGeometry(name, _SegmentRows(raw, batch, lo, hi))
            for name, lo, hi in zip(names, bounds, bounds[1:])}


def join_columns(coils: list[CoilGeometry]) -> Columns:
    """The coils' columns, in order, as one set: their batch's own where
    they follow each other in one batch, as a generation's coils do, and
    a concatenation otherwise."""
    parts = [c.segments for c in coils]
    first = parts[0]
    if all(b.batch is first.batch and a.hi == b.lo for a, b in zip(parts, parts[1:])):
        return _SegmentRows(first.raw, first.batch, first.lo, parts[-1].hi).columns
    return Columns(*(np.concatenate(a, axis=-1) for a in zip(*(p.columns for p in parts))))


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
