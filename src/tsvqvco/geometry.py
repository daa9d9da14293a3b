"""Conductor geometry primitives and the process description they live in.

Lengths on the dataclasses below follow the units in their field names:
process and transformer parameters are entered in micrometers (the natural
authoring unit for a TSV stack), while Segment coordinates are SI meters
because they feed the field formulas directly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import InvalidGeometryError, check_finite

UM = 1e-6
PATH_GAP_TOL_M = 1e-9  # largest end-to-start gap of a connected winding path

STYLE_TOROIDAL = "toroidal"
STYLE_VERTICAL_SPIRAL = "vertical_spiral"
_STYLES = (STYLE_TOROIDAL, STYLE_VERTICAL_SPIRAL)


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
            check_finite(InvalidGeometryError, "process", name, value)
            if value <= 0:
                raise InvalidGeometryError(f"process field {name} must be positive, got {value}")
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


@dataclass
class Segment:
    """Straight conductor segment with a round or rectangular cross section.

    Coordinates are meters.  Current is taken to flow from start to end;
    mutual terms pick up their sign from that orientation.
    """

    start: tuple[float, float, float]
    end: tuple[float, float, float]
    shape: str = "round"
    radius_m: float = 0.0
    width_m: float = 0.0
    thickness_m: float = 0.0

    def __post_init__(self) -> None:
        # math.isfinite keeps the sweep's hot path cheap; check_finite names the culprit
        try:
            self.start = tuple(map(float, self.start))
            self.end = tuple(map(float, self.end))
            dims = (self.radius_m, self.width_m, self.thickness_m)
            finite = all(map(math.isfinite, self.start + self.end + dims))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            for name in ("start", "end", "radius_m", "width_m", "thickness_m"):
                value = getattr(self, name)
                for v in value if name in ("start", "end") else (value,):
                    check_finite(InvalidGeometryError, "segment", name, v)
        if self.shape not in ("round", "rect"):
            raise InvalidGeometryError(f"unknown segment shape {self.shape!r}")
        if self.length_m <= 0.0:
            raise InvalidGeometryError("zero-length segment")
        if self.shape == "round":
            if self.radius_m <= 0.0:
                raise InvalidGeometryError("round segment needs a positive radius")
        else:
            if self.width_m <= 0.0 or self.thickness_m <= 0.0:
                raise InvalidGeometryError("rect segment needs positive width and thickness")

    @property
    def length_m(self) -> float:
        return math.dist(self.start, self.end)

    @property
    def direction(self) -> tuple[float, float, float]:
        l = self.length_m
        return tuple((e - s) / l for s, e in zip(self.start, self.end))

    @property
    def cross_section_m2(self) -> float:
        if self.shape == "round":
            return math.pi * self.radius_m**2
        return self.width_m * self.thickness_m

    @property
    def max_cross_dimension_m(self) -> float:
        """Largest cross-section dimension: radius for round, max(w, t) for rect."""
        if self.shape == "round":
            return self.radius_m
        return max(self.width_m, self.thickness_m)


def round_segment(start, end, radius_m) -> Segment:
    return Segment(start=start, end=end, shape="round", radius_m=radius_m)


def rect_segment(start, end, width_m, thickness_m) -> Segment:
    return Segment(start=start, end=end, shape="rect",
                   width_m=width_m, thickness_m=thickness_m)


@dataclass(frozen=True)
class CoilGeometry:
    """Ordered, electrically connected segment path of one winding."""

    name: str
    segments: list[Segment] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.segments:
            raise InvalidGeometryError(f"coil {self.name!r} has no segments")
        for a, b in zip(self.segments, self.segments[1:]):
            if math.dist(a.end, b.start) > PATH_GAP_TOL_M:
                raise InvalidGeometryError(
                    f"coil {self.name!r} path breaks between {a.end} and {b.start}")


@dataclass(frozen=True)
class TransformerGeometry:
    """Parametric description of a three-coil TSV transformer.

    trace_width_um of None lets the winding generator pick the widest trace
    that keeps every routed segment long enough for the closed-form
    inductance formulas (length >= 2x largest cross-section dimension).

    secondary_slots applies to the toroidal style only: two lists of primary
    cell indices, one per secondary coil, naming the cells whose TSV pair each
    secondary turn rides beside.  None picks two interleaved blocks centered
    on the row.  Cells run 0..turns_primary-1 and the last cell has no room
    for a rider, so slots stay at or below turns_primary-2.
    """

    style: str
    turns_primary: int
    turns_secondary: int
    tsv_pitch_um: float
    row_spacing_um: float
    trace_width_um: float | None = None
    secondary_slots: list[list[int]] | None = None
    process: ProcessParams = field(default_factory=ProcessParams)

    def __post_init__(self) -> None:
        if self.style not in _STYLES:
            raise InvalidGeometryError(
                f"style must be one of {_STYLES}, got {self.style!r}")
        for name in ("turns_primary", "turns_secondary"):
            turns = getattr(self, name)
            check_finite(InvalidGeometryError, "geometry", name, turns)
            if int(turns) != turns or turns < 1:
                raise InvalidGeometryError(f"{name} must be a positive integer")
        for name in ("tsv_pitch_um", "row_spacing_um"):
            check_finite(InvalidGeometryError, "geometry", name,
                         getattr(self, name))
        if self.trace_width_um is not None:
            check_finite(InvalidGeometryError, "geometry", "trace_width_um",
                         self.trace_width_um)
        min_pitch = self.process.min_pitch_um
        if self.tsv_pitch_um < min_pitch:
            raise InvalidGeometryError(
                f"tsv_pitch_um {self.tsv_pitch_um} below minimum {min_pitch} "
                "(diameter plus keep-out)")
        if self.row_spacing_um < min_pitch:
            raise InvalidGeometryError(
                f"row_spacing_um {self.row_spacing_um} below minimum {min_pitch}")
        if self.trace_width_um is not None and self.trace_width_um <= 0:
            raise InvalidGeometryError("trace_width_um must be positive when given")
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
                    if int(s) != s or not 0 <= s <= self.turns_primary - 2:
                        raise InvalidGeometryError(
                            f"secondary slot {s!r} outside cells "
                            f"0..{self.turns_primary - 2}")
                    if int(s) in seen:
                        raise InvalidGeometryError(
                            f"secondary slot {int(s)} assigned twice")
                    seen.add(int(s))

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
