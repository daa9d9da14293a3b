"""Schema and validation tests for the geometry primitives."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from tsvqvco.errors import InvalidGeometryError
from tsvqvco.geometry import (
    UM,
    CoilGeometry,
    Columns,
    ProcessParams,
    Segment,
    TransformerGeometry,
    coils_from_rows,
    rect_row,
    rect_segment,
    round_row,
    round_segment,
)
from tsvqvco.transformer import generate_coils

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# the document of configs/toroidal.json
TOROIDAL_DOC = {
    "style": "toroidal", "turns_primary": 14, "turns_secondary": 2,
    "tsv_pitch_um": 66.0, "row_spacing_um": 120.0, "trace_width_um": 10.0,
    "secondary_slots": [[2, 6], [5, 9]],
}


class TestProcessParams:
    def test_defaults_validate(self):
        proc = ProcessParams()
        assert proc.tier_height_um == 60.0
        assert proc.tsv_radius_um == pytest.approx(9.5)

    def test_liner_shrinks_conducting_radius(self):
        proc = ProcessParams(tsv_liner_um=2.0)
        assert proc.tsv_radius_um == pytest.approx(8.0)

    @pytest.mark.parametrize("field,value", [
        ("tier_height_um", 0.0),
        ("tsv_diameter_um", -20.0),
        ("resistivity_ohm_m", 0.0),
        ("m9_thickness_um", float("nan")),
    ])
    def test_rejects_nonpositive_fields(self, field, value):
        with pytest.raises(InvalidGeometryError):
            ProcessParams(**{field: value})

    @pytest.mark.parametrize("value", [True, "60", None, float("inf")])
    def test_rejects_non_numbers_naming_the_field(self, value):
        with pytest.raises(InvalidGeometryError,
                           match="process field tier_height_um is not a finite number"):
            ProcessParams(tier_height_um=value)

    def test_rejects_liner_eating_whole_via(self):
        with pytest.raises(InvalidGeometryError, match="liner"):
            ProcessParams(tsv_liner_um=10.0)

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(InvalidGeometryError, match="unknown process"):
            ProcessParams.from_dict({"tsv_diam_um": 20.0})


class TestSegment:
    def test_length(self):
        seg = round_segment((0, 0, 0), (3e-6, 0, 4e-6), 1e-6)
        assert seg.length_m == pytest.approx(5e-6)

    def test_zero_length_rejected(self):
        with pytest.raises(InvalidGeometryError, match="zero-length"):
            round_segment((1e-6, 2e-6, 0), (1e-6, 2e-6, 0), 1e-6)

    def test_round_needs_radius(self):
        with pytest.raises(InvalidGeometryError, match="radius"):
            Segment(start=(0, 0, 0), end=(1e-6, 0, 0), shape="round")

    def test_rect_needs_width_and_thickness(self):
        with pytest.raises(InvalidGeometryError, match="width"):
            Segment(start=(0, 0, 0), end=(1e-6, 0, 0), shape="rect", width_m=1e-6)

    def test_unknown_shape_rejected(self):
        with pytest.raises(InvalidGeometryError, match="shape"):
            Segment(start=(0, 0, 0), end=(1e-6, 0, 0), shape="oval", radius_m=1e-6)

    @pytest.mark.parametrize("field", ["radius_m", "width_m", "thickness_m"])
    def test_numpy_dimensions_take_the_full_rule(self, field):
        """A numpy scalar dimension leaves the fast path for check_finite:
        a numpy float builds the same segment as a float, a numpy bool is
        refused by name, as a bool is."""
        dims = dict(radius_m=1e-6, width_m=2e-6, thickness_m=3e-6)
        for shape in ("round", "rect"):
            plain = Segment((0, 0, 0), (1e-5, 0, 0), shape, **dims)
            numpy_float = Segment((0, 0, 0), (1e-5, 0, 0), shape, **{
                **dims, field: np.float64(dims[field])})
            assert numpy_float == plain
        with pytest.raises(InvalidGeometryError, match=re.escape(
                f"segment field {field} is not a finite number")):
            Segment((0, 0, 0), (1e-5, 0, 0), "rect", **{**dims, field: np.True_})


class TestCoilGeometry:
    def test_connected_path_validates(self):
        coil = CoilGeometry(name="loop", segments=[
            round_segment((0, 0, 0), (0, 0, 60e-6), 9.5e-6),
            rect_segment((0, 0, 60e-6), (66e-6, 0, 60e-6), 10e-6, 7e-6),
            round_segment((66e-6, 0, 60e-6), (66e-6, 0, 0), 9.5e-6),
        ])
        assert len(coil.segments) == 3

    def test_empty_coil_rejected(self):
        with pytest.raises(InvalidGeometryError, match="no segments"):
            CoilGeometry(name="empty")

    def test_broken_path_rejected(self):
        with pytest.raises(InvalidGeometryError, match="path breaks"):
            CoilGeometry(name="gap", segments=[
                round_segment((0, 0, 0), (0, 0, 60e-6), 9.5e-6),
                round_segment((5e-6, 0, 60e-6), (5e-6, 0, 0), 9.5e-6),
            ])


def _segment(row) -> Segment:
    """The Segment of one row, built by hand."""
    return Segment(row[0:3], row[3:6], "round" if row[6] == 1.0 else "rect",
                   *row[7:10])


def _build_by_hand(rows: dict) -> None:
    """Each coil's Segments, then the coil, coil by coil, as a generator
    building Segment objects would."""
    for name, coil in rows.items():
        CoilGeometry(name, [_segment(r) for r in coil])


P0, P1, P2 = (0.0, 0.0, 0.0), (0.0, 0.0, 60e-6), (66e-6, 0.0, 60e-6)
TSV = round_row(P0, P1, 9.5e-6)
TRACE = rect_row(P1, P2, 10e-6, 7e-6)

# Each defect as coil rows, and the message it raises.
DEFECTS = {
    "non-finite coordinate": (
        {"p": [TSV, rect_row(P1, (math.nan, 0.0, 60e-6), 10e-6, 7e-6)]},
        "segment field end is not a finite number"),
    "non-finite start beats a bad radius": (
        {"p": [round_row((math.inf, 0.0, 0.0), P1, -1.0)]},
        "segment field start is not a finite number"),
    "non-finite thickness": (
        {"p": [rect_row(P1, P2, 10e-6, math.inf)]},
        "segment field thickness_m is not a finite number"),
    "zero length": ({"p": [TSV, rect_row(P1, P1, 10e-6, 7e-6)]},
                    "zero-length segment"),
    "zero radius": ({"p": [round_row(P0, P1, 0.0)]},
                    "round segment needs a positive radius"),
    "negative radius": ({"p": [round_row(P0, P1, -9.5e-6)]},
                        "round segment needs a positive radius"),
    "zero width": ({"p": [rect_row(P1, P2, 0.0, 7e-6)]},
                   "rect segment needs positive width and thickness"),
    "negative thickness": ({"p": [rect_row(P1, P2, 10e-6, -7e-6)]},
                           "rect segment needs positive width and thickness"),
    "path gap": (
        {"p": [TSV, rect_row((5e-6, 0.0, 60e-6), P2, 10e-6, 7e-6)]},
        "coil 'p' path breaks between (0.0, 0.0, 6e-05) and (5e-06, 0.0, 6e-05)"),
    # a coil's gap comes before a later coil's bad segment
    "gap before the next coil's segment": (
        {"p": [TSV, rect_row((5e-6, 0.0, 60e-6), P2, 10e-6, 7e-6)],
         "s": [round_row(P0, P1, 0.0)]},
        "coil 'p' path breaks between (0.0, 0.0, 6e-05) and (5e-06, 0.0, 6e-05)"),
    # coil ends need not meet, and a coil's bad segment comes before its gap
    "segment before its own gap": (
        {"p": [TSV], "s": [TSV, rect_row((5e-6, 0.0, 60e-6), P2, 10e-6, 7e-6),
                           round_row(P0, P1, 0.0)]},
        "round segment needs a positive radius"),
    "empty coil": ({"p": [TSV], "s": []}, "coil 's' has no segments"),
}


class TestSegmentRows:
    """coils_from_rows, the generators' entrance, checks and packs as
    hand-built Segments and CoilGeometry do."""

    @pytest.mark.parametrize("case", sorted(DEFECTS))
    def test_defect_is_reported_alike_through_both_entrances(self, case):
        rows, message = DEFECTS[case]
        raised = []
        for build in (coils_from_rows, _build_by_hand):
            with pytest.raises(InvalidGeometryError) as err:
                build(rows)
            raised.append((type(err.value), str(err.value)))
        assert raised == [(InvalidGeometryError, message)] * 2

    @pytest.mark.parametrize("config", ["toroidal.json", "vertical_spiral.json"])
    def test_hand_built_coil_packs_like_the_generated_one(self, config):
        coils = generate_coils(TransformerGeometry.from_json_file(CONFIG_DIR / config))
        for name, coil in coils.items():
            assert len(coil.segments) == coil.columns.length.size
            again = CoilGeometry(name, list(coil.segments))
            assert again == coil and hash(again) == hash(coil)
            for field, got, want in zip(Columns._fields, again.columns, coil.columns):
                assert (got.dtype, got.shape) == (want.dtype, want.shape), field
                assert got.tobytes() == want.tobytes(), field

    @pytest.mark.parametrize("config", ["toroidal.json", "vertical_spiral.json"])
    def test_a_read_equals_the_checked_segment_of_its_row(self, config):
        """A read skips the checks its batch made, and still gives the
        frozen Segment that the checked constructor builds from the row."""
        coils = generate_coils(TransformerGeometry.from_json_file(CONFIG_DIR / config))
        for coil in coils.values():
            rows = coil.segments
            for i, got in enumerate(rows):
                row = rows.raw[:, rows.lo + i].tolist()
                want = Segment(tuple(row[0:3]), tuple(row[3:6]),
                               "round" if row[6] == 1.0 else "rect", *row[7:10])
                assert type(got) is Segment
                assert vars(got) == vars(want) and hash(got) == hash(want)
                assert list(map(type, vars(got).values())) \
                    == list(map(type, vars(want).values()))
                with pytest.raises(dataclasses.FrozenInstanceError):
                    got.radius_m = 1.0

    def test_a_row_reads_as_the_segment_it_describes(self, vertical_spiral_geometry):
        proc = vertical_spiral_geometry.process
        segments = generate_coils(vertical_spiral_geometry)["primary"].segments
        first = round_segment((0.0, 0.0, -proc.tier_height_um * UM), (0.0, 0.0, 0.0),
                              proc.tsv_radius_um * UM)
        assert segments[0] == first
        assert segments[-1] == segments[len(segments) - 1]
        assert segments[1:3] == (segments[1], segments[2])
        assert list(segments) == [segments[k] for k in range(len(segments))]
        with pytest.raises(IndexError):
            segments[len(segments)]

    @pytest.mark.parametrize("make", [
        lambda: generate_coils(TransformerGeometry.from_json_file(
            CONFIG_DIR / "toroidal.json"))["secondary1"],
        lambda: CoilGeometry("loop", [_segment(TSV), _segment(TRACE)]),
    ], ids=["generated", "hand-built"])
    def test_columns_are_read_only(self, make):
        for name, column in zip(Columns._fields, make().columns):
            with pytest.raises(ValueError, match="read-only"):
                column[..., 0] = 1
            assert not column.flags.writeable, name


class TestTransformerGeometry:
    def test_committed_configs_validate(self, toroidal_geometry, vertical_spiral_geometry):
        assert toroidal_geometry.style == "toroidal"
        assert vertical_spiral_geometry.style == "vertical_spiral"

    def test_rejects_unknown_style(self, toroidal_geometry):
        with pytest.raises(InvalidGeometryError, match="style"):
            dataclasses.replace(toroidal_geometry, style="planar")

    @pytest.mark.parametrize("field,value", [
        ("turns_primary", 0),
        ("turns_primary", 2.5),
        ("turns_secondary", -1),
    ])
    def test_rejects_bad_turn_counts(self, toroidal_geometry, field, value):
        with pytest.raises(InvalidGeometryError, match="positive integer"):
            dataclasses.replace(toroidal_geometry, secondary_slots=None,
                                **{field: value})

    def test_rejects_pitch_below_keepout(self, toroidal_geometry):
        # 20 um via plus 5 um keep-out puts the floor at 25 um center to center
        with pytest.raises(InvalidGeometryError, match="tsv_pitch_um"):
            dataclasses.replace(toroidal_geometry, tsv_pitch_um=24.0)

    def test_rejects_row_spacing_below_keepout(self, toroidal_geometry):
        with pytest.raises(InvalidGeometryError, match="row_spacing_um"):
            dataclasses.replace(toroidal_geometry, row_spacing_um=10.0)

    def test_rejects_nonpositive_trace_width(self, toroidal_geometry):
        with pytest.raises(InvalidGeometryError, match="trace_width_um"):
            dataclasses.replace(toroidal_geometry, trace_width_um=0.0)

    def test_slots_only_for_toroidal(self, vertical_spiral_geometry):
        with pytest.raises(InvalidGeometryError, match="toroidal"):
            dataclasses.replace(vertical_spiral_geometry, secondary_slots=[[2, 6], [5, 9]])

    def test_slots_need_one_list_per_secondary(self, toroidal_geometry):
        with pytest.raises(InvalidGeometryError, match="per secondary"):
            dataclasses.replace(toroidal_geometry, secondary_slots=[[2, 6]])

    @pytest.mark.parametrize("slots", [5, [2, 6], "ab"])
    def test_rejects_slots_that_are_not_two_lists(self, toroidal_geometry, slots):
        with pytest.raises(InvalidGeometryError, match="per secondary"):
            dataclasses.replace(toroidal_geometry, secondary_slots=slots)

    def test_slot_count_must_match_turns(self, toroidal_geometry):
        with pytest.raises(InvalidGeometryError, match="slots"):
            dataclasses.replace(toroidal_geometry, secondary_slots=[[2, 6, 8], [5, 9]])

    def test_slot_range_excludes_last_cell(self, toroidal_geometry):
        # 14 primary turns leave rider cells 0..12; cell 13 has no partner TSV
        with pytest.raises(InvalidGeometryError, match="outside cells"):
            dataclasses.replace(toroidal_geometry, secondary_slots=[[2, 13], [5, 9]])

    def test_duplicate_slots_rejected(self, toroidal_geometry):
        with pytest.raises(InvalidGeometryError, match="twice"):
            dataclasses.replace(toroidal_geometry, secondary_slots=[[2, 6], [6, 9]])

    @pytest.mark.parametrize("field,value", [
        ("tsv_pitch_um", "66"),
        ("tsv_pitch_um", float("nan")),
        ("trace_width_um", float("nan")),
        ("row_spacing_um", float("inf")),
        ("turns_secondary", True),
        ("turns_primary", "14"),
        ("turns_primary", float("nan")),
        ("secondary_slots", [[2, "6"], [5, 9]]),
        ("secondary_slots", [[2, None], [5, 9]]),
    ])
    def test_rejects_non_numbers_naming_the_field(self, field, value):
        with pytest.raises(InvalidGeometryError,
                           match=f"geometry field {field} is not a finite number"):
            TransformerGeometry.from_dict(dict(TOROIDAL_DOC, **{field: value}))


class TestSerialization:
    def test_dict_round_trip(self, toroidal_geometry):
        clone = TransformerGeometry.from_dict(TOROIDAL_DOC)
        assert clone == toroidal_geometry

    def test_json_file_round_trip(self, vertical_spiral_geometry, tmp_path):
        # every process field written out explicitly reads back as given
        doc = {"style": "vertical_spiral", "turns_primary": 14,
               "turns_secondary": 2, "tsv_pitch_um": 25.0,
               "row_spacing_um": 25.0, "trace_width_um": 10.0,
               "process": dataclasses.asdict(ProcessParams())}
        path = tmp_path / "geom.json"
        path.write_text(json.dumps(doc))
        clone = TransformerGeometry.from_json_file(path)
        assert clone == vertical_spiral_geometry

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(InvalidGeometryError, match="unknown geometry"):
            TransformerGeometry.from_dict({
                "style": "toroidal", "turns_primary": 4, "turns_secondary": 1,
                "tsv_pitch_um": 40.0, "row_spacing_um": 60.0, "pitch_um": 40.0,
            })

    def test_from_dict_rejects_missing_field(self):
        with pytest.raises(InvalidGeometryError, match="missing geometry"):
            TransformerGeometry.from_dict({"style": "toroidal"})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(InvalidGeometryError, match="JSON object"):
            TransformerGeometry.from_dict([1, 2, 3])

    def test_from_dict_rejects_non_object_process(self):
        with pytest.raises(InvalidGeometryError,
                           match="^process must be an object$"):
            TransformerGeometry.from_dict(dict(TOROIDAL_DOC, process=[60.0]))

    def test_process_overrides_survive_round_trip(self):
        clone = TransformerGeometry.from_dict(
            dict(TOROIDAL_DOC, process={"tier_height_um": 80.0}))
        assert clone.process == ProcessParams(tier_height_um=80.0)

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(InvalidGeometryError, match="cannot read"):
            TransformerGeometry.from_json_file(tmp_path / "nope.json")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidGeometryError, match="not valid JSON"):
            TransformerGeometry.from_json_file(path)
