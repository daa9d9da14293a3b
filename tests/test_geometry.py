"""Schema and validation tests for the geometry primitives."""

import dataclasses
import json
import math

import pytest

from tsvqvco.errors import InvalidGeometryError
from tsvqvco.geometry import (
    CoilGeometry,
    ProcessParams,
    Segment,
    TransformerGeometry,
    rect_segment,
    round_segment,
)

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
    def test_length_and_direction(self):
        seg = round_segment((0, 0, 0), (3e-6, 0, 4e-6), 1e-6)
        assert seg.length_m == pytest.approx(5e-6)
        assert seg.direction == pytest.approx((0.6, 0.0, 0.8))

    def test_round_cross_section(self):
        seg = round_segment((0, 0, 0), (60e-6, 0, 0), 10e-6)
        assert seg.cross_section_m2 == pytest.approx(math.pi * 1e-10)
        # largest cross dimension of a round wire is its radius, not diameter
        assert seg.max_cross_dimension_m == pytest.approx(10e-6)

    def test_rect_cross_section(self):
        seg = rect_segment((0, 0, 0), (100e-6, 0, 0), 24e-6, 7e-6)
        assert seg.cross_section_m2 == pytest.approx(24e-6 * 7e-6)
        assert seg.max_cross_dimension_m == pytest.approx(24e-6)

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
