"""Schema and validation tests for the geometry primitives."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import coil
from tsvqvco.errors import InvalidGeometryError
from tsvqvco.geometry import (
    UM,
    Columns,
    ProcessParams,
    TransformerGeometry,
    coils_from_rows,
    rect_row,
    round_row,
)
from tsvqvco.inductance import pack_windings, winding_inductances
from tsvqvco.transformer import ROLES, generate_coils

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FLAGS = ("writeable", "c_contiguous", "f_contiguous", "owndata", "aligned")

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


def _columns(row):
    return coil("c", [row]).columns


class TestSegment:
    def test_length(self):
        row = round_row((0, 0, 0), (3e-6, 0, 4e-6), 1e-6)
        assert _columns(row).length[0] == pytest.approx(5e-6)

    def test_zero_length_rejected(self):
        with pytest.raises(InvalidGeometryError, match="zero-length"):
            _columns(round_row((1e-6, 2e-6, 0), (1e-6, 2e-6, 0), 1e-6))

    def test_round_needs_radius(self):
        with pytest.raises(InvalidGeometryError, match="radius"):
            _columns(round_row((0, 0, 0), (1e-6, 0, 0), 0.0))

    def test_rect_needs_width_and_thickness(self):
        with pytest.raises(InvalidGeometryError, match="width"):
            _columns(rect_row((0, 0, 0), (1e-6, 0, 0), 1e-6, 0.0))

    def test_unknown_shape_rejected(self):
        # a numeric unknown shape is a DEFECTS case
        with pytest.raises(InvalidGeometryError) as err:
            _columns((0, 0, 0, 1e-6, 0, 0, "oval", 1e-6, 0.0, 0.0))
        assert str(err.value) == "segment field shape is not a finite number"

    @pytest.mark.parametrize("field", ["radius_m", "width_m", "thickness_m"])
    def test_numpy_dimensions_take_the_full_rule(self, field):
        """A numpy scalar dimension leaves the plain-number path for
        check_finite: a numpy float packs as a float does, a numpy bool
        is refused by name, as a bool is."""
        dims = dict(radius_m=1e-6, width_m=2e-6, thickness_m=3e-6)
        for shape in (1.0, 0.0):
            plain = (0, 0, 0, 1e-5, 0, 0, shape, *dims.values())
            numpy_float = (0, 0, 0, 1e-5, 0, 0, shape,
                           *{**dims, field: np.float64(dims[field])}.values())
            for got, want in zip(_columns(numpy_float), _columns(plain)):
                assert got.tobytes() == want.tobytes()
        with pytest.raises(InvalidGeometryError, match=re.escape(
                f"segment field {field} is not a finite number")):
            _columns((0, 0, 0, 1e-5, 0, 0, 0.0,
                      *{**dims, field: np.True_}.values()))


class TestCoilGeometry:
    def test_connected_path_validates(self):
        loop = coil("loop", [
            round_row((0, 0, 0), (0, 0, 60e-6), 9.5e-6),
            rect_row((0, 0, 60e-6), (66e-6, 0, 60e-6), 10e-6, 7e-6),
            round_row((66e-6, 0, 60e-6), (66e-6, 0, 0), 9.5e-6),
        ])
        assert len(loop.segments) == 3

    def test_empty_coil_rejected(self):
        with pytest.raises(InvalidGeometryError, match="no segments"):
            coil("empty", [])

    def test_broken_path_rejected(self):
        with pytest.raises(InvalidGeometryError, match="path breaks"):
            coil("gap", [
                round_row((0, 0, 0), (0, 0, 60e-6), 9.5e-6),
                round_row((5e-6, 0, 60e-6), (5e-6, 0, 0), 9.5e-6),
            ])

    @pytest.mark.parametrize("span, message", [
        (slice(0, 0), "coil 'loop' has no segments"),
        (slice(2, 1), "coil 'loop' has no segments"),
        (slice(0, None), "coil 'loop' span must be a slice within its batch"),
        (slice(None, 2), "coil 'loop' span must be a slice within its batch"),
        (slice(0, 2, 1), "coil 'loop' span must be a slice within its batch"),
        (slice(0, 4), "coil 'loop' span must be a slice within its batch"),
        (slice(-1, 3), "coil 'loop' span must be a slice within its batch"),
        (slice(0.0, 2), "coil 'loop' span must be a slice within its batch"),
        ((0, 2), "coil field span must be a slice")],
        ids=["empty", "backward", "open stop", "open start", "stepped",
             "past the end", "negative start", "float start", "tuple"])
    def test_span_outside_its_batch_rejected(self, span, message):
        """A coil built directly, not through coils_from_rows, is a
        forward run of its batch's columns or is refused."""
        loop = coil("loop", [
            round_row((0, 0, 0), (0, 0, 60e-6), 9.5e-6),
            rect_row((0, 0, 60e-6), (66e-6, 0, 60e-6), 10e-6, 7e-6),
            round_row((66e-6, 0, 60e-6), (66e-6, 0, 0), 9.5e-6),
        ])
        assert len(dataclasses.replace(loop, span=slice(1, 3)).segments) == 2
        with pytest.raises(InvalidGeometryError) as err:
            dataclasses.replace(loop, span=span)
        assert str(err.value) == message


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
    # values numpy would take as numbers, or fail on, named by their field
    "string coordinate": ({"p": [round_row(("0", 0.0, 0.0), P1, 9.5e-6)]},
                          "segment field start is not a finite number"),
    "bool coordinate": ({"p": [TSV, rect_row(P1, (True, 0.0, 60e-6), 10e-6, 7e-6)]},
                        "segment field end is not a finite number"),
    "bool shape": ({"p": [(*P0, *P1, True, 9.5e-6, 0.0, 0.0)]},
                   "segment field shape is not a finite number"),
    "huge int coordinate": ({"p": [round_row((10**400, 0.0, 0.0), P1, 9.5e-6)]},
                            "segment field start is not a finite number"),
    "missing radius": ({"p": [round_row(P0, P1, None)]},
                       "segment field radius_m is not a finite number"),
    "string width": ({"p": [rect_row(P1, P2, "1e-5", 7e-6)]},
                     "segment field width_m is not a finite number"),
    "bad value before a later zero length": (
        {"p": [round_row(P0, P1, None), rect_row(P1, P1, 10e-6, 7e-6)]},
        "segment field radius_m is not a finite number"),
    # rows of nine and eleven values, which a flat batch would realign
    "short row then long row": (
        {"p": [TSV[:9], (*TRACE, 0.0)]},
        "coil 'p' segment 0 must be a row of 10 values (round_row, rect_row)"),
    "long row": ({"p": [TSV], "s": [TSV, (*TRACE, 0.0)]},
                 "coil 's' segment 1 must be a row of 10 values (round_row, rect_row)"),
    "rows not a sequence": ({"p": 5}, "coil 'p' segments must be a sequence of rows"),
    "rows not a mapping": ([TSV], "coils must be a mapping of name to rows"),
    # any shape value but 1.0 (round) or 0.0 (rect), after the values' own rules
    "shape 2": ({"p": [(*TSV[:6], 2.0, *TSV[7:])]},
                "unknown segment shape: 1.0 is round (round_row), 0.0 rect (rect_row)"),
    "shape 0.5": ({"p": [TSV, (*TRACE[:6], 0.5, *TRACE[7:])]},
                  "unknown segment shape: 1.0 is round (round_row), 0.0 rect (rect_row)"),
    "bad value before an unknown shape": (
        {"p": [(*TSV[:6], 2.0, None, 0.0, 0.0)]},
        "segment field radius_m is not a finite number"),
    "unknown shape before zero length": (
        {"p": [(*P0, *P0, 2.0, 9.5e-6, 0.0, 0.0)]},
        "unknown segment shape: 1.0 is round (round_row), 0.0 rect (rect_row)"),
}


class TestCoilsFromRows:
    """coils_from_rows is the one entrance of a coil: it checks each row
    and each path, and packs."""

    @pytest.mark.parametrize("case", sorted(DEFECTS))
    def test_defect_is_reported(self, case):
        rows, message = DEFECTS[case]
        with pytest.raises(InvalidGeometryError) as err:
            coils_from_rows(rows)
        assert (type(err.value), str(err.value)) == (InvalidGeometryError, message)

    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0), None, 0.0],
                             ids=["two", "four", "none", "scalar"])
    @pytest.mark.parametrize("field", ["start", "end"])
    def test_point_without_three_coordinates_is_named(self, point, field):
        points = {"start": P1, "end": P2, field: point}
        for build in (lambda s, e: round_row(s, e, 9.5e-6),
                      lambda s, e: rect_row(s, e, 10e-6, 7e-6)):
            with pytest.raises(InvalidGeometryError, match="^" + re.escape(
                    f"segment field {field} must be a point of three coordinates") + "$"):
                coils_from_rows({"p": [build(points["start"], points["end"])]})

    @pytest.mark.parametrize("config", ["toroidal.json", "vertical_spiral.json"])
    def test_generated_rows_fed_back_pack_alike(self, config):
        """Each generated coil's rows, built again by hand, pack to the
        same columns, value, dtype and flags, and extract the same matrix."""
        generated = generate_coils(TransformerGeometry.from_json_file(CONFIG_DIR / config))
        again = coils_from_rows({name: c.segments.tolist() for name, c in generated.items()})
        assert list(again) == list(generated)
        for name, c in generated.items():
            assert len(c.segments) == c.columns.length.size
            for field, got, want in zip(Columns._fields, again[name].columns, c.columns):
                assert (got.dtype, got.shape) == (want.dtype, want.shape), field
                assert [getattr(got.flags, f) for f in FLAGS] \
                    == [getattr(want.flags, f) for f in FLAGS], field
                assert got.tobytes() == want.tobytes(), field
        matrices = [winding_inductances(pack_windings([coils[r] for r in ROLES]))
                    for coils in (again, generated)]
        assert matrices[0].tobytes() == matrices[1].tobytes()

    def test_segments_are_read_only_rows(self, vertical_spiral_geometry):
        proc = vertical_spiral_geometry.process
        segments = generate_coils(vertical_spiral_geometry)["primary"].segments
        assert segments.shape[1] == 10 and not segments.flags.writeable
        first = round_row((0.0, 0.0, -proc.tier_height_um * UM), (0.0, 0.0, 0.0),
                          proc.tsv_radius_um * UM)
        assert tuple(segments[0].tolist()) == first

    @pytest.mark.parametrize("make", [
        lambda: generate_coils(TransformerGeometry.from_json_file(
            CONFIG_DIR / "toroidal.json"))["secondary1"],
        lambda: coil("loop", [TSV, TRACE]),
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
