"""Winding generation and lumped-model extraction tests.

The two committed reference geometries under configs/ were sized against the
target design values listed in TARGETS below; this file asserts the bands
those geometries are known to meet plus the structural orderings between the
two styles.  The extracted spot values of both geometries are figures of
tests/recorded.json, so drift shows there, not just as band exits.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from conftest import coil
from tsvqvco import transformer
from tsvqvco.errors import InvalidGeometryError, InvalidModelError
from tsvqvco.geometry import TransformerGeometry
from tsvqvco.inductance import footprint_mm2, pack_windings
from tsvqvco.transformer import (
    DEFAULT_EVAL_FREQUENCY_HZ,
    ROLES,
    TransformerModel,
    build_transformer,
    default_secondary_slots,
    generate_coils,
    metal_area,
    model_from_coils,
    wheeler_spiral_inductance,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# target design values the committed toroidal geometry was sized against
TARGETS = {
    "l_p": 2.99e-9,
    "l_s": 0.38e-9,
    "k_ss": 0.15,
    "area_mm2": 0.17,
}
SOFT_BAND = 0.30


def _within_band(value, target, band=SOFT_BAND):
    return target * (1 - band) <= value <= target * (1 + band)


def _tsv_count(coil):
    # full-height round conductors; excludes the 5 um inter-turn vias
    return sum(1 for s in coil.segments.tolist()
               if s[6] == 1.0 and s[2] != s[5] and s[7] > 8e-6)


class TestSecondarySlots:
    def test_default_interleaves_centered_blocks(self):
        assert default_secondary_slots(14, 2) == [[4, 6], [5, 7]]

    def test_default_single_turn_secondaries(self):
        s1, s2 = default_secondary_slots(6, 1)
        assert len(s1) == len(s2) == 1
        assert s1 != s2

    def test_rejects_too_few_rider_cells(self):
        with pytest.raises(InvalidGeometryError, match="rider"):
            default_secondary_slots(4, 2)

    @pytest.mark.parametrize("n_primary, n_secondary, name", [
        (0, 1, "n_primary"), (14.5, 2, "n_primary"), (14, -1, "n_secondary"),
    ])
    def test_rejects_a_turn_count_that_is_not_a_positive_integer(
            self, n_primary, n_secondary, name):
        # 14.5 used to reach range() and raise an untyped TypeError
        with pytest.raises(InvalidGeometryError, match=(
                f"^slots field {name} must be a positive integer$")):
            default_secondary_slots(n_primary, n_secondary)


def test_extraction_needs_every_coil_role(toroidal_geometry):
    coils = generate_coils(toroidal_geometry)
    del coils["secondary1"]
    with pytest.raises(InvalidModelError,
                       match="^missing coil 'secondary1'$"):
        model_from_coils(coils, 2.5e9, 0.2, 1.68e-8)


class TestGenerateCoils:
    def test_roles_present_and_connected(self, toroidal_geometry):
        coils = generate_coils(toroidal_geometry)
        assert set(coils) == {"primary", "secondary1", "secondary2"}
        # each path passes the entrance's checks again, on its own
        for name, c in coils.items():
            assert coil(name, c.segments.tolist()).segments.tobytes() == c.segments.tobytes()

    def test_toroidal_tsv_counts(self, toroidal_geometry):
        coils = generate_coils(toroidal_geometry)
        assert _tsv_count(coils["primary"]) == 2 * toroidal_geometry.turns_primary
        assert _tsv_count(coils["secondary1"]) == 2 * toroidal_geometry.turns_secondary

    def test_vertical_spiral_tsv_counts(self, vertical_spiral_geometry):
        coils = generate_coils(vertical_spiral_geometry)
        assert _tsv_count(coils["primary"]) == 2 * vertical_spiral_geometry.turns_primary
        assert _tsv_count(coils["secondary1"]) == 2 * vertical_spiral_geometry.turns_secondary

    def test_toroidal_default_width_too_tight(self, toroidal_geometry):
        geom = dataclasses.replace(toroidal_geometry, tsv_pitch_um=45.0,
                                   trace_width_um=None, secondary_slots=None)
        with pytest.raises(InvalidGeometryError, match="too tight"):
            generate_coils(geom)

    def test_toroidal_pinned_width_above_cap(self, toroidal_geometry):
        geom = dataclasses.replace(toroidal_geometry, trace_width_um=20.0)
        with pytest.raises(InvalidGeometryError, match="widest trace"):
            generate_coils(geom)

    def test_toroidal_pinned_width_below_metal_thickness(self, toroidal_geometry):
        geom = dataclasses.replace(toroidal_geometry, trace_width_um=3.0)
        with pytest.raises(InvalidGeometryError, match="top-metal thickness"):
            generate_coils(geom)

    def test_vertical_spiral_width_cap(self, vertical_spiral_geometry):
        geom = dataclasses.replace(vertical_spiral_geometry, trace_width_um=14.0)
        with pytest.raises(InvalidGeometryError, match="rungs span"):
            generate_coils(geom)

    def test_vertical_spiral_needs_enough_primary_cells(self, vertical_spiral_geometry):
        geom = dataclasses.replace(vertical_spiral_geometry, turns_secondary=20)
        with pytest.raises(InvalidGeometryError, match="exceeds"):
            generate_coils(geom)


def _count_generations(monkeypatch) -> list:
    """Spy on both generators; the list gets each geometry generated."""
    calls = []
    for name in ("_generate_toroidal", "_generate_vertical_spiral"):
        def spy(geom, real=getattr(transformer, name)):
            calls.append(geom)
            return real(geom)
        monkeypatch.setattr(transformer, name, spy)
    return calls


class TestLastGeneration:
    """generate_coils keeps one generation, for the same geometry object."""

    @pytest.mark.parametrize("config", ["toroidal.json", "vertical_spiral.json"])
    def test_footprint_after_coils_generates_once(self, monkeypatch, config):
        geom = TransformerGeometry.from_json_file(CONFIG_DIR / config)
        calls = _count_generations(monkeypatch)
        coils = generate_coils(geom)
        area = metal_area(geom)
        assert calls == [geom]
        assert area == footprint_mm2(pack_windings(list(coils.values())))

    def test_equal_geometry_loaded_again_generates_again(self, monkeypatch):
        first = TransformerGeometry.from_json_file(CONFIG_DIR / "toroidal.json")
        second = TransformerGeometry.from_json_file(CONFIG_DIR / "toroidal.json")
        assert first == second and first is not second
        calls = _count_generations(monkeypatch)
        a = generate_coils(first)
        b = generate_coils(second)
        assert len(calls) == 2 and calls[0] is first and calls[1] is second
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] is not b[name]
            assert a[name].segments.tobytes() == b[name].segments.tobytes()

    def test_mutating_a_returned_dict_leaves_the_next_call_intact(
            self, monkeypatch, toroidal_geometry):
        calls = _count_generations(monkeypatch)
        coils = generate_coils(toroidal_geometry)
        want = dict(coils)
        del coils["primary"]
        coils["secondary1"] = coils["secondary2"]
        again = generate_coils(toroidal_geometry)
        assert len(calls) == 1
        assert again == want and again is not coils
        with pytest.raises(dataclasses.FrozenInstanceError):
            again["primary"].span = slice(0, 1)
        with pytest.raises(ValueError, match="read-only"):
            again["primary"].segments[0, 7] = 1.0

    @pytest.mark.parametrize("config, width, message", [
        ("toroidal.json", 20.0, "widest trace"),
        ("vertical_spiral.json", 14.0, "rungs span"),
    ])
    def test_rejection_is_raised_again_not_kept(self, monkeypatch, config,
                                                width, message):
        geom = dataclasses.replace(
            TransformerGeometry.from_json_file(CONFIG_DIR / config),
            trace_width_um=width)
        calls = _count_generations(monkeypatch)
        errors = []
        for _ in range(2):
            with pytest.raises(InvalidGeometryError, match=message) as err:
                generate_coils(geom)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]
        assert len(calls) == 2
        with pytest.raises(InvalidGeometryError, match=message):
            metal_area(geom)

    def test_model_from_kept_coils_equals_a_fresh_one(self, monkeypatch):
        geom = TransformerGeometry.from_json_file(CONFIG_DIR / "toroidal.json")
        fresh_geom = TransformerGeometry.from_json_file(CONFIG_DIR / "toroidal.json")
        calls = _count_generations(monkeypatch)
        generate_coils(geom)
        kept = generate_coils(geom)
        fresh = generate_coils(fresh_geom)
        assert len(calls) == 2
        assert set(kept) == set(ROLES)
        models = [model_from_coils(coils, 2.5e9, 0.2, 1.68e-8) for coils in (kept, fresh)]
        assert len({tuple(getattr(m, f.name).hex() for f in dataclasses.fields(m))
                    for m in models}) == 1


def _design(geom: TransformerGeometry) -> tuple[str, list[str]]:
    """A sweep design's footprint and model, each float as hex."""
    area = metal_area(geom)
    model = model_from_coils(generate_coils(geom), DEFAULT_EVAL_FREQUENCY_HZ,
                             area, geom.process.resistivity_ohm_m)
    return area.hex(), [getattr(model, f.name).hex() for f in dataclasses.fields(model)]


# Two documents of the design sweep's grid, one per style.
SWEEP_DOCS = [
    {"style": "toroidal", "turns_primary": 10, "turns_secondary": 2,
     "tsv_pitch_um": 66.0, "row_spacing_um": 90.0},
    {"style": "vertical_spiral", "turns_primary": 8, "turns_secondary": 3,
     "tsv_pitch_um": 40.0, "row_spacing_um": 60.0},
]


class TestPackedGeneration:
    """A generation is checked and packed once, as rows, and kept read-only."""

    @pytest.mark.parametrize("doc", SWEEP_DOCS, ids=lambda d: d["style"])
    def test_kept_coils_cannot_be_written_into(self, doc):
        geom = TransformerGeometry.from_dict(doc)
        for coil in generate_coils(geom).values():
            for column in coil.columns:
                with pytest.raises(ValueError, match="read-only"):
                    column[..., 0] = 0
        assert _design(geom) == _design(TransformerGeometry.from_dict(doc))


class TestCommittedToroidal:
    def test_soft_target_bands(self, toroidal_model):
        m = toroidal_model
        assert _within_band(m.l_p, TARGETS["l_p"])
        assert _within_band(m.l_s1, TARGETS["l_s"])
        assert _within_band(m.l_s2, TARGETS["l_s"])
        assert _within_band(m.k_ss, TARGETS["k_ss"])
        assert _within_band(m.area_mm2, TARGETS["area_mm2"])

    def test_secondaries_balanced(self, toroidal_model):
        assert toroidal_model.k_ps1 == pytest.approx(toroidal_model.k_ps2, rel=0.05)
        assert toroidal_model.l_s1 == pytest.approx(toroidal_model.l_s2, rel=0.05)

    def test_ac_resistance_above_dc(self, toroidal_model):
        assert toroidal_model.r_pac > toroidal_model.r_pdc
        assert toroidal_model.r_sac > toroidal_model.r_sdc


class TestCommittedVerticalSpiral:
    def test_mirror_symmetric_secondaries(self, vertical_spiral_model):
        # the two secondaries shadow the same cells from opposite sides
        m = vertical_spiral_model
        assert m.k_ps1 == pytest.approx(m.k_ps2, rel=1e-9)
        assert m.l_s1 == pytest.approx(m.l_s2, rel=1e-9)


class TestStyleOrderings:
    def test_primary_couples_tighter_than_secondaries(self, toroidal_model,
                                                      vertical_spiral_model):
        for m in (toroidal_model, vertical_spiral_model):
            assert m.k_ps1 > m.k_ss
            assert m.k_ps2 > m.k_ss

    def test_vertical_spiral_smaller_footprint(self, toroidal_model,
                                               vertical_spiral_model):
        assert vertical_spiral_model.area_mm2 < toroidal_model.area_mm2

    def test_coupling_falls_with_row_spacing(self, toroidal_geometry,
                                             vertical_spiral_geometry):
        for geom, spans in ((toroidal_geometry, (100.0, 140.0, 180.0)),
                            (vertical_spiral_geometry, (25.0, 50.0, 75.0))):
            ks = []
            for d in spans:
                model = build_transformer(dataclasses.replace(geom, row_spacing_um=d))
                ks.append(0.5 * (model.k_ps1 + model.k_ps2))
            assert ks[0] > ks[1] > ks[2]

    def test_spiral_baseline_needs_more_area(self, toroidal_model):
        # square spiral sized to the same inductance as the committed primary
        l_spiral, area_spiral = wheeler_spiral_inductance(2, 684.0, 295.0, 24.0, 24.0)
        assert l_spiral == pytest.approx(toroidal_model.l_p, rel=0.05)
        ratio = area_spiral / toroidal_model.area_mm2
        assert 2.5 <= ratio <= 4.5


class TestMetalArea:
    def test_positive_for_both_styles(self, toroidal_geometry, vertical_spiral_geometry):
        assert metal_area(toroidal_geometry) > 0
        assert metal_area(vertical_spiral_geometry) > 0

    @pytest.mark.parametrize("style,pitch,spacing", [
        ("toroidal", 250.0, 900.0),
        ("vertical_spiral", 250.0, 250.0),
    ])
    def test_doubling_dimensions_quadruples_area(self, toroidal_geometry,
                                                 vertical_spiral_geometry,
                                                 style, pitch, spacing):
        # fixed TSV radius is a boundary effect, so probe well above minimum
        base = toroidal_geometry if style == "toroidal" else vertical_spiral_geometry
        small = dataclasses.replace(base, tsv_pitch_um=pitch, row_spacing_um=spacing,
                                    trace_width_um=None, secondary_slots=None)
        big = dataclasses.replace(small, tsv_pitch_um=2 * pitch,
                                  row_spacing_um=2 * spacing)
        ratio = metal_area(big) / metal_area(small)
        assert 4.0 * 0.95 <= ratio <= 4.0 * 1.05


class TestWheelerSpiral:
    def test_frozen_spot_value(self):
        l, area = wheeler_spiral_inductance(2, 684.0, 295.0, 24.0, 24.0)
        assert l == pytest.approx(2.7513e-9, rel=1e-3)
        assert area == pytest.approx(0.46786, rel=1e-3)

    def test_rejects_overfilled_spiral(self):
        with pytest.raises(InvalidGeometryError, match="radially"):
            wheeler_spiral_inductance(8, 200.0, 100.0, 24.0, 24.0)

    def test_rejects_inverted_dimensions(self):
        with pytest.raises(InvalidGeometryError, match="outer_dim"):
            wheeler_spiral_inductance(2, 300.0, 400.0, 24.0, 24.0)


class TestInductanceMatrix:
    def test_positive_definite_on_random_geometries(self):
        rng = np.random.default_rng(2026)
        for _ in range(8):
            if rng.random() < 0.5:
                geom = TransformerGeometry(
                    style="toroidal",
                    turns_primary=int(rng.integers(6, 16)),
                    turns_secondary=int(rng.integers(1, 3)),
                    tsv_pitch_um=float(rng.uniform(60, 100)),
                    row_spacing_um=float(rng.uniform(90, 200)),
                )
            else:
                n_p = int(rng.integers(4, 16))
                geom = TransformerGeometry(
                    style="vertical_spiral",
                    turns_primary=n_p,
                    turns_secondary=int(rng.integers(1, min(n_p, 3) + 1)),
                    tsv_pitch_um=float(rng.uniform(25, 60)),
                    row_spacing_um=float(rng.uniform(25, 80)),
                )
            model = build_transformer(geom)
            eig = np.linalg.eigvalsh(np.array(model.inductance_matrix()))
            assert eig.min() > 0

    def test_matrix_matches_couplings(self, toroidal_model):
        m = toroidal_model
        mat = np.array(m.inductance_matrix())
        assert np.allclose(mat, mat.T)
        assert mat[0, 0] == m.l_p
        assert mat[0, 1] == pytest.approx(m.k_ps1 * np.sqrt(m.l_p * m.l_s1), rel=1e-12)
        assert mat[1, 2] == pytest.approx(m.k_ss * np.sqrt(m.l_s1 * m.l_s2), rel=1e-12)


class TestModelValidation:
    def test_rejects_coupling_at_unity(self, toroidal_model):
        with pytest.raises(InvalidModelError, match="k_ps1"):
            dataclasses.replace(toroidal_model, k_ps1=1.0)

    def test_rejects_ac_below_dc(self, toroidal_model):
        with pytest.raises(InvalidModelError, match="r_pac"):
            dataclasses.replace(toroidal_model, r_pac=toroidal_model.r_pdc / 2)

    def test_rejects_nonpositive_inductance(self, toroidal_model):
        with pytest.raises(InvalidModelError, match="l_s1"):
            dataclasses.replace(toroidal_model, l_s1=0.0)


class TestDeterminism:
    def test_rebuild_is_bit_identical(self, toroidal_geometry):
        a = build_transformer(toroidal_geometry)
        b = build_transformer(toroidal_geometry)
        assert a == b
