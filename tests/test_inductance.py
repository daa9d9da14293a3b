"""Closed-form inductance and resistance checks against hand-evaluated values.

The spot values below were evaluated by hand from the round-wire and
rectangular-bar self-inductance formulas, the parallel-filament Neumann
integral, and the uniform/annular current resistance models, then frozen
here.  Tests compare against the frozen numbers, not against a
reimplementation of the same code path.
"""

import math

import numpy as np
import pytest

from tsvqvco.errors import InvalidGeometryError
from tsvqvco.geometry import CoilGeometry, rect_segment, round_segment
from tsvqvco.inductance import (
    mutual_partial_inductance,
    pack_windings,
    partial_self_inductance,
    segment_resistance,
    skin_depth,
    winding_inductances,
    winding_resistances,
)
from tsvqvco.transformer import ROLES, generate_coils

RHO_CU = 1.68e-8

# one TSV-sized round wire: l = 60 um, conductor radius 10 um
TSV_A = round_segment((0, 0, 0), (0, 0, 60e-6), 10e-6)
# its return partner 25 um away
TSV_B = round_segment((25e-6, 0, 0), (25e-6, 0, 60e-6), 10e-6)


def _matrix(*coils):
    return winding_inductances(pack_windings(list(coils)))


def _random_direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestPartialSelfInductance:
    def test_round_wire_spot_value(self):
        # hand evaluation: (mu0 l / 2 pi)(ln(120/10) - 3/4) = 20.819 pH
        value = partial_self_inductance(TSV_A)
        assert value == pytest.approx(20.8e-12, abs=0.1e-12)
        assert value == pytest.approx(20.8189e-12, rel=1e-4)

    def test_rect_bar_spot_value(self):
        bar = rect_segment((0, 0, 0), (60e-6, 0, 0), 24e-6, 7e-6)
        assert partial_self_inductance(bar) == pytest.approx(23.6278e-12, rel=1e-4)

    def test_longer_than_double(self):
        # inductance grows faster than length: L(2l) > 2 L(l)
        short = partial_self_inductance(TSV_A)
        long_seg = round_segment((0, 0, 0), (0, 0, 120e-6), 10e-6)
        assert partial_self_inductance(long_seg) > 2 * short

    def test_rejects_stubby_round_segment(self):
        stub = round_segment((0, 0, 0), (0, 0, 15e-6), 10e-6)
        with pytest.raises(InvalidGeometryError, match="below 2x cross-section"):
            partial_self_inductance(stub)

    def test_rejects_stubby_rect_segment(self):
        stub = rect_segment((0, 0, 0), (30e-6, 0, 0), 24e-6, 7e-6)
        with pytest.raises(InvalidGeometryError, match="below 2x cross-section"):
            partial_self_inductance(stub)

    def test_length_exactly_at_bound_accepted(self):
        seg = round_segment((0, 0, 0), (0, 0, 20e-6), 10e-6)
        assert partial_self_inductance(seg) > 0


class TestMutualPartialInductance:
    def test_parallel_filament_spot_value(self):
        # l/d = 2.4 hand evaluation of the Neumann integral: 11.31 pH
        value = mutual_partial_inductance(TSV_A, TSV_B)
        assert value == pytest.approx(11.3e-12, abs=0.2e-12)
        assert value == pytest.approx(11.3133e-12, rel=1e-4)

    def test_perpendicular_is_exactly_zero(self):
        trace = rect_segment((50e-6, 0, 0), (50e-6, 80e-6, 0), 10e-6, 7e-6)
        assert mutual_partial_inductance(TSV_A, trace) == 0.0

    def test_antiparallel_negates(self):
        flipped = round_segment(TSV_B.end, TSV_B.start, TSV_B.radius_m)
        m = mutual_partial_inductance(TSV_A, TSV_B)
        assert mutual_partial_inductance(TSV_A, flipped) == pytest.approx(-m, rel=1e-12)

    def test_reversing_both_preserves(self):
        ra = round_segment(TSV_A.end, TSV_A.start, TSV_A.radius_m)
        rb = round_segment(TSV_B.end, TSV_B.start, TSV_B.radius_m)
        m = mutual_partial_inductance(TSV_A, TSV_B)
        assert mutual_partial_inductance(ra, rb) == pytest.approx(m, rel=1e-12)

    def test_symmetry_on_random_pairs(self):
        # M(a,b) = M(b,a) to 1e-12 relative on arbitrarily oriented pairs
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 50:
            da, db = _random_direction(rng), _random_direction(rng)
            offset = rng.uniform(150e-6, 400e-6, size=3)
            la, lb = rng.uniform(30e-6, 120e-6, size=2)
            a = round_segment((0, 0, 0), tuple(da * la), 5e-6)
            b = round_segment(tuple(offset), tuple(offset + db * lb), 5e-6)
            m_ab = mutual_partial_inductance(a, b)
            m_ba = mutual_partial_inductance(b, a)
            if m_ab == 0.0:
                assert m_ba == 0.0
            else:
                assert m_ba == pytest.approx(m_ab, rel=1e-12)
                checked += 1

    def test_mutual_bounded_by_self_terms(self):
        # |M| <= sqrt(La Lb) for parallel wires at any spacing
        rng = np.random.default_rng(7)
        for _ in range(30):
            spacing = rng.uniform(21e-6, 500e-6)
            la = rng.uniform(40e-6, 200e-6)
            lb = rng.uniform(40e-6, 200e-6)
            shift = rng.uniform(-100e-6, 100e-6)
            a = round_segment((0, 0, 0), (0, 0, la), 10e-6)
            b = round_segment((spacing, 0, shift), (spacing, 0, shift + lb), 10e-6)
            m = abs(mutual_partial_inductance(a, b))
            bound = math.sqrt(partial_self_inductance(a) * partial_self_inductance(b))
            assert m <= bound

    def test_collinear_split_is_additive(self):
        # splitting a collinear partner must conserve M: M(a,b1)+M(a,b2) = M(a,b)
        a = round_segment((0, 0, 0), (0, 0, 60e-6), 10e-6)
        whole = round_segment((0, 0, 70e-6), (0, 0, 130e-6), 10e-6)
        b1 = round_segment((0, 0, 70e-6), (0, 0, 95e-6), 10e-6)
        b2 = round_segment((0, 0, 95e-6), (0, 0, 130e-6), 10e-6)
        split = mutual_partial_inductance(a, b1) + mutual_partial_inductance(a, b2)
        assert split == pytest.approx(mutual_partial_inductance(a, whole), rel=1e-12)

    def test_parallel_split_is_additive(self):
        # same conservation away from the collinear limit
        whole = round_segment((25e-6, 0, 0), (25e-6, 0, 60e-6), 10e-6)
        b1 = round_segment((25e-6, 0, 0), (25e-6, 0, 22e-6), 10e-6)
        b2 = round_segment((25e-6, 0, 22e-6), (25e-6, 0, 60e-6), 10e-6)
        split = mutual_partial_inductance(TSV_A, b1) + mutual_partial_inductance(TSV_A, b2)
        assert split == pytest.approx(mutual_partial_inductance(TSV_A, whole), rel=1e-12)

    def test_collinear_overlap_rejected(self):
        a = round_segment((0, 0, 0), (0, 0, 60e-6), 10e-6)
        b = round_segment((0, 0, 30e-6), (0, 0, 90e-6), 10e-6)
        with pytest.raises(InvalidGeometryError, match="collinear"):
            mutual_partial_inductance(a, b)

    def test_body_collision_rejected(self):
        # parallel wires 15 um apart with 10 um radii physically intersect
        close = round_segment((15e-6, 0, 0), (15e-6, 0, 60e-6), 10e-6)
        with pytest.raises(InvalidGeometryError, match="overlap"):
            mutual_partial_inductance(TSV_A, close)

    def test_touching_at_clearance_allowed(self):
        touching = round_segment((20e-6, 0, 0), (20e-6, 0, 60e-6), 10e-6)
        assert mutual_partial_inductance(TSV_A, touching) > 0


class TestLoopInductance:
    def _tsv_pair_loop(self):
        up = TSV_A
        top = rect_segment((0, 0, 60e-6), (25e-6, 0, 60e-6), 10e-6, 7e-6)
        down = round_segment((25e-6, 0, 60e-6), (25e-6, 0, 0), 10e-6)
        bottom = rect_segment((25e-6, 0, 0), (0, 0, 0), 10e-6, 7e-6)
        return CoilGeometry(name="pair", segments=[up, top, down, bottom])

    def test_tsv_only_contribution(self):
        # go/return pair: 2 L_self - 2 M = 19.0 pH before trace terms
        l_self = partial_self_inductance(TSV_A)
        m = mutual_partial_inductance(TSV_A, TSV_B)
        assert 2 * l_self - 2 * m == pytest.approx(19.0e-12, abs=0.5e-12)
        assert 2 * l_self - 2 * m == pytest.approx(19.0112e-12, rel=1e-4)

    def test_pair_loop_exceeds_tsv_contribution(self):
        loop = self._tsv_pair_loop()
        l_loop = _matrix(loop)[0, 0]
        assert l_loop > 19.0112e-12

    def test_loop_matches_manual_sum(self):
        loop = self._tsv_pair_loop()
        segs = loop.segments
        manual = sum(partial_self_inductance(s) for s in segs)
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                manual += 2 * mutual_partial_inductance(segs[i], segs[j])
        assert _matrix(loop)[0, 0] == pytest.approx(manual, rel=1e-12)

    def test_mutual_loop_inductance_sign_follows_orientation(self):
        loop_a = self._tsv_pair_loop()
        shifted = CoilGeometry(name="far", segments=[
            round_segment((100e-6, 0, 0), (100e-6, 0, 60e-6), 10e-6),
            rect_segment((100e-6, 0, 60e-6), (125e-6, 0, 60e-6), 10e-6, 7e-6),
            round_segment((125e-6, 0, 60e-6), (125e-6, 0, 0), 10e-6),
            rect_segment((125e-6, 0, 0), (100e-6, 0, 0), 10e-6, 7e-6),
        ])
        reversed_coil = CoilGeometry(name="rev", segments=[
            round_segment(s.end, s.start, 10e-6) if s.shape == "round"
            else rect_segment(s.end, s.start, s.width_m, s.thickness_m)
            for s in reversed(shifted.segments)])
        m_fwd = _matrix(loop_a, shifted)[0, 1]
        m_rev = _matrix(loop_a, reversed_coil)[0, 1]
        assert m_fwd != 0.0
        assert m_rev == pytest.approx(-m_fwd, rel=1e-9)


class TestCouplingCoefficient:
    def test_model_couplings_are_the_matrix_ratios(self, toroidal_geometry,
                                                   toroidal_model):
        """Every k of the model is |M_ij| / sqrt(L_i L_j) of the
        extracted matrix, to the bit; the bound is the model's."""
        coils = generate_coils(toroidal_geometry)
        l = winding_inductances(pack_windings([coils[r] for r in ROLES]))
        for name, i, j in (("k_ps1", 0, 1), ("k_ps2", 0, 2), ("k_ss", 1, 2)):
            want = abs(float(l[i, j])) / math.sqrt(float(l[i, i]) * float(l[j, j]))
            assert getattr(toroidal_model, name).hex() == want.hex(), name


class TestResistance:
    def test_skin_depth_spot_value(self):
        assert skin_depth(2.5e9, RHO_CU) == pytest.approx(1.3047e-6, rel=1e-3)

    def test_skin_depth_rejects_bad_input(self):
        with pytest.raises(InvalidGeometryError):
            skin_depth(0.0, RHO_CU)
        with pytest.raises(InvalidGeometryError):
            skin_depth(2.5e9, -1.0)

    def test_tsv_dc_resistance_spot_value(self):
        # rho l / (pi r^2) for the 60 um TSV: 3.21 mOhm
        r = segment_resistance(TSV_A, 0.0, RHO_CU)
        assert r == pytest.approx(3.2e-3, abs=0.1e-3)
        assert r == pytest.approx(3.2086e-3, rel=1e-4)

    def test_zero_frequency_returns_dc_exactly(self):
        bar = rect_segment((0, 0, 0), (100e-6, 0, 0), 24e-6, 7e-6)
        dc = RHO_CU * 100e-6 / (24e-6 * 7e-6)
        assert segment_resistance(bar, 0.0, RHO_CU) == pytest.approx(dc, rel=1e-12)

    def test_tsv_ac_resistance_spot_value(self):
        # 10 um radius vs 1.3 um skin depth: current crowds into a shell
        r_ac = segment_resistance(TSV_A, 2.5e9, RHO_CU)
        assert r_ac == pytest.approx(13.1545e-3, rel=1e-3)
        assert r_ac / segment_resistance(TSV_A, 0.0, RHO_CU) == pytest.approx(4.0998, rel=1e-3)

    def test_ac_resistance_monotone_in_frequency(self):
        freqs = [0.0, 1e8, 1e9, 2.5e9, 1e10]
        values = [segment_resistance(TSV_A, f, RHO_CU) for f in freqs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_coil_resistance_returns_dc_and_ac(self):
        coil = CoilGeometry(name="pair", segments=[
            TSV_A,
            rect_segment((0, 0, 60e-6), (25e-6, 0, 60e-6), 10e-6, 7e-6),
            round_segment((25e-6, 0, 60e-6), (25e-6, 0, 0), 10e-6),
        ])
        (r_dc,), (r_ac,) = winding_resistances(pack_windings([coil]), 2.5e9, RHO_CU)
        assert r_dc > 0
        assert r_ac > r_dc
        manual_dc = sum(segment_resistance(s, 0.0, RHO_CU) for s in coil.segments)
        assert r_dc == pytest.approx(manual_dc, rel=1e-12)
