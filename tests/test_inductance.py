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

from conftest import (COLLINEAR_LIMIT, coil, mutual, resistance, reversed_row,
                      self_inductance)
from tsvqvco.errors import InvalidGeometryError
from tsvqvco.geometry import rect_row, round_row
from tsvqvco.inductance import (
    pack_windings,
    skin_depth,
    winding_inductances,
    winding_resistances,
)
from tsvqvco.transformer import ROLES, generate_coils

RHO_CU = 1.68e-8

# one TSV-sized round wire: l = 60 um, conductor radius 10 um
TSV_A = round_row((0, 0, 0), (0, 0, 60e-6), 10e-6)
# its return partner 25 um away
TSV_B = round_row((25e-6, 0, 0), (25e-6, 0, 60e-6), 10e-6)


def _matrix(*coils):
    return winding_inductances(pack_windings(list(coils)))


def _random_direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestPartialSelfInductance:
    def test_round_wire_spot_value(self):
        # hand evaluation: (mu0 l / 2 pi)(ln(120/10) - 3/4) = 20.819 pH
        value = self_inductance(TSV_A)
        assert value == pytest.approx(20.8e-12, abs=0.1e-12)
        assert value == pytest.approx(20.8189e-12, rel=1e-4, abs=0)

    def test_rect_bar_spot_value(self):
        bar = rect_row((0, 0, 0), (60e-6, 0, 0), 24e-6, 7e-6)
        assert self_inductance(bar) == pytest.approx(23.6278e-12, rel=1e-4, abs=0)

    def test_longer_than_double(self):
        # inductance grows faster than length: L(2l) > 2 L(l)
        short = self_inductance(TSV_A)
        long_seg = round_row((0, 0, 0), (0, 0, 120e-6), 10e-6)
        assert self_inductance(long_seg) > 2 * short

    def test_rejects_stubby_round_segment(self):
        stub = round_row((0, 0, 0), (0, 0, 15e-6), 10e-6)
        with pytest.raises(InvalidGeometryError, match="below 2x cross-section"):
            self_inductance(stub)

    def test_rejects_stubby_rect_segment(self):
        stub = rect_row((0, 0, 0), (30e-6, 0, 0), 24e-6, 7e-6)
        with pytest.raises(InvalidGeometryError, match="below 2x cross-section"):
            self_inductance(stub)

    def test_length_exactly_at_bound_accepted(self):
        seg = round_row((0, 0, 0), (0, 0, 20e-6), 10e-6)
        assert self_inductance(seg) > 0


class TestMutualPartialInductance:
    def test_parallel_filament_spot_value(self):
        # l/d = 2.4 hand evaluation of the Neumann integral: 11.31 pH
        value = mutual(TSV_A, TSV_B)
        assert value == pytest.approx(11.3e-12, abs=0.2e-12)
        assert value == pytest.approx(11.3133e-12, rel=1e-4, abs=0)

    def test_perpendicular_is_exactly_zero(self):
        trace = rect_row((50e-6, 0, 0), (50e-6, 80e-6, 0), 10e-6, 7e-6)
        assert mutual(TSV_A, trace) == 0.0

    def test_antiparallel_negates(self):
        flipped = reversed_row(TSV_B)
        m = mutual(TSV_A, TSV_B)
        assert mutual(TSV_A, flipped) == pytest.approx(-m, rel=1e-12)

    def test_reversing_both_preserves(self):
        ra, rb = reversed_row(TSV_A), reversed_row(TSV_B)
        m = mutual(TSV_A, TSV_B)
        assert mutual(ra, rb) == pytest.approx(m, rel=1e-12)

    def test_symmetry_on_random_pairs(self):
        # M(a,b) = M(b,a) to 1e-12 relative on arbitrarily oriented pairs
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 50:
            da, db = _random_direction(rng), _random_direction(rng)
            offset = rng.uniform(150e-6, 400e-6, size=3)
            la, lb = rng.uniform(30e-6, 120e-6, size=2)
            a = round_row((0, 0, 0), tuple(da * la), 5e-6)
            b = round_row(tuple(offset), tuple(offset + db * lb), 5e-6)
            m_ab = mutual(a, b)
            m_ba = mutual(b, a)
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
            a = round_row((0, 0, 0), (0, 0, la), 10e-6)
            b = round_row((spacing, 0, shift), (spacing, 0, shift + lb), 10e-6)
            m = abs(mutual(a, b))
            bound = math.sqrt(self_inductance(a) * self_inductance(b))
            assert m <= bound

    @COLLINEAR_LIMIT
    def test_collinear_split_is_additive(self):
        # splitting a collinear partner must conserve M: M(a,b1)+M(a,b2) = M(a,b)
        a = round_row((0, 0, 0), (0, 0, 60e-6), 10e-6)
        whole = round_row((0, 0, 70e-6), (0, 0, 130e-6), 10e-6)
        b1 = round_row((0, 0, 70e-6), (0, 0, 95e-6), 10e-6)
        b2 = round_row((0, 0, 95e-6), (0, 0, 130e-6), 10e-6)
        split = mutual(a, b1) + mutual(a, b2)
        assert split != 0.0 and mutual(a, whole) != 0.0
        assert split == pytest.approx(mutual(a, whole), rel=1e-12, abs=0)

    def test_parallel_split_is_additive(self):
        # same conservation away from the collinear limit
        whole = round_row((25e-6, 0, 0), (25e-6, 0, 60e-6), 10e-6)
        b1 = round_row((25e-6, 0, 0), (25e-6, 0, 22e-6), 10e-6)
        b2 = round_row((25e-6, 0, 22e-6), (25e-6, 0, 60e-6), 10e-6)
        split = mutual(TSV_A, b1) + mutual(TSV_A, b2)
        assert split == pytest.approx(mutual(TSV_A, whole), rel=1e-12)

    def test_collinear_overlap_rejected(self):
        a = round_row((0, 0, 0), (0, 0, 60e-6), 10e-6)
        b = round_row((0, 0, 30e-6), (0, 0, 90e-6), 10e-6)
        with pytest.raises(InvalidGeometryError, match="collinear"):
            mutual(a, b)

    def test_body_collision_rejected(self):
        # parallel wires 15 um apart with 10 um radii physically intersect
        close = round_row((15e-6, 0, 0), (15e-6, 0, 60e-6), 10e-6)
        with pytest.raises(InvalidGeometryError, match="overlap"):
            mutual(TSV_A, close)

    def test_touching_at_clearance_allowed(self):
        touching = round_row((20e-6, 0, 0), (20e-6, 0, 60e-6), 10e-6)
        assert mutual(TSV_A, touching) > 0


class TestLoopInductance:
    def _tsv_pair_loop(self):
        up = TSV_A
        top = rect_row((0, 0, 60e-6), (25e-6, 0, 60e-6), 10e-6, 7e-6)
        down = round_row((25e-6, 0, 60e-6), (25e-6, 0, 0), 10e-6)
        bottom = rect_row((25e-6, 0, 0), (0, 0, 0), 10e-6, 7e-6)
        return [up, top, down, bottom]

    def test_tsv_only_contribution(self):
        # go/return pair: 2 L_self - 2 M = 19.0 pH before trace terms
        l_self = self_inductance(TSV_A)
        m = mutual(TSV_A, TSV_B)
        assert 2 * l_self - 2 * m == pytest.approx(19.0e-12, abs=0.5e-12)
        assert 2 * l_self - 2 * m == pytest.approx(19.0112e-12, rel=1e-4, abs=0)

    def test_pair_loop_exceeds_tsv_contribution(self):
        l_loop = _matrix(coil("pair", self._tsv_pair_loop()))[0, 0]
        assert l_loop > 19.0112e-12

    def test_loop_matches_manual_sum(self):
        segs = self._tsv_pair_loop()
        manual = sum(self_inductance(s) for s in segs)
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                manual += 2 * mutual(segs[i], segs[j])
        assert _matrix(coil("pair", segs))[0, 0] == pytest.approx(manual, rel=1e-12)

    def test_mutual_loop_inductance_sign_follows_orientation(self):
        loop_a = coil("pair", self._tsv_pair_loop())
        far = [
            round_row((100e-6, 0, 0), (100e-6, 0, 60e-6), 10e-6),
            rect_row((100e-6, 0, 60e-6), (125e-6, 0, 60e-6), 10e-6, 7e-6),
            round_row((125e-6, 0, 60e-6), (125e-6, 0, 0), 10e-6),
            rect_row((125e-6, 0, 0), (100e-6, 0, 0), 10e-6, 7e-6),
        ]
        shifted = coil("far", far)
        reversed_coil = coil("rev", map(reversed_row, reversed(far)))
        m_fwd = _matrix(loop_a, shifted)[0, 1]
        m_rev = _matrix(loop_a, reversed_coil)[0, 1]
        assert m_fwd != 0.0
        assert m_rev == pytest.approx(-m_fwd, rel=1e-9, abs=0)


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
        r = resistance(TSV_A, 0.0, RHO_CU)
        assert r == pytest.approx(3.2e-3, abs=0.1e-3)
        assert r == pytest.approx(3.2086e-3, rel=1e-4)

    def test_zero_frequency_returns_dc_exactly(self):
        bar = rect_row((0, 0, 0), (100e-6, 0, 0), 24e-6, 7e-6)
        dc = RHO_CU * 100e-6 / (24e-6 * 7e-6)
        assert resistance(bar, 0.0, RHO_CU) == pytest.approx(dc, rel=1e-12)

    def test_tsv_ac_resistance_spot_value(self):
        # 10 um radius vs 1.3 um skin depth: current crowds into a shell
        r_ac = resistance(TSV_A, 2.5e9, RHO_CU)
        assert r_ac == pytest.approx(13.1545e-3, rel=1e-3)
        assert r_ac / resistance(TSV_A, 0.0, RHO_CU) == pytest.approx(4.0998, rel=1e-3)

    def test_ac_resistance_monotone_in_frequency(self):
        freqs = [0.0, 1e8, 1e9, 2.5e9, 1e10]
        values = [resistance(TSV_A, f, RHO_CU) for f in freqs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_coil_resistance_returns_dc_and_ac(self):
        rows = [
            TSV_A,
            rect_row((0, 0, 60e-6), (25e-6, 0, 60e-6), 10e-6, 7e-6),
            round_row((25e-6, 0, 60e-6), (25e-6, 0, 0), 10e-6),
        ]
        (r_dc,), (r_ac,) = winding_resistances(pack_windings([coil("pair", rows)]),
                                                2.5e9, RHO_CU)
        assert r_dc > 0
        assert r_ac > r_dc
        manual_dc = sum(resistance(s, 0.0, RHO_CU) for s in rows)
        assert r_dc == pytest.approx(manual_dc, rel=1e-12)
