"""The vectorized pair kernel of tsvqvco.inductance and the one extraction
pass built on it.

Its values are checked against an independent numerical Neumann double
integral, a pair inside a batched call must equal the same pair alone,
and overlap errors must name the first offending
pair in block order with the exact messages the scalar pair loop gave
(frozen below).  Only the pairs that couple reach the kernel, each once,
and a parallel pair's two projections must agree, value and verdict,
since the kernel takes one of them; on one line they do not yet
(conftest.COLLINEAR_LIMIT).  The one pass over packed windings
must equal the sum of its one-segment and one-pair cases, and report
defects in the documented order, before any value is evaluated: a
design's value pass, one antiderivative call, runs only once no pair
overlaps in either frame.
"""
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad

from conftest import COLLINEAR_LIMIT, coil, mutual, packed, self_inductance
from tsvqvco import inductance
from tsvqvco.errors import InvalidGeometryError
from tsvqvco.geometry import TransformerGeometry, rect_row, round_row
from tsvqvco.inductance import (
    _COLLINEAR_TOL,
    _PERP_TOL,
    _antideriv,
    _coupling_pairs,
    _dot3,
    _geometry,
    _pair_mutuals,
    _values,
    pack_windings,
    winding_inductances,
)
from tsvqvco.transformer import ROLES, generate_coils, model_from_coils

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
UM = 1e-6
R = 5 * UM


def _pt(x, y, z):
    return (x * UM, y * UM, z * UM)


def _wire(a, b):
    return round_row(_pt(*a), _pt(*b), R)


def _coil(name, points):
    return coil(name, [_wire(a, b) for a, b in zip(points, points[1:])])


def _neumann(a, b):
    """1e-7 * integral of dl_a . dl_b / r over both filament axes."""
    pa, pb = np.array(a[0:3]), np.array(b[0:3])
    da = np.array(a[3:6]) - pa
    db = np.array(b[3:6]) - pb
    value, _ = dblquad(
        lambda t, s: 1.0 / np.linalg.norm(pa + s * da - pb - t * db),
        0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)
    return 1e-7 * float(da @ db) * value


# The two collinear pairs fail on the collinear-limit defect that
# conftest.COLLINEAR_LIMIT marks.
NEUMANN_PAIRS = [
    pytest.param((0, 0, 0), (0, 0, 60), (25, 0, 0), (25, 0, 60), id="parallel"),
    pytest.param((0, 0, 0), (0, 0, 60), (25, 0, 60), (25, 0, 0), id="antiparallel"),
    pytest.param((0, 0, 0), (0, 0, 60), (18, 24, 35), (18, 24, 115), id="axially_offset"),
    pytest.param((0, 0, 0), (0, 0, 60), (1e-3, 0, 70), (1e-3, 0, 130),
                 id="nearly_collinear_gapped"),
    pytest.param((0, 0, 0), (0, 0, 60), (0, 0, 70), (0, 0, 130),
                 id="collinear_gapped", marks=COLLINEAR_LIMIT),
    pytest.param((0, 0, 0), (0, 0, 60), (0, 0, 130), (0, 0, 70),
                 id="collinear_gapped_reversed", marks=COLLINEAR_LIMIT),
]


@pytest.mark.parametrize("a0, a1, b0, b1", NEUMANN_PAIRS)
def test_kernel_matches_numerical_neumann_integral(a0, a1, b0, b1):
    a, b = _wire(a0, a1), _wire(b0, b1)
    want = _neumann(a, b)
    assert want != 0.0
    assert mutual(a, b) == pytest.approx(want, rel=1e-8, abs=0.0)
    assert mutual(b, a) == pytest.approx(want, rel=1e-8, abs=0.0)


def _windings(config):
    geom = TransformerGeometry.from_json_file(CONFIG_DIR / config)
    coils = generate_coils(geom)
    return [coils[role] for role in ROLES]


@pytest.fixture(scope="module")
def spiral_coils():
    return _windings("vertical_spiral.json")


def test_packed_values_equal_the_segments_own(spiral_coils):
    rows = pack_windings(spiral_coils).rows
    segments = [s for c in spiral_coils for s in c.segments.tolist()]
    lengths = [math.dist(s[0:3], s[3:6]) for s in segments]
    assert rows.length.tolist() == lengths
    assert rows.unit.T.tolist() == [[(e - b) / length for b, e in zip(s[0:3], s[3:6])]
                                    for s, length in zip(segments, lengths)]
    assert rows.start.T.tolist() == [s[0:3] for s in segments]
    assert rows.is_round.tolist() == [s[6] == 1.0 for s in segments]
    assert rows.cross.max(axis=0).tolist() == [
        s[7] if s[6] == 1.0 else max(s[8], s[9]) for s in segments]


def test_batched_pairs_equal_each_pair_alone(spiral_coils):
    windings = pack_windings(spiral_coils)
    segments = [s for c in spiral_coils for s in c.segments.tolist()]
    ia, ib = _coupling_pairs(windings.rows)
    batched = _pair_mutuals(windings.rows, ia, ib, np.zeros_like(ia))
    for value, i, j in zip(batched, ia, ib):
        single = mutual(segments[i], segments[j])
        assert value == pytest.approx(single, rel=1e-14, abs=0.0)
    assert np.count_nonzero(batched) > 100
    # A pair the kernel never sees is exactly perpendicular.
    kept = set(zip(ia.tolist(), ib.tolist()))
    perpendicular = [(i, j) for i, j in combinations(range(len(segments)), 2)
                     if (i, j) not in kept]
    assert len(perpendicular) > 100
    for i, j in perpendicular[::50]:
        assert mutual(segments[i], segments[j]) == 0.0


def _dot3_pairs(rows):
    """The pairs i < j whose direction cosine is at least _PERP_TOL in
    magnitude, by _dot3 over every pair."""
    n = rows.length.size
    return [(i, j) for i, j in combinations(range(n), 2)
            if abs(float(_dot3(rows.unit[:, i], rows.unit[:, j]))) >= _PERP_TOL]


def _kept_pairs(rows):
    ia, ib = _coupling_pairs(rows)
    return list(zip(ia.tolist(), ib.tolist()))


def test_coupling_pairs_near_the_tolerance_follow_dot3():
    # Wires tilted off the z axis by eps (cos with an x wire about eps),
    # around the tolerance where the Gram matrix and _dot3 may round apart.
    tilts = [0.3, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 1.9, 2.0, 2.1, 5.0]
    segments = [_wire((0, 0, 0), (60, 0, 0))]
    for k, eps in enumerate(tilts):
        x = 100.0 + 30.0 * k
        segments.append(round_row(_pt(x, 50, 0), (x * UM + eps * _PERP_TOL * 60 * UM,
                                                      50 * UM, 60 * UM), R))
    rows = packed(segments)
    kept = _kept_pairs(rows)
    assert kept == _dot3_pairs(rows)
    # the tilts straddle the tolerance: some x-wire pairs stay, some go
    with_x_wire = [j for i, j in kept if i == 0]
    assert 0 < len(with_x_wire) < len(tilts)


def _one_frame(rows, ix, iy):
    """Value, overlap verdict and offset of each pair, iy projected onto
    ix's axis, from the geometry and value passes."""
    projection = _geometry(rows, ix, iy)
    return _values(projection), projection.overlap, projection.perp


@pytest.mark.parametrize("config, collinear", [
    pytest.param("toroidal.json", False, id="toroidal.json"),
    pytest.param("vertical_spiral.json", False, id="vertical_spiral.json"),
    pytest.param("toroidal.json", True, id="toroidal.json-collinear",
                 marks=COLLINEAR_LIMIT),
    pytest.param("vertical_spiral.json", True, id="vertical_spiral.json-collinear",
                 marks=COLLINEAR_LIMIT),
])
def test_parallel_pairs_agree_in_both_frames(config, collinear):
    # The kernel takes one projection of a parallel pair on two lines, so
    # the other must give the same value and the same overlap verdict.  A
    # collinear pair (line separation below _COLLINEAR_TOL) must too, once
    # its two frames agree and the kernel can take one of them as well.
    rows = pack_windings(_windings(config)).rows
    ia, ib = _coupling_pairs(rows)
    parallel = np.abs(_dot3(rows.unit[:, ia], rows.unit[:, ib])) == 1.0
    m_ab, bad_ab, perp = _one_frame(rows, ia, ib)
    on_one_line = np.sqrt(_dot3(perp, perp)) < _COLLINEAR_TOL
    two_lines = parallel & ~on_one_line
    chosen = parallel & on_one_line if collinear else two_lines
    m_ba, bad_ba, _ = _one_frame(rows, ib, ia)
    assert chosen.sum() > (100 if collinear else 500)
    # Far pairs lose digits to the four-term antiderivative sum in either
    # frame (about 5e-26 H apart on mutuals near 1e-13 H), so the bound is
    # relative to the largest mutual of the pairs on two lines as well as
    # to each pair.
    scale = np.abs(m_ab[two_lines]).max()
    np.testing.assert_allclose(m_ba[chosen], m_ab[chosen], rtol=1e-14,
                               atol=1e-14 * scale)
    assert bad_ba[chosen].tolist() == bad_ab[chosen].tolist()


def _pair_at(kind, offset):
    """A parallel pair 20 um long, the second body offset from the first
    along `offset` (meters), as packed columns 0 and 1."""
    if kind == "round":
        def make(p, q):
            return round_row(p, q, R)
    else:
        def make(p, q):
            return rect_row(p, q, 8 * UM, 3 * UM)
    ox, oy, oz = offset
    a = make((0.0, 0.0, 0.0), (20 * UM, 0.0, 0.0))
    b = make((ox, oy, oz), (ox + 20 * UM, oy, oz))
    return packed([a, b])


TOUCH = {"round": {"side": 10 * UM, "above": 10 * UM},
         "rect": {"side": 8 * UM, "above": 3 * UM}}


@pytest.mark.parametrize("kind", ["round", "rect"])
@pytest.mark.parametrize("where", ["side", "above", "end"])
@pytest.mark.parametrize("shift, overlaps", [
    (1e-13, False),      # just clear
    (0.0, False),        # exactly touching
    (-1e-13, False),     # inside by less than the margin
    (-0.9e-12, False),
    (-1.1e-12, True),    # inside by more than the margin
])
def test_parallel_margin_verdicts_agree_in_both_frames(kind, where, shift, overlaps):
    if where == "end":
        # end to end along the axis, 2 um apart sideways so the bodies
        # meet if the spans overlap
        offset = (20 * UM + shift, 2 * UM, 0.0)
    else:
        gap = TOUCH[kind][where] + shift
        offset = (0.0, gap, 0.0) if where == "side" else (0.0, 0.0, gap)
    rows = _pair_at(kind, offset)
    (m_ab,), (bad_ab,), _ = _one_frame(rows, [0], [1])
    (m_ba,), (bad_ba,), _ = _one_frame(rows, [1], [0])
    assert bool(bad_ab) == bool(bad_ba) == overlaps
    assert m_ba == pytest.approx(m_ab, rel=1e-14, abs=0.0)


# Two offending pairs: (0, 4) is a body overlap of two parallel wires 8 um
# apart, (1, 5) a collinear overlap along the top.
TWO_DEFECTS = [(0, 0, 0), (0, 0, 60), (40, 0, 60), (40, 0, 0), (8, 0, 0),
               (8, 0, 60), (34, 0, 60)]
BODY_8UM = ("segment bodies overlap: horizontal gap 8.000e-06 m within "
            "1.000e-05 m and vertical gap 0.000e+00 m within 1.000e-05 m")


def _loop_inductance(coil):
    return winding_inductances(pack_windings([coil]))[0, 0]


def test_error_names_first_offending_pair():
    with pytest.raises(InvalidGeometryError) as err:
        _loop_inductance(_coil("twice", TWO_DEFECTS))
    assert str(err.value) == BODY_8UM
    # Reversing the path turns (1, 5) into (0, 4), so now it comes first.
    with pytest.raises(InvalidGeometryError) as err:
        _loop_inductance(_coil("reversed", TWO_DEFECTS[::-1]))
    assert str(err.value) == "collinear segments overlap"


SLANT = _wire((0, 0, 0), (100, 0, 100))
BAR = rect_row(_pt(11, 0, 13.7), _pt(31, 0, 13.7), 8 * UM, 3 * UM)
LYING = _wire((10, 0, 14), (30, 0, 14))
SHORT = _wire((15, 0, 10), (25, 0, 20))


BAR_ON_SLANT = ("segment bodies overlap: horizontal gap 3.650e-06 m within "
                "9.000e-06 m and vertical gap 3.650e-06 m within 6.500e-06 m")


@pytest.mark.parametrize("a, b, message", [
    # Only the bar projected onto the slanted wire's axis overlaps, so the
    # message comes from the (b, a) projection of M(BAR, SLANT).
    (BAR, SLANT, BAR_ON_SLANT),
    (SLANT, BAR, BAR_ON_SLANT),
    # Both projections overlap with different gaps: the (a, b) one is reported.
    (LYING, SHORT, "segment bodies overlap: horizontal gap 0.000e+00 m within "
                   "1.000e-05 m and vertical gap 1.000e-06 m within 1.000e-05 m"),
    (SHORT, LYING, "segment bodies overlap: horizontal gap 5.000e-07 m within "
                   "1.000e-05 m and vertical gap 5.000e-07 m within 1.000e-05 m"),
])
def test_frozen_overlap_messages(a, b, message):
    with pytest.raises(InvalidGeometryError) as err:
        mutual(a, b)
    assert str(err.value) == message


def test_pair_overlapping_in_its_second_frame_comes_before_later_pairs():
    # Windings (0, 1), the bar and the slanted wire, overlap only in their
    # second projection; the later block (0, 2), the bar and the wire
    # lying along it, overlaps in its first.  The earlier pair is named.
    rows = packed([BAR, SLANT, LYING])
    assert [bool(_geometry(rows, [x], [y]).overlap[0])
            for x, y in [(0, 1), (1, 0), (0, 2)]] == [False, True, True]
    with pytest.raises(InvalidGeometryError) as err:
        mutual(BAR, LYING)
    assert str(err.value) != BAR_ON_SLANT
    windings = [coil(name, [seg]) for name, seg in
                [("bar", BAR), ("slant", SLANT), ("lying", LYING)]]
    with pytest.raises(InvalidGeometryError) as err:
        winding_inductances(pack_windings(windings))
    assert str(err.value) == BAR_ON_SLANT


def _square(name, x0):
    return _coil(name, [(x0, 0, 0), (x0, 0, 60), (x0 + 30, 0, 60),
                        (x0 + 30, 0, 0), (x0, 0, 0)])


def _model(coils):
    return model_from_coils(coils, 2.5e9, 0.1, 1.68e-8)


def test_model_reports_primary_defect_before_secondary_ones():
    # A broken path never reaches the model: the winding rejects it.
    with pytest.raises(InvalidGeometryError, match="'secondary1' path breaks"):
        coil("secondary1", [_wire((200, 0, 0), (200, 0, 60)),
                            _wire((230, 0, 60), (230, 0, 0))])
    # The secondaries collide, but the primary's own defect comes first.
    coils = {"primary": _coil("primary", TWO_DEFECTS),
             "secondary1": _square("secondary1", 200),
             "secondary2": _square("secondary2", 208)}
    with pytest.raises(InvalidGeometryError) as err:
        _model(coils)
    assert str(err.value) == BODY_8UM
    coils["primary"] = _square("primary", 0)
    # The windings are sound on their own; the secondaries collide.
    with pytest.raises(InvalidGeometryError, match="segment bodies overlap"):
        _model(coils)
    coils["secondary2"] = _square("secondary2", 400)
    assert _model(coils).l_p > 0


def test_segment_validity_comes_before_any_overlap():
    # The primary overlaps itself, but a stub in the second secondary is
    # reported first: every segment's self term is checked before any pair.
    stub = [(400, 0, 0), (400, 0, 60), (405, 0, 60)]
    coils = {"primary": _coil("primary", TWO_DEFECTS),
             "secondary1": _square("secondary1", 200),
             "secondary2": _coil("secondary2", stub)}
    with pytest.raises(InvalidGeometryError) as err:
        _model(coils)
    assert str(err.value) == ("segment length 5.000e-06 m below 2x cross-section "
                              "dimension 5.000e-06 m, closed form invalid")


def test_loop_overlaps_come_before_cross_overlaps():
    # The secondaries collide with the primary (p-s1 comes first in block
    # order) but the second secondary's own collinear overlap is reported,
    # because every winding's own pairs come before any pair of windings.
    folded = [(8, 0, 0), (8, 0, 60), (38, 0, 60), (38, 0, 0), (38, 0, 30)]
    coils = {"primary": _square("primary", 0),
             "secondary1": _square("secondary1", 4),
             "secondary2": _coil("secondary2", [(p[0] + 400, *p[1:]) for p in folded])}
    with pytest.raises(InvalidGeometryError) as err:
        _model(coils)
    assert str(err.value) == "collinear segments overlap"


def _pairwise_matrix(windings):
    """Loop and mutual sums built one segment and one pair at a time.
    Every segment is packed once, as its own one-segment coil, and each
    pair goes through the pair kernel alone, as conftest.mutual sends
    it: a perpendicular pair, which never reaches the kernel, adds 0."""
    segs = [w.segments.tolist() for w in windings]
    rows = packed([s for w in segs for s in w])
    first = np.cumsum([0] + [len(w) for w in segs])
    one, block = np.zeros(1, dtype=int), np.zeros(1, dtype=int)

    def pair(i, j):
        if abs(float(_dot3(rows.unit[:, i], rows.unit[:, j]))) < _PERP_TOL:
            return 0.0
        return float(_pair_mutuals(rows, one + i, one + j, block)[0])

    n = len(windings)
    matrix = np.zeros((n, n))
    for a in range(n):
        cols = range(first[a], first[a + 1])
        matrix[a, a] = math.fsum(
            [self_inductance(s) for s in segs[a]]
            + [2.0 * pair(i, j) for i, j in combinations(cols, 2)])
        for b in range(a + 1, n):
            matrix[a, b] = matrix[b, a] = math.fsum(
                pair(i, j) for i in cols for j in range(first[b], first[b + 1]))
    return matrix


def _skew_windings():
    """Three hand-built windings with 45-degree and other oblique runs
    beside Manhattan ones."""
    return [_coil("house", [(0, 0, 0), (0, 0, 60), (30, 0, 90), (60, 0, 60), (60, 0, 0)]),
            _coil("zigzag", [(0, 40, 0), (30, 70, 30), (60, 40, 60), (60, 40, 100)]),
            _coil("bend", [(100, 0, 0), (100, 0, 60), (130, 30, 60), (150, 50, 80),
                           (170, 50, 80)])]


@pytest.mark.parametrize("windings", [
    pytest.param(lambda: _windings("toroidal.json"), id="toroidal"),
    pytest.param(lambda: _windings("vertical_spiral.json"), id="vertical_spiral"),
    pytest.param(_skew_windings, id="skew"),
])
def test_one_pass_equals_pairwise_sums(windings):
    windings = windings()
    packed = pack_windings(windings)
    got = winding_inductances(packed)
    want = _pairwise_matrix(windings)
    assert np.all(want != 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert _kept_pairs(packed.rows) == _dot3_pairs(packed.rows)


def test_skew_windings_take_oblique_pairs():
    rows = pack_windings(_skew_windings()).rows
    ia, ib = _coupling_pairs(rows)
    cos = np.abs(_dot3(rows.unit[:, ia], rows.unit[:, ib]))
    assert np.any((cos > _PERP_TOL) & (cos < 1.0))
    assert np.any(cos == 1.0)


@pytest.mark.parametrize("order", [(1, 0, 2), (2, 1, 0), (1, 2, 0)])
def test_permuting_windings_permutes_the_matrix(spiral_coils, order):
    matrix = winding_inductances(pack_windings(spiral_coils))
    permuted = winding_inductances(pack_windings([spiral_coils[k] for k in order]))
    np.testing.assert_allclose(permuted, matrix[np.ix_(order, order)], rtol=1e-13, atol=0.0)
    assert permuted.diagonal().tolist() == matrix.diagonal()[list(order)].tolist()


@pytest.mark.parametrize("count", [1, 2, 4])
def test_one_pass_equals_pairwise_sums_for_any_winding_count(spiral_coils, count):
    # The spiral's windings, then a square loop clear of them, beside its
    # outermost turn.
    windings = [*spiral_coils, _square("square", 800)][:count]
    got = winding_inductances(pack_windings(windings))
    want = _pairwise_matrix(windings)
    assert got.shape == (count, count)
    assert np.all(want != 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert (got == got.T).all()


def test_model_makes_one_kernel_call_with_one_value_pass(monkeypatch, spiral_coils):
    calls, projections, antiderivs = [], [], []

    def spy(rows, ia, ib, block):
        calls.append(list(zip(ia.tolist(), ib.tolist())))
        return _pair_mutuals(rows, ia, ib, block)

    def geometry_spy(rows, ix, iy):
        projections.append(list(zip(ix.tolist(), iy.tolist())))
        return _geometry(rows, ix, iy)

    def antideriv_spy(u, d):
        antiderivs.append(u.shape)
        return _antideriv(u, d)

    monkeypatch.setattr(inductance, "_pair_mutuals", spy)
    monkeypatch.setattr(inductance, "_geometry", geometry_spy)
    monkeypatch.setattr(inductance, "_antideriv", antideriv_spy)
    _model(dict(zip(ROLES, spiral_coils)))
    assert len(calls) == 1
    (pairs,) = calls
    rows = pack_windings(spiral_coils).rows
    coupling = _dot3_pairs(rows)
    # every coupling pair i < j exactly once, and nothing else
    assert len(pairs) == len(set(pairs))
    assert sorted(pairs) == coupling
    # the vertical spiral has perpendicular pairs, and none reach the kernel
    n = rows.length.size
    assert len(coupling) < n * (n - 1) // 2
    # Two geometry passes: b onto a's axis for every pair, in order, then
    # a onto b's for the collinear ones only, as the windings have no skew
    # pair.
    assert all(abs(float(_dot3(rows.unit[:, i], rows.unit[:, j]))) == 1.0 for i, j in pairs)
    collinear = [(i, j) for i, j in pairs if np.linalg.norm(
        np.cross(rows.unit[:, i], rows.mid[:, j] - rows.start[:, i])) < _COLLINEAR_TOL]
    assert 0 < len(collinear) < len(pairs)
    assert projections == [pairs, [(j, i) for i, j in collinear]]
    # One value pass over both passes' pairs.
    assert antiderivs == [(4, len(pairs) + len(collinear))]


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: {"primary": _coil("primary", TWO_DEFECTS),
                          "secondary1": _square("secondary1", 200),
                          "secondary2": _square("secondary2", 400)},
                 BODY_8UM, id="two_defects"),
    # a toroidal grid point whose three secondary turns overlap collinearly
    pytest.param(lambda: generate_coils(TransformerGeometry.from_dict(
        {"style": "toroidal", "turns_primary": 8, "turns_secondary": 3,
         "tsv_pitch_um": 66.0, "row_spacing_um": 60.0})),
                 "collinear segments overlap", id="toroidal_3_secondary_66um"),
])
def test_overlapping_design_evaluates_no_antiderivative(monkeypatch, build, message):
    coils = build()
    calls = []

    def antideriv_spy(u, d):
        calls.append(u.shape)
        return _antideriv(u, d)

    monkeypatch.setattr(inductance, "_antideriv", antideriv_spy)
    with pytest.raises(InvalidGeometryError) as err:
        _model(coils)
    assert str(err.value) == message
    assert calls == []


def test_collinear_limit_fills_its_own_columns():
    # Collinear columns (d below the tolerance, zero or not) between
    # others, each with some u exactly 0: every column of the batch must
    # equal the same column evaluated alone.  The suite turns any
    # RuntimeWarning, such as log(0) or 0/0 escaping np.errstate, into an
    # error.
    d = np.array([3e-6, 0.0, 5e-6, 0.0, 0.5e-12, 1e-6, 0.0])
    u = np.array([[2e-5, 0.0, -4e-5, 3e-5, 6e-5, 0.0, -1e-5],
                  [0.0, -2e-5, 1e-5, 0.0, -3e-5, 2e-5, 0.0],
                  [-1e-5, 4e-5, 0.0, -2e-5, 0.0, -3e-5, 5e-5],
                  [5e-5, 1e-5, 2e-5, 1e-5, 2e-5, 0.0, -4e-5]])
    assert 0 < np.count_nonzero(d < _COLLINEAR_TOL) < len(d)
    got = _antideriv(u, d)
    for j in range(len(d)):
        alone = _antideriv(u[:, [j]], d[[j]])[:, 0]
        assert got[:, j].tolist() == alone.tolist(), j
    assert np.all(np.isfinite(got))
    # the limit is 0 at u = 0
    zero_limit = (u == 0.0) & (d < _COLLINEAR_TOL)
    assert got[zero_limit].tolist() == [0.0] * int(zero_limit.sum())
