"""Device model tests.

Spot currents and capacitances were evaluated by hand from the stated
equations and frozen here; the derivative checks compare the analytic
partials mos_eval (a one-device mos_bank call) returns against centered
finite differences of the current it returns.  A bank of transistors in every region, evaluated
in one loop, gives each device exactly what it gives alone, and so does
a bank of varactors.
"""
import dataclasses
import math

import numpy as np
import pytest

from conftest import mos_eval
from tsvqvco.devices import (
    BufferParams,
    MosParams,
    TuningArray,
    VaractorModel,
    check_coupled_set,
    mos_bank,
    mos_row,
    varactor_bank,
    varactor_eval,
)
from tsvqvco.errors import InvalidModelError
from tsvqvco.netlist import CoupledInductors, Netlist
from tsvqvco.topologies import (
    DEFAULT_DOT_SIGNS,
    TopologyParams,
    build_netlist,
    coupled_inductor_matrix,
)
from tsvqvco.transformer import TransformerModel


# transformer B with its primary dot reversed: the wrong-dot control
FLIPPED = (-1, 1, -1)


def reference_transformer(**overrides) -> TransformerModel:
    base = dict(l_p=3e-9, l_s1=0.4e-9, l_s2=0.4e-9, r_pdc=0.3, r_pac=1.4,
                r_sdc=0.064, r_sac=0.35, k_ps1=0.52, k_ps2=0.52, k_ss=0.15,
                area_mm2=0.17, eval_frequency_hz=2.5e9)
    base.update(overrides)
    return TransformerModel(**base)


NMOS = MosParams(polarity="n", k_factor=0.3, v_th=0.3, lam=0.1)
PMOS = MosParams(polarity="p", k_factor=0.3, v_th=-0.3, lam=0.1)


class TestMosParams:
    def test_valid_params_pass(self):
        for p in (NMOS, PMOS):
            assert dataclasses.replace(p) == p

    @pytest.mark.parametrize("kwargs", [
        dict(polarity="x", k_factor=1e-3, v_th=0.3),
        dict(polarity="n", k_factor=0.0, v_th=0.3),
        dict(polarity="n", k_factor=1e-3, v_th=0.3, lam=-0.1),
        dict(polarity="n", k_factor=1e-3, v_th=-0.3),
        dict(polarity="p", k_factor=1e-3, v_th=0.3),
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(InvalidModelError):
            MosParams(**kwargs)


class TestMosCurrent:
    def test_saturation_spot_value(self):
        """v_ov = 0.1, v_ds = 0.35: 0.5*0.3*0.01*(1 + 0.1*0.35) = 1.5525 mA."""
        assert math.isclose(mos_eval(NMOS, 0.4, 0.35)[0], 1.5525e-3,
                            rel_tol=1e-12)

    def test_triode_spot_value(self):
        """v_ds = 0.05 < v_ov: 0.3*(0.1*0.05 - 0.00125)*(1.005) = 1.130625 mA.

        The channel-length-modulation factor stays on in triode so the two
        regions meet exactly at v_ds = v_ov.
        """
        assert math.isclose(mos_eval(NMOS, 0.4, 0.05)[0], 1.130625e-3,
                            rel_tol=1e-12)

    def test_regions_meet_at_pinchoff(self):
        v_ov = 0.1
        i_at = mos_eval(NMOS, 0.4, v_ov)[0]
        sat_form = 0.5 * NMOS.k_factor * v_ov ** 2 * (1 + NMOS.lam * v_ov)
        assert math.isclose(i_at, sat_form, rel_tol=1e-12)
        assert abs(mos_eval(NMOS, 0.4, v_ov - 1e-9)[0] - i_at) < 1e-9

    def test_cutoff_is_exactly_zero(self):
        assert mos_eval(NMOS, 0.25, 0.5)[0] == 0.0
        assert mos_eval(NMOS, 0.3, 0.5)[0] == 0.0

    def test_pchannel_mirrors_nchannel(self):
        assert math.isclose(mos_eval(PMOS, -0.4, -0.35)[0],
                            -mos_eval(NMOS, 0.4, 0.35)[0], rel_tol=1e-12)

    def test_conducting_pchannel_current_is_negative(self):
        assert mos_eval(PMOS, -0.4, -0.35)[0] < 0.0

    def test_source_drain_swap_identity(self):
        """The channel is symmetric: reversing v_ds reads the same device
        from the other terminal, i(v_gs, v_ds) = -i(v_gs - v_ds, -v_ds)."""
        rng = np.random.default_rng(19)
        for _ in range(100):
            v_gs = rng.uniform(-0.8, 0.8)
            v_ds = rng.uniform(-0.8, 0.8)
            fwd = mos_eval(NMOS, v_gs, v_ds)[0]
            swp = -mos_eval(NMOS, v_gs - v_ds, -v_ds)[0]
            assert math.isclose(fwd, swp, rel_tol=1e-12, abs_tol=1e-18)


class TestMosSmallSignal:
    def test_cutoff_gains_are_zero(self):
        assert mos_eval(NMOS, 0.2, 0.35) == (0.0, 0.0, 0.0)

    def test_matches_finite_differences(self):
        """Analytic partials against centered differences, both polarities
        and both channel directions."""
        rng = np.random.default_rng(11)
        h = 1e-7
        for _ in range(1000):
            pol = "n" if rng.random() < 0.5 else "p"
            v_th = rng.uniform(0.15, 0.45) * (1 if pol == "n" else -1)
            p = MosParams(pol, rng.uniform(1e-4, 5e-3), v_th,
                          rng.uniform(0.0, 0.2))
            v_gs = rng.uniform(-0.8, 0.8)
            v_ds = rng.uniform(-0.8, 0.8)
            _, g_m, g_ds = mos_eval(p, v_gs, v_ds)
            fd_gm = (mos_eval(p, v_gs + h, v_ds)[0]
                     - mos_eval(p, v_gs - h, v_ds)[0]) / (2 * h)
            fd_gds = (mos_eval(p, v_gs, v_ds + h)[0]
                      - mos_eval(p, v_gs, v_ds - h)[0]) / (2 * h)
            assert abs(fd_gm - g_m) < 1e-9
            assert abs(fd_gds - g_ds) < 1e-9

    def test_forward_saturation_gm_positive(self):
        _, g_m, _ = mos_eval(NMOS, 0.4, 0.35)
        assert g_m > 0.0
        assert math.isclose(g_m, NMOS.k_factor * 0.1 * (1 + 0.1 * 0.35),
                            rel_tol=1e-12)

    def test_reversed_channel_gm_sign_flips(self):
        # terminals swapped: raising the gate still raises |i| but the
        # reported current flows the other way
        _, g_m, _ = mos_eval(NMOS, 0.4, -0.35)
        assert g_m < 0.0


# (name, params, v_gs, v_ds): n- and p-channel devices in every region,
# and the exact edges v_ds = 0 and v_ov = 0, biased from a 0 V source.
N2 = MosParams(polarity="n", k_factor=0.02, v_th=0.25, lam=0.0)
P2 = MosParams(polarity="p", k_factor=0.05, v_th=-0.4, lam=0.2)
BANK = [
    ("n_cutoff", NMOS, 0.1, 0.5),
    ("p_cutoff", P2, -0.2, -0.5),
    ("n_triode", N2, 0.9, 0.2),
    ("p_triode", PMOS, -0.9, -0.2),
    ("n_saturation", NMOS, 0.7, 0.6),
    ("p_saturation", P2, -0.8, -0.7),
    ("n_reversed_triode", NMOS, 0.8, -0.2),
    ("n_reversed_saturation", N2, 0.0, -0.6),
    ("p_reversed_saturation", PMOS, 0.0, 0.6),
    ("p_reversed_triode", P2, -0.9, 0.1),
    ("n_v_ds_zero", NMOS, 0.7, 0.0),
    ("p_v_ds_zero", P2, -0.7, 0.0),
    ("n_v_ov_zero", NMOS, NMOS.v_th, 0.4),
    ("p_v_ov_zero", PMOS, PMOS.v_th, -0.4),
]


class TestMosBank:
    def bank(self, order):
        """The table and node voltages of the BANK devices in the given
        order, each on its own three slots with its source at 0 V."""
        table, v = [], []
        for name, p, v_gs, v_ds in (BANK[i] for i in order):
            table.append(mos_row(len(v), len(v) + 1, len(v) + 2, p))
            v += (v_ds, v_gs, 0.0)
        return table, v

    def test_bank_covers_every_region(self):
        table, v = self.bank(range(len(BANK)))
        cur, part = mos_bank(table, v)
        for k, (name, _, _, _) in enumerate(BANK):
            i_d, g_m, g_ds = cur[k], part[2 * k], part[2 * k + 1]
            if "cutoff" in name or "v_ov_zero" in name:
                assert (i_d, g_m, g_ds) == (0.0, 0.0, 0.0), name
            elif "v_ds_zero" in name:
                assert i_d == 0.0 and g_m == 0.0 and g_ds > 0.0, name
            else:
                # n-channel current flows into the drain, p-channel out,
                # and a reversed channel flips the direction
                into_drain = name.startswith("n") != ("reversed" in name)
                assert (i_d > 0.0) == into_drain and i_d != 0.0, name
                assert (g_m < 0.0) == ("reversed" in name), name

    def test_each_device_returns_what_it_returns_alone(self):
        """Every order of the bank: all rotations, both directions and
        seeded shuffles, so each device follows devices of every other
        kind; state left over from one device (a sign, a swapped v_ds)
        would show in the next."""
        n = len(BANK)
        alone = [mos_eval(p, v_gs, v_ds) for _, p, v_gs, v_ds in BANK]
        rng = np.random.default_rng(7)
        orders = [list(range(r, n)) + list(range(r)) for r in range(n)]
        orders += [order[::-1] for order in orders]
        orders += [list(rng.permutation(n)) for _ in range(20)]
        for order in orders:
            cur, part = mos_bank(*self.bank(order))
            assert len(cur) == n and len(part) == 2 * n
            for k, i in enumerate(order):
                assert (cur[k], part[2 * k], part[2 * k + 1]) == alone[i], \
                    BANK[i][0]

    def test_shared_terminals_read_the_same_voltages(self):
        """Rows that share slots, as an inverter's devices do, each read
        the slots they name."""
        v = [0.55, 0.3, 0.0, 0.8, -0.1]
        rows = [(0, 1, 2, NMOS), (0, 1, 3, PMOS), (1, 4, 0, N2),
                (2, 2, 1, P2)]
        cur, part = mos_bank([mos_row(*r) for r in rows], v)
        for k, (d, g, s, p) in enumerate(rows):
            assert (cur[k], *part[2 * k:2 * k + 2]) == mos_eval(
                p, v[g] - v[s], v[d] - v[s])

    def test_polarity_sign_and_threshold_magnitude(self):
        assert mos_row(3, 1, -1, P2) == (3, 1, -1, -1.0, 0.4, 0.05, 0.2)
        assert mos_row(0, 2, 4, N2)[3:5] == (1.0, 0.25)
        assert mos_bank([], [0.0]) == ([], [])


class TestVaractor:
    VAR = VaractorModel(c_min=2.1e-12, c_max=6.3e-12, v_lo=0.1, v_hi=0.7)

    def test_endpoints_exact(self):
        assert varactor_eval(self.VAR, 0.1)[0] == 2.1e-12
        assert varactor_eval(self.VAR, 0.7)[0] == 6.3e-12

    def test_clamps_outside_range(self):
        assert varactor_eval(self.VAR, -1.0)[0] == 2.1e-12
        assert varactor_eval(self.VAR, 2.0)[0] == 6.3e-12

    def test_midpoint_is_mean(self):
        assert math.isclose(varactor_eval(self.VAR, 0.4)[0], 4.2e-12,
                            rel_tol=1e-12)

    def test_monotone_increasing(self):
        grid = np.linspace(0.1, 0.7, 101)
        caps = [varactor_eval(self.VAR, v)[0] for v in grid]
        assert all(b > a for a, b in zip(caps, caps[1:]))

    def test_slope_matches_finite_difference(self):
        h = 1e-6
        for v in (0.15, 0.3, 0.4, 0.55, 0.65):
            fd = (varactor_eval(self.VAR, v + h)[0]
                  - varactor_eval(self.VAR, v - h)[0]) / (2 * h)
            assert math.isclose(varactor_eval(self.VAR, v)[1], fd,
                                rel_tol=1e-6)

    def test_slope_zero_where_clamped(self):
        assert varactor_eval(self.VAR, 0.0)[1] == 0.0
        assert varactor_eval(self.VAR, 0.9)[1] == 0.0

    def test_bank_gives_each_charge_and_its_partials(self):
        """Rows (a, b, cp, cn, model), sharing slots: each charge is
        C(v_cp - v_cn) (v_a - v_b), with partials (C, v_ab dC/dv)."""
        other = VaractorModel(c_min=1e-12, c_max=3e-12, v_lo=0.0, v_hi=0.7)
        v = [0.55, -0.2, 0.3, 0.0]
        rows = [(0, 1, 2, 3, self.VAR), (1, 3, 0, 2, other),
                (0, 3, 3, 3, self.VAR)]
        charge, part = varactor_bank(rows, v)
        assert len(charge) == 3 and len(part) == 6
        for k, (a, b, cp, cn, model) in enumerate(rows):
            c, dc_dv = varactor_eval(model, v[cp] - v[cn])
            v_sig = v[a] - v[b]
            assert (charge[k], *part[2 * k:2 * k + 2]) == (
                c * v_sig, c, v_sig * dc_dv)
        assert part[3] != 0.0  # the second row sits inside its control range
        assert varactor_bank([], [0.0]) == ([], [])

    @pytest.mark.parametrize("kwargs", [
        dict(c_min=0.0, c_max=6.3e-12, v_lo=0.1, v_hi=0.7),
        dict(c_min=6.3e-12, c_max=2.1e-12, v_lo=0.1, v_hi=0.7),
        dict(c_min=2.1e-12, c_max=6.3e-12, v_lo=0.7, v_hi=0.1),
        dict(c_min=2.1e-12, c_max=6.3e-12, v_lo=0.1, v_hi=0.7, shape=0.0),
    ])
    def test_rejects_bad_model(self, kwargs):
        with pytest.raises(InvalidModelError):
            VaractorModel(**kwargs)


class TestTuningArray:
    def test_rejects_unknown_code(self):
        with pytest.raises(InvalidModelError, match="code"):
            TuningArray(c_unit=2e-12, code="12")

    def test_rejects_nonpositive_unit(self):
        with pytest.raises(InvalidModelError, match="c_unit"):
            TuningArray(c_unit=0.0)


class TestCoupledInductorMatrix:
    def test_primary_secondary_mutual_spot_value(self):
        """M_ps = k sqrt(L_p L_s) = 0.52 * sqrt(3n * 0.4n) = 0.5696 nH."""
        m = coupled_inductor_matrix(reference_transformer())
        assert math.isclose(m[0][1], 5.696315e-10, rel_tol=1e-6)

    def test_dot_signs_applied(self):
        m = coupled_inductor_matrix(reference_transformer())
        assert m[0][1] > 0.0
        assert m[0][2] == -m[0][1]
        assert m[1][2] < 0.0
        assert math.isclose(m[1][2], -0.15 * 0.4e-9, rel_tol=1e-12)

    def test_diagonal_is_self_inductance(self):
        m = coupled_inductor_matrix(reference_transformer())
        assert m[0][0] == 3e-9
        assert m[1][1] == 0.4e-9
        assert m[2][2] == 0.4e-9

    def test_series_resistance_uses_ac_values(self):
        net = build_netlist("tc-qvco", TopologyParams(
            transformer=reference_transformer()))
        sets = [e for e in net.elements if isinstance(e, CoupledInductors)]
        assert len(sets) == 2
        for s in sets:
            assert s.series_r == (1.4, 0.35, 0.35)

    def test_matrix_symmetric(self):
        m = coupled_inductor_matrix(reference_transformer())
        for i in range(3):
            for j in range(3):
                assert m[i][j] == m[j][i]

    def test_zero_coupling_gives_diagonal_matrix(self):
        m = coupled_inductor_matrix(
            reference_transformer(k_ps1=0.0, k_ps2=0.0, k_ss=0.0))
        off = [m[i][j] for i in range(3) for j in range(3) if i != j]
        assert all(v == 0.0 for v in off)

    def test_rejects_overcoupled_set(self):
        """k_ps = 0.9 on both secondaries with k_ss = 0.15 is not a
        realizable triple: the coupling matrix loses positive definiteness."""
        with pytest.raises(InvalidModelError, match="positive definite"):
            build_netlist("tc-qvco", TopologyParams(
                transformer=reference_transformer(k_ps1=0.9, k_ps2=0.9)))

    def test_magnetic_energy_nonnegative(self):
        m = np.array(coupled_inductor_matrix(reference_transformer()))
        rng = np.random.default_rng(3)
        for currents in rng.normal(size=(200, 3)):
            assert float(currents @ m @ currents) >= 0.0

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(InvalidModelError, match="symmetric"):
            check_coupled_set(3, ((3e-9, 1e-10, 0.0),
                                  (2e-10, 0.4e-9, 0.0),
                                  (0.0, 0.0, 0.4e-9)), (1.0, 0.1, 0.1))

    def test_rejects_negative_series_resistance(self):
        m = coupled_inductor_matrix(reference_transformer())
        with pytest.raises(InvalidModelError, match="series"):
            check_coupled_set(3, m, (1.0, -0.1, 0.1))

    def test_default_dot_signs_are_symmetric(self):
        """One sign per winding gives a symmetric sign table, d_i d_j: the
        default's and the wrong-dot control's are these 3x3 tables."""
        tables = {DEFAULT_DOT_SIGNS: ((1, 1, -1), (1, 1, -1), (-1, -1, 1)),
                  FLIPPED: ((1, -1, 1), (-1, 1, -1), (1, -1, 1))}
        for dots, table in tables.items():
            assert tuple(tuple(di * dj for dj in dots) for di in dots) == table

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("committed", [False, True])
    def test_matches_elementwise_formula(self, flip, committed, toroidal_model):
        """The signed matrix is s_ij k_ij sqrt(L_i L_j), entry for entry."""
        x = toroidal_model if committed else reference_transformer()
        signs = FLIPPED if flip else DEFAULT_DOT_SIGNS
        l = (x.l_p, x.l_s1, x.l_s2)
        k = ((1.0, x.k_ps1, x.k_ps2),
             (x.k_ps1, 1.0, x.k_ss),
             (x.k_ps2, x.k_ss, 1.0))
        expected = tuple(
            tuple(signs[i] * signs[j] * k[i][j] * math.sqrt(l[i] * l[j])
                  for j in range(3))
            for i in range(3))
        assert coupled_inductor_matrix(x, signs) == expected

    def test_tc_qvco_winds_both_transformers_alike(self):
        x = reference_transformer()
        net = build_netlist("tc-qvco", TopologyParams(transformer=x))
        sets = {e.label: e.matrix for e in net.elements
                if isinstance(e, CoupledInductors)}
        assert sets["xfmr_a"] == sets["xfmr_b"] == coupled_inductor_matrix(x)

    def test_tf_vco_uses_inverted_leading_block(self):
        x = reference_transformer()
        net = build_netlist("tf-vco", TopologyParams(transformer=x,
                                                     c_tank_f=2e-12))
        m = x.inductance_matrix()
        expected = ((m[0][0], -m[0][1]), (-m[1][0], m[1][1]))
        sets = [e for e in net.elements if isinstance(e, CoupledInductors)]
        assert len(sets) == 2
        assert all(e.matrix == expected for e in sets)


def _validate_set(matrix, series_r):
    check_coupled_set(3, matrix, series_r)


def _add_to_netlist(matrix, series_r):
    Netlist().add_coupled_inductors(
        [("p1", "p2"), ("a", "gnd"), ("b", "gnd")], matrix, series_r)


class TestCoupledSetCheck:
    GOOD = ((3e-9, 0.5e-9, 0.0), (0.5e-9, 0.4e-9, 0.0), (0.0, 0.0, 0.4e-9))
    CASES = {
        "asymmetric": (((3e-9, 1e-10, 0.0), (2e-10, 0.4e-9, 0.0),
                        (0.0, 0.0, 0.4e-9)), (1.0, 0.1, 0.1),
                       "inductance matrix must be symmetric"),
        "not_positive_definite": (((1e-9, 2e-9, 0.0), (2e-9, 1e-9, 0.0),
                                   (0.0, 0.0, 1e-9)), (1.0, 0.1, 0.1),
                                  "inductance matrix is not positive "
                                  "definite (over-coupled)"),
        "negative_series_r": (GOOD, (1.0, -0.1, 0.1),
                              "coupled set field series_r[1] must be "
                              "non-negative"),
        "short_series_r": (GOOD, (1.0, 0.1),
                           "coupled set needs one series R per winding"),
        "wrong_shape": (((3e-9, 0.0), (0.0, 0.4e-9)), (1.0, 0.1, 0.1),
                        "coupled set with 3 windings needs a 3x3 matrix"),
        "ragged_rows": (((3e-9, 0.0, 0.0), (0.0, 0.4e-9), (0.0, 0.0, 0.4e-9)),
                        (1.0, 0.1, 0.1),
                        "coupled set with 3 windings needs a 3x3 matrix"),
    }

    @pytest.mark.parametrize("entry", [_validate_set, _add_to_netlist])
    def test_accepts_valid_set(self, entry):
        entry(self.GOOD, (1.0, 0.1, 0.1))

    @pytest.mark.parametrize("entry", [_validate_set, _add_to_netlist])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejects_with_same_message(self, entry, case):
        matrix, series_r, message = self.CASES[case]
        with pytest.raises(InvalidModelError) as info:
            entry(matrix, series_r)
        assert str(info.value) == message


class TestBufferParams:
    def test_defaults_validate(self):
        assert BufferParams().nmos.polarity == "n"

    def test_pmos_is_scaled_mirror(self):
        b = BufferParams(p_to_n_ratio=2.5)
        p = b.pmos()
        assert p.polarity == "p"
        assert math.isclose(p.k_factor, 2.5 * b.nmos.k_factor, rel_tol=1e-12)
        assert p.v_th == -b.nmos.v_th
        assert p.lam == b.nmos.lam

    def test_rejects_p_channel_nmos(self):
        # mirrored by pmos(), a p-channel nmos would leave the inverter
        # with two pull-ups and no pull-down
        with pytest.raises(InvalidModelError, match="n-channel"):
            BufferParams(nmos=PMOS)

    def test_rejects_weak_pullup(self):
        with pytest.raises(InvalidModelError, match="pull-up"):
            BufferParams(p_to_n_ratio=1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(c_couple=0.0),
        dict(r_feedback=-1.0),
    ])
    def test_rejects_bad_passives(self, kwargs):
        with pytest.raises(InvalidModelError):
            BufferParams(**kwargs)
