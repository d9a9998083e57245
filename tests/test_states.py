"""State containers, basis layout, the Z correction, and form extraction."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconc import (
    Dof,
    DofAmplitudes,
    FullState,
    GhzForm,
    RandomSource,
    apply_single_photon_gate,
    full_to_ghz,
    ghz_to_full,
    iterate_scheme_a,
    iterate_scheme_b_pool,
    run_scheme_a_round,
    tensor,
)
from hyperconc import states
from hyperconc.oracle import enumerate_scheme, exact_iteration_tree
from hyperconc.sampling import mc_estimate
from hyperconc.states import (
    BALANCED,
    PHOTON_CAP,
    _bit_shift,
    fidelity,
    flip_copy,
    is_maximal,
    maximal_ghz,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
MINUS = DofAmplitudes(INV_SQRT2, -INV_SQRT2)  # balanced, relative sign -1


class NoNumpy:
    """Stands in for ``states.np`` where no array may be allocated yet."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the photon cap check")


def ghz(n, alpha_sq, delta_sq):
    return GhzForm(
        n,
        DofAmplitudes.from_first_probability(alpha_sq),
        DofAmplitudes.from_first_probability(delta_sq),
    )


class TestDofAmplitudes:
    def test_renormalizes_tiny_drift(self):
        eps = 1e-10
        pair = DofAmplitudes(INV_SQRT2 * (1 + eps), INV_SQRT2)
        assert abs(abs(pair.first) ** 2 + abs(pair.second) ** 2 - 1.0) < 1e-15

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            DofAmplitudes(0.9, 0.9)
        with pytest.raises(ValueError):
            DofAmplitudes(0.1, 0.1)

    def test_from_first_probability(self):
        pair = DofAmplitudes.from_first_probability(0.8)
        assert pair.first == pytest.approx(math.sqrt(0.8))
        assert pair.second == pytest.approx(math.sqrt(0.2))
        with pytest.raises(ValueError):
            DofAmplitudes.from_first_probability(1.2)
        with pytest.raises(ValueError):
            DofAmplitudes.from_first_probability(-0.1)

    def test_swapped(self):
        pair = DofAmplitudes.from_first_probability(0.8).swapped()
        assert pair.first_sq() == pytest.approx(0.2)

    def test_complex_amplitudes_allowed(self):
        pair = DofAmplitudes(INV_SQRT2, INV_SQRT2 * 1j)
        assert pair.first_sq() == pytest.approx(0.5)


class TestGhzForm:
    def test_photon_count_validation(self):
        with pytest.raises(ValueError):
            GhzForm(0, BALANCED, BALANCED)

    def test_first_moduli_sq(self):
        assert ghz(3, 0.8, 0.6).first_moduli_sq() == pytest.approx((0.8, 0.6))


class TestPhotonCount:
    """One photon-count rule for every constructor: any integer type but
    ``bool``, stored as an ``int``, with the allowed range in the message."""

    BUILDERS = {
        "GhzForm": lambda n: GhzForm(n, BALANCED, BALANCED).n,
        "FullState": lambda n: FullState(n, np.ones(4 ** int(n))).n_photons,
        "rows": lambda n: FullState._from_rows(n, np.ones((1, 4 ** int(n))))[0].n_photons,
    }

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    @pytest.mark.parametrize("n", [2, np.int64(2), np.uint8(2)], ids=["int", "int64", "uint8"])
    def test_integer_types_accepted_as_int(self, build, n):
        got = build(n)
        assert got == 2 and type(got) is int

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    @pytest.mark.parametrize("n", [True, 2.0, 0, np.int64(0)])
    def test_non_integers_and_bools_rejected(self, build, n):
        with pytest.raises(ValueError, match=r"photon count must be an integer in \[1, "):
            build(n)

    def test_cap_named(self):
        with pytest.raises(ValueError, match=rf"in \[1, {PHOTON_CAP}\], got {PHOTON_CAP + 1}"):
            FullState(np.int64(PHOTON_CAP + 1), np.ones(4))

    def test_entry_points_take_numpy_counts(self):
        report = mc_estimate("a", np.int64(2), 0.8, 0.6, np.int64(3), np.uint16(50), 1)
        assert report == mc_estimate("a", 2, 0.8, 0.6, 3, 50, 1)
        assert (type(report.n), type(report.max_rounds), type(report.trials)) == (int, int, int)
        tree, want = enumerate_scheme("a", np.int64(2), 0.8, 0.6), enumerate_scheme("a", 2, 0.8, 0.6)
        assert (len(tree.leaves), tree.total_mass()) == (len(want.leaves), want.total_mass())
        assert type(tree.n) is int
        got = exact_iteration_tree("b", 2, 0.8, 0.6, np.int64(3))
        assert got == exact_iteration_tree("b", 2, 0.8, 0.6, 3)
        # a bool or a float count is refused by name, not run or crashed on;
        # a round's working state takes the size rule, from 2 photons
        g = ghz(2, 0.8, 0.6)
        for name, low, call in [
            ("photon count", 2, lambda c: enumerate_scheme("a", c, 0.8, 0.6)),
            ("photon count", 2, lambda c: mc_estimate("b", c, 0.8, 0.6, 2, 100)),
            ("max_rounds", 1, lambda c: exact_iteration_tree("a", 2, 0.8, 0.6, c)),
            ("max_rounds", 1, lambda c: mc_estimate("a", 2, 0.8, 0.6, c, 100)),
            ("trials", 1, lambda c: mc_estimate("a", 2, 0.8, 0.6, 2, c)),
            ("max_rounds", 1, lambda c: iterate_scheme_a(g, c, RandomSource(1))),
            ("max_rounds", 1, lambda c: iterate_scheme_b_pool(4, g, c, RandomSource(1))),
            ("count", 1, lambda c: iterate_scheme_b_pool(c, g, 2, RandomSource(1))),
        ]:
            for count in (True, 2.0, np.float64(2.0), 2.5):
                with pytest.raises(ValueError, match=rf"{name} must be an integer in \[{low}, "):
                    call(count)
        # the pool's own floor comes after the count rule
        with pytest.raises(ValueError, match="at least two copies"):
            iterate_scheme_b_pool(np.int64(1), g, 2, RandomSource(1))

    def test_seeds_take_the_count_rule_from_zero(self):
        # a report embeds the seed it sampled, as an int
        report = mc_estimate("a", 2, 0.8, 0.6, 3, 100, np.int64(1))
        assert report == mc_estimate("a", 2, 0.8, 0.6, 3, 100, 1)
        assert type(report.seed) is int
        assert type(RandomSource(np.uint8(0)).seed) is int
        for seed in (True, 1.5, 1.0, -1, np.int64(-1)):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, "):
                RandomSource(seed)
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, "):
                mc_estimate("a", 2, 0.8, 0.6, 3, 100, seed)


class TestFullState:
    def test_normalizes_input(self):
        amps = np.zeros(16, dtype=complex)
        amps[0] = 2.0
        s = FullState(2, amps)
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0)

    def test_amplitudes_read_only(self):
        s = ghz_to_full(maximal_ghz(2))
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0

    def test_rejects_wrong_shape_and_zero_norm(self):
        with pytest.raises(ValueError):
            FullState(2, np.zeros(15, dtype=complex))
        with pytest.raises(ValueError):
            FullState(1, np.zeros(4, dtype=complex))

    def test_photon_cap(self):
        with pytest.raises(ValueError):
            FullState(PHOTON_CAP + 1, np.zeros(4 ** (PHOTON_CAP + 1), dtype=complex))

    def test_cap_checked_before_allocation(self, monkeypatch):
        """A 20-photon form would need 4**20 amplitudes (16 TiB): every
        entry point refuses it with ``ValueError`` before any numpy call of
        ``states`` allocates."""
        big = GhzForm(20, BALANCED, BALANCED)

        monkeypatch.setattr(states, "np", NoNumpy())
        with pytest.raises(ValueError, match=rf"in \[1, {PHOTON_CAP}\], got 20"):
            ghz_to_full(big)
        with pytest.raises(ValueError, match="over the cap of 10"):
            run_scheme_a_round(big, RandomSource(1))
        with pytest.raises(ValueError, match="over the cap of 10"):
            mc_estimate("a", 20, 0.8, 0.6, 1, 10)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FullState(1, [math.nan, 0, 0, 0]), "non-finite norm"),
        (lambda: FullState(1, [math.inf, 0, 0, 0]), "non-finite norm"),
        (lambda: FullState._from_rows(1, np.array([[math.nan, 0, 0, 0]])), "non-finite norm"),
        (lambda: DofAmplitudes(math.nan, 1.0), "not normalized"),
    ],
    ids=["nan", "inf", "nan row", "nan pair"],
)
def test_non_finite_norm_rejected(build, message):
    """Every comparison with a NaN norm is false, so each norm check is
    written to reject it; an infinite norm raises before any division."""
    with pytest.raises(ValueError, match=message):
        build()


class TestAdopt:
    """``FullState._adopt`` takes a fresh vector under ``FullState``'s norm rule."""

    @staticmethod
    def unit_vector(n, seed=0):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=4**n) + 1j * rng.normal(size=4**n)
        return v / np.linalg.norm(v)

    def test_zero_norm_raises(self):
        with pytest.raises(ValueError, match="zero norm"):
            FullState._adopt(2, np.zeros(16, dtype=complex))
        with pytest.raises(ValueError, match="zero norm"):
            FullState._adopt(2, np.full(16, 1e-14, dtype=complex))

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 5e-14, 1.0 - 5e-13, 1.0 + 1e-6, 3.0])
    def test_bytes_equal_fullstate(self, scale):
        v = self.unit_vector(2, seed=3) * scale
        state = FullState._adopt(2, v.copy())
        assert state.n_photons == 2
        assert state.amplitudes.tobytes() == FullState(2, v).amplitudes.tobytes()

    def test_unit_vector_adopted_read_only_without_copy(self):
        v = self.unit_vector(3)
        state = FullState._adopt(3, v)
        assert np.shares_memory(state.amplitudes, v)
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestBasisLayout:
    def test_ghz_to_full_populates_the_four_corners(self):
        g = ghz(2, 0.8, 0.6)
        v = ghz_to_full(g).amplitudes
        a, b = math.sqrt(0.8), math.sqrt(0.2)
        c, d = math.sqrt(0.6), math.sqrt(0.4)
        r = (4**2 - 1) // 3  # 5: digit 1 at both photons
        assert v[0] == pytest.approx(a * c)
        assert v[r] == pytest.approx(b * c)
        assert v[2 * r] == pytest.approx(a * d)
        assert v[3 * r] == pytest.approx(b * d)
        assert np.count_nonzero(v) == 4

    @staticmethod
    def z_sign_pattern(n, photon, dof):
        # Z on a uniform superposition flips the sign of exactly the indices
        # whose (photon, dof) bit is set.
        s = FullState(n, np.ones(4**n, dtype=complex))
        flipped = apply_single_photon_gate(s, photon, dof)
        return np.flatnonzero(flipped.amplitudes.real < 0)

    def test_photon_zero_is_most_significant(self):
        # Photon 0's polarization bit is bit 2 * (n - 1) of an index.
        n = 3
        got = self.z_sign_pattern(n, 0, Dof.POLARIZATION)
        idx = np.arange(4**n)
        assert np.array_equal(got, idx[(idx >> (2 * (n - 1))) & 1 == 1])
        assert got[0] == 1 << (2 * (n - 1))

    def test_spatial_bit_above_pol_bit(self):
        # Photon 1 of 2: polarization bit 0, spatial bit 1.
        idx = np.arange(16)
        assert np.array_equal(self.z_sign_pattern(2, 1, Dof.POLARIZATION), idx[idx & 1 == 1])
        assert np.array_equal(self.z_sign_pattern(2, 1, Dof.SPATIAL), idx[idx & 2 == 2])

    def test_z_flips_the_indices_of_its_bit_everywhere(self):
        for n in range(1, 7):
            idx = np.arange(4**n)
            for k in range(n):
                for dof in Dof:
                    want = idx[(idx >> _bit_shift(n, k, dof)) & 1 == 1]
                    assert np.array_equal(self.z_sign_pattern(n, k, dof), want), (n, k, dof)


class TestGates:
    def test_z_flips_second_branch_sign(self):
        g = maximal_ghz(2)
        s = apply_single_photon_gate(ghz_to_full(g), 0, Dof.POLARIZATION)
        got = full_to_ghz(s)
        assert got.pol.second == pytest.approx(-INV_SQRT2)
        assert got.spa.second == pytest.approx(INV_SQRT2)
        assert not is_maximal(got)

    def test_dof_must_be_a_dof(self):
        # a string must not fall through to polarization
        s = ghz_to_full(maximal_ghz(2))
        with pytest.raises(ValueError, match="Dof"):
            apply_single_photon_gate(s, 0, "spatial")


class TestPreparation:
    def test_maximal_ghz_is_maximal(self):
        assert is_maximal(maximal_ghz(4))
        assert not is_maximal(ghz(4, 0.8, 0.5))
        assert not is_maximal(GhzForm(2, MINUS, BALANCED))
        assert not is_maximal(GhzForm(2, BALANCED, MINUS))

    def test_prepare_partial_ghz(self):
        g = GhzForm(
            3,
            DofAmplitudes.from_first_probability(0.7),
            DofAmplitudes.from_first_probability(0.4),
        )
        assert g.first_moduli_sq() == pytest.approx((0.7, 0.4))

    def test_ancilla_swaps_both_pairs(self):
        # Scheme a's ancilla is the flipped one-photon copy of the working state.
        working = ghz(3, 0.8, 0.6)
        anc = flip_copy(GhzForm(1, working.pol, working.spa))
        assert anc.n == 1
        assert anc.first_moduli_sq() == pytest.approx((0.2, 0.4))

    def test_flip_copy_swaps_and_keeps_signs(self):
        # A negative second amplitude moves with the swap, so the form is
        # exactly the state with every photon bit-flipped.
        g = GhzForm(2, DofAmplitudes(math.sqrt(0.8), -math.sqrt(0.2)), ghz(2, 0.8, 0.6).spa)
        f = flip_copy(g)
        assert f.first_moduli_sq() == pytest.approx((0.2, 0.4))
        assert f.pol.first == pytest.approx(-math.sqrt(0.2))
        flip_all = np.arange(16) ^ 15  # every bit of both photons
        assert np.allclose(ghz_to_full(f).amplitudes, ghz_to_full(g).amplitudes[flip_all])


class TestTensor:
    def test_order_and_cap(self):
        a = ghz_to_full(ghz(2, 1.0, 1.0))
        b = ghz_to_full(ghz(1, 0.0, 1.0))  # photon in V
        joint = tensor(a, b)
        assert joint.n_photons == 3
        assert abs(joint.amplitudes[1]) == pytest.approx(1.0)  # last photon V
        big = ghz_to_full(maximal_ghz(6))
        with pytest.raises(ValueError):
            tensor(big, big)

    def test_bytes_equal_kron(self):
        """The product carries the bytes of np.kron, signed zeros included."""
        rng = np.random.default_rng(3)
        for na, nb in ((1, 1), (2, 1), (3, 2), (4, 1)):
            a, b = (rng.normal(size=(4**m, 2)) @ (1, 1j) for m in (na, nb))
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            a[:3] = (-0.0, complex(0.0, -0.0), complex(-0.0, -0.0))
            b[-2:] = (complex(-0.0, 0.0), complex(0.0, -0.0))
            a, b = FullState(na, a), FullState(nb, b)
            joint = tensor(a, b)
            assert joint.amplitudes.tobytes() == np.kron(a.amplitudes, b.amplitudes).tobytes()

    def test_cap_checked_before_allocation(self, monkeypatch):
        big = ghz_to_full(maximal_ghz(6))

        monkeypatch.setattr(states, "np", NoNumpy())
        with pytest.raises(ValueError, match="exceeds cap of 10"):
            tensor(big, big)


class TestExtraction:
    def test_round_trip_plain(self):
        g = ghz(3, 0.8, 0.6)
        got = full_to_ghz(ghz_to_full(g))
        assert got.first_moduli_sq() == pytest.approx((0.8, 0.6))

    def test_round_trip_with_negative_branch(self):
        g = GhzForm(2, BALANCED, DofAmplitudes(math.sqrt(0.3), -math.sqrt(0.7)))
        got = full_to_ghz(ghz_to_full(g))
        assert fidelity(ghz_to_full(got), ghz_to_full(g)) == pytest.approx(1.0)
        assert got.spa.second == pytest.approx(-math.sqrt(0.7))

    def test_degenerate_pure_branches(self):
        for alpha_sq, delta_sq in ((1.0, 0.6), (0.0, 0.6), (0.8, 1.0), (0.8, 0.0), (1.0, 1.0)):
            for phase in (1.0, -1.0, 1j):  # on every second amplitude
                g = GhzForm(
                    2,
                    DofAmplitudes(math.sqrt(alpha_sq), phase * math.sqrt(1.0 - alpha_sq)),
                    DofAmplitudes(math.sqrt(delta_sq), phase * math.sqrt(1.0 - delta_sq)),
                )
                got = full_to_ghz(ghz_to_full(g))
                assert got.first_moduli_sq() == pytest.approx((alpha_sq, delta_sq), abs=1e-12)
                for pair, first_sq in ((got.pol, alpha_sq), (got.spa, delta_sq)):
                    if first_sq == 0.0:
                        # A vanished first amplitude reads exactly 0.0 and
                        # leaves its partner real and positive.
                        assert pair.first == 0.0
                        assert pair.second.imag == 0.0 and pair.second.real > 0.0

    def test_rejects_state_off_the_corners(self):
        # No amplitude on the four corners: a ValueError, not a division by zero.
        amps = np.zeros(16, dtype=complex)
        amps[1] = amps[6] = 1.0
        with pytest.raises(ValueError, match="corners"):
            full_to_ghz(FullState(2, amps))

    def test_rejects_non_ghz_state(self):
        amps = np.zeros(16, dtype=complex)
        amps[0] = amps[1] = 1.0  # photon 1 superposed alone: not GHZ-like
        with pytest.raises(ValueError):
            full_to_ghz(FullState(2, amps))

    @pytest.mark.parametrize("off, accepted", [(1e-10, True), (1e-8, False)])
    def test_form_tolerance_on_mass_off_the_corners(self, off, accepted):
        # The form is accepted while its fidelity with the state, 1 - off,
        # is at least 1 - 1e-9.
        amps = math.sqrt(1.0 - off) * ghz_to_full(ghz(2, 0.8, 0.6)).amplitudes
        amps[1] = math.sqrt(off)
        if accepted:
            assert full_to_ghz(FullState(2, amps)).first_moduli_sq() == pytest.approx((0.8, 0.6))
        else:
            with pytest.raises(ValueError, match="not a GHZ-like product"):
                full_to_ghz(FullState(2, amps))

    def test_global_phase_is_ignored(self):
        g = ghz(2, 0.8, 0.6)
        v = ghz_to_full(g).amplitudes * np.exp(0.7j)
        got = full_to_ghz(FullState(2, v))
        assert got.first_moduli_sq() == pytest.approx((0.8, 0.6))


class TestFidelity:
    def test_partial_versus_maximal_frozen_value(self):
        # 0.5*(sqrt(.8)+sqrt(.2))^2 * 0.5*(sqrt(.6)+sqrt(.4))^2
        want = 0.9 * (0.5 + math.sqrt(0.24))
        got = fidelity(ghz_to_full(maximal_ghz(2)), ghz_to_full(ghz(2, 0.8, 0.6)))
        assert got == pytest.approx(0.8909081537009721, abs=1e-12)
        assert got == pytest.approx(want, abs=1e-12)

    def test_bounds(self):
        s = ghz_to_full(maximal_ghz(3))
        assert fidelity(s, s) == pytest.approx(1.0)
        t = ghz_to_full(ghz(3, 1.0, 1.0))
        u = ghz_to_full(GhzForm(3, MINUS, BALANCED))
        assert 0.0 <= fidelity(t, u) <= 1.0


# A sign (0 or pi) or any phase.
phases = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, 2.0 * math.pi))


@settings(deadline=None, max_examples=60)
@given(
    alpha_sq=st.floats(0.01, 0.99),
    delta_sq=st.floats(0.01, 0.99),
    phase=st.tuples(phases, phases, phases, phases),
    n=st.integers(1, 4),
)
def test_extraction_round_trip_property(alpha_sq, delta_sq, phase, n):
    # A phase on every pair amplitude puts a phase on every corner amplitude.
    pol_first, pol_second, spa_first, spa_second = (cmath.exp(1j * p) for p in phase)
    g = GhzForm(
        n,
        DofAmplitudes(pol_first * math.sqrt(alpha_sq), pol_second * math.sqrt(1.0 - alpha_sq)),
        DofAmplitudes(spa_first * math.sqrt(delta_sq), spa_second * math.sqrt(1.0 - delta_sq)),
    )
    dense = ghz_to_full(g)
    got = full_to_ghz(dense)
    assert fidelity(ghz_to_full(got), dense) == pytest.approx(1.0, abs=1e-12)
    assert got.first_moduli_sq() == pytest.approx((alpha_sq, delta_sq), abs=1e-9)
    for pair in (got.pol, got.spa):
        assert pair.first.imag == 0.0 and pair.first.real >= 0.0
