"""Parity checks, diagonal readout, and the seeded random source."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconc import (
    Dof,
    DofAmplitudes,
    FullState,
    GhzForm,
    ParityOutcome,
    RandomSource,
    ghz_to_full,
    measure_diagonal,
    parity_branch,
    parity_measure,
    tensor,
)
from hyperconc.measurement import (
    DIAGONAL_OUTCOMES,
    MIN_BRANCH_PROBABILITY,
    _certain_odds,
    _even_mask,
    diagonal_components,
)
from hyperconc.states import flip_copy, maximal_ghz


def joint_state(alpha_sq=0.8, delta_sq=0.6, n=2):
    pol = DofAmplitudes.from_first_probability(alpha_sq)
    spa = DofAmplitudes.from_first_probability(delta_sq)
    working = GhzForm(n, pol, spa)
    return tensor(ghz_to_full(working), ghz_to_full(flip_copy(GhzForm(1, pol, spa))))


def diagonal_probs(state, photon):
    """Outcome probabilities of a diagonal readout: squared component norms."""
    comps = diagonal_components(state, photon)
    return np.sum(comps.real**2 + comps.imag**2, axis=(0, 1))


def random_state(rng, n):
    amps = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
    return FullState(n, amps)


class TestParity:
    def test_even_probability_of_working_and_ancilla(self):
        # pol parity of (photon 0, ancilla): even mass is 2*a*b for the
        # swapped-pair ancilla construction.
        joint = joint_state(0.8, 0.6)
        p_even, post = parity_branch(joint, 0, 2, Dof.POLARIZATION, ParityOutcome.EVEN)
        assert p_even == pytest.approx(2 * 0.8 * 0.2)
        p_odd, _ = parity_branch(joint, 0, 2, Dof.POLARIZATION, ParityOutcome.ODD)
        assert p_even + p_odd == pytest.approx(1.0)
        assert np.linalg.norm(post.amplitudes) == pytest.approx(1.0)

    def test_nondestructive(self):
        joint = joint_state()
        _, post = parity_branch(joint, 0, 2, Dof.SPATIAL, ParityOutcome.ODD)
        assert post.n_photons == joint.n_photons

    def test_impossible_branch_returns_none(self):
        s = ghz_to_full(GhzForm(2, DofAmplitudes(1, 0), DofAmplitudes(1, 0)))
        p, post = parity_branch(s, 0, 1, Dof.POLARIZATION, ParityOutcome.ODD)
        assert p == 0.0 and post is None

    def test_same_photon_rejected(self):
        with pytest.raises(ValueError):
            parity_branch(joint_state(), 1, 1, Dof.SPATIAL, ParityOutcome.EVEN)

    def test_checks_commute_on_ghz_joint(self):
        joint = joint_state(0.7, 0.3)
        for pol_out in ParityOutcome:
            for spa_out in ParityOutcome:
                p1, s1 = parity_branch(joint, 0, 2, Dof.POLARIZATION, pol_out)
                p1b, s1b = parity_branch(s1, 0, 2, Dof.SPATIAL, spa_out)
                p2, s2 = parity_branch(joint, 0, 2, Dof.SPATIAL, spa_out)
                p2b, s2b = parity_branch(s2, 0, 2, Dof.POLARIZATION, pol_out)
                assert p1 * p1b == pytest.approx(p2 * p2b, abs=1e-14)
                assert np.allclose(s1b.amplitudes, s2b.amplitudes, atol=1e-14)

    def test_parity_measure_matches_branch(self):
        joint = joint_state()
        outcome, post = parity_measure(joint, 0, 2, Dof.POLARIZATION, RandomSource(5))
        _, want = parity_branch(joint, 0, 2, Dof.POLARIZATION, outcome)
        assert np.allclose(post.amplitudes, want.amplitudes)

    def test_arguments_must_be_enum_members(self):
        # a string is rejected, not read as the other enum member
        joint = joint_state()
        with pytest.raises(ValueError, match="ParityOutcome"):
            parity_branch(joint, 0, 2, Dof.POLARIZATION, "even")
        with pytest.raises(ValueError, match="Dof"):
            parity_branch(joint, 0, 2, "spatial", ParityOutcome.EVEN)


class TestCertainty:
    """One certainty rule: a check's odds, snapped to exactly 0 or 1 when
    the rival outcome is below ``MIN_BRANCH_PROBABILITY``."""

    @pytest.mark.parametrize("p_even, want", [
        (0.0, 0.0),
        (1e-15, 0.0),
        (MIN_BRANCH_PROBABILITY, MIN_BRANCH_PROBABILITY),  # uncertain
        (0.5, 0.5),
        (1.0 - 1e-15, 1.0),
        (1.0, 1.0),
        (1.0 + 2e-16, 1.0),
    ])
    def test_certain_odds(self, p_even, want):
        assert _certain_odds(p_even) == want

    @pytest.mark.parametrize("state, dof, want, draws", [
        (joint_state(1.0, 0.6), Dof.POLARIZATION, ParityOutcome.ODD, 0),
        (joint_state(0.8, 0.0), Dof.SPATIAL, ParityOutcome.ODD, 0),
        (ghz_to_full(GhzForm(3, DofAmplitudes(1, 0), DofAmplitudes(0, 1))),
         Dof.POLARIZATION, ParityOutcome.EVEN, 0),
        (joint_state(), Dof.POLARIZATION, None, 1),
        (joint_state(), Dof.SPATIAL, None, 1),
    ], ids=["odd", "odd-spatial", "even", "uncertain", "uncertain-spatial"])
    def test_parity_measure_draws_only_when_uncertain(self, state, dof, want, draws):
        """A certain check leaves the source where it was; an uncertain one
        consumes exactly one uniform."""
        for seed in range(5):
            rng, fresh = RandomSource(seed), RandomSource(seed)
            outcome, _ = parity_measure(state, 0, 2, dof, rng)
            assert want in (None, outcome)
            fresh.uniforms(draws)
            assert rng.uniform() == fresh.uniform(), seed


class TestEvenMask:
    """The parity checks' mask of equal bits, built from the index bits."""

    def test_equals_the_per_bit_masks(self):
        for n in range(1, 7):
            idx = np.arange(4**n)
            for si in range(2 * n):
                for sj in range(2 * n):
                    want = (idx >> si) & 1 == (idx >> sj) & 1
                    assert np.array_equal(_even_mask(n, si, sj), want), (n, si, sj)


class TestDiagonal:
    def test_component_probabilities_sum_to_one(self):
        probs = diagonal_probs(joint_state(), 2)
        assert probs.shape == (4,)
        assert float(np.sum(probs)) == pytest.approx(1.0)

    def test_branch_removes_photon_and_matches_components(self):
        joint = joint_state()
        comps = diagonal_components(joint, 2)
        assert comps.shape == (4**2, 1, 4)  # photons 0-1 left of the read photon
        for k, p in enumerate(diagonal_probs(joint, 2)):
            post = comps[:, :, k].flatten()
            assert post.shape == (4 ** (joint.n_photons - 1),)
            assert np.linalg.norm(post) ** 2 == pytest.approx(p)

    def test_balanced_photon_reads_plus_plus(self):
        # A product photon balanced in both degrees of freedom IS |+,+>.
        joint = tensor(ghz_to_full(maximal_ghz(2)), ghz_to_full(maximal_ghz(1)))
        assert diagonal_probs(joint, 2) == pytest.approx([1.0, 0.0, 0.0, 0.0])

    def test_computational_photon_reads_uniformly(self):
        # |H,u> overlaps every diagonal state with amplitude 1/2.
        fixed = GhzForm(1, DofAmplitudes(1, 0), DofAmplitudes(1, 0))
        joint = tensor(ghz_to_full(maximal_ghz(2)), ghz_to_full(fixed))
        assert diagonal_probs(joint, 2) == pytest.approx([0.25] * 4)

    def test_last_photon_cannot_be_removed(self):
        s = ghz_to_full(maximal_ghz(1))
        with pytest.raises(ValueError):
            diagonal_components(s, 0)

    def test_measure_diagonal_matches_branch(self):
        joint = joint_state(0.3, 0.9)
        outcome, post = measure_diagonal(joint, 2, RandomSource(11))
        k = DIAGONAL_OUTCOMES.index(outcome)
        want = diagonal_components(joint, 2)[:, :, k].flatten()
        assert post.n_photons == joint.n_photons - 1
        assert np.allclose(post.amplitudes, want / np.linalg.norm(want))

    def test_outcome_labels(self):
        assert [o.label() for o in DIAGONAL_OUTCOMES] == ["++", "+-", "-+", "--"]


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42).uniforms(16)
        b = RandomSource(42).uniforms(16)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert RandomSource(1).uniform() != RandomSource(2).uniform()

    def test_derived_streams_reproducible_and_distinct(self):
        master = RandomSource(7)
        c3 = master.derive(3).uniforms(8)
        again = RandomSource(7).derive(3).uniforms(8)
        assert np.array_equal(c3, again)
        assert not np.array_equal(c3, RandomSource(7).derive(4).uniforms(8))

    def test_derivation_nests(self):
        x = RandomSource(7).derive(1).derive(2).uniform()
        y = RandomSource(7).derive(1).derive(2).uniform()
        assert x == y


# Seeds of one to five uint32 words, at the word boundaries.
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3)
# The first index, the last of a default sampler block, the last one allowed.
EDGE_INDICES = (0, 4095, 2**32 - 1)


def assert_rows_match(source, start, rows, got, skip=0):
    """Row i of ``got`` is the doubles ``skip`` onward of child ``start + rows[i]``."""
    for i, r in enumerate(rows):
        want = source.derive(start + int(r)).uniforms(skip + got.shape[1])[skip:]
        assert got[i].tobytes() == want.tobytes(), (start, r)


class TestDeriveBlock:
    """``derive_block`` draws each child's own Generator doubles, bit for bit."""

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("path", [(), (2**40 + 1, 3)])
    def test_edge_seeds_and_indices(self, seed, path):
        source = RandomSource(seed, path)
        for t in EDGE_INDICES:
            block = source.derive_block(t, 1)
            assert_rows_match(source, t, [0], block.uniforms(5))
        block = source.derive_block(4090, 10)
        assert_rows_match(source, 4090, range(10), block.uniforms(3))

    @given(
        seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**160)),
        path=st.lists(st.integers(0, 2**40), max_size=2).map(tuple),
        start=st.one_of(st.sampled_from(EDGE_INDICES), st.integers(0, 2**32 - 1)),
        count=st.integers(1, 9),
        w1=st.integers(0, 7),
        w2=st.integers(1, 7),
        mask=st.integers(1, 2**9 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_draws_and_subset_refills(self, seed, path, start, count, w1, w2, mask):
        count = min(count, 2**32 - start)
        source = RandomSource(seed, path)
        block = source.derive_block(start, count)
        first = block.uniforms(w1)
        assert first.shape == (count, w1)
        assert_rows_match(source, start, range(count), first)
        # A draw of some rows continues exactly where each of them stopped,
        # and the rows left out keep their place.
        subset = [r for r in range(count) if mask >> r & 1] or [0]
        rest = [r for r in range(count) if r not in subset]
        for rows in (subset, rest):
            got = block.uniforms(w2, np.array(rows, dtype=np.intp))
            assert_rows_match(source, start, rows, got, skip=w1)
        assert_rows_match(source, start, range(count), block.uniforms(w2), skip=w1 + w2)

    @pytest.mark.parametrize("start, count", [(-1, 2), (0, 0), (2**32 - 1, 2), (2**32, 1)])
    def test_indices_outside_one_spawn_word_rejected(self, start, count):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            RandomSource(1).derive_block(start, count)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 4))
def test_parity_branch_total_mass_property(seed, n):
    rng = np.random.default_rng(seed)
    s = random_state(rng, n)
    i, j = rng.choice(n, size=2, replace=False)
    for dof in Dof:
        total = 0.0
        for outcome in ParityOutcome:
            p, post = parity_branch(s, int(i), int(j), dof, outcome)
            total += p
            if post is not None:
                assert np.linalg.norm(post.amplitudes) == pytest.approx(1.0)
        assert total == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 4))
def test_diagonal_branch_total_mass_property(seed, n):
    rng = np.random.default_rng(seed)
    s = random_state(rng, n)
    photon = int(rng.integers(n))
    total = float(np.sum(diagonal_probs(s, photon)))
    assert total == pytest.approx(1.0, abs=1e-12)
