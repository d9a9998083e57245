"""Exhaustive enumeration, the exact iteration tree, and the MC estimator.

These are the reference implementations the analytics module is checked
against, so the tests here freeze their raw numbers independently.
"""

import functools
import math

import numpy as np
import pytest

from hyperconc import BranchClass, DofAmplitudes, GhzForm, oracle, protocol, sampling, states
from hyperconc.analytics import (
    grid_axis,
    initial_distribution,
    markov_evolve,
    pool_expected_yield,
    round1_probabilities,
    round_success_unrolled,
    total_success,
)
from hyperconc.oracle import enumerate_scheme, exact_iteration_tree
from hyperconc.sampling import mc_estimate
from hyperconc.states import flip_copy

FROZEN_ROUND1 = {
    BranchClass.EE: 0.1536,
    BranchClass.EO: 0.1664,
    BranchClass.OE: 0.3264,
    BranchClass.OO: 0.3536,
}


class TestEnumeration:
    @pytest.mark.parametrize("scheme", ["a", "b"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_total_mass_is_one(self, scheme, n):
        tree = enumerate_scheme(scheme, n, 0.8, 0.6)
        assert tree.total_mass() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scheme", ["a", "b"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_frozen_class_masses(self, scheme, n):
        tree = enumerate_scheme(scheme, n, 0.8, 0.6)
        for branch, want in FROZEN_ROUND1.items():
            assert tree.class_mass(branch) == pytest.approx(want, abs=1e-12)

    def test_schemes_agree_leafwise_masses(self):
        a = enumerate_scheme("a", 3, 0.37, 0.81)
        b = enumerate_scheme("b", 3, 0.37, 0.81)
        for branch in BranchClass:
            assert a.class_mass(branch) == pytest.approx(b.class_mass(branch), abs=1e-12)
        for branch in (BranchClass.EO, BranchClass.OE, BranchClass.OO):
            assert a.residual_coefficients(branch) == pytest.approx(
                b.residual_coefficients(branch), abs=1e-12
            )

    def test_balanced_two_copy_leaves_all_equal(self):
        # 2-photon balanced input: every class carries mass 1/4 and the ee
        # class splits into 16 equally likely records
        tree = enumerate_scheme("b", 2, 0.5, 0.5)
        for branch in BranchClass:
            assert tree.class_mass(branch) == pytest.approx(0.25, abs=1e-12)
        ee = [leaf for leaf in tree.leaves if leaf.branch is BranchClass.EE]
        assert len(ee) == 16
        for leaf in ee:
            assert leaf.probability == pytest.approx(0.25 / 16.0, abs=1e-12)
            assert leaf.succeeded

    def test_degenerate_polarization_kills_ee(self):
        tree = enumerate_scheme("a", 2, 1.0, 0.6)
        assert tree.class_mass(BranchClass.EE) == pytest.approx(0.0, abs=1e-12)
        assert tree.success_probability() == pytest.approx(0.0, abs=1e-12)

    def test_frozen_residual_coefficients(self):
        tree = enumerate_scheme("a", 2, 0.8, 0.6)
        pol, spa = tree.residual_coefficients(BranchClass.OO)
        assert pol == pytest.approx(16.0 / 17.0, abs=1e-12)
        assert spa == pytest.approx(9.0 / 13.0, abs=1e-12)
        pol, spa = tree.residual_coefficients(BranchClass.EO)
        assert pol == pytest.approx(0.5, abs=1e-12)
        assert spa == pytest.approx(9.0 / 13.0, abs=1e-12)

    def test_ee_has_no_residual(self):
        tree = enumerate_scheme("a", 2, 0.8, 0.6)
        with pytest.raises(ValueError):
            tree.residual_coefficients(BranchClass.EE)

    def test_every_success_leaf_is_ee_and_corrected(self):
        from hyperconc.states import full_to_ghz, is_maximal

        tree = enumerate_scheme("b", 2, 0.8, 0.6)
        for leaf in tree.leaves:
            if leaf.succeeded:
                assert leaf.branch is BranchClass.EE
                assert is_maximal(full_to_ghz(leaf.state))

    def test_sequence_labels_recorded(self):
        tree = enumerate_scheme("a", 2, 0.8, 0.6)
        leaf = tree.leaves[0]
        # parity prefix then one diagonal label per resource photon
        assert leaf.sequence[0] in ("pol_even", "pol_odd")
        assert leaf.sequence[1] in ("spa_even", "spa_odd")
        assert all(lbl in ("++", "+-", "-+", "--") for lbl in leaf.sequence[2:])

    def test_photon_cap(self, monkeypatch):
        # (a, 9) and (b, 5) reach the cap of 10 photons and are enumerated
        # (see TestAtThePhotonCap); one photon more is refused by the size
        # rule before any dense vector is built.
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} used before the photon cap check")

        monkeypatch.setattr(oracle, "np", NoNumpy())
        monkeypatch.setattr(states, "np", NoNumpy())
        for scheme, n, total in [("a", 10, 11), ("b", 6, 12)]:
            message = rf"scheme {scheme} with n={n} simulates {total} photons, over the cap of 10"
            with pytest.raises(ValueError, match=message):
                enumerate_scheme(scheme, n, 0.8, 0.6)

    def test_scheme_and_size_validated(self):
        with pytest.raises(ValueError):
            enumerate_scheme("c", 2, 0.8, 0.6)
        with pytest.raises(ValueError):
            enumerate_scheme("a", 1, 0.8, 0.6)


# The largest working states the photon cap admits: 10 photons each.
AT_CAP = [("a", 9), ("b", 5)]
CAP_INTERIOR = [(0.8, 0.6), (0.3, 0.9)]
# Degenerate and near-balanced coefficients, and CI's forced point, where
# the spatial check is certain after one polarization outcome only.
CAP_EDGES = [(1e-12, 0.5), (0.999, 0.001), (0.3, 5.0000000000000244e-15)]


@functools.lru_cache(maxsize=None)
def round1_at_cap(scheme, n, a, d):
    """A 10-photon tree's class masses and pruned mass.  Only these are
    kept: the leaf states of one tree take 64 MiB."""
    tree = enumerate_scheme(scheme, n, a, d)
    return {branch: tree.class_mass(branch) for branch in BranchClass}, tree.dropped_mass


class TestAtThePhotonCap:
    """Every size ``simulate`` admits is enumerated.  Where the bounds
    below are above rounding, the gap is mass pruned at
    ``MIN_BRANCH_PROBABILITY``, which the tree reports as
    ``dropped_mass``."""

    @pytest.mark.parametrize("a, d", CAP_INTERIOR + CAP_EDGES)
    @pytest.mark.parametrize("scheme, n", AT_CAP)
    def test_round1_class_masses(self, scheme, n, a, d):
        masses, dropped = round1_at_cap(scheme, n, a, d)
        want = round1_probabilities(a, d)
        for branch, mass in masses.items():
            assert abs(mass - getattr(want, branch.value)) <= dropped + 1e-13, branch

    @pytest.mark.parametrize("a, d", CAP_INTERIOR + CAP_EDGES)
    @pytest.mark.parametrize("scheme, n", AT_CAP)
    def test_round1_split_matches_the_samplers_odds(self, scheme, n, a, d):
        masses, dropped = round1_at_cap(scheme, n, a, d)
        g = GhzForm(
            n, DofAmplitudes.from_first_probability(a), DofAmplitudes.from_first_probability(d)
        )
        odds = sampling._round_odds(g, protocol.ancilla(g) if scheme == "a" else flip_copy(g))
        for branch, mass in masses.items():
            e, s = (int(c == "e") for c in branch.value)
            p_pol = odds.p_pol if e else 1.0 - odds.p_pol
            p_spa = odds.p_spa[e] if s else 1.0 - odds.p_spa[e]
            assert abs(mass - p_pol * p_spa) <= dropped + 1e-13, branch

    @pytest.mark.parametrize("a, d", CAP_INTERIOR)
    def test_iteration_tree(self, a, d):
        per_round = exact_iteration_tree("a", 9, a, d, 6)
        for k, got in enumerate(per_round, start=1):
            assert abs(got - round_success_unrolled(k, a, d)) <= 1e-10, k


class TestIterationTree:
    def test_round_one_matches_ee_mass(self):
        per_round = exact_iteration_tree("a", 2, 0.8, 0.6, 1)
        assert per_round == pytest.approx([0.1536], abs=1e-12)

    @pytest.mark.parametrize("scheme", ["a", "b"])
    def test_matches_recursion_on_grid(self, scheme):
        for a in grid_axis(3):
            for c in grid_axis(3):
                per_round = exact_iteration_tree(scheme, 2, float(a), float(c), 4)
                for k, got in enumerate(per_round, start=1):
                    want = round_success_unrolled(k, float(a), float(c))
                    assert got == pytest.approx(want, abs=1e-10)

    def test_balanced_point_has_tail_rounds(self):
        # the boundary case: residuals stay balanced yet only even outcomes
        # settle, so later rounds still collect mass
        per_round = exact_iteration_tree("a", 2, 0.5, 0.5, 5)
        assert per_round == pytest.approx(
            [0.25, 0.3125, 0.203125, 0.11328125, 0.0595703125], abs=1e-12
        )
        assert sum(per_round) == pytest.approx(0.9384765625, abs=1e-12)

    def test_rounds_validated(self):
        with pytest.raises(ValueError):
            exact_iteration_tree("a", 2, 0.8, 0.6, 0)
        with pytest.raises(ValueError):
            exact_iteration_tree("a", 2, 0.8, 0.6, 7)


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        r1 = mc_estimate("a", 2, 0.8, 0.6, 2, 500, seed=7)
        r2 = mc_estimate("a", 2, 0.8, 0.6, 2, 500, seed=7)
        assert r1 == r2
        r3 = mc_estimate("a", 2, 0.8, 0.6, 2, 500, seed=8)
        assert r3.successes != r1.successes or r3.residual_class_counts != r1.residual_class_counts

    def test_counts_are_consistent(self):
        rep = mc_estimate("a", 2, 0.5, 0.5, 3, 2000, seed=1)
        assert sum(rep.per_round_success_counts) == rep.successes
        assert len(rep.per_round_success_counts) == 3
        assert rep.success_rate == pytest.approx(rep.successes / rep.trials, abs=1e-15)
        p = rep.success_rate
        assert rep.standard_error == pytest.approx(
            np.sqrt(p * (1.0 - p) / rep.trials), abs=1e-15
        )
        assert sum(rep.residual_class_counts.values()) == rep.trials - rep.successes

    def test_scheme_a_tracks_analytic_rate(self):
        rep = mc_estimate("a", 3, 0.8, 0.6, 1, 20000, seed=3)
        want = total_success(1, 0.8, 0.6)
        assert abs(rep.success_rate - want) < 4.0 * rep.standard_error

    def test_scheme_b_tracks_pool_yield(self):
        rep = mc_estimate("b", 2, 0.7, 0.7, 3, 20000, seed=4)
        want = pool_expected_yield(3, 0.7, 0.7)
        # pool trials are correlated through pairing; allow a broad band
        assert abs(rep.success_rate - want) < 6.0 * rep.standard_error

    @pytest.mark.parametrize(
        "a, d", [(0.8, 0.6), (0.3, 0.9), (1e-12, 0.5), (0.5, 0.5), (0.999, 0.001)]
    )
    def test_scheme_a_residual_families_track_markov_chain(self, a, d):
        # The traces still unconcentrated after k rounds split over eo/oe/oo
        # as the Markov chain's masses do.
        k, trials = 3, 20000
        rep = mc_estimate("a", 2, a, d, k, trials, seed=11)
        dist = initial_distribution(a, d)
        for j in range(2, k + 1):
            dist = markov_evolve(dist, j, a, d)
        for family in ("eo", "oe", "oo"):
            want = getattr(dist, family)
            got = rep.residual_class_counts.get(family, 0) / trials
            sigma = math.sqrt(max(want * (1.0 - want), 1e-12) / trials)
            assert abs(got - want) <= 4.0 * sigma, (family, got, want)

    def test_residual_families_never_include_ee(self):
        rep = mc_estimate("b", 2, 0.8, 0.6, 2, 3000, seed=5)
        assert "ee" not in rep.residual_class_counts
        assert set(rep.residual_class_counts) <= {"eo", "oe", "oo"}

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            mc_estimate("a", 2, 0.8, 0.6, 1, 0)
