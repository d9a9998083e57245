"""Round mechanics, corrections, retry accounting, and the two-copy pool."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconc import (
    BranchClass,
    Dof,
    DofAmplitudes,
    GhzForm,
    ParityOutcome,
    RandomSource,
    ghz_to_full,
    iterate_scheme_a,
    iterate_scheme_b_pool,
    run_scheme_a_round,
    run_scheme_b_round,
)
from hyperconc.measurement import DiagonalOutcome
from hyperconc.protocol import _finish_round, classify_residual, concentrates
from hyperconc.states import fidelity, is_maximal, maximal_ghz


def ghz(n, alpha_sq, delta_sq):
    return GhzForm(
        n,
        DofAmplitudes.from_first_probability(alpha_sq),
        DofAmplitudes.from_first_probability(delta_sq),
    )


def collect_branches(run_one, seeds=range(400)):
    """Sample rounds until all four parity branches have shown up."""
    seen = {}
    for s in seeds:
        res = run_one(RandomSource(s))
        seen.setdefault(res.branch, res)
        if len(seen) == 4:
            break
    return seen


class TestCorrections:
    def test_minus_counts_fold_mod_two(self):
        # A Z on photon 0 in each degree of freedom whose minus count is odd.
        outs = (DiagonalOutcome(-1, 1), DiagonalOutcome(-1, -1), DiagonalOutcome(1, -1))
        state = ghz_to_full(maximal_ghz(2))
        even = ParityOutcome.EVEN

        def corrections(diag):
            return _finish_round(state, even, even, diag).corrections

        pol_z, spa_z = (0, Dof.POLARIZATION), (0, Dof.SPATIAL)
        assert corrections(outs) == ()
        assert corrections(outs[:2]) == (spa_z,)
        assert corrections(outs[:1]) == (pol_z,)
        assert corrections(outs[1:2]) == (pol_z, spa_z)


class TestSchemeARound:
    def test_posts_have_plus_signs_on_every_branch(self):
        # The Z corrections alone must leave real nonnegative coefficients;
        # no further recovery operation is ever needed.
        for alpha_sq, delta_sq in ((0.8, 0.6), (0.3, 0.9), (0.5, 0.7)):
            seen = collect_branches(lambda r, a=alpha_sq, d=delta_sq: run_scheme_a_round(ghz(2, a, d), r))
            assert len(seen) == 4
            for res in seen.values():
                post = res.post
                for x in (post.pol.first, post.pol.second, post.spa.first, post.spa.second):
                    assert complex(x).imag == pytest.approx(0.0, abs=1e-12)
                    assert complex(x).real >= -1e-12

    def test_ee_branch_output_is_maximal(self):
        seen = collect_branches(lambda r: run_scheme_a_round(ghz(3, 0.8, 0.6), r))
        assert seen[BranchClass.EE].succeeded
        assert is_maximal(seen[BranchClass.EE].post)
        assert not seen[BranchClass.OO].succeeded

    def test_balanced_input_succeeds_physically_on_all_branches(self):
        seen = collect_branches(lambda r: run_scheme_a_round(maximal_ghz(2), r))
        assert len(seen) == 4
        for res in seen.values():
            assert res.succeeded
            assert is_maximal(res.post)

    def test_balanced_pol_widens_oe_branch(self):
        seen = collect_branches(lambda r: run_scheme_a_round(ghz(2, 0.5, 0.7), r))
        assert seen[BranchClass.OE].succeeded
        assert not seen[BranchClass.EO].succeeded

    def test_needs_two_photons(self):
        with pytest.raises(ValueError):
            run_scheme_a_round(ghz(1, 0.8, 0.6), RandomSource(0))


class TestSchemeBRound:
    def test_survivor_keeps_n_photons(self):
        g = ghz(2, 0.8, 0.6)
        res = run_scheme_b_round(g, g, RandomSource(1))
        assert res.post.n == 2
        assert len(res.diagonal_outcomes) == 2

    def test_branch_posts_match_residual_families(self):
        g = ghz(2, 0.8, 0.6)
        seen = collect_branches(lambda r: run_scheme_b_round(g, g, r))
        for branch in (BranchClass.EO, BranchClass.OE, BranchClass.OO):
            want = classify_residual(branch, g)
            got = seen[branch].post.first_moduli_sq()
            assert got == pytest.approx(want.first_moduli_sq(), abs=1e-12)

    def test_copies_must_match(self):
        with pytest.raises(ValueError):
            run_scheme_b_round(ghz(2, 0.8, 0.6), ghz(2, 0.7, 0.6), RandomSource(0))
        with pytest.raises(ValueError):
            run_scheme_b_round(ghz(2, 0.8, 0.6), ghz(3, 0.8, 0.6), RandomSource(0))


class TestResidualFamilies:
    def test_frozen_oo_values(self):
        res = classify_residual(BranchClass.OO, ghz(2, 0.8, 0.6))
        pol_sq, spa_sq = res.first_moduli_sq()
        assert pol_sq == pytest.approx(16.0 / 17.0, abs=1e-14)
        assert spa_sq == pytest.approx(9.0 / 13.0, abs=1e-14)

    def test_even_side_balances(self):
        res = classify_residual(BranchClass.EO, ghz(2, 0.8, 0.6))
        pol_sq, spa_sq = res.first_moduli_sq()
        assert pol_sq == pytest.approx(0.5, abs=1e-14)
        assert spa_sq == pytest.approx(9.0 / 13.0, abs=1e-14)

    def test_ee_is_not_a_residual(self):
        with pytest.raises(ValueError):
            classify_residual(BranchClass.EE, ghz(2, 0.8, 0.6))


class TestRetryAccounting:
    def test_rule_table(self):
        """Every settled mask against every branch: each unsettled degree of
        freedom must come out even."""
        for settled in range(4):
            pol_settled, spa_settled = bool(settled & 2), bool(settled & 1)
            for branch in BranchClass:
                pol_even = branch in (BranchClass.EE, BranchClass.EO)
                spa_even = branch in (BranchClass.EE, BranchClass.OE)
                want = (pol_settled or pol_even) and (spa_settled or spa_even)
                assert concentrates(settled, branch) is want, (settled, branch)

    def test_balanced_input_round_one_rate_is_one_quarter(self):
        # the physical round flag is true on every branch, but the retry
        # accounting credits round 1 only on ee
        hits = sum(
            1
            for s in range(2000)
            if iterate_scheme_a(maximal_ghz(2), 1, RandomSource(s)).succeeded
        )
        assert abs(hits / 2000 - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 2000)

    def test_success_round_recorded(self):
        trace = next(
            t
            for s in range(50)
            if (t := iterate_scheme_a(ghz(2, 0.8, 0.6), 4, RandomSource(s))).succeeded
        )
        assert trace.success_round == len(trace.rounds)
        assert trace.rounds[trace.success_round - 1] is trace.rounds[-1]
        assert is_maximal(trace.rounds[-1].post)

    def test_failed_trace_runs_all_rounds(self):
        trace = next(
            t
            for s in range(50)
            if not (t := iterate_scheme_a(ghz(2, 0.9, 0.9), 2, RandomSource(s))).succeeded
        )
        assert len(trace.rounds) == 2 and trace.success_round is None

    def test_max_rounds_validated(self):
        with pytest.raises(ValueError):
            iterate_scheme_a(ghz(2, 0.8, 0.6), 0, RandomSource(0))

    def test_accounted_success_is_physical(self):
        """A trace the retry accounting credits ends on a round that left a
        maximal state, at interior points and on the edges of the square
        (only the near-balanced edges succeed within six rounds)."""
        points = ((0.8, 0.6), (0.3, 0.9), (0.5 - 1e-12, 0.5 + 1e-12), (0.5 + 1e-12, 0.5),
                  (1e-12, 0.5), (0.999, 0.001))
        successes = 0
        for n in (2, 3):
            for a, d in points:
                for s in range(50):
                    trace = iterate_scheme_a(ghz(n, a, d), 6, RandomSource(s))
                    if trace.succeeded:
                        successes += 1
                        last = trace.rounds[trace.success_round - 1]
                        assert last.succeeded and is_maximal(last.post), (n, a, d, s)
        assert successes > 100


class TestPool:
    def test_conservation(self):
        # every attempted pair consumes two states and returns at most one
        report = iterate_scheme_b_pool(201, ghz(2, 0.7, 0.7), 3, RandomSource(3))
        assert report.distilled + report.leftovers == 201 - report.pairs_attempted
        assert report.leftovers == sum(report.leftover_counts.values())
        assert sum(r.attempts for r in report.rounds) == report.pairs_attempted

    def test_odd_leftover_strands(self):
        # 3 copies: one pair attempted in round 1, the odd copy can only pair
        # with another fresh copy, which never appears again
        report = iterate_scheme_b_pool(3, ghz(2, 0.7, 0.7), 1, RandomSource(0))
        assert report.rounds[0].attempts == 1
        assert report.distilled + report.leftovers == 2

    def test_same_family_residuals_merge(self):
        # with enough copies, round-2 attempts happen within merged buckets:
        # residual counts of round 1 exceed round-2 attempts by at most the
        # odd strandings (one per family)
        report = iterate_scheme_b_pool(400, ghz(2, 0.7, 0.7), 2, RandomSource(9))
        failed_r1 = sum(report.rounds[0].residual_counts.values())
        assert report.rounds[1].attempts >= (failed_r1 - 3) // 2

    def test_minimum_pool(self):
        with pytest.raises(ValueError):
            iterate_scheme_b_pool(1, ghz(2, 0.7, 0.7), 1, RandomSource(0))


@settings(deadline=None, max_examples=30)
@given(
    alpha_sq=st.floats(0.05, 0.95),
    delta_sq=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**31),
)
def test_round_posts_always_extractable_property(alpha_sq, delta_sq, seed):
    res = run_scheme_a_round(ghz(2, alpha_sq, delta_sq), RandomSource(seed))
    # extraction succeeded inside the round; the post must rebuild faithfully
    dense = ghz_to_full(res.post)
    assert fidelity(dense, dense) == pytest.approx(1.0)
    if res.branch is BranchClass.EE:
        assert res.succeeded
