"""Closed-form rates, the two success evaluators, grids, and pool yield."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconc import analytics
from hyperconc.analytics import (
    BranchDistribution,
    RoundTable,
    branch_rates,
    coefficient_at_round,
    grid_axis,
    grid_sweep,
    initial_distribution,
    markov_evolve,
    pool_expected_yield,
    round1_probabilities,
    round_success_unrolled,
    squared_renormalized,
    total_success,
)
from hyperconc.errors import ConsistencyError
from hyperconc.sampling import mc_estimate

params = st.floats(0.01, 0.99)

# The edges of the parameter square, where the routes are most likely to
# disagree: both degenerate ends, underflow, and either side of balance.
EDGES = (0.0, 1e-300, 1e-12, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 1.0 - 1e-12, 1.0)


def branch_rates_literal(k: int, alpha_sq: float, delta_sq: float) -> RoundTable:
    """Reference for ``branch_rates`` via literal 2^k-th powers.

    Underflows for extreme inputs, so it cross-checks the squaring
    recursion for small k only.
    """

    def rates(p: float) -> tuple[float, float]:
        # (success, failure) for one degree of freedom with original parameter p.
        hi = float(p) ** (2 ** (k - 1))
        lo = (1.0 - p) ** (2 ** (k - 1))
        s = 2.0 * (p * (1.0 - p)) ** (2 ** (k - 1)) / (hi + lo) ** 2
        f = (p ** (2**k) + (1.0 - p) ** (2**k)) / (hi + lo) ** 2
        return s, f

    eo_s, eo_f = rates(delta_sq)
    oe_s, oe_f = rates(alpha_sq)
    return RoundTable(
        eo_s=eo_s,
        eo_f=eo_f,
        oe_s=oe_s,
        oe_f=oe_f,
        oo_ee=oe_s * eo_s,
        oo_eo=oe_s * eo_f,
        oo_oe=eo_s * oe_f,
        oo_oo=oe_f * eo_f,
    )


class TestRoundOne:
    def test_frozen_split(self):
        p = round1_probabilities(0.8, 0.6)
        assert p.ee == pytest.approx(0.1536, abs=1e-14)
        assert p.eo == pytest.approx(0.1664, abs=1e-14)
        assert p.oe == pytest.approx(0.3264, abs=1e-14)
        assert p.oo == pytest.approx(0.3536, abs=1e-14)

    def test_balanced_point(self):
        p = round1_probabilities(0.5, 0.5)
        assert (p.ee, p.eo, p.oe, p.oo) == (0.25, 0.25, 0.25, 0.25)

    @given(a=params, c=params)
    def test_sums_to_one(self, a, c):
        p = round1_probabilities(a, c)
        assert p.ee + p.eo + p.oe + p.oo == pytest.approx(1.0, abs=1e-12)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            round1_probabilities(-0.1, 0.5)
        with pytest.raises(ValueError):
            round1_probabilities(0.5, 1.5)


class TestCoefficientRecursion:
    def test_one_step(self):
        assert squared_renormalized(0.8) == pytest.approx(16.0 / 17.0, abs=1e-15)
        assert squared_renormalized(0.6) == pytest.approx(9.0 / 13.0, abs=1e-15)

    def test_balanced_fixed_point(self):
        assert squared_renormalized(0.5) == 0.5
        assert coefficient_at_round(0.5, 6) == 0.5

    def test_round_indexing(self):
        assert coefficient_at_round(0.8, 1) == 0.8
        assert coefficient_at_round(0.8, 2) == pytest.approx(16.0 / 17.0, abs=1e-15)
        assert coefficient_at_round(0.8, 3) == pytest.approx(
            squared_renormalized(16.0 / 17.0), abs=1e-15
        )

    def test_extreme_parameter_stays_finite(self):
        # near-degenerate inputs saturate toward 1 without overflow or nan
        v = coefficient_at_round(1.0 - 1e-6, 6)
        assert 0.0 <= v <= 1.0 and np.isfinite(v)
        v = coefficient_at_round(1e-6, 6)
        assert 0.0 <= v <= 1.0 and np.isfinite(v)


class TestRoundRates:
    def test_frozen_round_two(self):
        r = branch_rates(2, 0.8, 0.6)
        assert r.eo_s == pytest.approx(72.0 / 169.0, abs=1e-15)
        assert r.oe_s == pytest.approx(2.0 * (16.0 / 17.0) * (1.0 / 17.0), abs=1e-15)
        assert r.oo_ee == pytest.approx(r.eo_s * r.oe_s, abs=1e-15)

    def test_rows_are_distributions(self):
        for k in range(1, 7):
            r = branch_rates(k, 0.8, 0.6)
            assert r.eo_s + r.eo_f == pytest.approx(1.0, abs=1e-12)
            assert r.oe_s + r.oe_f == pytest.approx(1.0, abs=1e-12)
            assert r.oo_ee + r.oo_eo + r.oo_oe + r.oo_oo == pytest.approx(1.0, abs=1e-12)

    @given(a=params, c=params, k=st.integers(1, 4))
    @settings(max_examples=60)
    def test_literal_product_form_agrees(self, a, c, k):
        fast = branch_rates(k, a, c)
        lit = branch_rates_literal(k, a, c)
        for field in ("eo_s", "eo_f", "oe_s", "oe_f", "oo_ee", "oo_eo", "oo_oe", "oo_oo"):
            assert getattr(fast, field) == pytest.approx(getattr(lit, field), abs=1e-12)

    def test_first_round_is_the_fresh_oo_row(self):
        # A fresh state has settled nothing: round 1 splits as an oo round
        # on the unsquared coefficients, bit for bit.
        axis = np.array(EDGES + (0.1, 0.3, 0.8, 0.999))
        a, d = np.meshgrid(axis, axis, indexing="ij")
        for x, z in [(a, d)] + [(float(x), float(z)) for x, z in zip(a.flat, d.flat)]:
            r, p = branch_rates(1, x, z), round1_probabilities(x, z)
            got = np.array([r.oo_ee, r.oo_eo, r.oo_oe, r.oo_oo])
            assert got.tobytes() == np.array([p.ee, p.eo, p.oe, p.oo]).tobytes(), (x, z)


class TestSuccessEvaluators:
    def test_frozen_unrolled_round_two(self):
        assert round_success_unrolled(2, 0.8, 0.6) == pytest.approx(
            0.12371402714932128, abs=1e-15
        )

    def test_frozen_total_balanced(self):
        # dyadic rational: exact equality expected
        assert total_success(5, 0.5, 0.5) == 0.9384765625

    def test_frozen_balanced_per_round(self):
        per_round = [round_success_unrolled(k, 0.5, 0.5) for k in range(1, 6)]
        assert per_round == [
            0.25,
            0.3125,
            0.203125,
            0.11328125,
            0.0595703125,
        ]
        cumulative = 0.0
        for p_k in per_round:
            cumulative += p_k
        assert cumulative == 0.9384765625

    @given(a=params, c=params, k=st.integers(1, 6))
    @settings(max_examples=60)
    def test_unrolled_matches_markov_step(self, a, c, k):
        dist = initial_distribution(a, c)
        done_prev = 0.0
        for j in range(2, k + 1):
            done_prev = dist.done
            dist = markov_evolve(dist, j, a, c)
        if k == 1:
            gained = dist.done
        else:
            gained = dist.done - done_prev
        assert gained == pytest.approx(round_success_unrolled(k, a, c), abs=1e-12)

    @given(a=params, c=params)
    @settings(max_examples=40)
    def test_monotone_in_rounds(self, a, c):
        vals = [total_success(k, a, c) for k in range(1, 6)]
        assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)

    def test_monotone_in_parameter_up_to_half(self):
        axis = np.linspace(0.05, 0.5, 10)
        vals = [total_success(3, float(a), 0.6) for a in axis]
        assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(vals, vals[1:]))

    def test_rounds_validated(self):
        with pytest.raises(ValueError):
            total_success(0, 0.8, 0.6)


class TestDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BranchDistribution(done=0.5, eo=0.5, oe=0.5, oo=0.5)

    def test_mass_conserved_under_evolution(self):
        dist = initial_distribution(0.8, 0.6)
        for k in range(2, 8):
            dist = markov_evolve(dist, k, 0.8, 0.6)
        assert dist.done + dist.eo + dist.oe + dist.oo == pytest.approx(1.0, abs=1e-9)
        assert dist.done == pytest.approx(total_success(7, 0.8, 0.6), abs=1e-12)


class TestGrid:
    def test_open_interval_axis(self):
        axis = grid_axis(3)
        assert axis == pytest.approx([0.25, 0.5, 0.75])
        assert 0.0 not in axis and 1.0 not in axis

    def test_endpoints_opt_in(self):
        axis = grid_axis(3, include_endpoints=True)
        assert axis == pytest.approx([0.0, 0.5, 1.0])

    def test_odd_resolution_hits_center(self):
        assert 0.5 in grid_axis(5)

    def test_sweep_layout(self):
        rows = grid_sweep(1, 3)
        assert rows.shape == (9, 3)
        # row-major: alpha_sq varies slowest
        assert rows[0, :2] == pytest.approx([0.25, 0.25])
        assert rows[1, :2] == pytest.approx([0.25, 0.5])
        assert rows[3, :2] == pytest.approx([0.5, 0.25])
        for a, c, p in rows:
            b, d = 1.0 - a, 1.0 - c
            assert p == pytest.approx(4.0 * a * b * c * d, abs=1e-14)

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            grid_axis(1)

    @pytest.mark.parametrize("rounds, resolution, endpoints", [(5, 41, False), (20, 21, True)])
    def test_sweep_equals_float_calls_bit_for_bit(self, rounds, resolution, endpoints):
        axis = grid_axis(resolution, endpoints)
        want = np.array(
            [(a, c, total_success(rounds, float(a), float(c))) for a in axis for c in axis]
        )
        assert grid_sweep(rounds, resolution, endpoints).tobytes() == want.tobytes()


class TestArrays:
    """Equal-shape arrays run the float lines elementwise."""

    def test_out_of_range_or_nan_rejected(self):
        good = np.array([0.2, 0.7])
        for bad in (np.array([0.2, 1.5]), np.array([-1e-300, 0.5]), np.array([0.2, np.nan])):
            with pytest.raises(ValueError, match="must lie in"):
                total_success(3, bad, good)
            with pytest.raises(ValueError, match="must lie in"):
                total_success(3, good, bad)

    def test_distribution_checked_at_every_point(self):
        ok = np.array([0.25, 0.25])
        BranchDistribution(done=ok, eo=ok, oe=ok, oo=ok)
        with pytest.raises(ValueError, match="sum to 1"):
            BranchDistribution(done=np.array([0.25, 0.5]), eo=ok, oe=ok, oo=ok)
        with pytest.raises(ValueError, match="sum to 1"):
            BranchDistribution(done=np.array([0.25, np.nan]), eo=ok, oe=ok, oo=ok)

    def test_pool_yield_equals_float_calls(self):
        axis = grid_axis(9, include_endpoints=True)
        a, d = np.meshgrid(axis, axis, indexing="ij")
        want = [[pool_expected_yield(7, float(x), float(z)) for z in axis] for x in axis]
        assert pool_expected_yield(7, a, d).tobytes() == np.array(want).tobytes()

    def test_disagreement_names_the_worst_point(self, monkeypatch):
        unrolled = analytics.round_success_unrolled
        shift = np.array([[0.0, 1e-9], [3e-9, 0.0]])
        monkeypatch.setattr(
            analytics, "round_success_unrolled", lambda k, a, d: unrolled(k, a, d) + shift
        )
        a, d = np.meshgrid([0.2, 0.7], [0.3, 0.6], indexing="ij")
        with pytest.raises(ConsistencyError, match=r"alpha_sq=0\.7, delta_sq=0\.3, n_rounds=3"):
            total_success(3, a, d)


class TestEdgeSquare:
    """The routes on the 8x8 square of edge values."""

    def test_array_call_equals_float_calls(self):
        a, d = np.meshgrid(EDGES, EDGES, indexing="ij")
        got = total_success(50, a, d)
        assert got.shape == (8, 8)
        for (i, j), value in np.ndenumerate(got):
            want = total_success(50, EDGES[i], EDGES[j])
            assert float(value).hex() == want.hex(), (EDGES[i], EDGES[j])
            assert 0.0 <= want <= 1.0 + 1e-12, (EDGES[i], EDGES[j], want)

    def test_pool_yield_finite(self):
        for a in EDGES:
            for d in EDGES:
                assert math.isfinite(pool_expected_yield(50, a, d)), (a, d)

    @pytest.mark.parametrize("scheme", ["a", "b"])
    def test_monte_carlo_within_four_standard_errors(self, scheme):
        trials = 2000
        for a in EDGES:
            for d in EDGES:
                rate = mc_estimate(scheme, 2, a, d, 4, trials, 3).success_rate
                want = total_success(4, a, d) if scheme == "a" else pool_expected_yield(4, a, d)
                sigma = math.sqrt(max(want * (1.0 - want), 1e-12) / trials)
                assert abs(rate - want) <= 4.0 * sigma, (a, d, rate, want)


class TestPoolYield:
    def test_frozen_reference(self):
        assert pool_expected_yield(3, 0.7, 0.7) == pytest.approx(
            0.1298712372456362, abs=1e-15
        )

    def test_single_round_is_half_ee(self):
        p1 = round1_probabilities(0.8, 0.6)
        assert pool_expected_yield(1, 0.8, 0.6) == pytest.approx(p1.ee / 2.0, abs=1e-15)

    @given(a=params, c=params, k=st.integers(1, 5))
    @settings(max_examples=40)
    def test_bounded_by_retry_success(self, a, c, k):
        # pairing overhead: yield per copy never beats half the single-state
        # success probability
        y = pool_expected_yield(k, a, c)
        assert 0.0 < y <= total_success(k, a, c) / 2.0 + 1e-12

    def test_rounds_validated(self):
        with pytest.raises(ValueError):
            pool_expected_yield(0, 0.8, 0.6)


# float.hex of round 1's split (ee, eo, oe, oo) and, per round count k, of
# (round_success_unrolled(k), total_success(k), pool_expected_yield(k)),
# recorded while round 1 had its own code apart from ``branch_rates``.  The
# golden grid CSV pins 12 digits; these pin every bit.
FROZEN_HEX = {
    (0.8, 0.6): (
        ("0x1.3a92a30553260p-3", "0x1.54c985f06f694p-3", "0x1.4e3bcd35a8589p-2", "0x1.6a161e4f765ffp-2"),
        {
            1: ("0x1.3a92a30553260p-3", "0x1.3a92a30553260p-3", "0x1.3a92a30553260p-4"),
            2: ("0x1.fabb8f4a9acacp-4", "0x1.1bf835555045bp-2", "0x1.b94186d7f9d8bp-4"),
            3: ("0x1.2858df571b664p-5", "0x1.4103514033b28p-2", "0x1.cbc714cd6b8f2p-4"),
            10: ("0x0.0p+0", "0x1.47ae147ae147cp-2", "0x1.cd69c58dcbf03p-4"),
            50: ("0x0.0p+0", "0x1.47ae147ae147cp-2", "0x1.cd69c58dcbf03p-4"),
        },
    ),
    (1e-12, 0.5): (
        ("0x1.19799812dd6b9p-40", "0x1.19799812dd6b9p-40", "0x1.fffffffffb9a2p-2", "0x1.fffffffffb9a2p-2"),
        {
            1: ("0x1.19799812dd6b9p-40", "0x1.19799812dd6b9p-40", "0x1.19799812dd6b9p-41"),
            2: ("0x1.19799812e10c1p-41", "0x1.a636641c4df1ap-40", "0x1.5fd7fe1795ae9p-41"),
            3: ("0x1.19799812dea11p-42", "0x1.ec94ca210599ep-40", "0x1.716f9798c398ap-41"),
            10: ("0x1.19799812dea11p-49", "0x1.193339acd9e97p-39", "0x1.774cb34f063a7p-41"),
            50: ("0x1.19799812dea11p-89", "0x1.19799812dea0dp-39", "0x1.774ccac3d2e6bp-41"),
        },
    ),
    (0.5 + 1e-12, 0.5): (
        ("0x1.0000000000000p-2",) * 4,
        {
            1: ("0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-3"),
            2: ("0x1.4000000000000p-2", "0x1.2000000000000p-1", "0x1.a000000000000p-3"),
            3: ("0x1.a000000000000p-3", "0x1.8800000000000p-1", "0x1.d400000000000p-3"),
            10: ("0x1.ff40000000000p-10", "0x1.ff00200000000p-1", "0x1.e79e24a000000p-3"),
            50: ("0x1.fffffffffb9a3p-51", "0x1.fffffffffb99ap-1", "0x1.e79e79e79e79ep-3"),
        },
    ),
    (0.3, 0.999): (
        ("0x1.b7f6260c841d5p-11", "0x1.ad387fce416c1p-2", "0x1.2fc86f9aed81fp-10", "0x1.285dde578eb23p-1"),
        {
            1: ("0x1.b7f6260c841d5p-11", "0x1.b7f6260c841d5p-11", "0x1.b7f6260c841d5p-12"),
            2: ("0x1.3fcae3c20849fp-12", "0x1.2bedcbf6c4213p-10", "0x1.03f46f7e8317ep-11"),
            3: ("0x1.c54fe59c35308p-15", "0x1.3a184b23a5cabp-10", "0x1.077f0f49bb824p-11"),
            10: ("0x1.cc99610231f82p-636", "0x1.3a92a30553291p-10", "0x1.078e580c42b90p-11"),
            50: ("0x0.0p+0", "0x1.3a92a30553291p-10", "0x1.078e580c42b90p-11"),
        },
    ),
}


class TestFrozenBits:
    """Every bit of the closed form at a few points, as floats and in one
    array call."""

    @pytest.mark.parametrize("arrays", [False, True], ids=["floats", "arrays"])
    def test_values_keep_their_bits(self, arrays):
        a, d = np.array(list(FROZEN_HEX)).T
        for i, (point, (want_r1, want_k)) in enumerate(FROZEN_HEX.items()):
            x, z = (a, d) if arrays else point
            pick = (lambda v: float(v[i])) if arrays else float
            p = round1_probabilities(x, z)
            assert [pick(v).hex() for v in (p.ee, p.eo, p.oe, p.oo)] == list(want_r1), point
            for k, want in want_k.items():
                evaluators = (round_success_unrolled, total_success, pool_expected_yield)
                got = [pick(f(k, x, z)).hex() for f in evaluators]
                assert got == list(want), (point, k)


def decimal_chain(alpha_sq: float, delta_sq: float, rounds: int) -> np.ndarray:
    """Mass over (done, eo, oe, oo) after each of rounds 1..``rounds``, one
    row per round, by the squaring recursion and the absorbing chain in
    80-digit ``decimal``; shares no code or rounding with ``analytics``.

    A fresh state enters round 1 as an oo state, and every round runs the
    same two checks on the coefficients of the round before, squared.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        one, two = decimal.Decimal(1), decimal.Decimal(2)
        a, c = decimal.Decimal(alpha_sq), decimal.Decimal(delta_sq)
        done, eo, oe, oo = decimal.Decimal(0), decimal.Decimal(0), decimal.Decimal(0), one
        rows = []
        for _ in range(rounds):
            pol_s, spa_s = two * a * (one - a), two * c * (one - c)
            pol_f, spa_f = a * a + (one - a) ** 2, c * c + (one - c) ** 2
            done, eo, oe, oo = (
                done + eo * spa_s + oe * pol_s + oo * pol_s * spa_s,
                eo * spa_f + oo * pol_s * spa_f,
                oe * pol_f + oo * spa_s * pol_f,
                oo * pol_f * spa_f,
            )
            rows.append([float(v) for v in (done, eo, oe, oo)])
            a, c = a * a / (a * a + (one - a) ** 2), c * c / (c * c + (one - c) ** 2)
        return np.array(rows)


class TestDecimalReference:
    """The float evaluators against an 80-digit run of the same iteration."""

    @pytest.mark.parametrize(
        "axis", [EDGES, (0.1, 0.3, 0.6, 0.8, 0.95, 0.999)], ids=["edges", "interior"]
    )
    def test_chain_and_total_success(self, axis):
        rounds = 200
        a, d = np.meshgrid(axis, axis, indexing="ij")
        ref = np.array([decimal_chain(x, z, rounds) for x, z in zip(a.flat, d.flat)])
        ref = ref.transpose(1, 2, 0).reshape(rounds, 4, *a.shape)
        dist = initial_distribution(a, d)
        worst = 0.0
        for k in range(1, rounds + 1):
            if k > 1:
                dist = markov_evolve(dist, k, a, d)
            got = np.array([dist.done, dist.eo, dist.oe, dist.oo])
            worst = max(worst, float(np.max(np.abs(got - ref[k - 1]))))
        for k in (1, 2, 3, 10, 50):
            worst = max(worst, float(np.max(np.abs(total_success(k, a, d) - ref[k - 1, 0]))))
        assert worst <= 1e-13


def settled_within(k: int, p: float) -> float:
    """Chance that one degree of freedom with first coefficient ``p`` comes
    out even within ``k`` rounds, written here from the physics alone: each
    round's check is even with chance 2 p (1 - p), and an odd outcome squares
    the pair and renormalizes it."""
    unsettled = 1.0
    for _ in range(k):
        unsettled *= 1.0 - 2.0 * p * (1.0 - p)
        p = p * p / (p * p + (1.0 - p) ** 2)
    return 1.0 - unsettled


class TestOutsideAnchors:
    """The closed form against facts that do not come from the protocol's
    own recursion: the two degrees of freedom settle independently, and no
    local protocol turns one copy into a maximally entangled state with a
    higher chance than 2 min(p, 1 - p) per degree of freedom (G. Vidal, PRL
    83, 1046 (1999)), the limit scheme a's iteration approaches."""

    def test_factorizes_and_approaches_the_single_copy_optimum(self):
        rng = np.random.default_rng(26)
        a = np.concatenate([np.repeat(EDGES, 8), rng.uniform(0.0, 1.0, 40)])
        d = np.concatenate([np.tile(EDGES, 8), rng.uniform(0.0, 1.0, 40)])
        optimum = 4.0 * np.minimum(a, 1.0 - a) * np.minimum(d, 1.0 - d)
        away = (np.abs(a - 0.5) >= 0.05) & (np.abs(d - 0.5) >= 0.05)
        for k in (1, 2, 3, 10, 50):
            got = total_success(k, a, d)
            product = np.array([settled_within(k, x) * settled_within(k, z) for x, z in zip(a, d)])
            assert np.max(np.abs(got - product)) <= 1e-15, k
            assert np.max(got - optimum) <= 1e-15, k
        assert np.max(np.abs(got - optimum)[away]) <= 1e-14
