"""Exactness of the breadth-first sampler.

``mc_estimate`` and ``iterate_scheme_b_pool`` simulate groups of trials
that share a state once per distinct outcome instead of once per trial.
These tests pin that the batching changes no number: the CLI output bytes
match a file recorded with the one-trial-at-a-time sampler that preceded
it, and on random configurations the batched reports equal aggregates built
here from the single-trace reference path.
"""

import ast
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperconc
from hyperconc import (
    BranchClass,
    Dof,
    DofAmplitudes,
    GhzForm,
    ParityOutcome,
    PoolReport,
    PoolRound,
    RandomSource,
    ghz_to_full,
    iterate_scheme_a,
    iterate_scheme_b_pool,
    parity_branch,
    run_scheme_a_round,
    run_scheme_b_round,
    tensor,
)
from hyperconc import analytics, cli, measurement, protocol, sampling
from hyperconc.analytics import initial_distribution, markov_evolve, round_success_unrolled
from hyperconc.protocol import (
    FAMILIES,
    classify_residual,
    concentrates,
    settled_by,
)
from hyperconc.sampling import McReport, mc_estimate
from hyperconc.states import flip_copy

GOLDEN_SIMULATE = Path(__file__).parent / "data" / "simulate_golden.txt"
HEADER = "$ hyperconc simulate "

SEEDS = (1, 7)
# (alpha_sq, delta_sq, rounds, trials)
SCHEME_A_CASES = (
    (0.8, 0.6, 2, 200),
    (0.5, 0.5, 5, 200),
    (0.3, 0.9, 3, 200),
    (0.0, 0.6, 3, 60),
    (1.0, 0.6, 3, 60),
    (0.8, 0.0, 3, 60),
    (0.8, 1.0, 3, 60),
    (0.0, 1.0, 2, 30),
)
SCHEME_B_CASES = (
    (0.7, 0.7, 3, 3),
    (0.7, 0.7, 3, 401),
    (0.5, 0.5, 4, 200),
    (0.8, 0.6, 2, 200),
    (0.0, 0.6, 3, 101),
    (0.6, 1.0, 2, 100),
)


def golden_cases():
    """Argument lists of every recorded ``hyperconc simulate`` call."""
    for scheme, ns, cases in (("a", (2, 3, 4), SCHEME_A_CASES), ("b", (2, 3), SCHEME_B_CASES)):
        for n in ns:
            for a, d, k, trials in cases:
                for seed in SEEDS:
                    yield [
                        "--scheme", scheme, "--n", str(n), "--alpha-sq", repr(a),
                        "--delta-sq", repr(d), "--rounds", str(k), "--trials", str(trials),
                        "--seed", str(seed),
                    ]


def render_simulate(out: Path) -> dict[str, bytes]:
    """Output bytes of every golden case, keyed by its argument line."""
    outputs = {}
    for argv in golden_cases():
        code = cli.main(["simulate", *argv, "--out", str(out)])
        assert code == 0, argv
        outputs[" ".join(argv)] = out.read_bytes()
    return outputs


def read_golden(path: Path) -> dict[str, bytes]:
    """The golden file: per case, ``HEADER`` and its arguments on one line,
    then the case's output bytes."""
    outputs = {}
    for chunk in path.read_bytes().split(HEADER.encode())[1:]:
        key, data = chunk.split(b"\n", 1)
        outputs[key.decode()] = data
    return outputs


def test_simulate_bytes_match_golden(tmp_path):
    want = read_golden(GOLDEN_SIMULATE)
    got = render_simulate(tmp_path / "case.json")
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


def ghz(n, alpha_sq, delta_sq):
    return GhzForm(
        n,
        DofAmplitudes.from_first_probability(alpha_sq),
        DofAmplitudes.from_first_probability(delta_sq),
    )


def sequential_pool(count, template, max_rounds, rng):
    """``iterate_scheme_b_pool`` as it ran before batching: one round per pair."""
    buckets = {(0, 0): (template, count)}
    rounds = []
    distilled = 0
    pairs_attempted = 0
    for r in range(1, max_rounds + 1):
        stats = PoolRound(index=r, attempts=0, successes=0)
        new_buckets = {}

        def _add(key, g, k):
            if k <= 0:
                return
            if key in new_buckets:
                new_buckets[key] = (new_buckets[key][0], new_buckets[key][1] + k)
            else:
                new_buckets[key] = (g, k)

        for (settled, birth), (g, cnt) in buckets.items():
            _add((settled, birth), g, cnt % 2)
            for _ in range(cnt // 2):
                res = run_scheme_b_round(g, g, rng)
                stats.attempts += 1
                pairs_attempted += 1
                if concentrates(settled, res.branch):
                    stats.successes += 1
                    distilled += 1
                else:
                    stats.residual_counts[res.branch] = (
                        stats.residual_counts.get(res.branch, 0) + 1
                    )
                    key = (settled | settled_by(res.branch), r)
                    _add(key, classify_residual(res.branch, g), 1)
        rounds.append(stats)
        buckets = new_buckets
    leftover_counts = {}
    for (settled, _), (_, cnt) in buckets.items():
        label = FAMILIES[settled]
        leftover_counts[label] = leftover_counts.get(label, 0) + cnt
    return PoolReport(
        rounds=rounds,
        distilled=distilled,
        leftovers=sum(leftover_counts.values()),
        leftover_counts=dict(sorted(leftover_counts.items())),
        pairs_attempted=pairs_attempted,
    )


def reference_estimate(scheme, n, alpha_sq, delta_sq, max_rounds, trials, seed):
    """``mc_estimate`` aggregated trial by trial from the single-trace reference path."""
    template = ghz(n, alpha_sq, delta_sq)
    master = RandomSource(seed)
    per_round = [0] * max_rounds
    residual = {}
    if scheme == "a":
        for t in range(trials):
            trace = iterate_scheme_a(template, max_rounds, master.derive(t))
            if trace.succeeded:
                per_round[trace.success_round - 1] += 1
            else:
                branches = [r.branch for r in trace.rounds]
                label = ("e" if BranchClass.EO in branches else "o") + (
                    "e" if BranchClass.OE in branches else "o"
                )
                residual[label] = residual.get(label, 0) + 1
    else:
        report = sequential_pool(trials, template, max_rounds, master)
        per_round = [stats.successes for stats in report.rounds]
        residual = dict(report.leftover_counts)
    rate = sum(per_round) / trials
    return McReport(
        scheme=scheme,
        n=n,
        alpha_sq=float(alpha_sq),
        delta_sq=float(delta_sq),
        max_rounds=max_rounds,
        trials=trials,
        seed=seed,
        successes=sum(per_round),
        success_rate=rate,
        standard_error=math.sqrt(rate * (1.0 - rate) / trials),
        per_round_success_counts=tuple(per_round),
        residual_class_counts=dict(sorted(residual.items())),
    )


# The corners and near-corners of the parameter square, plus any float.
EDGES = (0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0)
unit = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0))
seeds = st.integers(0, 2**32 - 1)


class TestBatchedEqualsReference:
    @given(n=st.integers(2, 4), a=unit, d=unit, k=st.integers(1, 5),
           trials=st.integers(2, 60), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_scheme_a(self, n, a, d, k, trials, seed):
        got = mc_estimate("a", n, a, d, k, trials, seed)
        assert got == reference_estimate("a", n, a, d, k, trials, seed)

    def test_scheme_a_edge_square(self):
        """Every corner and near-corner pair, where certain parity checks leave
        a trial fewer uniforms to draw before its readout."""
        t0 = time.perf_counter()
        for a in EDGES:
            for d in EDGES:
                got = mc_estimate("a", 2, a, d, 5, 40, 9)
                assert got == reference_estimate("a", 2, a, d, 5, 40, 9), (a, d)
        elapsed = time.perf_counter() - t0
        assert elapsed < 20.0, f"{elapsed:.1f}s (budget 20s)"

    @given(n=st.integers(2, 4), a=unit, d=unit, k=st.integers(1, 5),
           trials=st.integers(2, 60), seed=seeds)
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_scheme_b(self, n, a, d, k, trials, seed):
        got = mc_estimate("b", n, a, d, k, trials, seed)
        assert got == reference_estimate("b", n, a, d, k, trials, seed)

    @given(a=unit, d=unit, k=st.integers(1, 4), count=st.integers(2, 80), seed=seeds)
    @settings(max_examples=20, deadline=None)
    @example(a=0.7, d=0.7, k=50, count=3, seed=0)  # one pair, then 49 rounds with none
    @example(a=0.7, d=0.6, k=12, count=1001, seed=4)  # strays in all three families
    def test_pool_report(self, a, d, k, count, seed):
        """Every field, including per-round tallies in insertion order."""
        template = ghz(2, a, d)
        got = iterate_scheme_b_pool(count, template, k, RandomSource(seed))
        want = sequential_pool(count, template, k, RandomSource(seed))
        assert got == want
        assert [list(s.residual_counts) for s in got.rounds] == [
            list(s.residual_counts) for s in want.rounds
        ]

    @pytest.mark.parametrize("a, d", [(0.0, 0.5), (0.5, 0.5), (0.9, 1e-12)])
    def test_many_rounds_stay_exact(self, a, d):
        """Traces of up to 12 rounds, each round drawn afresh from every
        trial's substream, stay exact."""
        assert mc_estimate("a", 2, a, d, 12, 40, 3) == reference_estimate("a", 2, a, d, 12, 40, 3)

    def test_trials_beyond_one_spawn_word_rejected(self):
        with pytest.raises(ValueError, match="at most 2\\*\\*32"):
            mc_estimate("a", 2, 0.5, 0.5, 1, 2**32 + 1)

    def test_across_blocks(self, monkeypatch):
        monkeypatch.setattr(sampling, "_BLOCK", 3)
        for scheme in ("a", "b"):
            got = mc_estimate(scheme, 2, 0.7, 0.4, 3, 45, 11)
            assert got == reference_estimate(scheme, 2, 0.7, 0.4, 3, 45, 11)

    @pytest.mark.parametrize("a, n, d", [(0.3, 2, 5.0000000000000244e-15),
                                         (0.5, 3, 5.0000000000000205e-15)])
    def test_pool_with_pair_dependent_draw_count(self, a, n, d):
        """The spatial check is certain after one polarization outcome only,
        so members of one group use different numbers of uniforms."""
        g = ghz(n, a, d)

        def certain_after(resource):
            """Per polarization outcome, even then odd: is the spatial check certain?"""
            joint = tensor(ghz_to_full(g), ghz_to_full(resource))
            certain = []
            for outcome in ParityOutcome:
                _, post = parity_branch(joint, 0, n, Dof.POLARIZATION, outcome)
                p_even, _ = parity_branch(post, 0, n, Dof.SPATIAL, ParityOutcome.EVEN)
                certain.append(min(p_even, 1.0 - p_even) < measurement.MIN_BRANCH_PROBABILITY)
            return certain

        assert sorted(certain_after(flip_copy(g))) == [False, True]
        # scheme a: certain after odd at (0.3, n=2), after even at (0.5, n=3)
        assert certain_after(protocol.ancilla(g)) == (
            [False, True] if a == 0.3 else [True, False]
        )
        for seed in (0, 1, 2):
            got = iterate_scheme_b_pool(61, g, 3, RandomSource(seed))
            assert got == sequential_pool(61, g, 3, RandomSource(seed))
            assert mc_estimate("a", n, a, d, 3, 61, seed) == reference_estimate(
                "a", n, a, d, 3, 61, seed
            )

    @pytest.mark.parametrize("a, n, d", [(0.7, 2, 0.7), (0.3, 2, 5.0000000000000244e-15),
                                         (0.5, 3, 5.0000000000000205e-15)])
    def test_pool_leaves_the_master_stream_where_the_pairs_end(self, a, n, d):
        """The pool consumes the master stream exactly as its pairs' rounds
        one after another, the last bucket round's readouts included, also
        where a pair's draw count depends on its polarization outcome."""
        g = ghz(n, a, d)
        for seed in (0, 1, 2):
            got, want = RandomSource(seed), RandomSource(seed)
            iterate_scheme_b_pool(61, g, 3, got)
            sequential_pool(61, g, 3, want)
            assert got.uniform() == want.uniform(), seed


@pytest.mark.parametrize(
    "n, a, d, seen",
    [(2, 0.8, 0.6, 4), (4, 0.8, 0.6, 4), (3, 0.3, 5.0000000000000244e-15, 2)],
    ids=["a-2", "a-4", "a-3-unequal-counts"],
)
def test_batched_round_matches_dense_rounds(n, a, d, seen):
    """A batched scheme-a round partitions its members by branch, and every
    member's branch, success and stream position are those of its own dense
    round on the same substream.  At (0.3, 5e-15) the spatial check is
    certain after one polarization outcome only, so the two outcomes draw
    different counts."""
    g = ghz(n, a, d)
    trials = 2000
    master = RandomSource(n)
    streams = master.derive_block(0, trials)
    members = np.arange(trials)
    odds = sampling._round_odds(g, protocol.ancilla(g))
    # unequal counts where the spatial check is certain after one outcome,
    # which leaves branches unseen
    assert (odds.draws[0] != odds.draws[1]) == (seen < 4)
    found = odds.branches(sampling._round_rows(odds, streams, members))
    branches = {BranchClass(f): members[found == v] for v, f in enumerate(FAMILIES)}
    assert np.array_equal(np.sort(np.concatenate(list(branches.values()))), members)
    # every branch the round takes with odds above 1e-3 occurs
    assert sum(len(m) > 0 for m in branches.values()) == seen
    for branch, m in branches.items():
        for t in m.tolist():
            rng = master.derive(t)
            res = run_scheme_a_round(g, rng)
            assert res.branch is branch, t
            assert res.succeeded == (branch is BranchClass.EE), t
            # both have read the same uniforms: their next one agrees
            assert rng.uniform() == streams.uniforms(1, np.array([t]))[0, 0], t


@pytest.mark.parametrize("scheme, n", [("b", 5), ("a", 9)])
def test_ci_forced_point_draws_unequal_counts(scheme, n):
    """CI runs the slowest admitted simulate of each scheme at (0.3, 5e-15)
    so that the spatial check is certain after one polarization outcome
    only: the pool must then walk its pairs one at a time.  No golden file
    pins those runs, so the round's odds are pinned here."""
    g = ghz(n, 0.3, 5.0000000000000244e-15)
    odds = sampling._round_odds(g, protocol.ancilla(g) if scheme == "a" else flip_copy(g))
    assert 0.0 < odds.p_pol < 1.0
    certain, uncertain = sorted(odds.p_spa)
    assert certain == 0.0 and 0.0 < uncertain < 1.0, odds.p_spa
    assert abs(odds.draws[0] - odds.draws[1]) == 1, odds.draws


@pytest.mark.parametrize("a, d", [(0.0, 0.5), (0.5, 0.5), (0.9, 1e-12),
                                  (0.3, 5.0000000000000244e-15)])
def test_block_leaves_each_stream_where_its_trace_ends(a, d):
    """After 12 rounds of a block at n=2, every trial's substream stands where
    its own ``iterate_scheme_a`` leaves it, also at (0.3, 5e-15), where the
    spatial check is certain after one polarization outcome only."""
    g = ghz(2, a, d)
    trials, rounds = 200, 12
    master = RandomSource(4)
    streams = master.derive_block(0, trials)
    table = sampling._round_table(protocol.ancilla)
    sampling._trace_block(g, rounds, streams, trials, table)
    after = streams.uniforms(1)[:, 0]
    for t in range(trials):
        rng = master.derive(t)
        iterate_scheme_a(g, rounds, rng)
        assert rng.uniform() == after[t], t


def table_chain(scheme, template, rounds):
    """The exact law of a sampler call, read off its own round table.

    Starting from the template's entry with mass 1, each round splits every
    (state, settled mask) mass by the entry's parity odds, a certain check's
    0 or 1 among them, credits a success by ``concentrates`` and moves the
    rest to the residual's entry.  Returns the success mass of each round
    and the final mass of each residual family.  Scheme b's chain is one
    copy's retries.
    """
    table = sampling._round_table(protocol.ancilla if scheme == "a" else flip_copy)
    live = {(template, 0): 1.0}
    per_round = []
    for _ in range(rounds):
        success, after = 0.0, defaultdict(float)
        for (g, mask), mass in live.items():
            odds = table(g)
            for e, p_pol in ((0, 1.0 - odds.p_pol), (1, odds.p_pol)):
                for s, p_spa in ((0, 1.0 - odds.p_spa[e]), (1, odds.p_spa[e])):
                    weight = mass * p_pol * p_spa
                    branch = BranchClass(FAMILIES[2 * e + s])
                    if concentrates(mask, branch):
                        success += weight
                    else:
                        after[odds.residuals[branch], mask | settled_by(branch)] += weight
        per_round.append(success)
        live = after
    families = dict.fromkeys(FAMILIES[:3], 0.0)
    for (_, mask), mass in live.items():
        families[FAMILIES[mask]] += mass
    return per_round, families


# The edge square of the closed form's tests.
EDGE_SQUARE = (0.0, 1e-300, 1e-12, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 1.0 - 1e-12, 1.0)


class TestTableChain:
    """The round table's odds and residuals, chained with the samplers'
    retry rule, give the closed form's per-round success and the Markov
    chain's residual masses, up to the photon cap and beyond the oracle's
    round cap."""

    @pytest.mark.parametrize("scheme, n", [("a", 2), ("a", 3), ("b", 2)])
    def test_per_round_success_on_the_edge_square(self, scheme, n):
        rounds = 50
        a, d = np.meshgrid(EDGE_SQUARE, EDGE_SQUARE, indexing="ij")
        want = np.array([round_success_unrolled(k, a, d) for k in range(1, rounds + 1)])
        for (i, j), alpha_sq in np.ndenumerate(a):
            got, _ = table_chain(scheme, ghz(n, alpha_sq, d[i, j]), rounds)
            dev = np.max(np.abs(np.array(got) - want[:, i, j]))
            assert dev <= 1e-12, (alpha_sq, d[i, j], dev)

    @pytest.mark.parametrize("scheme", ["a", "b"])
    @pytest.mark.parametrize("a, d", [(0.8, 0.6), (0.3, 0.9), (1e-12, 0.5), (0.999, 0.001)])
    def test_residual_families_match_markov_chain(self, scheme, a, d):
        dist = initial_distribution(a, d)
        for k in range(1, 51):
            if k > 1:
                dist = markov_evolve(dist, k, a, d)
            if k in (1, 3, 10, 50):
                _, got = table_chain(scheme, ghz(2, a, d), k)
                for family, mass in got.items():
                    assert abs(mass - getattr(dist, family)) <= 1e-12, (k, family)

    @pytest.mark.parametrize("scheme, n", [("a", 5), ("b", 4), ("a", 9), ("b", 5)])
    def test_larger_states(self, scheme, n):
        got, families = table_chain(scheme, ghz(n, 0.8, 0.6), 50)
        want = [round_success_unrolled(k, 0.8, 0.6) for k in range(1, 51)]
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12
        dist = initial_distribution(0.8, 0.6)
        for k in range(2, 51):
            dist = markov_evolve(dist, k, 0.8, 0.6)
        for family, mass in families.items():
            assert abs(mass - getattr(dist, family)) <= 1e-12, family

    @pytest.mark.parametrize("a, d", [(1e-12, 0.5), (0.999, 0.001), (0.8, 0.6)])
    def test_sampled_counts_follow_the_chain(self, a, d):
        """The draw layer against exact odds: every cell of a scheme-a call's
        counts, the success rounds and the residual families, lies within 4
        sigma of its chain expectation.  Cells expecting fewer than 5 counts
        are pooled into one; a pool expecting none must count none."""
        trials, rounds = 100_000, 50
        report = mc_estimate("a", 2, a, d, rounds, trials, 1)
        per_round, families = table_chain("a", ghz(2, a, d), rounds)
        p = np.array(per_round + list(families.values()))
        counts = np.array(
            list(report.per_round_success_counts)
            + [report.residual_class_counts.get(f, 0) for f in families]
        )
        assert abs(p.sum() - 1.0) <= 1e-12
        small = trials * p < 5
        p = np.append(p[~small], p[small].sum())
        counts = np.append(counts[~small], counts[small].sum())
        sigma = np.sqrt(trials * p * (1.0 - p))
        dev = np.abs(counts - trials * p)
        assert np.all(dev[sigma == 0] == 0), (counts, trials * p)
        z = dev[sigma > 0] / sigma[sigma > 0]
        assert np.all(z <= 4.0), (counts, trials * p)


@pytest.fixture
def odds_states(monkeypatch):
    """The states ``sampling._round_odds`` builds a round on, in call order."""
    seen = []
    original = sampling._round_odds

    def recording(g, resource):
        seen.append(g)
        return original(g, resource)

    monkeypatch.setattr(sampling, "_round_odds", recording)
    return seen


class TestRoundTable:
    """Each sampler call builds a round's odds once per distinct state."""

    def test_one_state_one_entry(self, odds_states):
        # balanced in both degrees of freedom: every residual is the state itself
        mc_estimate("a", 2, 0.5, 0.5, 5, 100, 3)
        assert len(odds_states) == 1

    def test_entries_do_not_grow_with_blocks(self, odds_states, monkeypatch):
        args = ("a", 3, 0.8, 0.6, 10, 10000, 3)
        mc_estimate(*args)
        whole = list(odds_states)
        assert len(whole) > 1
        assert len(set(whole)) == len(whole)
        odds_states.clear()
        monkeypatch.setattr(sampling, "_BLOCK", 7)
        mc_estimate(*args)
        assert len(odds_states) == len(whole)
        assert set(odds_states) == set(whole)

    def test_pool_fills_a_shared_state_once(self, odds_states, monkeypatch):
        bucket_rounds = 0
        original = sampling._bucket_branches

        def counting(*args):
            nonlocal bucket_rounds
            bucket_rounds += 1
            return original(*args)

        monkeypatch.setattr(sampling, "_bucket_branches", counting)
        mc_estimate("b", 2, 0.5, 0.5, 5, 400, 3)
        assert bucket_rounds > 1
        assert len(odds_states) == 1

    @pytest.mark.parametrize(
        "args", [("a", 3, 0.8, 0.6, 4, 500, 2), ("b", 2, 0.7, 0.7, 3, 400, 2)], ids=["a", "b"]
    )
    def test_each_call_fills_its_own_table(self, odds_states, args):
        mc_estimate(*args)
        once = list(odds_states)
        mc_estimate(*args)
        assert odds_states == once + once


def test_oracle_is_independent_of_the_samplers():
    """The oracle holds no sampler and spells the retry rule on its own."""
    names = vars(hyperconc.oracle)
    for name in ("iterate_scheme_a", "iterate_scheme_b_pool", "mc_estimate",
                 "concentrates", "settled_by", "FAMILIES"):
        assert name not in names, name


def test_protocol_is_the_dense_reference():
    """``protocol`` holds the dense rounds the samplers are checked against,
    and none of the batched code: it defines no batched name, imports no
    sampler and takes only public names from ``measurement``."""
    names = vars(protocol)
    for name in ("_RoundOdds", "_round_odds", "_round_table", "_pair_uniforms",
                 "_bucket_branches", "PoolRound", "PoolReport", "iterate_scheme_b_pool"):
        assert name not in names, name
    tree = ast.parse(Path(protocol.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            if (node.module or "").split(".")[-1] == "measurement":
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert private == [], private
        else:
            continue
        for module in modules:
            assert "sampling" not in module.split("."), module


def test_closed_form_imports_only_errors():
    """Route 1 shares no code with the other two: ``analytics`` takes nothing
    from the package but ``errors``."""
    tree = ast.parse(Path(analytics.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            # relative: a module of the package, or names taken from one
            inside = [node.module] if node.module else [a.name for a in node.names]
            modules = [f"hyperconc.{module}" for module in inside]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.split(".")[0] == "hyperconc":
                assert module == "hyperconc.errors", module


def test_pool_reads_out_no_photon(monkeypatch):
    """The pool's batched rounds end at the parity checks."""
    calls = 0
    original = measurement.diagonal_components

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(measurement, "diagonal_components", counting)
    mc_estimate("b", 3, 0.8, 0.6, 3, 400, 5)
    assert calls == 0
    g = ghz(3, 0.8, 0.6)
    run_scheme_b_round(g, g, RandomSource(0))
    assert calls == 3  # the single-pair round reads out every second-copy photon


def test_scheme_a_batch_reads_out_no_photon(monkeypatch):
    """The batched scheme-a rounds end at the parity checks: only the
    trial-0 replay reads a photon out, once per round."""
    calls = 0
    original = measurement.diagonal_components

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(measurement, "diagonal_components", counting)
    mc_estimate("a", 3, 0.8, 0.6, 3, 2000, 5)
    during = calls
    replay = iterate_scheme_a(ghz(3, 0.8, 0.6), 3, RandomSource(5).derive(0))
    assert during == len(replay.rounds) == calls - during


@pytest.mark.parametrize(
    "args", [("a", 3, 0.8, 0.6, 3, 2000, 5), ("b", 2, 0.7, 0.7, 3, 400, 1)], ids=["a", "b"]
)
def test_pool_projects_each_outcome_once(monkeypatch, args):
    """Both samplers build a round's joint state once per distinct state,
    project its polarization check once per outcome and decide every
    member's branch from parity odds; the trial-0 replay's dense rounds
    project each check once."""
    counts = {"tensor": 0, "_parity_post": 0}

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    # the samplers' table fills, and the trial-0 replay's dense rounds
    for module in (sampling, protocol):
        monkeypatch.setattr(module, "tensor", counting("tensor", module.tensor))
    post = counting("_parity_post", measurement._parity_post)
    for module in (sampling, measurement):
        monkeypatch.setattr(module, "_parity_post", post)
    mc_estimate(*args)
    assert counts["tensor"] > 0  # one joint state per distinct state
    assert counts["_parity_post"] <= 2 * counts["tensor"]


def test_scheme_a_builds_states_per_outcome_not_per_trial(monkeypatch):
    built = 0
    original = hyperconc.FullState.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        original(self)

    monkeypatch.setattr(hyperconc.FullState, "__post_init__", counting)
    mc_estimate("a", 3, 0.8, 0.6, 3, 2000, 5)
    assert 0 < built < 2000 // 4
