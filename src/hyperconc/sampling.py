"""The batched route: seeded Monte Carlo estimates of the iterated success
rate, and the two-copy pool.

Scheme a runs independent traces, trial ``t`` on the substream derived from
(seed, t); scheme b runs one pool on the master stream of the seed (see
:func:`iterate_scheme_b_pool`).  Both decide a round by one rule (see
:class:`_RoundOdds`): each trial or pair compares its own uniforms with the
odds of the two parity checks, which alone decide its branch, so readout
uniforms are drawn but no readout is simulated.  Each call keeps one table
(see :func:`_round_table`), a cached function from a state to its
:class:`_RoundOdds`, filled the first time the call meets the state and read
by every later group, bucket, block and round on it.

Traces run breadth first, in blocks of up to ``_BLOCK`` trials, and a pool
bucket's pairs in blocks of up to ``_BLOCK`` pairs; a block bounds the
memory of a call and nothing else.  In each round the trials that hold the
same working state and settled mask form a group.  A block derives its
trials' substreams in one array pass
(:meth:`~hyperconc.measurement.RandomSource.derive_block`), drawing the very
doubles of ``RandomSource(seed).derive(t)``, and each group-round draws its
members' uniforms straight from them.  The pool draws from the master
stream in the order of ``run_scheme_b_round`` called pair after pair.  So
the reports equal those of the dense reference drivers in ``protocol``, run
one trial or pair at a time, whatever the block size.  Each scheme-a call
replays its trial 0 through ``iterate_scheme_a``, on numpy's own generator,
and raises :class:`ConsistencyError` when the two disagree.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError
from .measurement import (
    _SPAWN_LIMIT,
    ParityOutcome,
    RandomSource,
    SubstreamBlock,
    _certain_odds,
    _parity_post,
    _parity_probs,
)
from .protocol import (
    FAMILIES,
    BranchClass,
    IterationTrace,
    ancilla,
    check_scheme,
    classify_residual,
    concentrates,
    iterate_scheme_a,
    settled_by,
)
from .states import Dof, DofAmplitudes, GhzForm, _photon_count, flip_copy, ghz_to_full, tensor

# Scheme-a trials, or pool pairs, simulated together; bounds the live
# substreams, the per-trial arrays and the uniforms drawn at once, and
# nothing else.
_BLOCK = 4096


@dataclass(frozen=True)
class McReport:
    """Monte Carlo estimate of the iterated success rate."""

    scheme: str
    n: int
    alpha_sq: float
    delta_sq: float
    max_rounds: int
    trials: int
    seed: int
    successes: int
    success_rate: float
    standard_error: float
    per_round_success_counts: tuple[int, ...]
    residual_class_counts: dict[str, int]


@dataclass(frozen=True)
class _RoundOdds:
    """The odds of a round's two parity checks, which alone decide its branch,
    and the residual each failing branch leaves.

    ``p_pol`` is the polarization check's even odds, and ``p_spa[e]`` the
    spatial check's after polarization outcome ``e`` (1 even, 0 odd); a
    certain check has odds exactly 0 or 1 (see
    :func:`~hyperconc.measurement._certain_odds`), and after a certain
    polarization check both entries are those of its outcome.  ``draws[e]``
    counts the uniforms a member with polarization outcome ``e`` uses.  Both
    samplers draw them in the order of the dense round: one per check with
    odds strictly between 0 and 1, polarization first, then one per readout.
    ``residuals[b]`` is the form a failing branch ``b`` leaves, the member's
    next state (see :func:`~hyperconc.protocol.classify_residual`).
    """

    p_pol: float
    p_spa: tuple[float, float]
    draws: tuple[int, int]
    residuals: dict[BranchClass, GhzForm]

    def branches(self, rows: np.ndarray) -> np.ndarray:
        """Each row's branch as a settled mask (see
        :func:`~hyperconc.protocol.settled_by`).

        Row r holds a member's uniforms in the order they are drawn, at
        least one readout's among them.  A certain check compares its 0 or 1
        with whatever uniform sits in its column and gets its outcome.  A
        readout only sets sign corrections, which change no branch, so its
        uniform is not read for itself.
        """
        pol_even = rows[:, 0] < self.p_pol
        spa_column = rows[:, int(0.0 < self.p_pol < 1.0)]
        spa_even = spa_column < np.where(pol_even, self.p_spa[1], self.p_spa[0])
        return 2 * pol_even + spa_even


def _round_odds(g: GhzForm, resource: GhzForm) -> _RoundOdds:
    """The odds and residuals of a dense round on ``g`` and ``resource``.

    The joint state is built once, and the polarization check is projected
    once per outcome it can take, exactly as the dense round projects it.
    """
    n = g.n
    joint = tensor(ghz_to_full(g), ghz_to_full(resource))
    p_even, mask = _parity_probs(joint, 0, n, Dof.POLARIZATION)
    p_pol = _certain_odds(p_even)
    pol_draws = int(0.0 < p_pol < 1.0)
    p_spa, draws = [], []
    for e in (0, 1) if pol_draws else (int(p_pol),):
        outcome = ParityOutcome.EVEN if e else ParityOutcome.ODD
        post = _parity_post(joint, outcome, p_even, mask)[1]
        p_spa.append(_certain_odds(_parity_probs(post, 0, n, Dof.SPATIAL)[0]))
        draws.append(pol_draws + (0.0 < p_spa[-1] < 1.0) + resource.n)
    residuals = {b: classify_residual(b, g) for b in BranchClass if b is not BranchClass.EE}
    return _RoundOdds(p_pol, (p_spa[0], p_spa[-1]), (draws[0], draws[-1]), residuals)


def _round_table(resource: Callable[[GhzForm], GhzForm]) -> Callable[[GhzForm], _RoundOdds]:
    """The rounds of one sampler call: ``table(g)`` is the :class:`_RoundOdds`
    of a round on ``g`` and ``resource(g)``, filled the first time the call
    meets ``g`` and read by every later block, group and bucket round."""
    return functools.cache(lambda g: _round_odds(g, resource(g)))


def _round_rows(odds: _RoundOdds, streams: SubstreamBlock, members: np.ndarray) -> np.ndarray:
    """Each member's uniforms of one round on ``odds``, one row each (see
    :class:`_RoundOdds`), drawn straight from the member's own stream.

    The counts differ only after an uncertain polarization check, where the
    shorter outcome's spatial check is certain.  So a row of the shorter
    count holds both columns that :meth:`_RoundOdds.branches` reads, and a
    member whose outcome draws one more skips its last readout's uniform.
    """
    odd, even = odds.draws
    rows = streams.uniforms(min(odd, even), members)
    if odd != even:
        longer = (rows[:, 0] < odds.p_pol) == (even > odd)
        streams.uniforms(1, members[longer])
    return rows


def _trace_block(
    template: GhzForm,
    max_rounds: int,
    streams: SubstreamBlock,
    count: int,
    table: Callable[[GhzForm], _RoundOdds],
) -> tuple[np.ndarray, np.ndarray]:
    """``iterate_scheme_a`` for the ``count`` trials of one block, breadth
    first, on their ``streams``, reading each round's odds and residuals from
    the call's ``table``.

    Returns each trial's success round (0 when every round failed) and its
    final settled mask (see :func:`~hyperconc.protocol.concentrates`).
    """
    success = np.zeros(count, dtype=np.intp)
    settled = np.zeros(count, dtype=np.intp)
    groups = {(template, 0): np.arange(count)}
    for k in range(1, max_rounds + 1):
        if not groups:
            break
        parts: dict[tuple[GhzForm, int], list[np.ndarray]] = defaultdict(list)
        for (g, mask), members in groups.items():
            odds = table(g)
            found = odds.branches(_round_rows(odds, streams, members))
            for value, family in enumerate(FAMILIES):
                m = members[found == value]
                if not m.size:
                    continue
                branch = BranchClass(family)
                if concentrates(mask, branch):
                    success[m] = k
                else:
                    parts[odds.residuals[branch], mask | settled_by(branch)].append(m)
        groups = {key: np.concatenate(p) for key, p in parts.items()}
    for (_, mask), members in groups.items():
        settled[members] = mask
    return success, settled


def _trace_record(trace: IterationTrace) -> tuple[int, str | None]:
    """(success round or 0, residual family of a failed trace)."""
    if trace.succeeded:
        return trace.success_round, None
    settled = 0
    for r in trace.rounds:
        settled |= settled_by(r.branch)
    return 0, FAMILIES[settled]


@dataclass
class PoolRound:
    """Per-round tally of a pool run."""

    index: int
    attempts: int
    successes: int
    residual_counts: dict[BranchClass, int] = field(default_factory=dict)


@dataclass
class PoolReport:
    """Outcome of a two-copy pool run.

    ``distilled`` counts maximal states produced; ``leftovers`` counts states
    that never found a partner (odd bucket populations, or survivors of the
    final round).  ``leftover_counts`` splits them by residual family, where
    eo means polarization settled, oe spatial settled, oo neither (fresh
    never-attempted copies also land under oo).  ``pairs_attempted`` is the
    total number of rounds run.
    """

    rounds: list[PoolRound]
    distilled: int
    leftovers: int
    leftover_counts: dict[str, int]
    pairs_attempted: int


def _bucket_branches(odds: _RoundOdds, pairs: int, rng: RandomSource) -> np.ndarray:
    """The branches of ``pairs`` calls of ``run_scheme_b_round(g, g, rng)``
    in a row, as settled masks (see :func:`~hyperconc.protocol.settled_by`),
    one per pair; ``odds`` are that round's odds on ``g``.

    ``rng`` is consumed exactly as by the calls one after another: pair by
    pair, each pair's uniforms in the order of :class:`_RoundOdds`, drawn in
    blocks of up to ``_BLOCK`` pairs.  Each pair's branch is decided from the
    round's parity odds; the readouts change no branch, so none is simulated.
    """
    odd, even = odds.draws
    found = []
    for start in range(0, pairs, _BLOCK):
        block = min(_BLOCK, pairs - start)
        if odd == even:
            rows = rng.uniforms(block * odd).reshape(block, -1)
        else:
            # One stream for all pairs: a pair's offset in it depends on the
            # earlier pairs' draw counts, so walk the pairs.
            rows = np.zeros((block, max(odd, even)))
            for row in rows:
                row[0] = first = rng.uniform()
                draws = even if first < odds.p_pol else odd
                row[1:draws] = rng.uniforms(draws - 1)
        found.append(odds.branches(rows))
    return np.concatenate(found)


def iterate_scheme_b_pool(
    count: int, template: GhzForm, max_rounds: int, rng: RandomSource
) -> PoolReport:
    """Drive a pool of identical copies through two-copy rounds.

    States pair only with states of identical coefficients.  Every bucket
    that pairs in a round was made in the round before, so a round's buckets
    are keyed by settled mask alone: one per residual family, merging that
    round's residuals of the family whatever branch produced them.  A
    bucket's odd copy can never pair with the (differently squared)
    residuals of later rounds, so it counts as a leftover of its family in
    the round it strands.

    The pairs of a bucket are decided together, from the odds of the two
    parity checks, which alone decide the branch (see
    :func:`_bucket_branches`); the diagonal readouts change no branch, so
    they are skipped.  The odds and residuals of each distinct state are
    computed once per run (see :func:`_round_table`).  The results equal
    those of running ``run_scheme_b_round`` pair by pair, buckets in
    creation order, on ``rng``: new buckets and residual tallies enter in
    the order of the first pair that produces them, and a merged bucket
    keeps the state of its first contributor.
    """
    count = _photon_count(count, math.inf, "count")
    if count < 2:
        raise ValueError("the pool needs at least two copies")
    max_rounds = _photon_count(max_rounds, math.inf, "max_rounds")
    check_scheme("b", template.n)
    buckets: dict[int, tuple[GhzForm, int]] = {0: (template, count)}
    leftover = [0] * len(FAMILIES)  # per settled mask
    table = _round_table(flip_copy)
    rounds: list[PoolRound] = []
    for r in range(1, max_rounds + 1):
        stats = PoolRound(index=r, attempts=0, successes=0)
        new_buckets: dict[int, tuple[GhzForm, int]] = {}
        for settled, (g, cnt) in buckets.items():
            leftover[settled] += cnt % 2
            if cnt < 2:
                continue
            stats.attempts += cnt // 2
            odds = table(g)
            found, first, counts = np.unique(
                _bucket_branches(odds, cnt // 2, rng), return_index=True, return_counts=True
            )
            for i in np.argsort(first):  # in the order of each branch's first pair
                branch, k = BranchClass(FAMILIES[found[i]]), int(counts[i])
                if concentrates(settled, branch):
                    stats.successes += k
                else:
                    stats.residual_counts[branch] = stats.residual_counts.get(branch, 0) + k
                    # a merged bucket keeps the state of its first contributor
                    key = settled | settled_by(branch)
                    kept, total = new_buckets.get(key, (odds.residuals[branch], 0))
                    new_buckets[key] = (kept, total + k)
        rounds.append(stats)
        buckets = new_buckets
    for settled, (_, cnt) in buckets.items():
        leftover[settled] += cnt
    if leftover[settled_by(BranchClass.EE)]:  # cannot persist as a residual
        raise ConsistencyError("a fully settled state survived the pool")
    leftover_counts = {FAMILIES[s]: left for s, left in enumerate(leftover) if left}
    return PoolReport(
        rounds=rounds,
        distilled=sum(stats.successes for stats in rounds),
        leftovers=sum(leftover),
        leftover_counts=dict(sorted(leftover_counts.items())),
        pairs_attempted=sum(stats.attempts for stats in rounds),
    )


def mc_estimate(
    scheme: str,
    n: int,
    alpha_sq: float,
    delta_sq: float,
    max_rounds: int,
    trials: int,
    seed: int = 0,
) -> McReport:
    """Sampled success rate of the iteration.

    Scheme a runs ``trials`` independent traces, each on its own substream
    derived from (seed, trial index).  Scheme b runs one pool of ``trials``
    initial copies; its rate counts distilled states per initial copy, which
    the pairing of retries keeps below the per-trace rate of scheme a.
    ``residual_class_counts`` tallies unconcentrated terminal states by
    family: eo polarization settled, oe spatial settled, oo neither.
    """
    n = check_scheme(scheme, n)[0]
    trials = _photon_count(trials, math.inf, "trials")
    max_rounds = _photon_count(max_rounds, math.inf, "max_rounds")
    if trials > _SPAWN_LIMIT:
        raise ValueError(f"trials must be at most 2**32, got {trials}")
    template = GhzForm(
        n,
        DofAmplitudes.from_first_probability(alpha_sq),
        DofAmplitudes.from_first_probability(delta_sq),
    )
    master = RandomSource(seed)
    per_round = [0] * max_rounds
    residual_counts: dict[str, int] = {}
    if scheme == "a":
        replay = _trace_record(iterate_scheme_a(template, max_rounds, master.derive(0)))
        table = _round_table(ancilla)
        for start in range(0, trials, _BLOCK):
            count = min(_BLOCK, trials - start)
            streams = master.derive_block(start, count)
            success, settled = _trace_block(template, max_rounds, streams, count, table)
            if start == 0:
                first = int(success[0])
                record = (first, None if first else FAMILIES[settled[0]])
                if record != replay:
                    raise ConsistencyError(
                        f"trial 0 of seed {seed}: the batched sampler gives {record}, "
                        f"its single-trace replay {replay}"
                    )
            for k, hits in enumerate(np.bincount(success)[1:], start=1):
                per_round[k - 1] += int(hits)
            for family, left in zip(FAMILIES, np.bincount(settled[success == 0], minlength=4)):
                if left:
                    residual_counts[family] = residual_counts.get(family, 0) + int(left)
        successes = sum(per_round)
    else:
        report = iterate_scheme_b_pool(trials, template, max_rounds, master)
        successes = report.distilled
        for stats in report.rounds:
            per_round[stats.index - 1] = stats.successes
        residual_counts.update(report.leftover_counts)
    rate = successes / trials
    return McReport(
        scheme=scheme,
        n=template.n,
        alpha_sq=float(alpha_sq),
        delta_sq=float(delta_sq),
        max_rounds=max_rounds,
        trials=trials,
        seed=master.seed,
        successes=successes,
        success_rate=rate,
        standard_error=math.sqrt(rate * (1.0 - rate) / trials),
        per_round_success_counts=tuple(per_round),
        residual_class_counts=dict(sorted(residual_counts.items())),
    )
