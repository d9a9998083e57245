"""Seeded Monte Carlo estimates of the iterated success rate.

Scheme a runs independent traces, trial ``t`` on the substream derived from
(seed, t); scheme b runs one pool on the master stream of the seed (see
:func:`~hyperconc.protocol.iterate_scheme_b_pool`), which decides each
pair's branch from the odds of the two parity checks: each pair's readout
uniforms are drawn with its row but never simulated.

Traces are simulated breadth first, in blocks of up to ``_TRIAL_BLOCK``
trials; a block bounds the memory of a call and nothing else.  In each
round the trials that hold the same working state and settled mask form a
group.  Both samplers decide a round the same way (see
:class:`~hyperconc.protocol._RoundOdds`): each trial compares its own
uniforms with the odds of the two parity checks.  The branch is all a round
decides, so each trial's readout uniform is drawn but no readout is
simulated.  Each call keeps one table of odds (see
:class:`~hyperconc.protocol._RoundTable`): the first time the call meets a
state, the joint state of it and its resource is built once and its
polarization check projected once per outcome, and every later group,
block and round on that state reads the entry.  A block derives all its
trials' substreams in one array pass
(:meth:`~hyperconc.measurement.RandomSource.derive_block`), which draws the
very doubles of ``RandomSource(seed).derive(t)``, and each group-round draws
its members' uniforms straight from their substreams, exactly as
:func:`~hyperconc.protocol.iterate_scheme_a` would.  So the report equals
that of running the traces one by one and does not depend on the block
size.  Each call replays its trial 0 through ``iterate_scheme_a``, on
numpy's own generator, and raises :class:`ConsistencyError` when the two
disagree.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .measurement import _SPAWN_LIMIT, RandomSource, SubstreamBlock
from .protocol import (
    FAMILIES,
    BranchClass,
    IterationTrace,
    _RoundOdds,
    _RoundTable,
    check_scheme,
    concentrates,
    iterate_scheme_a,
    iterate_scheme_b_pool,
    settled_by,
)
from .states import DofAmplitudes, GhzForm, flip_copy

# Scheme-a trials simulated together; bounds the live substreams and the
# per-trial arrays, and nothing else.
_TRIAL_BLOCK = 4096


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


def _round_rows(odds: _RoundOdds, streams: SubstreamBlock, members: np.ndarray) -> np.ndarray:
    """Each member's uniforms of one round on ``odds``, one row each (see
    :meth:`~hyperconc.protocol._RoundOdds.branches`), drawn straight from
    the member's own stream."""
    widths = {draws for _, _, draws in odds.spa.values()}
    if len(widths) == 1:
        return streams.uniforms(widths.pop(), members)
    # The spatial check is forced after one polarization outcome only, so a
    # member's draw count depends on its own polarization draw: draw that
    # first, then each outcome's remaining uniforms.
    rows = np.zeros((len(members), max(widths)))
    rows[:, :1] = streams.uniforms(1, members)
    used = odds.branches(rows)[1]
    for w in widths:
        rows[used == w, 1:w] = streams.uniforms(w - 1, members[used == w])
    return rows


def _trace_block(
    template: GhzForm, max_rounds: int, streams: SubstreamBlock, count: int, table: _RoundTable
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
            odds, residuals = table[g]
            found = odds.branches(_round_rows(odds, streams, members))[0]
            for value, family in enumerate(FAMILIES):
                m = members[found == value]
                if not m.size:
                    continue
                branch = BranchClass(family)
                if concentrates(mask, branch):
                    success[m] = k
                else:
                    parts[residuals[branch], mask | settled_by(branch)].append(m)
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
    check_scheme(scheme)
    if trials < 1:
        raise ValueError("trials must be positive")
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
        table = _RoundTable(lambda g: flip_copy(GhzForm(1, g.pol, g.spa)))
        for start in range(0, trials, _TRIAL_BLOCK):
            count = min(_TRIAL_BLOCK, trials - start)
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
        n=n,
        alpha_sq=float(alpha_sq),
        delta_sq=float(delta_sq),
        max_rounds=max_rounds,
        trials=trials,
        seed=seed,
        successes=successes,
        success_rate=rate,
        standard_error=math.sqrt(rate * (1.0 - rate) / trials),
        per_round_success_counts=tuple(per_round),
        residual_class_counts=dict(sorted(residual_counts.items())),
    )
