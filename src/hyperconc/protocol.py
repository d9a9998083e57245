"""Concentration protocol rounds and iteration drivers.

One round takes a GHZ-like working state whose coefficients are known,
couples it to a fresh resource, a copy of it with every photon flipped (one
photon, the ancilla of scheme a, or all n photons for scheme b), runs a
polarization parity check and then a spatial parity check on the pair
(working photon 0, first resource photon), reads the resource photons out in
the diagonal basis, and applies sign corrections to photon 0.  Even parity in
a degree of freedom leaves that degree of freedom balanced; odd parity
squares its coefficients.

Two success notions coexist and coincide except at exact-balance inputs.  A
single round's ``succeeded`` field reports a physical fact: the corrected
survivor is balanced in both degrees of freedom.  The iteration drivers
instead count a round as concentrating only when every degree of freedom not
already balanced by an earlier even outcome comes out even now; a coefficient
that merely starts at one half is not credited until a parity check pins it.
The drivers' tallies therefore match the closed-form retry recursion even on
the balance boundary, where the physical field is true on every branch.

Failed rounds are rerun on the residual: single survivors pair with fresh
ancillas, while two-copy residuals must pair with each other, which is what
the pool driver accounts for.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConsistencyError
from .measurement import (
    DiagonalOutcome,
    ParityOutcome,
    RandomSource,
    _forced_parity,
    _parity_post,
    _parity_probs,
    measure_diagonal,
    parity_measure,
)
from .states import (
    BALANCED,
    Dof,
    DofAmplitudes,
    FullState,
    GhzForm,
    apply_single_photon_gate,
    flip_copy,
    full_to_ghz,
    ghz_to_full,
    is_maximal,
    tensor,
)


SCHEMES = ("a", "b")


def check_scheme(scheme: str) -> str:
    """Return ``scheme`` if it names scheme a or b, else raise ``ValueError``."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return scheme


class BranchClass(Enum):
    """Joint parity outcome: first letter polarization, second spatial."""

    EE = "ee"
    EO = "eo"
    OE = "oe"
    OO = "oo"

    @staticmethod
    def from_parities(pol: ParityOutcome, spa: ParityOutcome) -> "BranchClass":
        key = ("e" if pol is ParityOutcome.EVEN else "o") + (
            "e" if spa is ParityOutcome.EVEN else "o"
        )
        return BranchClass(key)


@dataclass(frozen=True)
class RoundResult:
    """Everything one round produced.

    ``branch`` holds the two parity outcomes.  ``post`` is the corrected
    survivor state.  ``succeeded`` means the survivor is balanced in both
    degrees of freedom.  ``corrections`` lists the (photon, degree of
    freedom) pairs that received a Z.
    """

    branch: BranchClass
    succeeded: bool
    post: GhzForm
    diagonal_outcomes: tuple[DiagonalOutcome, ...]
    corrections: tuple[tuple[int, Dof], ...]


def _finish_round(
    state: FullState,
    pol_out: ParityOutcome,
    spa_out: ParityOutcome,
    diag: tuple[DiagonalOutcome, ...],
) -> RoundResult:
    # Shared tail of both schemes: corrections on photon 0, then extraction.
    # An odd number of minus outcomes in a degree of freedom calls for a Z
    # on photon 0 in that degree of freedom.
    corrections: list[tuple[int, Dof]] = []
    if sum(o.pol_sign == -1 for o in diag) % 2:
        state = apply_single_photon_gate(state, 0, Dof.POLARIZATION)
        corrections.append((0, Dof.POLARIZATION))
    if sum(o.spa_sign == -1 for o in diag) % 2:
        state = apply_single_photon_gate(state, 0, Dof.SPATIAL)
        corrections.append((0, Dof.SPATIAL))
    post = full_to_ghz(state)
    return RoundResult(
        branch=BranchClass.from_parities(pol_out, spa_out),
        succeeded=is_maximal(post),
        post=post,
        diagonal_outcomes=diag,
        corrections=tuple(corrections),
    )


def _dense_round(g: GhzForm, resource: GhzForm, rng: RandomSource) -> RoundResult:
    # The round of both schemes on dense vectors: parity checks on (photon 0,
    # photon n), then diagonal readout of every resource photon.  After each
    # removal the remaining resource photons start at index n again.
    n = g.n
    joint = tensor(ghz_to_full(g), ghz_to_full(resource))
    pol_out, joint = parity_measure(joint, 0, n, Dof.POLARIZATION, rng)
    spa_out, joint = parity_measure(joint, 0, n, Dof.SPATIAL, rng)
    outcomes: list[DiagonalOutcome] = []
    for _ in range(resource.n):
        outcome, joint = measure_diagonal(joint, n, rng)
        outcomes.append(outcome)
    return _finish_round(joint, pol_out, spa_out, tuple(outcomes))


def run_scheme_a_round(state: GhzForm, rng: RandomSource) -> RoundResult:
    """One ancilla-assisted round.

    The ancilla is the flipped one-photon copy of the working state.  The
    working state keeps all n photons; the ancilla is checked against
    photon 0 in both degrees of freedom and then read out diagonally.
    """
    if state.n < 2:
        raise ValueError("scheme A needs at least two photons in the working state")
    return _dense_round(state, flip_copy(GhzForm(1, state.pol, state.spa)), rng)


def run_scheme_b_round(copy1: GhzForm, copy2: GhzForm, rng: RandomSource) -> RoundResult:
    """One two-copy round.

    The second copy enters flipped, is checked against copy 1 through the
    (photon 0, photon n) pair, and then every one of its photons is read out
    diagonally; the n photons of copy 1 survive.
    """
    if copy1.n != copy2.n:
        raise ValueError("the two copies must have equal photon counts")
    if copy1.n < 2:
        raise ValueError("scheme B needs at least two photons per copy")
    for x, y in zip(
        (copy1.pol.first, copy1.pol.second, copy1.spa.first, copy1.spa.second),
        (copy2.pol.first, copy2.pol.second, copy2.spa.first, copy2.spa.second),
    ):
        if abs(abs(x) - abs(y)) > 1e-9:
            raise ValueError("the two copies must carry identical coefficient moduli")
    return _dense_round(copy1, flip_copy(copy2), rng)


@dataclass(frozen=True)
class _RoundOdds:
    """The odds of a round's two parity checks, which alone decide its branch.

    ``p_pol`` is the polarization check's even probability and
    ``pol_forced`` its certain outcome, or ``None`` when it draws.  ``spa``
    maps each outcome the polarization check can take to the spatial
    check's even probability after it, that check's certain outcome or
    ``None``, and the uniforms a member with that polarization outcome uses
    in all: one per unforced check and one per resource photon read out.
    """

    p_pol: float
    pol_forced: ParityOutcome | None
    spa: dict[ParityOutcome, tuple[float, ParityOutcome | None, int]]

    def branches(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's branch as a settled mask (see :func:`settled_by`), and
        the number of uniforms its member used.

        Row r holds a member's uniforms in the order :func:`_dense_round`
        draws them from its stream: the polarization check's, the spatial
        check's, then one per readout.  A readout only sets sign
        corrections, which change no branch, so its uniform is counted but
        not read.
        """
        pol_draws = int(self.pol_forced is None)
        if pol_draws:
            pol_even = rows[:, 0] < self.p_pol
        else:
            pol_even = np.full(len(rows), self.pol_forced is ParityOutcome.EVEN)
        spa_even = np.empty(len(rows), dtype=bool)
        used = np.empty(len(rows), dtype=np.intp)
        for outcome, (p_spa, forced, draws) in self.spa.items():
            mine = pol_even == (outcome is ParityOutcome.EVEN)
            if forced is None:
                spa_even[mine] = rows[mine, pol_draws] < p_spa
            else:
                spa_even[mine] = forced is ParityOutcome.EVEN
            used[mine] = draws
        return 2 * pol_even + spa_even, used


def _round_odds(g: GhzForm, resource: GhzForm) -> _RoundOdds:
    """The odds of :func:`_dense_round` on ``g`` and ``resource``.

    The joint state is built once, and the polarization check is projected
    once per outcome it can take, exactly as the dense round projects it.
    """
    n = g.n
    joint = tensor(ghz_to_full(g), ghz_to_full(resource))
    p_pol, mask = _parity_probs(joint, 0, n, Dof.POLARIZATION)
    pol_forced = _forced_parity(p_pol)
    spa = {}
    for outcome in ParityOutcome if pol_forced is None else (pol_forced,):
        p_spa = _parity_probs(_parity_post(joint, outcome, p_pol, mask)[1], 0, n, Dof.SPATIAL)[0]
        forced = _forced_parity(p_spa)
        draws = int(pol_forced is None) + int(forced is None) + resource.n
        spa[outcome] = (p_spa, forced, draws)
    return _RoundOdds(p_pol, pol_forced, spa)


def classify_residual(branch: BranchClass, state: GhzForm) -> GhzForm:
    """Residual family for a failed branch.

    Even parity in a degree of freedom balances it; odd parity squares its
    amplitudes (then renormalizes).  EE never leaves a residual.
    """
    if branch is BranchClass.EE:
        raise ValueError("the ee branch is a success, not a residual")

    def squared(pair: DofAmplitudes) -> DofAmplitudes:
        f, s = complex(pair.first) ** 2, complex(pair.second) ** 2
        norm = (abs(f) ** 2 + abs(s) ** 2) ** 0.5
        return DofAmplitudes(f / norm, s / norm)

    pol = BALANCED if branch is BranchClass.EO else squared(state.pol)
    spa = BALANCED if branch is BranchClass.OE else squared(state.spa)
    return GhzForm(state.n, pol, spa)


class _RoundTable(dict):
    """The rounds of one sampler call, one entry per distinct state, each
    filled the first time the call meets its state.

    ``table[g]`` holds the :class:`_RoundOdds` of a round on ``g`` and
    ``resource(g)``, and the residual form of each failing branch (see
    :func:`classify_residual`).  The resource is a function of ``g``, so
    ``g`` alone is the key.  A table lives as long as its call: every
    block, group and bucket round of the call reads it.
    """

    def __init__(self, resource: Callable[[GhzForm], GhzForm]):
        super().__init__()
        self.resource = resource

    def __missing__(self, g: GhzForm) -> tuple[_RoundOdds, dict[BranchClass, GhzForm]]:
        residuals = {b: classify_residual(b, g) for b in BranchClass if b is not BranchClass.EE}
        self[g] = entry = (_round_odds(g, self.resource(g)), residuals)
        return entry


# Retry accounting.  A degree of freedom is settled once an even outcome has
# balanced it; the settled ones form a mask 2 * pol + spa, into which every
# failed round ORs the checks its branch found even.  FAMILIES[mask] labels a
# residual by that mask: eo polarization settled, oe spatial, oo neither.
FAMILIES = ("oo", "oe", "eo", "ee")
_ALL_SETTLED = 3


def settled_by(branch: BranchClass) -> int:
    """The degrees of freedom ``branch`` found even, as a settled mask."""
    return FAMILIES.index(branch.value)


def concentrates(settled: int, branch: BranchClass) -> bool:
    """Retry-accounting success rule for one round.

    The round concentrates when every degree of freedom not in the mask
    ``settled`` comes out even.  Fresh states (mask 0) therefore only
    succeed on the ee branch, regardless of their coefficients.
    """
    return settled | settled_by(branch) == _ALL_SETTLED


@dataclass(frozen=True)
class IterationTrace:
    """Outcome record of repeated rounds on one working state.

    ``succeeded`` follows the retry accounting of :func:`concentrates`,
    not the per-round physical flag, so balanced inputs are still counted
    through their parity history.
    """

    rounds: tuple[RoundResult, ...]
    succeeded: bool
    success_round: int | None  # 1-based; None when every round failed


def iterate_scheme_a(state: GhzForm, max_rounds: int, rng: RandomSource) -> IterationTrace:
    """Run ancilla-assisted rounds until success or ``max_rounds`` failures.

    After a failed round the working state is replaced by its residual family
    and a fresh ancilla is tailored to the new coefficients.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    results: list[RoundResult] = []
    settled = 0
    for k in range(1, max_rounds + 1):
        res = run_scheme_a_round(state, rng)
        results.append(res)
        if concentrates(settled, res.branch):
            return IterationTrace(tuple(results), True, k)
        settled |= settled_by(res.branch)
        state = classify_residual(res.branch, state)
    return IterationTrace(tuple(results), False, None)


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


# Pairs of one pool bucket simulated together; bounds the uniforms drawn at once.
_PAIR_BLOCK = 4096


def _pair_uniforms(rng: RandomSource, pairs: int, odds: _RoundOdds) -> np.ndarray:
    """The next ``pairs`` pairs' uniforms from ``rng``, one row per pair."""
    widths = {draws for _, _, draws in odds.spa.values()}
    if len(widths) == 1:
        return rng.uniforms(pairs * widths.pop()).reshape(pairs, -1)
    # The spatial check is forced after one polarization outcome only, so a
    # pair's draw count depends on its own polarization draw, the first of
    # its row: walk the pairs.
    rows = np.zeros((pairs, max(widths)))
    for row in rows:
        row[0] = rng.uniform()
        used = odds.branches(row[None])[1][0]
        row[1:used] = rng.uniforms(used - 1)
    return rows


def _bucket_branches(odds: _RoundOdds, pairs: int, rng: RandomSource) -> np.ndarray:
    """The branches of ``pairs`` calls of ``run_scheme_b_round(g, g, rng)``
    in a row, as settled masks (see :func:`settled_by`), one per pair;
    ``odds`` are that round's odds on ``g`` (see :class:`_RoundOdds`).

    ``rng`` is consumed exactly as by the calls one after another: pair by
    pair, each pair's draws in order, one per unforced parity check and one
    per diagonal readout.  Each pair's branch is decided from the round's
    parity odds; the readouts change no branch, so none is simulated.
    """
    return np.concatenate([
        odds.branches(_pair_uniforms(rng, min(_PAIR_BLOCK, pairs - start), odds))[0]
        for start in range(0, pairs, _PAIR_BLOCK)
    ])


def iterate_scheme_b_pool(
    count: int, template: GhzForm, max_rounds: int, rng: RandomSource
) -> PoolReport:
    """Drive a pool of identical copies through two-copy rounds.

    States pair only with states of identical coefficients, so buckets are
    keyed by (settled mask, round of creation); same-age residuals of the
    same family merge even when different branches produced them, while an
    unpaired leftover stays in its bucket and can never mix with the
    (differently squared) residuals of later rounds.

    The pairs of a bucket are decided together, from the odds of the two
    parity checks, which alone decide the branch (see
    :func:`_bucket_branches`); the diagonal readouts change no branch, so
    they are skipped.  The odds and residuals of each distinct state are
    computed once per run (see :class:`_RoundTable`).  The results equal
    those of running ``run_scheme_b_round`` pair by pair, buckets in
    creation order, on ``rng``: new buckets and residual tallies enter in
    the order of the first pair that produces them, and a merged bucket
    keeps the state of its first contributor.
    """
    if count < 2:
        raise ValueError("the pool needs at least two copies")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if template.n < 2:
        raise ValueError("scheme B needs at least two photons per copy")
    BucketKey = tuple[int, int]  # (settled mask, birth round)
    buckets: dict[BucketKey, tuple[GhzForm, int]] = {(0, 0): (template, count)}
    table = _RoundTable(flip_copy)
    rounds: list[PoolRound] = []
    distilled = 0
    pairs_attempted = 0
    for r in range(1, max_rounds + 1):
        stats = PoolRound(index=r, attempts=0, successes=0)
        new_buckets: dict[BucketKey, tuple[GhzForm, int]] = {}

        def _add(key: BucketKey, g: GhzForm, k: int) -> None:
            if k <= 0:
                return
            if key in new_buckets:
                new_buckets[key] = (new_buckets[key][0], new_buckets[key][1] + k)
            else:
                new_buckets[key] = (g, k)

        for (settled, birth), (g, cnt) in buckets.items():
            # odd leftover carries, stranded in its bucket
            _add((settled, birth), g, cnt % 2)
            if cnt < 2:
                continue
            stats.attempts += cnt // 2
            pairs_attempted += cnt // 2
            odds, residuals = table[g]
            found, first, counts = np.unique(
                _bucket_branches(odds, cnt // 2, rng), return_index=True, return_counts=True
            )
            for i in np.argsort(first):  # in the order of each branch's first pair
                branch, k = BranchClass(FAMILIES[found[i]]), int(counts[i])
                if concentrates(settled, branch):
                    stats.successes += k
                    distilled += k
                else:
                    stats.residual_counts[branch] = stats.residual_counts.get(branch, 0) + k
                    _add((settled | settled_by(branch), r), residuals[branch], k)
        rounds.append(stats)
        buckets = new_buckets
    leftover_counts: dict[str, int] = {}
    for (settled, _), (_, cnt) in buckets.items():
        if settled == _ALL_SETTLED:  # cannot persist as a residual
            raise ConsistencyError("a fully settled state survived the pool")
        label = FAMILIES[settled]
        leftover_counts[label] = leftover_counts.get(label, 0) + cnt
    return PoolReport(
        rounds=rounds,
        distilled=distilled,
        leftovers=sum(leftover_counts.values()),
        leftover_counts=dict(sorted(leftover_counts.items())),
        pairs_attempted=pairs_attempted,
    )
