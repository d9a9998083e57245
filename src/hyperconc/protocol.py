"""Concentration protocol rounds and iteration drivers: the dense reference.

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

Failed rounds are rerun on the residual: a single survivor pairs with a
fresh ancilla (:func:`iterate_scheme_a`).  Every round here runs on dense
vectors through the public parity checks and readout of ``measurement``,
one trial at a time.  The batched samplers, the two-copy pool among them,
live in ``sampling`` and are checked against these rounds, so this module
imports nothing from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .measurement import (
    DiagonalOutcome,
    ParityOutcome,
    RandomSource,
    measure_diagonal,
    parity_measure,
)
from .states import (
    BALANCED,
    PHOTON_CAP,
    Dof,
    DofAmplitudes,
    FullState,
    GhzForm,
    _photon_count,
    apply_single_photon_gate,
    flip_copy,
    full_to_ghz,
    ghz_to_full,
    is_maximal,
    tensor,
)


SCHEMES = ("a", "b")


def check_scheme(scheme: str, n: int) -> tuple[int, int]:
    """The one size rule of a round: ``(n, n_resource)`` as ``int``, where
    ``n_resource`` is the photon count of the resource (1 for scheme a's
    ancilla, ``n`` for scheme b's second copy).

    ``ValueError`` when ``scheme`` names neither scheme, ``n`` is not an
    integer of at least 2 (see :func:`~hyperconc.states._photon_count`), or
    the working state and its resource together exceed ``PHOTON_CAP``.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    n = _photon_count(n, math.inf, low=2)
    n_resource = 1 if scheme == "a" else n
    if n + n_resource > PHOTON_CAP:
        raise ValueError(
            f"scheme {scheme} with n={n} simulates {n + n_resource} photons, "
            f"over the cap of {PHOTON_CAP}"
        )
    return n, n_resource


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


def ancilla(g: GhzForm) -> GhzForm:
    """Scheme a's resource for the working state ``g``: its flipped one-photon copy."""
    return flip_copy(GhzForm(1, g.pol, g.spa))


def run_scheme_a_round(state: GhzForm, rng: RandomSource) -> RoundResult:
    """One ancilla-assisted round.

    The working state keeps all n photons; its :func:`ancilla` is checked
    against photon 0 in both degrees of freedom and then read out
    diagonally.
    """
    check_scheme("a", state.n)
    return _dense_round(state, ancilla(state), rng)


def run_scheme_b_round(copy1: GhzForm, copy2: GhzForm, rng: RandomSource) -> RoundResult:
    """One two-copy round.

    The second copy enters flipped, is checked against copy 1 through the
    (photon 0, photon n) pair, and then every one of its photons is read out
    diagonally; the n photons of copy 1 survive.
    """
    if copy1.n != copy2.n:
        raise ValueError("the two copies must have equal photon counts")
    check_scheme("b", copy1.n)
    for x, y in zip(
        (copy1.pol.first, copy1.pol.second, copy1.spa.first, copy1.spa.second),
        (copy2.pol.first, copy2.pol.second, copy2.spa.first, copy2.spa.second),
    ):
        if abs(abs(x) - abs(y)) > 1e-9:
            raise ValueError("the two copies must carry identical coefficient moduli")
    return _dense_round(copy1, flip_copy(copy2), rng)


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
    max_rounds = _photon_count(max_rounds, math.inf, "max_rounds")
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
