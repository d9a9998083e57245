"""Brute-force cross-checks for the protocol and the closed-form engine.

The enumerator replays one round outcome by outcome on dense vectors: both
parity branches per check, every diagonal readout pattern, corrections, then
a fidelity test against an explicitly built target vector.  It deliberately
avoids the compact-form algebra and the rate formulas of the other modules,
so its numbers are an independent route to the same quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError
from .measurement import (
    DIAGONAL_OUTCOMES,
    MIN_BRANCH_PROBABILITY,
    ParityOutcome,
    parity_branch,
)
from .protocol import BranchClass, check_scheme
from .states import (
    Dof,
    FullState,
    _bit_mask,
    _bit_shift,
)

ORACLE_PHOTON_CAP = 8

# Conjugated readout rows, in DIAGONAL_OUTCOMES order: the same rows as the
# measurement layer's diagonal readout.  Scaling before conjugating keeps the
# signs of the zero imaginary parts, and with them the leaves' bytes.
_READOUT_CONJ = (
    0.5
    * np.array(
        [[1, o.pol_sign, o.spa_sign, o.pol_sign * o.spa_sign] for o in DIAGONAL_OUTCOMES],
        dtype=np.complex128,
    )
).conj()
_READOUT_CONJ.flags.writeable = False


def _basis_index(n: int, pol_bit: int, spa_bit: int) -> int:
    # All photons share the same digit; accumulate it position by position.
    digit = 2 * spa_bit + pol_bit
    idx = 0
    for _ in range(n):
        idx = 4 * idx + digit
    return idx


def _ghz_vector(n: int, pol: tuple[float, float], spa: tuple[float, float]) -> FullState:
    amps = np.zeros(4**n, dtype=np.complex128)
    for pol_bit, pw in enumerate(pol):
        for spa_bit, sw in enumerate(spa):
            amps[_basis_index(n, pol_bit, spa_bit)] = pw * sw
    return FullState(n, amps)


@lru_cache(maxsize=None)
def _maximal_vector(n: int) -> FullState:
    h = 1.0 / math.sqrt(2.0)
    return _ghz_vector(n, (h, h), (h, h))


@lru_cache(maxsize=None)
def _all_zero_mask(n: int, spatial: bool) -> np.ndarray:
    idx = np.arange(4**n)
    mask = np.ones(4**n, dtype=bool)
    for k in range(n):
        shift = 2 * (n - 1 - k) + (1 if spatial else 0)
        mask &= ((idx >> shift) & 1) == 0
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def _readout_patterns(
    n_resource: int,
) -> tuple[tuple[tuple[str, ...], ...], np.ndarray, np.ndarray]:
    """Per readout column: its outcome labels, and whether its polarization
    and spatial minus counts are odd (the columns photon 0's sign
    corrections apply to)."""
    digits = np.indices((4,) * n_resource).reshape(n_resource, -1)
    labels = tuple(
        tuple(DIAGONAL_OUTCOMES[k].label() for k in combo) for combo in digits.T.tolist()
    )
    # DIAGONAL_OUTCOMES[k]: pol sign lives in bit 1 of k, spa in bit 0
    pol_odd = np.bitwise_xor.reduce((digits >> 1) & 1, axis=0).astype(bool)
    spa_odd = np.bitwise_xor.reduce(digits & 1, axis=0).astype(bool)
    pol_odd.flags.writeable = False
    spa_odd.flags.writeable = False
    return labels, pol_odd, spa_odd


@dataclass(frozen=True)
class OutcomeLeaf:
    """One complete measurement record of a round."""

    sequence: tuple[str, ...]
    probability: float
    branch: BranchClass
    succeeded: bool
    pol_sq: float
    spa_sq: float
    state: FullState


@dataclass(frozen=True)
class OutcomeTree:
    """All round outcomes of one scheme with their exact probabilities.

    ``dropped_mass`` is the probability of the parity branches and readout
    records pruned at ``MIN_BRANCH_PROBABILITY``, the mass missing from
    ``total_mass()``.
    """

    scheme: str
    n: int
    alpha_sq: float
    delta_sq: float
    leaves: tuple[OutcomeLeaf, ...]
    dropped_mass: float = 0.0

    def total_mass(self) -> float:
        return sum(leaf.probability for leaf in self.leaves)

    def success_probability(self) -> float:
        return sum(leaf.probability for leaf in self.leaves if leaf.succeeded)

    def class_mass(self, branch: BranchClass) -> float:
        return sum(leaf.probability for leaf in self.leaves if leaf.branch is branch)

    def residual_coefficients(self, branch: BranchClass) -> tuple[float, float]:
        """Probability-weighted post-state (pol_sq, spa_sq) of one non-ee branch.

        Every leaf of the branch participates: a leaf can end up maximal (for
        instance when the squared degree of freedom started balanced) yet
        still belongs to the branch's residual family.
        """
        if branch is BranchClass.EE:
            raise ValueError("the ee branch is a success, not a residual family")
        mass = 0.0
        pol = spa = 0.0
        for leaf in self.leaves:
            if leaf.branch is branch:
                mass += leaf.probability
                pol += leaf.probability * leaf.pol_sq
                spa += leaf.probability * leaf.spa_sq
        if mass <= 0.0:
            raise ValueError(f"no leaves in class {branch.value}")
        return pol / mass, spa / mass


def enumerate_scheme(
    scheme: str,
    n: int,
    alpha_sq: float,
    delta_sq: float,
    photon_cap: int = ORACLE_PHOTON_CAP,
) -> OutcomeTree:
    """Walk every outcome of one round and classify each terminal state.

    ``alpha_sq`` and ``delta_sq`` are the squared first coefficients of the
    working state; amplitudes are taken real and nonnegative.
    """
    check_scheme(scheme)
    if n < 2:
        raise ValueError("the working state needs at least two photons")

    def clamp(name: str, p: float) -> float:
        # Marginals fed back from enumerated states may overshoot by rounding.
        if -1e-12 <= p <= 1.0 + 1e-12:
            return min(max(float(p), 0.0), 1.0)
        raise ValueError(f"{name} must lie in [0, 1], got {p}")

    alpha_sq = clamp("alpha_sq", alpha_sq)
    delta_sq = clamp("delta_sq", delta_sq)
    n_resource = 1 if scheme == "a" else n
    if n + n_resource > photon_cap:
        raise ValueError(
            f"{n + n_resource} photons exceed the enumeration cap of {photon_cap}"
        )

    a, b = math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)
    c, d = math.sqrt(delta_sq), math.sqrt(1.0 - delta_sq)
    working = _ghz_vector(n, (a, b), (c, d))
    # Both resources carry the exchanged pairs: the tailored ancilla by
    # construction, the flipped second copy because flipping swaps branches.
    resource = _ghz_vector(n_resource, (b, a), (d, c))
    joint = FullState(
        n + n_resource, np.kron(working.amplitudes, resource.amplitudes)
    )

    target = _maximal_vector(n)
    labels, pol_odd, spa_odd = _readout_patterns(n_resource)
    leaves: list[OutcomeLeaf] = []
    dropped = 0.0

    for pol_out in ParityOutcome:
        p_pol, after_pol = parity_branch(joint, 0, n, Dof.POLARIZATION, pol_out)
        if after_pol is None:
            dropped += p_pol
            continue
        for spa_out in ParityOutcome:
            p_spa, after_spa = parity_branch(after_pol, 0, n, Dof.SPATIAL, spa_out)
            if after_spa is None:
                dropped += p_pol * p_spa
                continue
            branch = BranchClass.from_parities(pol_out, spa_out)
            prefix = (f"pol_{pol_out.value}", f"spa_{spa_out.value}")
            # Read every resource photon out in one pass: contracting the
            # readout rows onto a photon's axis sends that axis to the back,
            # so after n_resource contractions of axis 1 the block is indexed
            # by (working basis, outcome of photon n, ..., outcome of last).
            # Readouts on distinct photons commute, so this equals the
            # one-at-a-time branch walk with the probabilities telescoped.
            block = after_spa.amplitudes.reshape((4**n,) + (4,) * n_resource)
            for _ in range(n_resource):
                block = np.tensordot(block, _READOUT_CONJ, axes=([1], [1]))
            flat = block.reshape(4**n, 4**n_resource)
            branch_prob = p_pol * p_spa

            # Batch the per-column work: probabilities, sign corrections on
            # photon 0 (for columns whose minus counts are odd), overlap with
            # the maximal target, and the two first-coefficient marginals.
            mags = flat.real**2 + flat.imag**2
            probs = np.sum(mags, axis=0)
            weights = branch_prob * probs
            kept = weights > MIN_BRANCH_PROBABILITY
            dropped += float(np.sum(weights[~kept]))
            cols = np.flatnonzero(kept)
            corrected = flat.copy()
            if pol_odd.any():
                rows = _bit_mask(n, _bit_shift(n, 0, Dof.POLARIZATION))
                corrected[np.ix_(rows, pol_odd)] *= -1.0
            if spa_odd.any():
                rows = _bit_mask(n, _bit_shift(n, 0, Dof.SPATIAL))
                corrected[np.ix_(rows, spa_odd)] *= -1.0
            overlaps = target.amplitudes.conj() @ corrected
            fid_num = overlaps.real**2 + overlaps.imag**2
            # sign flips never change magnitudes, so marginals come from mags
            pol_masses = np.sum(mags[_all_zero_mask(n, False)], axis=0)
            spa_masses = np.sum(mags[_all_zero_mask(n, True)], axis=0)

            p = probs[cols]
            states = FullState._from_rows(n, corrected.T[cols] / np.sqrt(p)[:, None])
            for col, prob, ok, pol_sq, spa_sq, state in zip(
                cols.tolist(),
                weights[cols].tolist(),
                (fid_num[cols] / p >= 1.0 - 1e-10).tolist(),
                (pol_masses[cols] / p).tolist(),
                (spa_masses[cols] / p).tolist(),
                states,
            ):
                leaves.append(
                    OutcomeLeaf(prefix + labels[col], prob, branch, ok, pol_sq, spa_sq, state)
                )

    return OutcomeTree(scheme, n, float(alpha_sq), float(delta_sq), tuple(leaves), dropped)


def exact_iteration_tree(
    scheme: str,
    n: int,
    alpha_sq: float,
    delta_sq: float,
    max_rounds: int,
    photon_cap: int = ORACLE_PHOTON_CAP,
) -> list[float]:
    """Per-round success probabilities from repeated exhaustive enumeration.

    Residual coefficients are read off the enumerated terminal states (not
    from any recursion) and fed back in as the next round's parameters.
    Survivors are pooled by which degrees of freedom an even outcome has
    already settled; a round counts as a success when every unsettled degree
    of freedom comes out even, so the first round only succeeds on ee and a
    coefficient that merely starts at one half earns no credit.  This is the
    retry accounting of the iteration drivers, reproduced here on enumerated
    masses alone.
    """
    if not 1 <= max_rounds <= 6:
        raise ValueError("max_rounds must lie in [1, 6]")
    agree_tol = 1e-9
    # (pol settled?, spa settled?) -> (mass, pol_sq, spa_sq)
    entries: dict[tuple[bool, bool], tuple[float, float, float]] = {}
    per_round: list[float] = []

    def absorb(tree: OutcomeTree, mass: float, pol_fixed: bool, spa_fixed: bool) -> float:
        success = 0.0
        for leaf in tree.leaves:
            if mass * leaf.probability <= MIN_BRANCH_PROBABILITY:
                continue
            pol_even = leaf.branch in (BranchClass.EE, BranchClass.EO)
            spa_even = leaf.branch in (BranchClass.EE, BranchClass.OE)
            if (pol_fixed or pol_even) and (spa_fixed or spa_even):
                if not leaf.succeeded:
                    raise ConsistencyError("a leaf counted as success is not maximal")
                success += mass * leaf.probability
                continue
            key = (pol_fixed or pol_even, spa_fixed or spa_even)
            if key in entries:
                m0, p0, s0 = entries[key]
                if abs(p0 - leaf.pol_sq) > agree_tol or abs(s0 - leaf.spa_sq) > agree_tol:
                    raise ConsistencyError("residual coefficients disagree within one pool")
                entries[key] = (m0 + mass * leaf.probability, p0, s0)
            else:
                entries[key] = (mass * leaf.probability, leaf.pol_sq, leaf.spa_sq)
        return success

    tree = enumerate_scheme(scheme, n, alpha_sq, delta_sq, photon_cap)
    per_round.append(absorb(tree, 1.0, False, False))
    for _ in range(2, max_rounds + 1):
        current, entries = entries, {}
        p_round = 0.0
        for (pol_fixed, spa_fixed), (mass, pol_sq, spa_sq) in current.items():
            tree = enumerate_scheme(scheme, n, pol_sq, spa_sq, photon_cap)
            p_round += absorb(tree, mass, pol_fixed, spa_fixed)
        per_round.append(p_round)
    return per_round
