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
    _READOUT_CONJ,
    parity_branch,
)
from .protocol import BranchClass, check_scheme
from .states import Dof, FullState, _bit_shift, _photon_count, _repunit


def _ghz_vector(n: int, pol: tuple[float, float], spa: tuple[float, float]) -> FullState:
    amps = np.zeros(4**n, dtype=np.complex128)
    for pol_bit, pw in enumerate(pol):
        for spa_bit, sw in enumerate(spa):
            # Every photon carries the same digit 2 * spa_bit + pol_bit.
            amps[(2 * spa_bit + pol_bit) * _repunit(n)] = pw * sw
    return FullState(n, amps)


@lru_cache(maxsize=None)
def _maximal_vector(n: int) -> FullState:
    h = 1.0 / math.sqrt(2.0)
    return _ghz_vector(n, (h, h), (h, h))


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


def _parity_branches(
    joint: FullState, n: int, n_resource: int
) -> tuple[float, list[tuple[tuple[str, str], BranchClass, float]], np.ndarray, np.ndarray]:
    """Both parity checks of a round, each branch compressed to its live rows.

    A working row is live when any bit of its amplitudes is set.  Returns
    the mass of the pruned parity branches, one (label prefix, class,
    probability) entry per surviving branch, the live rows of each
    branch padded with all-+0 rows to a common count, shape (branches,
    width, 4**n_resource), and their working-row indices (-1 for padding).
    Each post-check vector is released once compressed, so at most one
    dense vector per parity level is alive.
    """
    dropped = 0.0
    branches = []
    compressed = []
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
            amps = after_spa.amplitudes.reshape(4**n, 4**n_resource)
            rows = np.flatnonzero(amps.view(np.uint64).any(axis=1))
            compressed.append((rows, amps[rows]))
            del amps, after_spa
            prefix = (f"pol_{pol_out.value}", f"spa_{spa_out.value}")
            branches.append((prefix, BranchClass.from_parities(pol_out, spa_out), p_pol * p_spa))
        del after_pol
    width = max(rows.size for rows, _ in compressed)
    live = np.zeros((len(compressed), width, 4**n_resource), dtype=np.complex128)
    live_rows = np.full((len(compressed), width), -1, dtype=np.intp)
    for b, (rows, block) in enumerate(compressed):
        live[b, : rows.size] = block
        live_rows[b, : rows.size] = rows
    return dropped, branches, live, live_rows


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


def _clamp(name: str, p: float) -> float:
    # Marginals fed back from enumerated states may overshoot by rounding.
    if -1e-12 <= p <= 1.0 + 1e-12:
        return min(max(float(p), 0.0), 1.0)
    raise ValueError(f"{name} must lie in [0, 1], got {p}")


def _leaf_columns(
    n: int, n_resource: int, alpha_sq: float, delta_sq: float
) -> tuple[float, tuple[list, ...], tuple]:
    """Walk every outcome of one round up to its per-leaf numbers.

    Returns ``(dropped, columns, cut)``: the pruned mass; the kept leaves'
    columns in leaf order, as lists (branch class, probability, success
    flag, ``pol_sq``, ``spa_sq``); and what the leaf labels and states are
    cut from: the surviving parity branches (as ``_parity_branches``
    returns them), each kept leaf's branch and readout column, the
    corrected readout block, each kept leaf's conditional probability and
    the branches' live rows.
    """
    a, b = math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)
    c, d = math.sqrt(delta_sq), math.sqrt(1.0 - delta_sq)
    working = _ghz_vector(n, (a, b), (c, d))
    # Both resources are flipped copies, of one photon or of n: flipping
    # exchanges the pairs.
    resource = _ghz_vector(n_resource, (b, a), (d, c))

    # The working and resource states are products of GHZ pairs, and the two
    # parity projections are diagonal, so each surviving branch holds
    # amplitude on at most four of the 4**n working rows.  The joint vector
    # is the flattened outer product, which has the bytes of np.kron.
    dropped, branches, live, live_rows = _parity_branches(
        FullState._adopt(
            n + n_resource, np.multiply.outer(working.amplitudes, resource.amplitudes).ravel()
        ),
        n,
        n_resource,
    )
    n_live = live_rows.size
    _, pol_odd, spa_odd = _readout_patterns(n_resource)

    # Read every resource photon out in one pass over the live rows of all
    # branches, followed by one all-+0 row per photon-0 digit (its
    # correction class) that stands for every row without amplitude.
    # Contracting the readout rows onto a photon's axis sends that axis to
    # the back, so after n_resource contractions of axis 1 the block is
    # indexed by (row, outcome of photon n, ..., outcome of last).  Readouts
    # on distinct photons commute, so this equals the one-at-a-time branch
    # walk with the probabilities telescoped.  A row's readout does not
    # depend on the other rows, so a zero row's readout is the dense pass's
    # bit for bit, signed zeros included.  That holds for BLAS gemm only: a
    # one-row product goes to gemv, whose last bits differ, and the four
    # class rows keep every block above one row.
    block = np.concatenate(
        [live.reshape(n_live, -1), np.zeros((4, 4**n_resource), dtype=np.complex128)]
    )
    block = block.reshape((len(block),) + (4,) * n_resource)
    for _ in range(n_resource):
        block = np.tensordot(block, _READOUT_CONJ, axes=([1], [1]))
    corrected = block.reshape(len(block), 4**n_resource)

    # Per (branch, readout column): probability, the two first-coefficient
    # marginals, and the overlap with the maximal target after the sign
    # corrections on photon 0 (columns whose minus counts are odd).  Sums
    # over a branch's rows run in row order, as in the dense pass, and the
    # rows of +0 left out or padded in change no bit of them.
    mags = corrected.real**2 + corrected.imag**2
    live_mags = mags[:n_live].reshape(live.shape)
    probs = np.sum(live_mags, axis=1)
    # A row has no photon in V (in d) when no digit has bit 0 (bit 1) set;
    # the -1 padding has every bit set, so it counts in neither marginal.
    pol_masses, spa_masses = (
        np.sum(np.where((live_rows & bits == 0)[..., None], live_mags, 0.0), axis=1)
        for bits in (_repunit(n), 2 * _repunit(n))
    )
    # Photon 0's digit of every block row; the padding reads as digit 3.
    digit = np.append(live_rows >> _bit_shift(n, 0, Dof.POLARIZATION), range(4))
    corrected[np.ix_(digit & 1 == 1, pol_odd)] *= -1.0
    corrected[np.ix_(digit & 2 == 2, spa_odd)] *= -1.0
    # The overlap is summed in another order than the dense product was; it
    # only feeds the 1e-10 success test below, far above rounding.
    target_conj = _maximal_vector(n).amplitudes.conj()[live_rows, None]
    overlaps = np.sum(target_conj * corrected[:n_live].reshape(live.shape), axis=1)
    fid_num = overlaps.real**2 + overlaps.imag**2

    weights = np.array([prob for *_, prob in branches])[:, None] * probs
    kept = weights > MIN_BRANCH_PROBABILITY
    dropped += float(np.sum(weights[~kept]))

    where, cols = np.nonzero(kept)
    p = probs[where, cols]
    columns = (
        [branches[b][1] for b in where.tolist()],
        weights[where, cols].tolist(),
        (fid_num[where, cols] / p >= 1.0 - 1e-10).tolist(),
        (pol_masses[where, cols] / p).tolist(),
        (spa_masses[where, cols] / p).tolist(),
    )
    return dropped, columns, (branches, where, cols, corrected, p, live_rows)


def enumerate_scheme(scheme: str, n: int, alpha_sq: float, delta_sq: float) -> OutcomeTree:
    """Walk every outcome of one round and classify each terminal state.

    ``alpha_sq`` and ``delta_sq`` are the squared first coefficients of the
    working state; amplitudes are taken real and nonnegative.
    """
    n, n_resource = check_scheme(scheme, n)
    alpha_sq = _clamp("alpha_sq", alpha_sq)
    delta_sq = _clamp("delta_sq", delta_sq)
    dropped, columns, cut = _leaf_columns(n, n_resource, alpha_sq, delta_sq)
    branches, where, cols, corrected, p, live_rows = cut
    labels = _readout_patterns(n_resource)[0]

    # Leaf states: divide the compressed rows, then gather them into dense
    # rows.  The rows of photon-0 digit d are the d-th contiguous quarter,
    # and each row without amplitude is that digit's class row.
    n_live = live_rows.size
    scaled = corrected[:, cols].T / np.sqrt(p)[:, None]
    dense = np.repeat(scaled[:, n_live:], 4 ** (n - 1), axis=1)
    leaf, slot = np.nonzero(live_rows[where] >= 0)
    owner = where[leaf]
    dense[leaf, live_rows[owner, slot]] = scaled[leaf, owner * live_rows.shape[1] + slot]
    leaves = [
        OutcomeLeaf(branches[b][0] + labels[col], prob, branch, ok, pol_sq, spa_sq, state)
        for b, col, branch, prob, ok, pol_sq, spa_sq, state in zip(
            where.tolist(), cols.tolist(), *columns, FullState._from_rows(n, dense)
        )
    ]
    return OutcomeTree(scheme, n, alpha_sq, delta_sq, tuple(leaves), dropped)


def exact_iteration_tree(
    scheme: str,
    n: int,
    alpha_sq: float,
    delta_sq: float,
    max_rounds: int,
) -> list[float]:
    """Per-round success probabilities from repeated exhaustive enumeration.

    Residual coefficients are read off the enumerated terminal states (not
    from any recursion) and fed back in as the next round's parameters.
    Survivors are pooled by which degrees of freedom an even outcome has
    already settled; a round counts as a success when every unsettled degree
    of freedom comes out even, so the first round only succeeds on ee and a
    coefficient that merely starts at one half earns no credit.  This is the
    retry accounting of the iteration drivers, reproduced here on enumerated
    masses alone.  Each round reads the leaves' columns and builds no leaf
    state.
    """
    max_rounds = _photon_count(max_rounds, 6, "max_rounds")
    n, n_resource = check_scheme(scheme, n)
    agree_tol = 1e-9
    # (pol settled?, spa settled?) -> (mass, pol_sq, spa_sq)
    entries: dict[tuple[bool, bool], tuple[float, float, float]] = {
        (False, False): (1.0, alpha_sq, delta_sq)
    }
    per_round: list[float] = []

    def absorb(columns: tuple[list, ...], mass: float, pol_fixed: bool, spa_fixed: bool) -> float:
        success = 0.0
        for branch, probability, succeeded, pol_sq, spa_sq in zip(*columns):
            if mass * probability <= MIN_BRANCH_PROBABILITY:
                continue
            pol_even = branch in (BranchClass.EE, BranchClass.EO)
            spa_even = branch in (BranchClass.EE, BranchClass.OE)
            if (pol_fixed or pol_even) and (spa_fixed or spa_even):
                if not succeeded:
                    raise ConsistencyError("a leaf counted as success is not maximal")
                success += mass * probability
                continue
            key = (pol_fixed or pol_even, spa_fixed or spa_even)
            if key in entries:
                m0, p0, s0 = entries[key]
                if abs(p0 - pol_sq) > agree_tol or abs(s0 - spa_sq) > agree_tol:
                    raise ConsistencyError("residual coefficients disagree within one pool")
                entries[key] = (m0 + mass * probability, p0, s0)
            else:
                entries[key] = (mass * probability, pol_sq, spa_sq)
        return success

    for _ in range(max_rounds):
        current, entries = entries, {}
        p_round = 0.0
        for (pol_fixed, spa_fixed), (mass, pol_sq, spa_sq) in current.items():
            columns = _leaf_columns(
                n, n_resource, _clamp("alpha_sq", pol_sq), _clamp("delta_sq", spa_sq)
            )[1]
            p_round += absorb(columns, mass, pol_fixed, spa_fixed)
        per_round.append(p_round)
    return per_round
