"""Measurement layer: nondestructive two-photon parity checks and destructive
single-photon diagonal-basis readout.

A parity check compares one degree of freedom of two photons and announces
Even (equal bits) or Odd (different bits) without absorbing either photon.
The two Odd phase subcases are physically indistinguishable to the check, so
Odd is a single merged outcome.  Parity projectors are diagonal in the
computational basis, hence checks on different degrees of freedom commute.

Diagonal readout measures one photon in the |+/-> basis of both degrees of
freedom at once and removes it from the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .states import Dof, FullState, _bit_shift, _photon_count

# Branches with probability below this are treated as impossible: they are
# never sampled and branch projections report them as empty.
MIN_BRANCH_PROBABILITY = 1e-14


class ParityOutcome(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class DiagonalOutcome:
    """Outcome of diagonal readout: one sign per degree of freedom.

    ``pol_sign`` is +1 for |+> and -1 for |-> in polarization; ``spa_sign``
    likewise for the spatial mode.
    """

    pol_sign: int
    spa_sign: int

    def __post_init__(self) -> None:
        if self.pol_sign not in (1, -1) or self.spa_sign not in (1, -1):
            raise ValueError("diagonal outcome signs must be +1 or -1")

    def label(self) -> str:
        return ("+" if self.pol_sign == 1 else "-") + ("+" if self.spa_sign == 1 else "-")


# Fixed enumeration and sampling order for the four diagonal outcomes.
DIAGONAL_OUTCOMES = (
    DiagonalOutcome(1, 1),
    DiagonalOutcome(1, -1),
    DiagonalOutcome(-1, 1),
    DiagonalOutcome(-1, -1),
)


class RandomSource:
    """Deterministic random source: PCG64 behind numpy's Generator.

    Equal seeds yield identical outcome sequences on any platform.  ``derive``
    builds an independent child stream from the seed and an index, so batches
    of trials can be reproduced individually; ``derive_block`` builds many
    consecutive children at once, drawing the same uniforms.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = _photon_count(seed, math.inf, "seed", low=0)
        self._path = _path
        seq = np.random.SeedSequence(self.seed, spawn_key=_path)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, size: int) -> np.ndarray:
        return self._gen.random(size)

    def derive(self, index: int) -> "RandomSource":
        """Child source determined by (seed, ..., index)."""
        return RandomSource(self.seed, self._path + (int(index),))

    def derive_block(self, start: int, count: int) -> "SubstreamBlock":
        """The children ``derive(start)`` ... ``derive(start + count - 1)`` side by side."""
        if start < 0 or count < 1 or start + count > _SPAWN_LIMIT:
            raise ValueError(f"block [{start}, {start + count}) must lie in [0, 2**32)")
        return SubstreamBlock(self.seed, self._path, start, count)


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 (XSL-RR output)
# constants, from numpy/random/bit_generator.pyx and pcg64.h.
_M32 = 0xFFFFFFFF
# Derived indices below this take one uint32 spawn word, the only case the
# block deriver handles.
_SPAWN_LIMIT = 2**32
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix on a word or a uint64 array of words.

    Returns the mixed value and the next hash constant, which depends on
    nothing but the number of words mixed before.  ``generate_state`` mixes
    the same way with ``_MULT_B``.
    """
    value = value ^ hash_const
    hash_const = hash_const * mult & _M32
    value = (value * hash_const) & _M32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _M32
    return result ^ (result >> 16)


def _seed_prefix(seed: int, path: tuple[int, ...]) -> tuple[list[int], int]:
    """Pool and hash constant of ``SeedSequence(seed, spawn_key=path + (t,))``
    after every entropy word but the trailing ``t``.

    A non-empty spawn key pads the seed's words to the pool size, so ``t``
    is always mixed in last, one word into each pool word.  The pool before
    it is that of ``SeedSequence(seed, spawn_key=path)``, and the hash
    constant has been multiplied once per mix, four times per entropy word.
    """
    pool = np.random.SeedSequence(seed, spawn_key=path).pool
    words = max(4, _word_count(seed)) + sum(_word_count(value) for value in path)
    return pool.tolist(), _INIT_A * pow(_MULT_A, 4 * words, 2**32) & _M32


def _word_count(value: int) -> int:
    """numpy's uint32 word count of a nonnegative int; 0 is one word."""
    return max(1, -(-value.bit_length() // 32))


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, on 32-bit limbs."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


class SubstreamBlock:
    """PCG64 streams of consecutive derived children, advanced together.

    Row ``r`` is the stream of ``RandomSource(seed, path).derive(start + r)``:
    the SeedSequence mixing, PCG64 seeding and output function run on uint64
    arrays with one entry per row, and every row draws exactly the doubles
    its own ``Generator`` would.  State stays per row, so rows may draw
    different amounts.
    """

    def __init__(self, seed: int, path: tuple[int, ...], start: int, count: int):
        pool, hash_const = _seed_prefix(seed, path)
        index = np.arange(start, start + count, dtype=np.uint64)
        pools = []
        for word in pool:
            mixed, hash_const = _hashmix(index, hash_const)
            pools.append(_mix(word, mixed))
        # generate_state(4, uint64): eight words cycling over the pool.
        hash_const = _INIT_B
        words = []
        for i in range(8):
            value, hash_const = _hashmix(pools[i % 4], hash_const, _MULT_B)
            words.append(value)
        seed_hi, seed_lo, inc_hi, inc_lo = (
            words[2 * i] | (words[2 * i + 1] << 32) for i in range(4)
        )
        # pcg_setseq_128_srandom_r: inc = 2 * initseq + 1; the state steps
        # from zero (to inc), adds initstate and steps once more.
        self._inc_hi = (inc_hi << 1) | (inc_lo >> 63)
        self._inc_lo = (inc_lo << 1) | 1
        lo = self._inc_lo + seed_lo
        hi = self._inc_hi + seed_hi + (lo < seed_lo)
        self._hi, self._lo = self._step(hi, lo, self._inc_hi, self._inc_lo)

    @staticmethod
    def _step(hi, lo, inc_hi, inc_lo):
        """state * multiplier + increment, modulo 2**128."""
        prod_lo = lo * _PCG_MULT_LO
        prod_hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + _mulhi64(lo, _PCG_MULT_LO)
        new_lo = prod_lo + inc_lo
        return prod_hi + inc_hi + (new_lo < prod_lo), new_lo

    def uniforms(self, width: int, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
        """The next ``width`` doubles in [0, 1) of each listed row, one row each."""
        hi, lo = self._hi[rows], self._lo[rows]
        inc_hi, inc_lo = self._inc_hi[rows], self._inc_lo[rows]
        out = np.empty((len(hi), width))
        for j in range(width):
            hi, lo = self._step(hi, lo, inc_hi, inc_lo)
            x = hi ^ lo
            rot = hi >> 58
            out[:, j] = ((x >> rot) | (x << ((64 - rot) & 63))) >> 11
        self._hi[rows], self._lo[rows] = hi, lo
        out *= 2.0**-53
        return out


@lru_cache(maxsize=None)
def _even_mask(n: int, shift_i: int, shift_j: int) -> np.ndarray:
    # From the index bits themselves; uint32 holds every index up to 16
    # photons.
    index = np.arange(4**n, dtype=np.uint32)
    bits = index >> shift_i
    bits ^= index >> shift_j
    mask = bits & 1 == 0
    mask.flags.writeable = False
    return mask


def _parity_probs(state: FullState, i: int, j: int, dof: Dof) -> tuple[float, np.ndarray]:
    if i == j:
        raise ValueError("parity check needs two distinct photons")
    n = state.n_photons
    mask = _even_mask(n, _bit_shift(n, i, dof), _bit_shift(n, j, dof))
    amps = state.amplitudes
    p_even = float(np.sum(amps.real[mask] ** 2 + amps.imag[mask] ** 2))
    return p_even, mask


def _certain_odds(p_even: float) -> float:
    """The odds a check is sampled with: ``p_even``, or exactly 0 or 1 when
    the rival outcome is below ``MIN_BRANCH_PROBABILITY``.  A check at odds
    0 or 1 is certain and consumes no random draw."""
    if p_even < MIN_BRANCH_PROBABILITY:
        return 0.0
    if 1.0 - p_even < MIN_BRANCH_PROBABILITY:
        return 1.0
    return p_even


def _parity_post(
    state: FullState, outcome: ParityOutcome, p_even: float, mask: np.ndarray
) -> tuple[float, FullState | None]:
    """The one parity projection: (probability, renormalized post state)."""
    if outcome is ParityOutcome.EVEN:
        prob, keep = p_even, mask
    elif outcome is ParityOutcome.ODD:
        prob, keep = 1.0 - p_even, ~mask
    else:
        raise ValueError(f"parity outcome must be a ParityOutcome, got {outcome!r}")
    if prob < MIN_BRANCH_PROBABILITY:
        return max(prob, 0.0), None
    amps = np.where(keep, state.amplitudes, 0.0)
    amps /= np.sqrt(prob)
    return prob, FullState._adopt(state.n_photons, amps)


def parity_branch(
    state: FullState, i: int, j: int, dof: Dof, outcome: ParityOutcome
) -> tuple[float, FullState | None]:
    """Project onto one parity outcome for photons ``i`` and ``j``.

    Returns (probability, renormalized post state); the post state is ``None``
    when the branch probability falls below ``MIN_BRANCH_PROBABILITY``.  Both
    photons stay in the state: the check is nondestructive.
    """
    p_even, mask = _parity_probs(state, i, j, dof)
    return _parity_post(state, outcome, p_even, mask)


def parity_measure(
    state: FullState, i: int, j: int, dof: Dof, rng: RandomSource
) -> tuple[ParityOutcome, FullState]:
    """Sample a parity outcome and return it with the projected state."""
    p_even, mask = _parity_probs(state, i, j, dof)
    odds = _certain_odds(p_even)
    # A certain check reads every number in [0, 1) alike, so it draws none.
    draw = rng.uniform() if 0.0 < odds < 1.0 else 0.0
    outcome = ParityOutcome.EVEN if draw < odds else ParityOutcome.ODD
    return outcome, _parity_post(state, outcome, p_even, mask)[1]


# Conjugated rows of the four diagonal readout vectors, in DIAGONAL_OUTCOMES
# order, in the single-photon digit basis (uH, uV, dH, dV): the readout
# vectors are (1, pol_sign, spa_sign, pol_sign*spa_sign) / 2.  Scaling
# before conjugating keeps the signs of the zero imaginary parts, and with
# them the bytes of every post state.  The oracle contracts with it too.
_READOUT_CONJ = (
    0.5
    * np.array(
        [[1, o.pol_sign, o.spa_sign, o.pol_sign * o.spa_sign] for o in DIAGONAL_OUTCOMES],
        dtype=np.complex128,
    )
).conj()
_READOUT_CONJ.flags.writeable = False


def diagonal_components(state: FullState, photon: int) -> np.ndarray:
    """Unnormalized post components for all four outcomes, shape (left, rest, 4).

    Component k belongs to ``DIAGONAL_OUTCOMES[k]``; its squared norm is the
    outcome probability and flattening it (after renormalization) gives the
    post state with the photon removed.  One call serves all four branches,
    which exhaustive enumeration leans on.
    """
    n = state.n_photons
    if n < 2:
        raise ValueError("diagonal readout needs at least two photons (one must remain)")
    if not 0 <= photon < n:
        raise ValueError(f"photon index {photon} out of range for {n} photons")
    resh = state.amplitudes.reshape(4**photon, 4, 4 ** (n - 1 - photon))
    return np.tensordot(resh, _READOUT_CONJ, axes=([1], [1]))


def measure_diagonal(
    state: FullState, photon: int, rng: RandomSource
) -> tuple[DiagonalOutcome, FullState]:
    """Sample a diagonal readout of one photon; the photon leaves the state."""
    comps = diagonal_components(state, photon)
    probs = np.sum(comps.real**2 + comps.imag**2, axis=(0, 1))
    # Outcomes below MIN_BRANCH_PROBABILITY are never picked.  The uniform is
    # scaled by the eligible total and compared with the running sums, added
    # in outcome order; the first sum above it wins, and rounding that leaves
    # it past the last sum falls back to the last eligible outcome, where the
    # loop ends.
    eligible = [k for k in range(4) if probs[k] >= MIN_BRANCH_PROBABILITY]
    target = rng.uniform() * float(np.sum(probs[eligible]))
    acc = 0.0
    for pick in eligible:
        acc += float(probs[pick])
        if target < acc:
            break
    amps = comps[:, :, pick].flatten()
    amps /= np.sqrt(probs[pick])
    return DIAGONAL_OUTCOMES[pick], FullState._adopt(state.n_photons - 1, amps)
