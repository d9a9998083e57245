"""State representations for photons carrying two qubit-like degrees of
freedom: polarization (H/V) and spatial mode (u/d).

Two representations coexist.  ``GhzForm`` is the compact four-coefficient
form of a state that is GHZ-like in both degrees of freedom,

    (a|H..H> + s_p * b|V..V>) (x) (c|u..u> + s_s * d|d..d>),

with each amplitude pair normalized on its own.  ``FullState`` is the dense
vector of all 4**n amplitudes, used whenever measurements branch the state
out of GHZ form.

Basis convention, shared by every module: photon 0 is the most significant
base-4 digit of an amplitude index, and a photon's digit is
``2 * spatial_bit + polarization_bit`` with H = 0, V = 1, u = 0, d = 1.
In binary, bit ``2 * (n - 1 - k)`` of an index is the polarization bit of
photon ``k`` and the bit above it is its spatial bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

# Dense simulation cap: 4**10 amplitudes is the largest vector we materialize.
PHOTON_CAP = 10

# Constructor inputs may be off normalization by at most this much; anything
# worse is treated as caller error rather than float drift.
NORM_INPUT_TOL = 1e-9

# A dense vector whose norm is off 1 by more than this is renormalized.
_RENORM_TOL = 1e-13

# full_to_ghz accepts a state whose fidelity with its extracted form is at
# least 1 - _FORM_TOL; is_maximal accepts coefficients within _BALANCE_TOL
# of 1/sqrt(2).
_FORM_TOL = 1e-9
_BALANCE_TOL = 1e-9

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class Dof(Enum):
    """Degree of freedom addressed by a gate or measurement."""

    POLARIZATION = "polarization"
    SPATIAL = "spatial"


class Gate(Enum):
    """Single-photon gate within one degree of freedom."""

    X = "x"  # bit flip: H<->V or u<->d
    Z = "z"  # sign flip on the second basis state (V or d)


@dataclass(frozen=True)
class DofAmplitudes:
    """Normalized amplitude pair (first, second) for one degree of freedom.

    ``first`` weights H (or u), ``second`` weights V (or d).  The pair is
    renormalized on construction; inputs off by more than ``NORM_INPUT_TOL``
    are rejected.
    """

    first: complex
    second: complex

    def __post_init__(self) -> None:
        f = complex(self.first)
        s = complex(self.second)
        norm_sq = abs(f) ** 2 + abs(s) ** 2
        if abs(norm_sq - 1.0) > NORM_INPUT_TOL:
            raise ValueError(f"amplitude pair not normalized: |first|^2+|second|^2 = {norm_sq}")
        scale = 1.0 / math.sqrt(norm_sq)
        object.__setattr__(self, "first", f * scale)
        object.__setattr__(self, "second", s * scale)

    @classmethod
    def from_first_probability(cls, p: float) -> "DofAmplitudes":
        """Real nonnegative pair with |first|**2 = p."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        return cls(math.sqrt(p), math.sqrt(1.0 - p))

    def swapped(self) -> "DofAmplitudes":
        """Pair with the two amplitudes exchanged."""
        return DofAmplitudes(self.second, self.first)

    def first_sq(self) -> float:
        """|first|**2."""
        return abs(self.first) ** 2


BALANCED = DofAmplitudes(_INV_SQRT2, _INV_SQRT2)


@dataclass(frozen=True)
class GhzForm:
    """n-photon state GHZ-like in both degrees of freedom.

    ``pol_sign`` and ``spa_sign`` (+1 or -1) track the relative sign that
    parity-check outcomes imprint on the second branch of each pair; they are
    kept separate from the amplitudes to mirror the sign bookkeeping of the
    correction step.
    """

    n: int
    pol: DofAmplitudes
    spa: DofAmplitudes
    pol_sign: int = 1
    spa_sign: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"photon count must be a positive integer, got {self.n}")
        if self.pol_sign not in (1, -1) or self.spa_sign not in (1, -1):
            raise ValueError("signs must be +1 or -1")

    def signs_folded(self) -> "GhzForm":
        """Equivalent form with signs +1, folding any -1 into the amplitude."""
        if self.pol_sign == 1 and self.spa_sign == 1:
            return self
        pol = DofAmplitudes(self.pol.first, self.pol_sign * self.pol.second)
        spa = DofAmplitudes(self.spa.first, self.spa_sign * self.spa.second)
        return GhzForm(self.n, pol, spa)

    def first_moduli_sq(self) -> tuple[float, float]:
        """(|pol.first|**2, |spa.first|**2)."""
        return self.pol.first_sq(), self.spa.first_sq()


@dataclass(frozen=True)
class FullState:
    """Dense state vector of ``n_photons`` photons (4**n complex amplitudes).

    The amplitude array is normalized on construction and frozen read-only.
    """

    n_photons: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.n_photons, int) or not 1 <= self.n_photons <= PHOTON_CAP:
            raise ValueError(f"photon count must be in [1, {PHOTON_CAP}], got {self.n_photons}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (4**self.n_photons,):
            raise ValueError(f"expected {4**self.n_photons} amplitudes, got shape {amps.shape}")
        unit = _unit_norm(amps)
        amps = amps.copy() if unit is amps else unit
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _adopt(cls, n_photons: int, amps: np.ndarray) -> "FullState":
        """Internal trusted constructor for a fresh vector nobody else holds.

        The caller guarantees a complex128 vector of ``4**n_photons``
        amplitudes.  The norm rule is ``FullState``'s own; a vector within
        it is adopted as is (made read-only, not copied).
        """
        amps = _unit_norm(amps)
        amps.flags.writeable = False
        return cls._wrap(n_photons, amps)

    @classmethod
    def _wrap(cls, n_photons: int, amps: np.ndarray) -> "FullState":
        # A state around a read-only unit vector, with no check at all.
        state = object.__new__(cls)
        object.__setattr__(state, "n_photons", n_photons)
        object.__setattr__(state, "amplitudes", amps)
        return state

    @classmethod
    def _from_rows(cls, n_photons: int, rows: np.ndarray) -> list["FullState"]:
        """One state per row of ``rows``, all norms checked in one pass.

        Internal bulk constructor with the rules of ``__post_init__``: a row
        of (near-)zero norm raises ``ValueError`` and a row off unit norm
        by more than 1e-13 is renormalized exactly as ``FullState`` would.
        The states' amplitudes are read-only row views of one C-contiguous
        array (a renormalized row gets its own vector); ``rows`` becomes
        that array when it is a C-contiguous complex array owning its data,
        and is copied otherwise.
        """
        if not isinstance(n_photons, int) or not 1 <= n_photons <= PHOTON_CAP:
            raise ValueError(f"photon count must be in [1, {PHOTON_CAP}], got {n_photons}")
        rows = np.require(rows, np.complex128, ("C", "O"))
        if rows.ndim != 2 or rows.shape[1] != 4**n_photons:
            raise ValueError(f"expected rows of {4**n_photons} amplitudes, got shape {rows.shape}")
        rows.flags.writeable = False
        # These norms are summed in another order than np.linalg.norm's, so
        # only rows well inside the tolerance skip the norm rule; the rest,
        # zero rows included, get the rule with its own norm.  The sum of
        # squares runs over the float64 view, so it allocates no full-size
        # temporary.
        v = rows.view(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", v, v))
        trusted = (np.abs(norms - 1.0) <= 0.1 * _RENORM_TOL).tolist()
        return [
            cls._wrap(n_photons, row) if ok else cls._adopt(n_photons, row)
            for row, ok in zip(rows, trusted)
        ]


def _unit_norm(amps: np.ndarray) -> np.ndarray:
    """The one norm rule of dense states: ``amps`` itself when its norm is
    within ``_RENORM_TOL`` of 1, else a renormalized copy; a (near-)zero
    norm raises ``ValueError``."""
    norm = float(np.linalg.norm(amps))
    if norm < 1e-12:
        raise ValueError("state vector has (near-)zero norm")
    return amps / norm if abs(norm - 1.0) > _RENORM_TOL else amps


def maximal_ghz(n: int) -> GhzForm:
    """Target state: both degrees of freedom balanced, signs +1."""
    return GhzForm(n, BALANCED, BALANCED)


def prepare_ancilla(pol: DofAmplitudes, spa: DofAmplitudes) -> GhzForm:
    """Single-photon ancilla with both amplitude pairs exchanged.

    Given a working state with pairs (a, b) and (c, d), the ancilla carries
    (b, a) and (d, c); the exchange is what makes the even-parity branches of
    the two joint checks land on balanced coefficients.
    """
    return GhzForm(1, pol.swapped(), spa.swapped())


def _repunit(n: int) -> int:
    # Index with base-4 digit 1 at every photon position: 1 + 4 + ... + 4**(n-1).
    return (4**n - 1) // 3


def ghz_to_full(g: GhzForm) -> FullState:
    """Materialize a GhzForm as a dense state vector."""
    r = _repunit(g.n)
    pf = complex(g.pol.first)
    ps = g.pol_sign * complex(g.pol.second)
    sf = complex(g.spa.first)
    ss = g.spa_sign * complex(g.spa.second)
    amps = np.zeros(4**g.n, dtype=np.complex128)
    amps[0] = pf * sf  # all |H>, all |u>
    amps[r] = ps * sf  # all |V>, all |u>
    amps[2 * r] = pf * ss  # all |H>, all |d>
    amps[3 * r] = ps * ss  # all |V>, all |d>
    return FullState(g.n, amps)


def full_to_ghz(state: FullState) -> GhzForm:
    """Recover the GhzForm of a dense state, or raise if it has none.

    The returned form has signs +1; any relative phase (a sign left by a
    measurement, or phases inherited from complex inputs) is folded into the
    second amplitude of each pair.  Raises ``ValueError`` when the state is
    not a product of two GHZ-like factors within ``_FORM_TOL``.
    """
    n = state.n_photons
    r = _repunit(n)
    v = state.amplitudes
    v_hu, v_vu, v_hd, v_vd = v[0], v[r], v[2 * r], v[3 * r]

    # Moduli from marginals; exact when the state truly is GHZ-like.
    a = math.sqrt(abs(v_hu) ** 2 + abs(v_hd) ** 2)
    b = math.sqrt(abs(v_vu) ** 2 + abs(v_vd) ** 2)
    c = math.sqrt(abs(v_hu) ** 2 + abs(v_vu) ** 2)
    d = math.sqrt(abs(v_hd) ** 2 + abs(v_vd) ** 2)

    zero = 1e-9
    if a > zero and c > zero:
        phase = v_hu / (a * c)
        pol_second = v_vu / (phase * c) if b > zero else 0.0
        spa_second = v_hd / (phase * a)
    elif a <= zero < c:
        # Polarization is (numerically) pure V; reference amplitude is v_vu.
        phase = v_vu / (b * c)
        pol_second = b
        spa_second = v_vd / (phase * b)
        a = 0.0
    elif c <= zero < a:
        phase = v_hd / (a * d)
        spa_second = d
        pol_second = v_vd / (phase * d)
        c = 0.0
    else:
        pol_second, spa_second = 1.0, 1.0
        a = c = 0.0

    g = GhzForm(n, DofAmplitudes(a, pol_second), DofAmplitudes(c, spa_second))
    if fidelity(ghz_to_full(g), state) < 1.0 - _FORM_TOL:
        raise ValueError("state is not a GHZ-like product in both degrees of freedom")
    return g


def is_maximal(g: GhzForm) -> bool:
    """True when all four coefficients are 1/sqrt(2) with plus signs."""
    f = g.signs_folded()
    return (
        abs(f.pol.first - _INV_SQRT2) <= _BALANCE_TOL
        and abs(f.pol.second - _INV_SQRT2) <= _BALANCE_TOL
        and abs(f.spa.first - _INV_SQRT2) <= _BALANCE_TOL
        and abs(f.spa.second - _INV_SQRT2) <= _BALANCE_TOL
    )


def tensor(a: FullState, b: FullState) -> FullState:
    """Tensor product; photons of ``a`` come first (most significant)."""
    n = a.n_photons + b.n_photons
    # Checked before np.kron allocates the 4**n product.
    if n > PHOTON_CAP:
        raise ValueError(f"tensor product of {n} photons exceeds cap of {PHOTON_CAP}")
    return FullState(n, np.kron(a.amplitudes, b.amplitudes))


def _bit_shift(n: int, photon: int, dof: Dof) -> int:
    if not 0 <= photon < n:
        raise ValueError(f"photon index {photon} out of range for {n} photons")
    base = 2 * (n - 1 - photon)
    return base + 1 if dof is Dof.SPATIAL else base


@lru_cache(maxsize=None)
def _bit_mask(n: int, shift: int) -> np.ndarray:
    mask = ((np.arange(4**n) >> shift) & 1).astype(bool)
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def _swap_index(n: int, shift: int) -> np.ndarray:
    idx = np.arange(4**n) ^ (1 << shift)
    idx.flags.writeable = False
    return idx


def apply_single_photon_gate(state: FullState, photon: int, dof: Dof, gate: Gate) -> FullState:
    """Apply X or Z to one photon within one degree of freedom."""
    shift = _bit_shift(state.n_photons, photon, dof)
    if gate is Gate.X:
        amps = state.amplitudes[_swap_index(state.n_photons, shift)]
    else:
        amps = state.amplitudes.copy()
        amps[_bit_mask(state.n_photons, shift)] *= -1.0
    return FullState(state.n_photons, amps)


def flip_copy(g: GhzForm) -> GhzForm:
    """Bit-flip every photon in both degrees of freedom (amplitude pairs swap).

    Signs carry over unchanged; when a sign is -1 the swapped form matches the
    flipped state up to a global phase.
    """
    return GhzForm(g.n, g.pol.swapped(), g.spa.swapped(), g.pol_sign, g.spa_sign)


def fidelity(a: FullState, b: FullState) -> float:
    """|<a|b>|**2; global phase drops out."""
    if a.n_photons != b.n_photons:
        raise ValueError("fidelity requires equal photon counts")
    return min(1.0, float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))
