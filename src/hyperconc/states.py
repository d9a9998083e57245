"""State representations for photons carrying two qubit-like degrees of
freedom: polarization (H/V) and spatial mode (u/d).

Two representations coexist.  ``GhzForm`` is the compact four-coefficient
form of a state that is GHZ-like in both degrees of freedom,

    (a|H..H> + b|V..V>) (x) (c|u..u> + d|d..d>),

with each amplitude pair normalized on its own; a relative phase, such as a
sign left by a measurement, is the phase of the second amplitude.
``FullState`` is the dense vector of all 4**n amplitudes, used whenever
measurements branch the state out of GHZ form.

Basis convention, shared by every module: photon 0 is the most significant
base-4 digit of an amplitude index, and a photon's digit is
``2 * spatial_bit + polarization_bit`` with H = 0, V = 1, u = 0, d = 1.
In binary, bit ``2 * (n - 1 - k)`` of an index is the polarization bit of
photon ``k`` and the bit above it is its spatial bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

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
    """Degree of freedom addressed by a Z correction or a measurement."""

    POLARIZATION = "polarization"
    SPATIAL = "spatial"


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
        if not abs(norm_sq - 1.0) <= NORM_INPUT_TOL:  # NaN fails too
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

    A relative phase between the two branches of a degree of freedom, such
    as the sign a measurement imprints, lives in the second amplitude of
    its pair.
    """

    n: int
    pol: DofAmplitudes
    spa: DofAmplitudes

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _photon_count(self.n, math.inf))

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
        object.__setattr__(self, "n_photons", _photon_count(self.n_photons, PHOTON_CAP))
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
        n_photons = _photon_count(n_photons, PHOTON_CAP)
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


def _photon_count(n: object, cap: float, name: str = "photon count", low: int = 1) -> int:
    """``n`` as an ``int`` when it is an integer of any type but ``bool`` in
    [low, cap], else ``ValueError`` naming it; the slow ``numbers.Integral``
    check last.  Photon, copy, trial and round counts and seeds (``low`` 0)
    all take this rule."""
    integral = type(n) is int or isinstance(n, numbers.Integral) and not isinstance(n, bool)
    if integral and low <= n <= cap:
        return int(n)
    raise ValueError(f"{name} must be an integer in [{low}, {cap}], got {n}")


def _unit_norm(amps: np.ndarray) -> np.ndarray:
    """The one norm rule of dense states: ``amps`` itself when its norm is
    within ``_RENORM_TOL`` of 1, else a renormalized copy; a non-finite or
    (near-)zero norm raises ``ValueError``."""
    norm = float(np.linalg.norm(amps))
    if not math.isfinite(norm):
        raise ValueError(f"state vector has non-finite norm {norm}")
    if norm < 1e-12:
        raise ValueError("state vector has (near-)zero norm")
    return amps / norm if abs(norm - 1.0) > _RENORM_TOL else amps


def maximal_ghz(n: int) -> GhzForm:
    """Target state: both degrees of freedom balanced, with plus signs."""
    return GhzForm(n, BALANCED, BALANCED)


def _repunit(n: int) -> int:
    # Index with base-4 digit 1 at every photon position: 1 + 4 + ... + 4**(n-1).
    return (4**n - 1) // 3


def ghz_to_full(g: GhzForm) -> FullState:
    """Materialize a GhzForm as a dense state vector."""
    # Checked before the 4**n vector is allocated, by FullState's own rule.
    n = _photon_count(g.n, PHOTON_CAP)
    r = _repunit(n)
    pol, spa = g.pol, g.spa  # complex amplitudes (see DofAmplitudes)
    amps = np.zeros(4**n, dtype=np.complex128)
    amps[0] = pol.first * spa.first  # all |H>, all |u>
    amps[r] = pol.second * spa.first  # all |V>, all |u>
    amps[2 * r] = pol.first * spa.second  # all |H>, all |d>
    amps[3 * r] = pol.second * spa.second  # all |V>, all |d>
    return FullState(n, amps)


def full_to_ghz(state: FullState) -> GhzForm:
    """Recover the GhzForm of a dense state, or raise if it has none.

    The four corner amplitudes ``[[v0, v2r], [vr, v3r]]`` of a GHZ-like state
    are the outer product of its polarization and spatial pairs, so the
    column through the largest corner is the polarization pair and the row
    through it the spatial pair, each up to scale.  Each pair is normalized
    and loses the phase of its first amplitude (of its second when the first
    vanishes, which then reads exactly 0.0), so any relative phase lands in
    the second amplitude.  The form's vector is zero off the corners, so its
    fidelity with the state is read on the corners alone; ``ValueError`` is
    raised when it is below ``1 - _FORM_TOL``.
    """
    n = state.n_photons
    r = _repunit(n)
    v = state.amplitudes
    corners = np.array([[v[0], v[2 * r]], [v[r], v[3 * r]]])
    i, j = np.unravel_index(np.argmax(np.abs(corners)), corners.shape)
    if corners[i, j] == 0:
        raise ValueError("state has no amplitude on the four GHZ corners")
    g = GhzForm(n, _phase_free(corners[:, j]), _phase_free(corners[i, :]))
    form = np.multiply.outer([g.pol.first, g.pol.second], [g.spa.first, g.spa.second])
    if abs(np.vdot(form, corners)) ** 2 < 1.0 - _FORM_TOL:
        raise ValueError("state is not a GHZ-like product in both degrees of freedom")
    return g


def _phase_free(pair: np.ndarray) -> DofAmplitudes:
    # The normalized pair with a real nonnegative first amplitude, or (0, 1)
    # when the first vanishes.  The pair runs through a nonzero corner.
    f, s = complex(pair[0]), complex(pair[1])
    if f == 0:
        return DofAmplitudes(0.0, 1.0)
    norm = math.hypot(abs(f), abs(s))
    return DofAmplitudes(abs(f) / norm, s * f.conjugate() / (abs(f) * norm))


def is_maximal(g: GhzForm) -> bool:
    """True when all four coefficients are 1/sqrt(2) with plus signs."""
    coefficients = (g.pol.first, g.pol.second, g.spa.first, g.spa.second)
    return all(abs(c - _INV_SQRT2) <= _BALANCE_TOL for c in coefficients)


def tensor(a: FullState, b: FullState) -> FullState:
    """Tensor product; photons of ``a`` come first (most significant)."""
    n = a.n_photons + b.n_photons
    # Checked before the 4**n product is allocated.  The flattened outer
    # product has the bytes of np.kron on vectors, at a fraction of its cost.
    if n > PHOTON_CAP:
        raise ValueError(f"tensor product of {n} photons exceeds cap of {PHOTON_CAP}")
    return FullState._adopt(n, np.multiply.outer(a.amplitudes, b.amplitudes).ravel())


def _bit_shift(n: int, photon: int, dof: Dof) -> int:
    if not 0 <= photon < n:
        raise ValueError(f"photon index {photon} out of range for {n} photons")
    if not isinstance(dof, Dof):
        raise ValueError(f"degree of freedom must be a Dof, got {dof!r}")
    base = 2 * (n - 1 - photon)
    return base + 1 if dof is Dof.SPATIAL else base


def apply_single_photon_gate(state: FullState, photon: int, dof: Dof) -> FullState:
    """Apply Z, a sign flip on the second basis state (V or d), to one photon
    within one degree of freedom: the one correction either scheme needs."""
    shift = _bit_shift(state.n_photons, photon, dof)
    amps = state.amplitudes.copy()
    # The indices with bit ``shift`` set are every other run of 2**shift.
    amps.reshape(-1, 2, 2**shift)[:, 1] *= -1.0
    return FullState._adopt(state.n_photons, amps)


def flip_copy(g: GhzForm) -> GhzForm:
    """Bit-flip every photon in both degrees of freedom: each amplitude pair
    swaps, relative phases included.

    This is the resource of both schemes: given a working state with pairs
    (a, b) and (c, d), the flipped copy (of n photons for scheme b, of one
    photon for scheme a's ancilla) carries (b, a) and (d, c), and the
    exchange is what makes the even-parity branches of the two joint checks
    land on balanced coefficients.
    """
    return GhzForm(g.n, g.pol.swapped(), g.spa.swapped())


def fidelity(a: FullState, b: FullState) -> float:
    """|<a|b>|**2; global phase drops out."""
    if a.n_photons != b.n_photons:
        raise ValueError("fidelity requires equal photon counts")
    return min(1.0, float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))
