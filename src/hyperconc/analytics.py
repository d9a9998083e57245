"""Closed-form success probabilities of the iterated concentration protocol.

Everything here is a function of two real parameters: ``alpha_sq`` is the
squared modulus of the first polarization coefficient of the round-1 input
and ``delta_sq`` the spatial analogue.  Writing a = alpha_sq, b = 1 - a,
c = delta_sq, d = 1 - c, round 1 splits as

    P_ee = 4abcd            both checks even: success
    P_eo = 2ab (c^2 + d^2)  polarization fixed, spatial residual
    P_oe = 2cd (a^2 + b^2)  spatial fixed, polarization residual
    P_oo = (a^2+b^2)(c^2+d^2)

and each failed round squares the coefficients of every unbalanced degree of
freedom: p -> p^2 / (p^2 + (1-p)^2).  Round-k branch rates therefore involve
the 2^k-th powers of the original amplitudes; they are evaluated through the
squaring recursion, which stays finite and NaN-free where literal powers
would underflow.

Every evaluator takes its parameters as floats or as float64 arrays of one
shape, and runs the same lines on both: elementwise ``+ - * /`` on float64
arrays rounds exactly as on Python floats, so a grid evaluated in one array
call holds the bits of its points evaluated one at a time.

Two independent evaluators of the same iteration are kept side by side: an
explicitly unrolled per-round sum and an absorbing Markov chain over the
states {done, eo, oe, oo}.  ``total_success`` runs both and insists they
agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError

_CONSISTENCY_TOL = 1e-12

# A parameter or a value derived from parameters: a float, or a float64
# array holding one value per point.
Value = float | np.ndarray


def _check_param(name: str, p: Value) -> Value:
    # A Python float is tested first: the float path runs this twice a round.
    if type(p) is not float:
        if isinstance(p, np.ndarray):
            p = p.astype(np.float64, copy=False)
            inside = (p >= 0.0) & (p <= 1.0)  # false at NaN
            if not inside.all():
                raise ValueError(f"{name} must lie in [0, 1], got {p[~inside][0]}")
            return p
        p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return p


def _within(dev: Value, tol: float) -> bool:
    """Whether ``dev <= tol`` at every point; NaN is not within."""
    if type(dev) is float:
        return dev <= tol
    return bool(np.all(dev <= tol))


@dataclass(frozen=True)
class BranchProbs:
    """Round-1 branch probabilities; they sum to one."""

    ee: Value
    eo: Value
    oe: Value
    oo: Value


def round1_probabilities(alpha_sq: Value, delta_sq: Value) -> BranchProbs:
    """Branch split of the first round for the given input parameters."""
    a = _check_param("alpha_sq", alpha_sq)
    c = _check_param("delta_sq", delta_sq)
    b, d = 1.0 - a, 1.0 - c
    pol_even = 2.0 * a * b
    spa_even = 2.0 * c * d
    pol_odd = a * a + b * b
    spa_odd = c * c + d * d
    return BranchProbs(
        ee=pol_even * spa_even,
        eo=pol_even * spa_odd,
        oe=spa_even * pol_odd,
        oo=pol_odd * spa_odd,
    )


def squared_renormalized(p: Value) -> Value:
    """One failed-round update of a squared coefficient: p^2/(p^2+(1-p)^2)."""
    q = 1.0 - p
    return p * p / (p * p + q * q)


def coefficient_at_round(p: Value, k: int) -> Value:
    """Squared coefficient entering round k (k-1 squaring updates applied)."""
    if k < 1:
        raise ValueError("round index must be at least 1")
    for _ in range(k - 1):
        p = squared_renormalized(p)
    return p


@dataclass(frozen=True)
class RoundTable:
    """Round-k branch rates for the three residual families.

    ``eo_s``/``eo_f`` are the success/failure rates of a round on an eo-class
    state (polarization balanced, spatial residual); ``oe_s``/``oe_f`` are
    the polarization counterparts.  The oo-class rates factor into these:
    an oo round succeeds only on ee, and its three failure outcomes hand the
    state to eo, oe, or oo again.
    """

    k: int
    eo_s: Value
    eo_f: Value
    oe_s: Value
    oe_f: Value
    oo_ee: Value
    oo_eo: Value
    oo_oe: Value
    oo_oo: Value


def branch_rates(k: int, alpha_sq: Value, delta_sq: Value) -> RoundTable:
    """Rates of round k (k >= 2) as functions of the round-1 parameters."""
    if k < 2:
        raise ValueError("branch rates are defined for rounds k >= 2")
    a = coefficient_at_round(_check_param("alpha_sq", alpha_sq), k)
    c = coefficient_at_round(_check_param("delta_sq", delta_sq), k)
    eo_s = 2.0 * c * (1.0 - c)
    eo_f = c * c + (1.0 - c) * (1.0 - c)
    oe_s = 2.0 * a * (1.0 - a)
    oe_f = a * a + (1.0 - a) * (1.0 - a)
    return RoundTable(
        k=k,
        eo_s=eo_s,
        eo_f=eo_f,
        oe_s=oe_s,
        oe_f=oe_f,
        oo_ee=oe_s * eo_s,
        oo_eo=oe_s * eo_f,
        oo_oe=eo_s * oe_f,
        oo_oo=oe_f * eo_f,
    )


def round_success_unrolled(k: int, alpha_sq: Value, delta_sq: Value) -> Value:
    """Probability that the iteration first succeeds exactly at round k.

    Round 1 is the ee branch.  Round 2 collects the three ways a round-1
    failure succeeds immediately.  For k >= 3 the sum is unrolled over the
    round at which an oo-class state first fixes one degree of freedom; empty
    products count as one.
    """
    p1 = round1_probabilities(alpha_sq, delta_sq)
    if k < 1:
        raise ValueError("round index must be at least 1")
    if k == 1:
        return p1.ee
    r = {j: branch_rates(j, alpha_sq, delta_sq) for j in range(2, k + 1)}
    if k == 2:
        return p1.eo * r[2].eo_s + p1.oe * r[2].oe_s + p1.oo * r[2].oo_ee

    def prod(values: list[Value]) -> Value:
        out = 1.0
        for v in values:
            out *= v
        return out

    # Mass that sits in the eo class when round k begins, divided by the
    # spatial failure factors it shared with the oo class along the way.
    eo_arrivals = p1.eo + p1.oo * sum(
        prod([r[j].oe_f for j in range(2, m)]) * r[m].oe_s for m in range(2, k)
    )
    oe_arrivals = p1.oe + p1.oo * sum(
        prod([r[j].eo_f for j in range(2, m)]) * r[m].eo_s for m in range(2, k)
    )
    term_eo = eo_arrivals * prod([r[j].eo_f for j in range(2, k)]) * r[k].eo_s
    term_oe = oe_arrivals * prod([r[j].oe_f for j in range(2, k)]) * r[k].oe_s
    term_oo = p1.oo * prod([r[j].eo_f * r[j].oe_f for j in range(2, k)]) * r[k].eo_s * r[k].oe_s
    return term_eo + term_oe + term_oo


@dataclass(frozen=True)
class BranchDistribution:
    """Mass over {done, eo, oe, oo} during the iteration; sums to one."""

    done: Value
    eo: Value
    oe: Value
    oo: Value

    def __post_init__(self) -> None:
        total = self.done + self.eo + self.oe + self.oo
        if not _within(abs(total - 1.0), 1e-9):
            raise ValueError(f"branch distribution must sum to 1, got {total}")


def initial_distribution(alpha_sq: Value, delta_sq: Value) -> BranchDistribution:
    """Distribution after round 1: the ee mass is already done."""
    p1 = round1_probabilities(alpha_sq, delta_sq)
    return BranchDistribution(done=p1.ee, eo=p1.eo, oe=p1.oe, oo=p1.oo)


def markov_evolve(
    dist: BranchDistribution, k: int, alpha_sq: Value, delta_sq: Value
) -> BranchDistribution:
    """Advance the distribution through round k (k >= 2).

    eo states succeed at rate eo_s and otherwise stay eo; oe symmetrically;
    oo states succeed on ee and migrate to eo/oe/oo on the other outcomes.
    The done mass never decreases.
    """
    r = branch_rates(k, alpha_sq, delta_sq)
    return BranchDistribution(
        done=dist.done + dist.eo * r.eo_s + dist.oe * r.oe_s + dist.oo * r.oo_ee,
        eo=dist.eo * r.eo_f + dist.oo * r.oo_eo,
        oe=dist.oe * r.oe_f + dist.oo * r.oo_oe,
        oo=dist.oo * r.oo_oo,
    )


def total_success(n_rounds: int, alpha_sq: Value, delta_sq: Value) -> Value:
    """Probability of success within ``n_rounds`` rounds, at one point or at
    every point of equal-shape ``alpha_sq`` and ``delta_sq`` arrays.

    Evaluated along both routes (unrolled per-round sum, Markov evolution);
    raises ``ConsistencyError`` when they disagree beyond 1e-12, naming the
    worst point.  The Markov value is returned.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be at least 1")
    dist = initial_distribution(alpha_sq, delta_sq)
    for k in range(2, n_rounds + 1):
        dist = markov_evolve(dist, k, alpha_sq, delta_sq)
    unrolled = sum(round_success_unrolled(k, alpha_sq, delta_sq) for k in range(1, n_rounds + 1))
    dev = abs(dist.done - unrolled)
    if not _within(dev, _CONSISTENCY_TOL):
        at = np.unravel_index(np.argmax(dev), np.shape(dev))  # the first NaN, if any
        a, c, markov, unroll = (
            float(np.broadcast_to(v, np.shape(dev))[at])
            for v in (alpha_sq, delta_sq, dist.done, unrolled)
        )
        raise ConsistencyError(
            f"evaluators disagree: markov {markov!r} vs unrolled {unroll!r} "
            f"at alpha_sq={a}, delta_sq={c}, n_rounds={n_rounds}"
        )
    return dist.done


def grid_axis(resolution: int, include_endpoints: bool = False) -> np.ndarray:
    """Evenly spaced parameter values, by default on the open interval (0, 1)."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if include_endpoints:
        return np.linspace(0.0, 1.0, resolution)
    return np.linspace(0.0, 1.0, resolution + 2)[1:-1]


def grid_sweep(
    n_rounds: int, resolution: int, include_endpoints: bool = False
) -> np.ndarray:
    """Total success over a square parameter grid, in one array call.

    Returns an array of rows (alpha_sq, delta_sq, p_total), row-major with
    alpha_sq varying slowest.
    """
    axis = grid_axis(resolution, include_endpoints)
    a, c = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([a.ravel(), c.ravel(), total_success(n_rounds, a, c).ravel()])


def pool_expected_yield(n_rounds: int, alpha_sq: Value, delta_sq: Value) -> Value:
    """Expected distilled states per initial copy in a large two-copy pool.

    Unlike the ancilla-assisted iteration, every retry of the two-copy scheme
    consumes a partner: two identical residuals feed one next-round attempt.
    Backward recursion over the expected yield of one attempt,

        Y_k(class) = success_rate + sum_residual rate * Y_{k+1}(residual) / 2,

    gives Y_1 per round-1 pair, hence Y_1 / 2 per initial copy.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be at least 1")
    y_eo = y_oe = y_oo = 0.0
    for k in range(n_rounds, 1, -1):
        r = branch_rates(k, alpha_sq, delta_sq)
        y_eo, y_oe, y_oo = (
            r.eo_s + r.eo_f * 0.5 * y_eo,
            r.oe_s + r.oe_f * 0.5 * y_oe,
            r.oo_ee + r.oo_eo * 0.5 * y_eo + r.oo_oe * 0.5 * y_oe + r.oo_oo * 0.5 * y_oo,
        )
    p1 = round1_probabilities(alpha_sq, delta_sq)
    y1 = p1.ee + p1.eo * 0.5 * y_eo + p1.oe * 0.5 * y_oe + p1.oo * 0.5 * y_oo
    return y1 / 2.0
