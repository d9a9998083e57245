"""The iterated oracle, pinned and checked at the edges of the parameter square.

``exact_iteration_tree`` runs the enumerator about ten times per call, feeding
each round's enumerated residual coefficients into the next.  Its per-round
values are pinned float for float (as ``float.hex``) against
``tests/data/iteration_golden.txt``, recorded with the dense per-branch
enumerator, and compared with the closed-form unrolled sum.  The tree reads
the enumerator's per-leaf columns and builds no leaf state; the same
accounting over ``enumerate_scheme``'s leaf objects is kept below as
``reference_tree``, and the two must agree bit for bit.

To re-record the golden file (only when a change of numbers is intended):

    PYTHONPATH=src python -c "import tests.test_iteration_tree as t; t.write_golden()"
"""

import math
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from hyperconc import BranchClass, ConsistencyError
from hyperconc.analytics import round_success_unrolled
from hyperconc.measurement import MIN_BRANCH_PROBABILITY
from hyperconc.oracle import _leaf_columns, enumerate_scheme, exact_iteration_tree
from hyperconc.sampling import mc_estimate

GOLDEN_ITERATION = Path(__file__).parent / "data" / "iteration_golden.txt"

MAX_ROUNDS = 6
EDGES = (0.0, 1e-300, 1e-12, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 1.0 - 1e-12, 1.0)
INTERIOR = ((0.8, 0.6), (0.3, 0.9), (0.37, 0.81), (0.05, 0.55))
POINTS = tuple((a, d) for a in EDGES for d in EDGES) + INTERIOR
CONFIGS = (("a", 2), ("a", 3), ("b", 2), ("b", 3))
EDGE_SQUARE = tuple((a, d) for a in EDGES for d in EDGES)
# CI's forced point: the spatial check is certain after one polarization
# outcome only.
FORCED = (0.3, 5.0000000000000244e-15)
RANDOM_POINTS = tuple(map(tuple, np.random.default_rng(2027).random((20, 2)).tolist()))


@lru_cache(maxsize=None)
def per_round(scheme: str, n: int, alpha_sq: float, delta_sq: float) -> tuple[float, ...]:
    return tuple(exact_iteration_tree(scheme, n, alpha_sq, delta_sq, MAX_ROUNDS))


def golden_line(scheme: str, n: int, alpha_sq: float, delta_sq: float) -> str:
    """``scheme n alpha_sq delta_sq p_1 ... p_6``, every float as ``float.hex``."""
    values = per_round(scheme, n, alpha_sq, delta_sq)
    return " ".join([scheme, str(n), alpha_sq.hex(), delta_sq.hex(), *(v.hex() for v in values)])


def write_golden(path: Path = GOLDEN_ITERATION) -> None:
    lines = [golden_line(s, n, a, d) for s, n in CONFIGS for a, d in POINTS]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def test_per_round_values_match_golden():
    want = GOLDEN_ITERATION.read_text(encoding="ascii").splitlines()
    got = [golden_line(s, n, a, d) for s, n in CONFIGS for a, d in POINTS]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


@pytest.mark.parametrize("scheme,n", CONFIGS)
@pytest.mark.parametrize("alpha_sq,delta_sq", [(0.8, 0.6), (1e-12, 0.5 + 1e-12)])
def test_fewer_rounds_give_a_prefix(scheme, n, alpha_sq, delta_sq):
    full = per_round(scheme, n, alpha_sq, delta_sq)
    for k in range(1, MAX_ROUNDS):
        assert tuple(exact_iteration_tree(scheme, n, alpha_sq, delta_sq, k)) == full[:k]


@pytest.mark.parametrize("scheme,n", CONFIGS)
def test_edges_agree_with_unrolled_sum(scheme, n):
    worst = 0.0
    for a, d in POINTS:
        for k, got in enumerate(per_round(scheme, n, a, d), start=1):
            worst = max(worst, abs(got - round_success_unrolled(k, a, d)))
    assert worst <= 1e-10


def reference_tree(scheme, n, alpha_sq, delta_sq, max_rounds):
    """The iterated accounting over ``enumerate_scheme``'s leaf objects, as
    ``exact_iteration_tree`` ran it before it read leaf columns: the same
    comparisons, and the sums in the same order."""
    entries = {(False, False): (1.0, alpha_sq, delta_sq)}
    per_round = []

    def absorb(tree, mass, pol_fixed, spa_fixed):
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
                if abs(p0 - leaf.pol_sq) > 1e-9 or abs(s0 - leaf.spa_sq) > 1e-9:
                    raise ConsistencyError("residual coefficients disagree within one pool")
                entries[key] = (m0 + mass * leaf.probability, p0, s0)
            else:
                entries[key] = (mass * leaf.probability, leaf.pol_sq, leaf.spa_sq)
        return success

    for _ in range(max_rounds):
        current, entries = entries, {}
        p_round = 0.0
        for (pol_fixed, spa_fixed), (mass, pol_sq, spa_sq) in current.items():
            p_round += absorb(enumerate_scheme(scheme, n, pol_sq, spa_sq), mass, pol_fixed, spa_fixed)
        per_round.append(p_round)
    return per_round


@pytest.mark.parametrize("scheme,n", CONFIGS)
def test_columns_equal_the_leaf_object_tree(scheme, n):
    # == on floats: every value keeps its bits.
    for a, d in EDGE_SQUARE + (FORCED,) + RANDOM_POINTS:
        got = per_round(scheme, n, a, d)
        assert got == tuple(reference_tree(scheme, n, a, d, MAX_ROUNDS)), (a, d)


@pytest.mark.parametrize("a, d", [(0.8, 0.6), (1e-12, 0.5), (0.37, 0.81), FORCED])
def test_leaf_columns_equal_the_leaf_fields(a, d):
    tree = enumerate_scheme("b", 4, a, d)
    dropped, columns, _ = _leaf_columns(4, 4, a, d)
    assert dropped == tree.dropped_mass
    assert list(columns) == [
        [leaf.branch for leaf in tree.leaves],
        [leaf.probability for leaf in tree.leaves],
        [leaf.succeeded for leaf in tree.leaves],
        [leaf.pol_sq for leaf in tree.leaves],
        [leaf.spa_sq for leaf in tree.leaves],
    ]


@pytest.mark.parametrize("scheme,n", [("a", 9), ("b", 5)])
def test_tree_at_the_cap_builds_no_leaf_states(scheme, n):
    # At 10 photons the joint vector and each parity post state take 16
    # MiB, and the leaf states of one enumeration 64 MiB more: building
    # them lifts the peak to about 138 MiB.  The tree reads leaf columns
    # only, and peaks at about 50-60 MiB.
    tracemalloc.start()
    try:
        exact_iteration_tree(scheme, n, 0.8, 0.6, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def single_copy_optimum(alpha_sq, delta_sq):
    """Vidal's optimal probability of turning one copy into a maximally
    entangled 4x4 state (G. Vidal, PRL 83, 1046 (1999)): 4 times the
    smallest Schmidt coefficient, here 4 min(a, 1-a) min(d, 1-d)."""
    return 4.0 * min(alpha_sq, 1.0 - alpha_sq) * min(delta_sq, 1.0 - delta_sq)


@pytest.mark.parametrize("scheme,n", [("a", 2), ("b", 2)])
def test_cumulative_success_within_single_copy_optimum(scheme, n):
    for a, d in EDGE_SQUARE:
        values = per_round(scheme, n, a, d)
        for k in range(1, MAX_ROUNDS + 1):
            assert sum(values[:k]) <= single_copy_optimum(a, d) + 1e-12, (a, d, k)


@pytest.mark.parametrize("a, d", INTERIOR + ((0.5, 0.5), (0.5 + 1e-12, 1e-12)))
def test_sampled_success_within_single_copy_optimum(a, d):
    trials = 4000
    report = mc_estimate("a", 2, a, d, MAX_ROUNDS, trials, 11)
    bound = single_copy_optimum(a, d)
    sigma = math.sqrt(bound * (1.0 - bound) / trials)
    assert report.success_rate <= bound + 4.0 * sigma
