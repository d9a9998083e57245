"""The iterated oracle, pinned and checked at the edges of the parameter square.

``exact_iteration_tree`` runs the enumerator about ten times per call, feeding
each round's enumerated residual coefficients into the next.  Its per-round
values are pinned float for float (as ``float.hex``) against
``tests/data/iteration_golden.txt``, recorded with the dense per-branch
enumerator, and compared with the closed-form unrolled sum.

To re-record the golden file (only when a change of numbers is intended):

    PYTHONPATH=src python -c "import tests.test_iteration_tree as t; t.write_golden()"
"""

from functools import lru_cache
from pathlib import Path

import pytest

from hyperconc.analytics import round_success_unrolled
from hyperconc.oracle import exact_iteration_tree

GOLDEN_ITERATION = Path(__file__).parent / "data" / "iteration_golden.txt"

MAX_ROUNDS = 6
EDGES = (0.0, 1e-300, 1e-12, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 1.0 - 1e-12, 1.0)
INTERIOR = ((0.8, 0.6), (0.3, 0.9), (0.37, 0.81), (0.05, 0.55))
POINTS = tuple((a, d) for a in EDGES for d in EDGES) + INTERIOR
CONFIGS = (("a", 2), ("a", 3), ("b", 2), ("b", 3))


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
