"""Acceptance gate: one test per shipped guarantee, frozen tolerances.

Each test prints a single summary line; `pytest -v` adds the pass/fail verdict
per criterion.  Budgets are wall-clock and asserted, so a slow environment
fails loudly rather than silently degrading.
"""

import subprocess
import sys
import time

import numpy as np

from hyperconc import (
    BranchClass,
    Dof,
    DofAmplitudes,
    FullState,
    GhzForm,
    ParityOutcome,
    RandomSource,
    ghz_to_full,
    iterate_scheme_a,
)
from hyperconc.analytics import (
    grid_axis,
    grid_sweep,
    initial_distribution,
    markov_evolve,
    pool_expected_yield,
    round_success_unrolled,
    total_success,
)
from hyperconc.measurement import parity_branch
from hyperconc.oracle import enumerate_scheme, exact_iteration_tree
from hyperconc.sampling import mc_estimate
from hyperconc.states import fidelity, maximal_ghz

TRIALS_FULL = 100_000
TRACES = 10_000


def ghz(n, alpha_sq, delta_sq):
    return GhzForm(
        n,
        DofAmplitudes.from_first_probability(alpha_sq),
        DofAmplitudes.from_first_probability(delta_sq),
    )


def report(line):
    print(line, flush=True)


def test_criterion_01_round_one_success_formula():
    """Enumerated ee mass equals 4|alpha beta delta eta|^2 on a 21x21 grid."""
    t0 = time.perf_counter()
    axis = grid_axis(21)
    worst = 0.0
    for scheme in ("a", "b"):
        for n in (2, 3):
            for a in axis:
                for c in axis:
                    tree = enumerate_scheme(scheme, n, float(a), float(c))
                    want = 4.0 * a * (1.0 - a) * c * (1.0 - c)
                    worst = max(worst, abs(tree.class_mass(BranchClass.EE) - want))
    elapsed = time.perf_counter() - t0
    report(
        f"criterion 1: round-1 formula, 21x21 grid, schemes a+b, n=2,3: "
        f"worst dev {worst:.3e} (tol 1e-10), {elapsed:.1f}s (budget 10s)"
    )
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_residual_families():
    """Failure-branch coefficients match the squared renormalization."""

    def renorm(p):
        return p * p / (p * p + (1.0 - p) * (1.0 - p))

    axis = grid_axis(5)
    worst = 0.0
    for scheme in ("a", "b"):
        for n in (2, 3):
            for a in axis:
                for c in axis:
                    tree = enumerate_scheme(scheme, n, float(a), float(c))
                    expected = {
                        BranchClass.EO: (0.5, renorm(c)),
                        BranchClass.OE: (renorm(a), 0.5),
                        BranchClass.OO: (renorm(a), renorm(c)),
                    }
                    for branch, want in expected.items():
                        got = tree.residual_coefficients(branch)
                        worst = max(
                            worst, abs(got[0] - want[0]), abs(got[1] - want[1])
                        )
    report(
        f"criterion 2: residual families, 5x5 grid, schemes a+b, n=2,3: "
        f"worst dev {worst:.3e} (tol 1e-10)"
    )
    assert worst <= 1e-10


def test_criterion_03_recursion_consistency():
    """Unrolled sums, Markov evolution, and the enumeration tree agree."""
    t0 = time.perf_counter()
    axis21 = grid_axis(21)
    worst_mk = 0.0
    for a in axis21:
        for c in axis21:
            dist = initial_distribution(float(a), float(c))
            cumulative = dist.done
            unrolled = round_success_unrolled(1, float(a), float(c))
            worst_mk = max(worst_mk, abs(cumulative - unrolled))
            for k in range(2, 7):
                dist = markov_evolve(dist, k, float(a), float(c))
                unrolled += round_success_unrolled(k, float(a), float(c))
                worst_mk = max(worst_mk, abs(dist.done - unrolled))
    worst_tree = 0.0
    axis5 = grid_axis(5)
    for scheme in ("a", "b"):
        for a in axis5:
            for c in axis5:
                per_round = exact_iteration_tree(scheme, 2, float(a), float(c), 4)
                for k, got in enumerate(per_round, start=1):
                    want = round_success_unrolled(k, float(a), float(c))
                    worst_tree = max(worst_tree, abs(got - want))
    elapsed = time.perf_counter() - t0
    report(
        f"criterion 3: recursion consistency: markov-vs-unrolled dev "
        f"{worst_mk:.3e} (tol 1e-12, k<=6, 21x21), tree-vs-both dev "
        f"{worst_tree:.3e} (tol 1e-10, k<=4, 5x5), {elapsed:.1f}s (budget 60s)"
    )
    assert worst_mk <= 1e-12
    assert worst_tree <= 1e-10
    assert elapsed < 60.0


def test_criterion_04_headline_maximum():
    """Five-round success tops 0.90 somewhere on a 41x41 grid."""
    t0 = time.perf_counter()
    rows = grid_sweep(5, 41)
    best = float(np.max(rows[:, 2]))
    elapsed = time.perf_counter() - t0
    report(
        f"criterion 4: max 5-round success on 41x41 grid = {best:.10f} "
        f"(> 0.90 exact), {elapsed:.1f}s (budget 5s)"
    )
    assert best > 0.90
    assert elapsed < 5.0


def test_criterion_05_monotonicity():
    """Success never drops with more rounds, nor with alpha_sq up to 1/2."""
    axis = grid_axis(41)
    slack = 1e-14
    for c in axis:
        for a in axis:
            prev = 0.0
            for k in range(1, 6):
                cur = total_success(k, float(a), float(c))
                assert cur >= prev - slack, (a, c, k)
                prev = cur
        lower_half = [float(a) for a in axis if a <= 0.5]
        vals = [total_success(3, a, float(c)) for a in lower_half]
        for v1, v2 in zip(vals, vals[1:]):
            assert v2 >= v1 - slack, (c, v1, v2)
    report(
        "criterion 5: monotone in rounds (k<=5) and in alpha_sq on (0, 0.5], "
        "41x41 grid, slack 1e-14"
    )


def test_criterion_06_monte_carlo_agreement():
    """Sampled rates land within 3 standard errors of the exact references."""
    t0 = time.perf_counter()
    configs = [
        ("a", 3, 0.8, 0.6, 1),
        ("a", 2, 0.5, 0.5, 5),
        ("b", 2, 0.7, 0.7, 3),
    ]
    lines = []
    worst_sigma = 0.0
    for scheme, n, a, c, k in configs:
        rep = mc_estimate(scheme, n, a, c, k, TRIALS_FULL, seed=0)
        ref = total_success(k, a, c) if scheme == "a" else pool_expected_yield(k, a, c)
        sigma = abs(rep.success_rate - ref) / rep.standard_error
        worst_sigma = max(worst_sigma, sigma)
        lines.append(f"{scheme}/n{n}/k{k}: {rep.success_rate:.5f} vs {ref:.5f} ({sigma:.2f} SE)")
        assert sigma <= 3.0, (scheme, n, a, c, k, rep.success_rate, ref)
    elapsed = time.perf_counter() - t0
    report(
        f"criterion 6: monte carlo at 1e5 trials: {'; '.join(lines)}; "
        f"worst {worst_sigma:.2f} SE (limit 3), {elapsed:.0f}s (budget 30s)"
    )
    assert elapsed < 30.0


def test_criterion_07_success_state_exactness():
    """Every succeeded round across 1e4 traces is exactly maximal."""
    params = [(0.8, 0.6), (0.5, 0.5), (0.3, 0.9)]
    root = RandomSource(0)
    worst = 0.0
    checked = 0
    for slot, n in enumerate((2, 3, 4)):
        count = TRACES - 2 * (TRACES // 3) if n == 2 else TRACES // 3
        target = ghz_to_full(maximal_ghz(n))
        src = root.derive(slot)
        for i in range(count):
            a, c = params[i % len(params)]
            trace = iterate_scheme_a(ghz(n, a, c), 3, src.derive(i))
            for res in trace.rounds:
                if res.succeeded:
                    worst = max(worst, abs(fidelity(ghz_to_full(res.post), target) - 1.0))
                    checked += 1
    report(
        f"criterion 7: {checked} succeeded rounds across {TRACES} traces "
        f"(n=2,3,4): worst |F-1| = {worst:.3e} (tol 1e-10)"
    )
    assert checked > 0
    assert worst <= 1e-10


def test_criterion_08_parity_commutation():
    """Polarization and spatial parity projections commute."""

    def random_state(rng, n):
        raw = rng.uniforms(2 * 4**n) - 0.5
        return FullState(n, raw[: 4**n] + 1j * raw[4**n :])

    rng = RandomSource(42)
    worst = 0.0
    for case in range(100):
        src = rng.derive(case)
        n = 3 + case % 3
        state = random_state(src, n)
        i, j = 0, n - 1
        for pol_out in ParityOutcome:
            for spa_out in ParityOutcome:
                p1, mid = parity_branch(state, i, j, Dof.POLARIZATION, pol_out)
                pa, post_a = (0.0, None) if mid is None else parity_branch(
                    mid, i, j, Dof.SPATIAL, spa_out
                )
                p2, mid2 = parity_branch(state, i, j, Dof.SPATIAL, spa_out)
                pb, post_b = (0.0, None) if mid2 is None else parity_branch(
                    mid2, i, j, Dof.POLARIZATION, pol_out
                )
                worst = max(worst, abs(p1 * pa - p2 * pb))
                if post_a is not None and post_b is not None:
                    worst = max(
                        worst,
                        float(np.max(np.abs(post_a.amplitudes - post_b.amplitudes))),
                    )
                else:
                    assert p1 * pa <= 1e-12 and p2 * pb <= 1e-12
    report(
        f"criterion 8: parity order swap on 100 random states (3-5 photons): "
        f"worst dev {worst:.3e} (tol 1e-12)"
    )
    assert worst <= 1e-12


def test_criterion_09_byte_determinism():
    """verify/grid/simulate emit identical bytes for identical seeds."""

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperconc", *argv],
            capture_output=True,
        )
        return proc.returncode, proc.stdout

    commands = {
        "verify": ("verify", "--quick", "--seed", "5"),
        "grid": ("grid", "--rounds", "2", "--resolution", "7"),
        "simulate": (
            "simulate", "--scheme", "a", "--n", "2", "--alpha-sq", "0.8",
            "--delta-sq", "0.6", "--rounds", "2", "--trials", "500", "--seed", "5",
        ),
    }
    for name, argv in commands.items():
        code1, out1 = run(*argv)
        code2, out2 = run(*argv)
        assert code1 == code2 == 0, (name, code1, code2)
        assert out1 == out2, name
    report("criterion 9: verify/grid/simulate byte-identical across equal-seed runs")
