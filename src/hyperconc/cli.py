"""Command line front end.

Subcommands: ``grid`` sweeps total success over the parameter square,
``simulate`` runs seeded Monte Carlo trials, ``enumerate`` dumps the exact
outcome tree of one round, and ``verify`` cross-checks the closed-form,
exhaustive, and sampled routes against each other.

Exit codes: 0 success, 1 invalid arguments, 2 verification failure, 3 I/O
failure.  All output is deterministic for a fixed seed: equal invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import analytics, oracle, sampling
from .errors import ConsistencyError
from .protocol import classify_residual, BranchClass
from .states import DofAmplitudes, GhzForm, PHOTON_CAP

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3

# Upper limits on the work of one invocation, checked before anything is
# computed.  At the grid limits a sweep takes 3-4 s and peaks at 65 MiB RSS
# (10,201 points at 50 rounds, in one array call) on a 2-core x86 machine.
GRID_MAX_RESOLUTION = 101
GRID_MAX_ROUNDS = 50
SIMULATE_MAX_TRIALS = 1_000_000
SIMULATE_MAX_ROUNDS = 50


class ValidationError(Exception):
    """Bad arguments or out-of-range parameters."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # route argparse errors to exit 1
        raise ValidationError(message)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _check_range(name: str, value: int, low: int, high: int) -> None:
    _require(low <= value <= high, f"{name} must lie in [{low}, {high}], got {value}")


def _check_seed(seed: int) -> None:
    # Any nonnegative integer seeds the generator; there is no upper limit.
    _require(seed >= 0, f"--seed must lie in [0, inf), got {seed}")


def _check_unit(name: str, value: float) -> float:
    _require(0.0 <= value <= 1.0, f"{name} must lie in [0, 1], got {value}")
    return value


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _emit(text: str, out: str | None) -> None:
    """Write to stdout, or atomically (temp file + rename) to ``out``."""
    if out is None:
        sys.stdout.write(text)
        return
    target = os.path.abspath(out)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".hyperconc-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cmd_grid(args: argparse.Namespace) -> int:
    _check_range("--rounds", args.rounds, 1, GRID_MAX_ROUNDS)
    _check_range("--resolution", args.resolution, 2, GRID_MAX_RESOLUTION)
    rows = analytics.grid_sweep(args.rounds, args.resolution, args.include_endpoints)
    if args.format == "csv":
        lines = ["alpha_sq,delta_sq,rounds,p_total"]
        for a, c, p in rows:
            lines.append(f"{_fmt(a)},{_fmt(c)},{args.rounds},{_fmt(p)}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {
            "rounds": args.rounds,
            "resolution": args.resolution,
            "points": [
                {"alpha_sq": float(a), "delta_sq": float(c), "p_total": float(p)}
                for a, c, p in rows
            ],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _check_photon_budget(scheme: str, n: int, cap: int) -> None:
    total = n + (1 if scheme == "a" else n)
    _require(
        total <= cap,
        f"scheme {scheme} with n={n} simulates {total} photons, over the cap of {cap}",
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_unit("--alpha-sq", args.alpha_sq)
    _check_unit("--delta-sq", args.delta_sq)
    _require(args.n >= 2, "--n must be at least 2")
    _check_range("--rounds", args.rounds, 1, SIMULATE_MAX_ROUNDS)
    _check_range("--trials", args.trials, 1, SIMULATE_MAX_TRIALS)
    _check_seed(args.seed)
    if args.scheme == "b":
        _require(args.trials >= 2, "scheme b pools need at least 2 trials (copies)")
    _check_photon_budget(args.scheme, args.n, PHOTON_CAP)
    report = sampling.mc_estimate(
        args.scheme, args.n, args.alpha_sq, args.delta_sq, args.rounds, args.trials, args.seed
    )
    doc = {
        "scheme": report.scheme,
        "n": report.n,
        "alpha_sq": report.alpha_sq,
        "delta_sq": report.delta_sq,
        "rounds": report.max_rounds,
        "trials": report.trials,
        "seed": report.seed,
        "success_rate": report.success_rate,
        "standard_error": report.standard_error,
        "per_round_success_counts": list(report.per_round_success_counts),
        "residual_class_counts": report.residual_class_counts,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    _check_unit("--alpha-sq", args.alpha_sq)
    _check_unit("--delta-sq", args.delta_sq)
    _require(args.n >= 2, "--n must be at least 2")
    _check_photon_budget(args.scheme, args.n, oracle.ORACLE_PHOTON_CAP)
    tree = oracle.enumerate_scheme(args.scheme, args.n, args.alpha_sq, args.delta_sq)
    doc = {
        "scheme": tree.scheme,
        "n": tree.n,
        "alpha_sq": tree.alpha_sq,
        "delta_sq": tree.delta_sq,
        "success_probability": tree.success_probability(),
        "class_mass": {b.value: tree.class_mass(b) for b in BranchClass},
        "leaves": [
            {
                "sequence": list(leaf.sequence),
                "probability": leaf.probability,
                "branch": leaf.branch.value,
                "succeeded": leaf.succeeded,
                "pol_sq": leaf.pol_sq,
                "spa_sq": leaf.spa_sq,
            }
            for leaf in tree.leaves
        ],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _verify_checks(quick: bool, seed: int):
    """Yield (name, config, deviation, tolerance) rows for the verify table."""
    res_small = 3 if quick else 5
    grid = analytics.grid_axis(res_small)
    combos = [("a", 2), ("b", 2)] if quick else [("a", 2), ("a", 3), ("b", 2), ("b", 3)]

    # Route 1 vs 2: closed-form round-1 split against exhaustive class masses.
    for scheme, n in combos:
        dev = 0.0
        for a in grid:
            for c in grid:
                tree = oracle.enumerate_scheme(scheme, n, float(a), float(c))
                p1 = analytics.round1_probabilities(float(a), float(c))
                for branch, want in (
                    (BranchClass.EE, p1.ee),
                    (BranchClass.EO, p1.eo),
                    (BranchClass.OE, p1.oe),
                    (BranchClass.OO, p1.oo),
                ):
                    dev = max(dev, abs(tree.class_mass(branch) - want))
        yield ("round1-vs-enumeration", f"scheme={scheme} n={n}", dev, 1e-10)

    # Residual families: enumerated survivor coefficients against the
    # squared-coefficient recursion.
    for scheme, n in combos:
        dev = 0.0
        for a in grid:
            for c in grid:
                tree = oracle.enumerate_scheme(scheme, n, float(a), float(c))
                template = GhzForm(
                    n,
                    DofAmplitudes.from_first_probability(float(a)),
                    DofAmplitudes.from_first_probability(float(c)),
                )
                for branch in (BranchClass.EO, BranchClass.OE, BranchClass.OO):
                    want = classify_residual(branch, template)
                    wp, ws = want.first_moduli_sq()
                    got_p, got_s = tree.residual_coefficients(branch)
                    dev = max(dev, abs(got_p - wp), abs(got_s - ws))
        yield ("residuals-vs-recursion", f"scheme={scheme} n={n}", dev, 1e-10)

    # Route 3 internal: unrolled sum against Markov evolution, over the grid
    # in one array call.
    res_mk = 7 if quick else 21
    axis = analytics.grid_axis(res_mk)
    a, c = np.meshgrid(axis, axis, indexing="ij")
    dist = analytics.initial_distribution(a, c)
    unrolled = analytics.round_success_unrolled(1, a, c)
    for k in range(2, 7):
        dist = analytics.markov_evolve(dist, k, a, c)
        unrolled = unrolled + analytics.round_success_unrolled(k, a, c)
    dev = float(np.max(abs(dist.done - unrolled)))
    yield ("unrolled-vs-markov", f"k<=6 grid={res_mk}x{res_mk}", dev, 1e-12)

    # Route 2 vs 3: exhaustive iteration against the closed-form per-round sums.
    schemes = ("a",) if quick else ("a", "b")
    for scheme in schemes:
        dev = 0.0
        for a in grid:
            for c in grid:
                per_round = oracle.exact_iteration_tree(scheme, 2, float(a), float(c), 4)
                for k, got in enumerate(per_round, start=1):
                    want = analytics.round_success_unrolled(k, float(a), float(c))
                    dev = max(dev, abs(got - want))
        yield ("iteration-vs-analytics", f"scheme={scheme} n=2 k<=4", dev, 1e-10)

    # Route 1 vs 3: seeded sampling against closed-form expectations.
    trials = 4000 if quick else 20000
    mc_configs = [
        ("a", 2, 0.5, 0.5, 3),
        ("a", 3, 0.8, 0.6, 1),
        ("b", 2, 0.7, 0.7, 2),
    ]
    for scheme, n, a, c, rounds in mc_configs:
        report = sampling.mc_estimate(scheme, n, a, c, rounds, trials, seed)
        if scheme == "a":
            want = analytics.total_success(rounds, a, c)
        else:
            want = analytics.pool_expected_yield(rounds, a, c)
        sigma = math.sqrt(max(want * (1.0 - want), 1e-12) / trials)
        yield (
            "montecarlo-vs-analytics",
            f"scheme={scheme} n={n} a={a} d={c} r={rounds}",
            abs(report.success_rate - want),
            4.0 * sigma,
        )


def run_verification(quick: bool = False, seed: int = 0) -> bool:
    """Run the cross-validation matrix; print one line per check to stdout.

    Returns True when every check passes.
    """
    all_ok = True
    for name, config, dev, tol in _verify_checks(quick, seed):
        ok = dev <= tol
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        sys.stdout.write(f"{name:<26} {config:<38} dev={dev:.3e} tol={tol:.1e} {status}\n")
    sys.stdout.write(("all checks passed" if all_ok else "verification FAILED") + "\n")
    return all_ok


def cmd_verify(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    ok = run_verification(quick=args.quick, seed=args.seed)
    return EXIT_OK if ok else EXIT_VERIFY


def _build_parser() -> _Parser:
    parser = _Parser(prog="hyperconc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    grid = sub.add_parser("grid", help="sweep total success over the parameter square")
    grid.add_argument("--rounds", type=int, default=1)
    grid.add_argument("--resolution", type=int, default=21)
    grid.add_argument("--include-endpoints", action="store_true")
    grid.add_argument("--format", choices=("csv", "json"), default="csv")
    grid.add_argument("--out", default=None)
    grid.set_defaults(func=cmd_grid)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo trials of one scheme")
    sim.add_argument("--scheme", choices=("a", "b"), required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--alpha-sq", type=float, required=True)
    sim.add_argument("--delta-sq", type=float, required=True)
    sim.add_argument("--rounds", type=int, default=1)
    sim.add_argument("--trials", type=int, default=10000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    enum = sub.add_parser("enumerate", help="exact outcome tree of one round")
    enum.add_argument("--scheme", choices=("a", "b"), required=True)
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--alpha-sq", type=float, required=True)
    enum.add_argument("--delta-sq", type=float, required=True)
    enum.add_argument("--out", default=None)
    enum.set_defaults(func=cmd_enumerate)

    ver = sub.add_parser("verify", help="cross-validate the three evaluation routes")
    ver.add_argument("--quick", action="store_true")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
