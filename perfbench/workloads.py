"""The three workloads of the hyperconc benchmark.

A workload is an endless sequence of cycles.  A cycle is a fixed list of
tasks whose inputs are drawn from (workload seed, cycle index), and a task is
one call of a public hyperconc function, or of ``hyperconc.cli.main`` with
``--out`` into the run's scratch directory.  Runs execute whole cycles, so
the mix of task kinds in a run is exact and the per-task percentiles do not
depend on where the clock stopped.  Per-kind counts in a cycle are chosen so
that the median and the 90th percentile fall inside a block of equal-cost
tasks rather than on the edge between two kinds.

Every call goes through an attribute of the package (``hyperconc.mc_estimate``,
``hyperconc.cli.main``), not a name bound at import, so the traced run's
wrappers see it, and a function that moves between modules of the package is
still found.

Running a task (``execute``) is timed; reducing its result to a summary
(``summarize``) and checking the summaries (``Workload.check``) are not.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import hyperconc
from hyperconc import cli

GOLDEN_GRID = Path("tests") / "data" / "grid_r1_res3.csv"

# Tolerances of ``hyperconc verify``: 4 standard errors for sampled rates,
# 1e-10 between enumeration and the closed form.
MC_SIGMAS = 4.0
EXACT_TOL = 1e-10
# Closed-form values against the recurrences below; a grid row's value is
# printed with 12 significant digits, which loses at most 5e-13.
POINT_TOL = 1e-12


@dataclass(frozen=True)
class Task:
    """One public call.

    ``kind`` groups tasks of equal shape for the per-kind timing table;
    ``work`` is the task's share of the workload's throughput unit.
    """

    kind: str
    call: str
    args: tuple
    via_cli: bool = False
    work: int = 1


def _point(rng: random.Random) -> float:
    # A parameter strictly inside (0, 1).
    return 0.001 + 0.998 * rng.random()


def _cycle_rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{index}")


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _check_each(check_one, tasks: list[Task], summaries: list[dict | None]) -> list[bool]:
    """Check task by task; a task without a summary, or whose check raises, fails."""
    ok = []
    for task, s in zip(tasks, summaries):
        try:
            ok.append(s is not None and check_one(task, s))
        except Exception as exc:
            print(f"check of {task.kind} {task.args} raised {exc!r}", file=sys.stderr)
            ok.append(False)
    return ok


def _run_cli(argv: list[str], out: Path) -> int:
    return cli.main(argv + ["--out", str(out)])


def _read_cli(label: str, code: int, out: Path) -> tuple[bytes, dict]:
    """Bytes written by a CLI call, then remove the file."""
    if code != 0:
        raise RuntimeError(f"{label}: cli exit code {code}")
    data = out.read_bytes()
    out.unlink()
    return data, {"digest": _digest(code, data), "bytes_out": len(data)}


def _reference_rounds(n_rounds: int, alpha_sq: float, delta_sq: float):
    """Round-1 split and the (pol_s, pol_f, spa_s, spa_f) rates of rounds 2..n_rounds.

    Built from the round-1 split and the squaring update alone, without
    hyperconc, so the closed-form checks share no code with the evaluators
    they check.  With b = 1 - a and d = 1 - c, round 1 splits as
    P_ee = 4abcd, P_eo = 2ab(c^2+d^2), P_oe = 2cd(a^2+b^2) and
    P_oo = (a^2+b^2)(c^2+d^2); each failed round maps a squared coefficient
    p to p^2 / (p^2 + (1-p)^2).
    """
    a, c = alpha_sq, delta_sq
    pol_even, pol_odd = 2 * a * (1 - a), a * a + (1 - a) ** 2
    spa_even, spa_odd = 2 * c * (1 - c), c * c + (1 - c) ** 2
    split = (pol_even * spa_even, pol_even * spa_odd, spa_even * pol_odd, pol_odd * spa_odd)
    rates = []
    for _ in range(2, n_rounds + 1):
        a = a * a / (a * a + (1 - a) ** 2)
        c = c * c / (c * c + (1 - c) ** 2)
        rates.append((2 * a * (1 - a), a * a + (1 - a) ** 2, 2 * c * (1 - c), c * c + (1 - c) ** 2))
    return split, rates


def reference_total(n_rounds: int, alpha_sq: float, delta_sq: float) -> float:
    """Success within ``n_rounds`` rounds: the chain over {eo, oe, oo}, run forward.

    An eo state (polarization fixed) waits on the spatial check, an oe state
    on the polarization check, and an oo state needs both.
    """
    (done, eo, oe, oo), rates = _reference_rounds(n_rounds, alpha_sq, delta_sq)
    for pol_s, pol_f, spa_s, spa_f in rates:
        done += eo * spa_s + oe * pol_s + oo * pol_s * spa_s
        eo, oe, oo = (eo * spa_f + oo * pol_s * spa_f, oe * pol_f + oo * spa_s * pol_f,
                      oo * pol_f * spa_f)
    return done


def reference_yield(n_rounds: int, alpha_sq: float, delta_sq: float) -> float:
    """Two-copy pool yield per initial copy: one attempt's yield, recursed backward.

    A failed attempt leaves a residual that needs an identical partner, so
    the next round's yield counts half.
    """
    (ee, eo, oe, oo), rates = _reference_rounds(n_rounds, alpha_sq, delta_sq)
    y_eo = y_oe = y_oo = 0.0
    for pol_s, pol_f, spa_s, spa_f in reversed(rates):
        y_eo, y_oe, y_oo = (
            spa_s + spa_f * y_eo / 2,
            pol_s + pol_f * y_oe / 2,
            pol_s * spa_s + (pol_s * spa_f * y_eo + spa_s * pol_f * y_oe + pol_f * spa_f * y_oo) / 2,
        )
    return (ee + (eo * y_eo + oe * y_oe + oo * y_oo) / 2) / 2


class MonteCarlo:
    """Seeded sampling: ``mc_estimate`` chunks with derived seeds.

    The work unit is one trial: a scheme-a trace or a scheme-b pool copy.
    """

    name = "montecarlo"
    unit = "trials"
    CYCLE_S = 1.1  # timed seconds of one cycle at the seed commit (2-core x86 VM)
    ZERO = ("oracle.enumerate_scheme.calls", "analytics.points")
    NONZERO = ("states.dense_vectors", "protocol.rounds", "protocol.traces", "protocol.pools",
               "measurement.rng.draws", "measurement.rng.derive.calls", "cli.main.calls")
    # (label, scheme, n, alpha_sq, delta_sq, rounds): the three configurations
    # of acceptance criterion 6, and one whose joint states carry 5 photons.
    CONFIGS = (
        ("a-n3-k1", "a", 3, 0.8, 0.6, 1),
        ("a-n2-k5", "a", 2, 0.5, 0.5, 5),
        ("b-n2-k3", "b", 2, 0.7, 0.7, 3),
        ("a-n4-k3", "a", 4, 0.3, 0.9, 3),
    )
    # (config index, trials per chunk, through the CLI, chunks per cycle).  The
    # median falls among the a/n2/k5 chunks and the 90th percentile among the
    # a/n4 chunks.
    CYCLE = (
        (0, 200, False, 2),
        (0, 200, True, 1),
        (1, 100, False, 3),
        (2, 400, False, 1),
        (2, 400, True, 1),
        (3, 200, False, 2),
    )

    def cycle(self, seed: int, index: int) -> list[Task]:
        rng = _cycle_rng(self.name, seed, index)
        tasks = []
        for cfg, trials, via_cli, count in self.CYCLE:
            label, *params = self.CONFIGS[cfg]
            for _ in range(count):
                chunk_seed = rng.randrange(2**32)
                kind = f"mc {label} x{trials}" + (" cli" if via_cli else "")
                tasks.append(Task(kind, "mc", (*params, trials, chunk_seed), via_cli, trials))
        return tasks

    def warm_up(self, scratch: Path) -> None:
        for _, scheme, n, a, d, k in self.CONFIGS:
            hyperconc.mc_estimate(scheme, n, a, d, k, 2, 0)
        out = scratch / "warm.json"
        code = _run_cli(["simulate", "--scheme", "b", "--n", "2", "--alpha-sq", "0.7",
                         "--delta-sq", "0.7", "--rounds", "1", "--trials", "2"], out)
        _read_cli("warm-up", code, out)

    def execute(self, task: Task, out: Path) -> Any:
        scheme, n, a, d, k, trials, seed = task.args
        if task.via_cli:
            return _run_cli(["simulate", "--scheme", scheme, "--n", str(n),
                             "--alpha-sq", repr(a), "--delta-sq", repr(d),
                             "--rounds", str(k), "--trials", str(trials),
                             "--seed", str(seed)], out)
        return hyperconc.mc_estimate(scheme, n, a, d, k, trials, seed)

    def summarize(self, task: Task, raw: Any, out: Path) -> dict:
        if task.via_cli:
            data, summary = _read_cli(task.kind, raw, out)
            doc = json.loads(data)
            summary.update(trials=doc["trials"], per_round=doc["per_round_success_counts"],
                           residual=doc["residual_class_counts"], rate=doc["success_rate"])
            return summary
        return {"digest": _digest(raw), "bytes_out": 0, "trials": raw.trials,
                "per_round": list(raw.per_round_success_counts),
                "residual": raw.residual_class_counts, "rate": raw.success_rate}

    def check(self, tasks: list[Task], summaries: list[dict | None]) -> list[bool]:
        """Per-chunk bookkeeping, then each configuration's pooled rate.

        A chunk of a few hundred trials is too small for a 4-sigma test to be
        both strict and rarely wrong, so the rate test runs once per
        configuration on all its chunks; when it fails, every chunk of that
        configuration counts as failed.
        """
        ok = _check_each(self._check_chunk, tasks, summaries)
        pooled: dict[tuple, list[int]] = {}
        for task, s in zip(tasks, summaries):
            if s is not None:
                tally = pooled.setdefault(task.args[:5], [0, 0])
                tally[0] += sum(s["per_round"])
                tally[1] += s["trials"]
        for key, (successes, trials) in pooled.items():
            try:
                good = self._pooled_rate_ok(key, successes, trials)
            except Exception as exc:
                print(f"pooled check of {key} raised {exc!r}", file=sys.stderr)
                good = False
            if not good:
                ok = [good and task.args[:5] != key for task, good in zip(tasks, ok)]
        return ok

    @staticmethod
    def _check_chunk(task: Task, s: dict) -> bool:
        scheme, n, a, d, k, trials, _ = task.args
        successes = sum(s["per_round"])
        left = sum(s["residual"].values())
        if not (s["trials"] == trials and len(s["per_round"]) == k
                and s["rate"] == successes / trials):
            return False
        if scheme == "a":
            return successes + left == trials
        return 2 * successes + left <= trials

    @staticmethod
    def _pooled_rate_ok(config: tuple, successes: int, trials: int) -> bool:
        scheme, n, a, d, k = config
        if scheme == "a":
            want = hyperconc.total_success(k, a, d)
        else:
            want = hyperconc.pool_expected_yield(k, a, d)
        sigma = math.sqrt(max(want * (1.0 - want), 1e-12) / trials)
        return abs(successes / trials - want) <= MC_SIGMAS * sigma


class ClosedForm:
    """Closed-form analytics: CLI grid sweeps and single-point evaluations.

    The work unit is one (alpha_sq, delta_sq, k) evaluation; a grid task
    counts its points.
    """

    name = "closed_form"
    unit = "points"
    CYCLE_S = 2.0
    ZERO = ("states.dense_vectors", "protocol.rounds", "oracle.enumerate_scheme.calls")
    NONZERO = ("analytics.points", "analytics.branch_rates.calls",
               "analytics.markov_evolve.calls", "cli.main.calls")
    # (rounds, resolution): the 41x41 sweep of acceptance criterion 4, a
    # many-round sweep, and the golden file's 3x3 grid.
    GRIDS = ((5, 41), (20, 21), (1, 3))
    # (rounds of total_success, points per cycle).  With 40 tasks a cycle the
    # median falls mid-way through the k=10 points and the 90th percentile
    # mid-way through the k=100 points.
    TOTALS = ((10, 12), (40, 7), (100, 4))
    YIELD_ROUNDS = 5
    YIELDS = 14
    SPOT_ROWS = 3

    def cycle(self, seed: int, index: int) -> list[Task]:
        rng = _cycle_rng(self.name, seed, index)
        tasks = []
        for k, res in self.GRIDS:
            spots = tuple(rng.randrange(res * res) for _ in range(self.SPOT_ROWS))
            tasks.append(Task(f"grid k{k} {res}x{res} cli", "grid", (k, res, spots),
                              True, res * res))
        for k, count in self.TOTALS:
            for _ in range(count):
                tasks.append(Task(f"total_success k{k}", "total",
                                  (k, _point(rng), _point(rng))))
        for _ in range(self.YIELDS):
            tasks.append(Task(f"pool_expected_yield k{self.YIELD_ROUNDS}", "yield",
                              (self.YIELD_ROUNDS, _point(rng), _point(rng))))
        return tasks

    def warm_up(self, scratch: Path) -> None:
        hyperconc.total_success(2, 0.3, 0.6)
        hyperconc.pool_expected_yield(2, 0.3, 0.6)
        out = scratch / "warm.csv"
        code = _run_cli(["grid", "--rounds", "2", "--resolution", "2"], out)
        _read_cli("warm-up", code, out)

    def execute(self, task: Task, out: Path) -> Any:
        if task.call == "grid":
            k, res, _ = task.args
            return _run_cli(["grid", "--rounds", str(k), "--resolution", str(res)], out)
        if task.call == "total":
            return hyperconc.total_success(*task.args)
        return hyperconc.pool_expected_yield(*task.args)

    def summarize(self, task: Task, raw: Any, out: Path) -> dict:
        if task.call != "grid":
            return {"digest": _digest(raw), "bytes_out": 0, "value": raw}
        data, summary = _read_cli(task.kind, raw, out)
        k, res, spots = task.args
        lines = data.decode().split("\n")
        rows = lines[1:-1]
        summary.update(
            head=lines[0], rows=len(rows), tail=lines[-1],
            max_p=max(float(r.rsplit(",", 1)[1]) for r in rows),
            spots=[(i, rows[i]) for i in spots if i < len(rows)],
            golden=data == GOLDEN_GRID.read_bytes() if (k, res) == (1, 3) else None,
        )
        return summary

    def check(self, tasks: list[Task], summaries: list[dict | None]) -> list[bool]:
        return _check_each(self._check_one, tasks, summaries)

    def _check_one(self, task: Task, s: dict) -> bool:
        if task.call == "total":
            return abs(s["value"] - reference_total(*task.args)) <= POINT_TOL
        if task.call == "yield":
            return abs(s["value"] - reference_yield(*task.args)) <= POINT_TOL
        k, res, spots = task.args
        if (s["head"], s["rows"], s["tail"]) != ("alpha_sq,delta_sq,rounds,p_total", res * res, ""):
            return False
        if s["golden"] is False:
            return False
        if (k, res) == (5, 41) and not s["max_p"] > 0.90:
            return False
        axis = hyperconc.grid_axis(res)
        for i, row in s["spots"]:
            a, d = float(axis[i // res]), float(axis[i % res])
            point, value = row.rsplit(",", 1)
            if point != f"{a:.12g},{d:.12g},{k}":
                return False
            if not abs(float(value) - reference_total(k, a, d)) <= POINT_TOL:
                return False
        return len(s["spots"]) == len(spots)


class Enumeration:
    """Exhaustive enumeration on dense vectors: one round, and iterated.

    The work unit is one top-level ``enumerate_scheme`` or
    ``exact_iteration_tree`` call.
    """

    name = "enumeration"
    unit = "enumerations"
    CYCLE_S = 0.8
    ZERO = ("measurement.rng.draws", "protocol.rounds", "analytics.points")
    NONZERO = ("states.dense_vectors", "oracle.enumerate_scheme.calls",
               "oracle.exact_iteration_tree.calls", "oracle.leaves",
               "measurement.parity_branch.calls", "cli.main.calls")
    # (scheme, n, through the CLI, tasks per cycle); scheme b at n=4 holds
    # 8 photons, a 1 MiB vector.  With 40 tasks a cycle the median falls in
    # the a/n2/k4 trees and the 90th percentile in the b/n4 enumerations.
    ENUMS = (
        ("a", 2, False, 3), ("a", 3, False, 3), ("a", 4, True, 3), ("a", 5, False, 3),
        ("a", 6, False, 3), ("b", 2, False, 3), ("b", 3, True, 2), ("b", 4, False, 7),
    )
    # (scheme, n, rounds, tasks per cycle)
    TREES = (
        ("a", 2, 4, 6), ("a", 2, 6, 2), ("b", 2, 4, 2), ("b", 2, 6, 2), ("b", 3, 4, 1),
    )

    def cycle(self, seed: int, index: int) -> list[Task]:
        rng = _cycle_rng(self.name, seed, index)
        tasks = []
        for scheme, n, via_cli, count in self.ENUMS:
            for _ in range(count):
                kind = f"enumerate {scheme} n{n}" + (" cli" if via_cli else "")
                tasks.append(Task(kind, "enumerate", (scheme, n, _point(rng), _point(rng)),
                                  via_cli))
        for scheme, n, k, count in self.TREES:
            for _ in range(count):
                tasks.append(Task(f"exact_iteration_tree {scheme} n{n} k{k}", "tree",
                                  (scheme, n, _point(rng), _point(rng), k)))
        return tasks

    def warm_up(self, scratch: Path) -> None:
        for scheme, n, _, _ in self.ENUMS:
            hyperconc.enumerate_scheme(scheme, n, 0.3, 0.6)
        for scheme, n, _, _ in self.TREES:
            hyperconc.exact_iteration_tree(scheme, n, 0.3, 0.6, 1)
        out = scratch / "warm.json"
        code = _run_cli(["enumerate", "--scheme", "a", "--n", "2", "--alpha-sq", "0.3",
                         "--delta-sq", "0.6"], out)
        _read_cli("warm-up", code, out)

    def execute(self, task: Task, out: Path) -> Any:
        if task.call == "tree":
            return hyperconc.exact_iteration_tree(*task.args)
        if task.via_cli:
            scheme, n, a, d = task.args
            return _run_cli(["enumerate", "--scheme", scheme, "--n", str(n),
                             "--alpha-sq", repr(a), "--delta-sq", repr(d)], out)
        return hyperconc.enumerate_scheme(*task.args)

    def summarize(self, task: Task, raw: Any, out: Path) -> dict:
        if task.call == "tree":
            return {"digest": _digest(raw), "bytes_out": 0, "per_round": list(raw)}
        if task.via_cli:
            data, summary = _read_cli(task.kind, raw, out)
            doc = json.loads(data)
            summary.update(class_mass=doc["class_mass"], leaves=len(doc["leaves"]))
            return summary
        h = hashlib.sha256()
        for leaf in raw.leaves:
            h.update(repr((leaf.sequence, leaf.probability, leaf.branch, leaf.succeeded,
                           leaf.pol_sq, leaf.spa_sq)).encode())
            h.update(leaf.state.amplitudes.tobytes())
        return {"digest": h.hexdigest(), "bytes_out": 0, "leaves": len(raw.leaves),
                "class_mass": {b.value: raw.class_mass(b) for b in hyperconc.BranchClass}}

    def check(self, tasks: list[Task], summaries: list[dict | None]) -> list[bool]:
        return _check_each(self._check_one, tasks, summaries)

    def _check_one(self, task: Task, s: dict) -> bool:
        if task.call == "tree":
            scheme, n, a, d, k = task.args
            return len(s["per_round"]) == k and all(
                abs(got - hyperconc.round_success_unrolled(r, a, d)) <= EXACT_TOL
                for r, got in enumerate(s["per_round"], start=1)
            )
        scheme, n, a, d = task.args
        p1 = hyperconc.round1_probabilities(a, d)
        want = {"ee": p1.ee, "eo": p1.eo, "oe": p1.oe, "oo": p1.oo}
        return s["leaves"] > 0 and all(
            abs(s["class_mass"][key] - value) <= EXACT_TOL for key, value in want.items()
        )


WORKLOADS = {w.name: w for w in (MonteCarlo(), ClosedForm(), Enumeration())}

