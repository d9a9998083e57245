"""Benchmark of hyperconc: three workloads driven through its public functions.

Run from the root of a checkout:

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs a
fixed number of cycles untraced and then the same cycles with every layer
wrapped (see ``tracing.py``), and reports the per-layer metrics.  Either way
each task's output is checked after the timed region, and the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it describe the machine, give
per-kind task timings, and print every metric by name and unit.

The program is imported from ``src/`` of the current directory; without it
the benchmark exits with code 2 and prints no result.
"""

import os

# One BLAS/OpenMP thread in every workload process, set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SCRATCH_ROOT = ROOT / ".bench_tmp"
DEFAULT_SEED = 1
# setup_s is the median of this many fresh processes: probes plus the run's own.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
MAX_PRINTED_ERRORS = 5


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("montecarlo", "closed_form", "enumeration"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time import plus warm-up in this fresh process and print it")
    return p.parse_args(argv)


def import_program() -> None:
    """Import hyperconc from ``src/`` of the checkout, and nowhere else."""
    if not (SRC / "hyperconc" / "__init__.py").is_file():
        raise SetupError(f"no hyperconc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hyperconc

    if Path(hyperconc.__file__).resolve().parent != (SRC / "hyperconc").resolve():
        raise SetupError(f"imported hyperconc from {hyperconc.__file__}, not from {SRC}")


def set_up(name: str, scratch: Path):
    """Import the program and warm the workload up; return (workload, seconds)."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    workload = workloads.WORKLOADS[name]
    workload.warm_up(scratch)
    return workload, time.perf_counter() - t0


def probe_setup(name: str) -> float:
    """Setup time of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SetupError(f"setup probe exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"]


@dataclass
class Pass:
    """Tasks run in one pass, with their timings and summaries."""

    tasks: list = field(default_factory=list)
    cycles: list = field(default_factory=list)  # cycle index of each task
    durations: list = field(default_factory=list)
    summaries: list = field(default_factory=list)
    errors: int = 0

    @property
    def timed_s(self) -> float:
        return sum(self.durations)


def run_pass(workload, seed: int, scratch: Path, done) -> Pass:
    """Run whole cycles until ``done(cycles, timed seconds)`` holds.

    Exceptions are counted and the run goes on; only ``execute`` is timed.
    """
    result = Pass()
    index = 0
    while not done(index, result.timed_s):
        for task in workload.cycle(seed, index):
            out = scratch / f"task-{len(result.tasks)}.out"
            summary = None
            t0 = time.perf_counter()
            try:
                try:
                    raw = workload.execute(task, out)
                finally:
                    result.durations.append(time.perf_counter() - t0)
                summary = workload.summarize(task, raw, out)
                del raw
            except Exception:
                result.errors += 1
                if result.errors <= MAX_PRINTED_ERRORS:
                    print(f"task {task.kind} {task.args} raised:", file=sys.stderr)
                    traceback.print_exc()
            result.tasks.append(task)
            result.cycles.append(index)
            result.summaries.append(summary)
            out.unlink(missing_ok=True)
        index += 1
    return result


def machine(args: argparse.Namespace) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "hyperconc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_head(),
        "src_sha256": src.hexdigest()[:16],
    }


def git_head() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def kind_table(p: Pass) -> list[str]:
    by_kind: dict[str, list[float]] = {}
    for task, dt in zip(p.tasks, p.durations):
        by_kind.setdefault(task.kind, []).append(dt * 1e3)
    return [f"  {kind:<36} n={len(v):<5} median={statistics.median(v):9.3f} ms"
            for kind, v in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1]))]


def end_to_end(args, scratch: Path) -> tuple[dict, list[str], list[bool], list[str]]:
    samples = [probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]
    workload, own_setup = set_up(args.workload, scratch)
    samples.append(own_setup)
    p = run_pass(workload, args.seed, scratch, lambda cycles, timed: timed >= args.seconds)
    ok = workload.check(p.tasks, p.summaries)
    q = statistics.quantiles([dt * 1e3 for dt in p.durations], n=10)
    # Work of checked tasks per timed second, cycle by cycle; the median cycle
    # damps the bursts of load that other tenants of a shared host add.
    work: dict[int, float] = {}
    timed: dict[int, float] = {}
    for task, cycle, dt, good in zip(p.tasks, p.cycles, p.durations, ok):
        work[cycle] = work.get(cycle, 0) + (task.work if good else 0)
        timed[cycle] = timed.get(cycle, 0.0) + dt
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "task_p50_ms": (q[4], "ms"),
        "task_p90_ms": (q[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "work_per_s": (statistics.median(work[c] / timed[c] for c in timed), "1/s"),
    }
    notes = [
        f"setup samples (s): {', '.join(f'{s:.4f}' for s in samples)}",
        f"tasks: {len(p.tasks)} in {len(timed)} cycles, {p.timed_s:.3f} s timed; percentiles over "
        f"{len(p.durations)} samples, {sum(d * 1e3 > q[8] for d in p.durations)} beyond p90",
        f"work_per_s counts {workload.unit} ({workload.unit}_per_s): median over cycles",
        f"failed_frac = {ok.count(False)}/{len(ok)}",
        "per-kind task times:",
        *kind_table(p),
    ]
    return metrics, notes, ok, []


def per_layer(args, workload, scratch: Path) -> tuple[dict, list[str], list[bool], list[str]]:
    import tracing

    cycles = max(1, round(args.seconds / (2 * workload.CYCLE_S)))
    plain = run_pass(workload, args.seed, scratch, lambda n, timed: n >= cycles)
    with tracing.traced() as rec:
        traced = run_pass(workload, args.seed, scratch, lambda n, timed: n >= cycles)
    # A traced task fails its check too when its output differs from the
    # untraced run of the same task.
    same = [a is not None and b is not None and a["digest"] == b["digest"]
            for a, b in zip(plain.summaries, traced.summaries)]
    ok = workload.check(plain.tasks, plain.summaries) + [
        good and agree
        for good, agree in zip(workload.check(traced.tasks, traced.summaries), same)]
    bytes_out = sum(s["bytes_out"] for s in traced.summaries if s is not None)
    metrics = tracing.layer_metrics(rec, bytes_out, traced.timed_s / plain.timed_s - 1.0)
    wrong = [f"{k} is {metrics[k][0]}, expected 0" for k in workload.ZERO if metrics[k][0] != 0]
    wrong += [f"{k} is 0, expected > 0" for k in workload.NONZERO if metrics[k][0] == 0]
    notes = [
        f"traced {cycles} cycles: {len(traced.tasks)} tasks, "
        f"{traced.timed_s:.3f} s traced against {plain.timed_s:.3f} s untraced",
        f"traced and untraced outputs differ on {same.count(False)} of {len(same)} tasks",
        *(f"count check failed: {w}" for w in wrong),
        f"failed_frac = {ok.count(False)}/{len(ok)}",
    ]
    return metrics, notes, ok, wrong


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT))
    tempfile.tempdir = str(scratch)
    try:
        if args.setup_probe:
            _, setup_s = set_up(args.workload, scratch)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            workload, _ = set_up(args.workload, scratch)
            metrics, notes, ok, problems = per_layer(args, workload, scratch)
        else:
            metrics, notes, ok, problems = end_to_end(args, scratch)
        print("machine " + json.dumps(machine(args), sort_keys=True))
        for line in notes:
            print(line)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        print(json.dumps({
            "correct": all(ok) and not problems,
            "attempted": len(ok),
            "failed": ok.count(False),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    except (SetupError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark setup failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
