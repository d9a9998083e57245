"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it makes two traced runs (``run.py --trace 1``) at seed
``SEED``, each of ``SECONDS`` seconds, and checks that:

- each run reports ``correct``: every task passed its check, traced and
  untraced passes gave identical task outputs, and the counts the workload
  expects to be zero are zero and those it expects to be positive are
  positive (``ZERO`` and ``NONZERO`` in ``workloads.py``);
- every count is identical in the two runs.

Last, it copies the benchmark into a directory without the program and checks
that ``run.py`` exits with a code other than 0 and prints no result there.
Exits with code 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("montecarlo", "closed_form", "enumeration")
# Counts named by the benchmark's design as exactly repeatable at one seed.
SHOWN = ("states.dense_vectors", "protocol.rounds", "oracle.leaves",
         "analytics.branch_rates.calls", "measurement.rng.draws")
COUNT_UNITS = ("count", "B", "B_computed")
SEED = 1
SECONDS = 2


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith("count check failed") or (
                "outputs differ" in line and "differ on 0 of" not in line):
            print(f"  {line}")
    return json.loads(lines[-1])


def check_workload(workload: str) -> bool:
    first, second = (traced_run(workload) for _ in range(2))
    ok = first["correct"] and second["correct"]
    counts = {k for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS}
    differ = sorted(k for k in counts
                    if first["metrics"][k]["value"] != second["metrics"][k]["value"])
    shown = ", ".join(f"{k}={first['metrics'][k]['value']}" for k in SHOWN)
    print(f"{workload}: correct={first['correct']},{second['correct']} "
          f"failed={first['failed']},{second['failed']} of {first['attempted']}; "
          f"{len(counts) - len(differ)}/{len(counts)} counts repeat; {shown}")
    for k in differ:
        print(f"  {k}: {first['metrics'][k]['value']} != {second['metrics'][k]['value']}")
    return ok and not differ


def check_bare_directory() -> bool:
    """Without the program's sources the benchmark must fail and print nothing."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "enumeration", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=180, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    printed = '"correct"' in proc.stdout
    print(f"bare directory: exit code {proc.returncode}, "
          f"{'printed a result' if printed else 'no result printed'}")
    return proc.returncode != 0 and not printed


def main() -> int:
    results = [check_workload(w) for w in WORKLOADS]
    results.append(check_bare_directory())
    print("self-test " + ("passed" if all(results) else "FAILED"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
