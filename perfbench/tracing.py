"""Per-layer tracing of hyperconc from outside the package.

``traced()`` wraps the public functions of the six layers (states,
measurement, protocol, analytics, oracle, cli) for the duration of a
``with`` block and restores them afterwards.  Each target is looked up by
name through the package (``hyperconc.mc_estimate``,
``hyperconc.FullState.__post_init__``, ``hyperconc.cli.main``).  A name
imported with ``from .x import y`` is a separate binding in the importing
module, so the wrapper is installed on every attribute of every loaded
``hyperconc`` module, and of every class they define, that is the original
function.  Where a function is defined or imported does not matter.

Each wrapped call is a span.  Its self time is its duration minus the
durations of the wrapped calls it made; a layer's self time is the sum over
its spans.  Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

import hyperconc
import hyperconc.cli


class Recorder:
    """Span self times and counters of one traced pass."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._child_s: list[float] = []

    def span(self, key: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        self._child_s.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - t0
            self.self_s[key] += duration - self._child_s.pop()
            self.calls[key] += 1
            if self._child_s:
                self._child_s[-1] += duration


# Counters derived from a call's arguments and result.
def _dense(rec: Recorder, args: tuple, result: Any) -> None:
    rec.counts["dense_bytes"] += 16 * 4 ** args[0].n_photons


def _draw_one(rec: Recorder, args: tuple, result: Any) -> None:
    rec.counts["draws"] += 1


def _draw_many(rec: Recorder, args: tuple, result: Any) -> None:
    rec.counts["draws"] += len(result)


def _pruned(rec: Recorder, args: tuple, result: Any) -> None:
    rec.counts["pruned"] += result[1] is None


def _leaves(rec: Recorder, args: tuple, result: Any) -> None:
    rec.counts["leaves"] += len(result.leaves)


def _trace_success(rec: Recorder, args: tuple, result: Any) -> None:
    rec.counts["successes"] += result.succeeded


def _pool_success(rec: Recorder, args: tuple, result: Any) -> None:
    rec.counts["successes"] += result.distilled


# (span key, target under the package, counter hook)
TARGETS = (
    ("states.fullstate_init", "FullState.__post_init__", _dense),
    ("states.ghz_to_full", "ghz_to_full", None),
    ("states.full_to_ghz", "full_to_ghz", None),
    ("states.tensor", "tensor", None),
    ("states.apply_single_photon_gate", "apply_single_photon_gate", None),
    ("measurement.parity_measure", "parity_measure", None),
    ("measurement.measure_diagonal", "measure_diagonal", None),
    ("measurement.parity_branch", "parity_branch", _pruned),
    ("measurement.rng.derive", "RandomSource.derive", None),
    ("measurement.rng.uniform", "RandomSource.uniform", _draw_one),
    ("measurement.rng.uniforms", "RandomSource.uniforms", _draw_many),
    ("protocol.round_a", "run_scheme_a_round", None),
    ("protocol.round_b", "run_scheme_b_round", None),
    ("protocol.iterate_scheme_a", "iterate_scheme_a", _trace_success),
    ("protocol.iterate_scheme_b_pool", "iterate_scheme_b_pool", _pool_success),
    ("analytics.branch_rates", "branch_rates", None),
    ("analytics.round_success_unrolled", "round_success_unrolled", None),
    ("analytics.markov_evolve", "markov_evolve", None),
    ("analytics.total_success", "total_success", None),
    ("analytics.pool_expected_yield", "pool_expected_yield", None),
    ("analytics.grid_sweep", "grid_sweep", None),
    ("oracle.enumerate_scheme", "enumerate_scheme", _leaves),
    ("oracle.exact_iteration_tree", "exact_iteration_tree", None),
    ("oracle.mc_estimate", "mc_estimate", None),
    ("cli.main", "cli.main", None),
)


def _resolve(path: str) -> Callable:
    obj: Any = hyperconc
    for part in path.split("."):
        obj = getattr(obj, part, None)
    if not callable(obj):
        raise ImportError(f"hyperconc.{path} not found; cannot trace it")
    return obj


def _owners() -> list[Any]:
    """Every loaded hyperconc module, and every class those modules hold."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "hyperconc" or name.startswith("hyperconc.")]
    classes = {id(v): v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.split(".")[0] == "hyperconc"}
    return modules + list(classes.values())


def _wrap(rec: Recorder, key: str, fn: Callable, hook: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = rec.span(key, fn, args, kwargs)
        if hook is not None:
            hook(rec, args, result)
        return result

    return wrapper


@contextmanager
def traced() -> Iterator[Recorder]:
    """Install the wrappers, yield their recorder, and restore the originals."""
    rec = Recorder()
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for key, path, hook in TARGETS:
        fn = _resolve(path)
        wrappers[id(fn)] = (fn, _wrap(rec, key, fn, hook))
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner in _owners():
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((owner, attr, value))
                    setattr(owner, attr, hit[1])
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(
    rec: Recorder, bytes_out: int, overhead_frac: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    calls, self_s, counts = rec.calls, rec.self_s, rec.counts
    rounds = calls["protocol.round_a"] + calls["protocol.round_b"]
    m: dict[str, tuple[float, str]] = {}

    def span(key: str, with_calls: bool = True) -> None:
        if with_calls:
            m[key + ".calls"] = (calls[key], "count")
        m[key + ".self_s"] = (self_s[key], "s")

    def layer(name: str) -> None:
        m[name + ".self_s"] = (sum(v for k, v in self_s.items() if k.startswith(name + ".")), "s")

    m["states.dense_vectors"] = (calls["states.fullstate_init"], "count")
    m["states.dense_bytes"] = (counts["dense_bytes"], "B_computed")
    span("states.fullstate_init", with_calls=False)
    for key in ("states.ghz_to_full", "states.full_to_ghz", "states.tensor"):
        span(key)
    layer("states")

    for key in ("measurement.parity_measure", "measurement.measure_diagonal",
                "measurement.rng.derive"):
        span(key)
    m["measurement.rng.draws"] = (counts["draws"], "count")
    span("measurement.parity_branch")
    m["measurement.pruned_branches"] = (counts["pruned"], "count")
    layer("measurement")

    m["protocol.rounds"] = (rounds, "count")
    span("protocol.round_a", with_calls=False)
    span("protocol.round_b", with_calls=False)
    m["protocol.traces"] = (calls["protocol.iterate_scheme_a"], "count")
    m["protocol.pools"] = (calls["protocol.iterate_scheme_b_pool"], "count")
    # Succeeded traces plus distilled pool states, per round; the base is
    # protocol.rounds, and the ratio reads 0 when no round ran.
    m["protocol.useful_ratio"] = (counts["successes"] / rounds if rounds else 0.0, "ratio")
    layer("protocol")

    m["analytics.points"] = (
        calls["analytics.total_success"] + calls["analytics.pool_expected_yield"], "count")
    m["analytics.branch_rates.calls"] = (calls["analytics.branch_rates"], "count")
    span("analytics.round_success_unrolled")
    span("analytics.markov_evolve")
    span("analytics.total_success", with_calls=False)
    span("analytics.grid_sweep", with_calls=False)
    layer("analytics")

    span("oracle.enumerate_scheme")
    m["oracle.leaves"] = (counts["leaves"], "count")
    span("oracle.exact_iteration_tree")
    span("oracle.mc_estimate", with_calls=False)
    layer("oracle")

    m["cli.main.calls"] = (calls["cli.main"], "count")
    layer("cli")
    m["cli.bytes_out"] = (bytes_out, "B")

    m["bench.trace_overhead_frac"] = (overhead_frac, "ratio")
    return m
