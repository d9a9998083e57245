"""Iterated retries: per-round success rates against the closed form.

Samples many independent retry traces of the ancilla-assisted scheme and
compares the fraction succeeding in each round with the per-round recursion
values.  The residual coefficients steepen every round, so late rounds
contribute less and less.
"""

from hyperconc import mc_estimate
from hyperconc.analytics import round_success_unrolled, total_success

ALPHA_SQ, DELTA_SQ = 0.8, 0.6
ROUNDS = 5
TRACES = 20_000

# trace i runs on the substream derived from (seed 0, i)
report = mc_estimate("a", 2, ALPHA_SQ, DELTA_SQ, ROUNDS, TRACES, seed=0)

print(f"{TRACES} traces, |alpha|^2 = {ALPHA_SQ}, |delta|^2 = {DELTA_SQ}")
print(f"{'round':>5} {'sampled':>9} {'exact':>9}")
for k, hits in enumerate(report.per_round_success_counts, start=1):
    exact = round_success_unrolled(k, ALPHA_SQ, DELTA_SQ)
    print(f"{k:>5} {hits / TRACES:>9.4f} {exact:>9.4f}")

exact_total = total_success(ROUNDS, ALPHA_SQ, DELTA_SQ)
print(f"{'total':>5} {report.success_rate:>9.4f} {exact_total:>9.4f}")
