"""Three independent routes to the same numbers.

For one configuration this script evaluates the round-1 branch split and the
iterated success probability by closed form, by exhaustive enumeration of
every measurement record, and by seeded Monte Carlo, then prints them side
by side.  The first two agree to machine precision; the sampled column
carries a standard error.
"""

from hyperconc import BranchClass
from hyperconc.analytics import round1_probabilities, total_success
from hyperconc.oracle import enumerate_scheme, exact_iteration_tree
from hyperconc.sampling import mc_estimate

SCHEME, N, ALPHA_SQ, DELTA_SQ, ROUNDS = "a", 2, 0.8, 0.6, 3
TRIALS = 50_000

print(f"configuration: scheme {SCHEME}, n={N}, "
      f"|alpha|^2={ALPHA_SQ}, |delta|^2={DELTA_SQ}")
print()

# round-1 branch masses: formula vs enumerated tree
p1 = round1_probabilities(ALPHA_SQ, DELTA_SQ)
tree = enumerate_scheme(SCHEME, N, ALPHA_SQ, DELTA_SQ)
print(f"{'branch':>6} {'formula':>12} {'enumerated':>12}")
for branch, want in (
    (BranchClass.EE, p1.ee),
    (BranchClass.EO, p1.eo),
    (BranchClass.OE, p1.oe),
    (BranchClass.OO, p1.oo),
):
    print(f"{branch.value:>6} {want:>12.9f} {tree.class_mass(branch):>12.9f}")
print()

# iterated success: recursion vs repeated enumeration vs sampling
exact = total_success(ROUNDS, ALPHA_SQ, DELTA_SQ)
tree_total = sum(exact_iteration_tree(SCHEME, N, ALPHA_SQ, DELTA_SQ, ROUNDS))
mc = mc_estimate(SCHEME, N, ALPHA_SQ, DELTA_SQ, ROUNDS, TRIALS, seed=0)
print(f"success within {ROUNDS} rounds:")
print(f"  closed-form recursion   {exact:.9f}")
print(f"  enumeration tree        {tree_total:.9f}")
print(f"  monte carlo ({TRIALS} trials) {mc.success_rate:.5f} +- {mc.standard_error:.5f}")
