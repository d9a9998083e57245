"""Concentration of partially hyperentangled GHZ states, in simulation and
closed form.

N-photon states entangled in polarization and spatial mode are driven toward
the maximally entangled form by repeated parity-check rounds, either against
a flipped one-photon copy (an ancilla) or between two identical copies.  The
package provides dense-vector simulation of the rounds, the closed-form
success probabilities of the iteration, and a brute-force enumeration oracle
that cross-checks both.
"""

from .analytics import (
    BranchDistribution,
    BranchProbs,
    RoundTable,
    branch_rates,
    grid_axis,
    grid_sweep,
    markov_evolve,
    pool_expected_yield,
    round1_probabilities,
    round_success_unrolled,
    total_success,
)
from .errors import ConsistencyError
from .measurement import (
    DiagonalOutcome,
    ParityOutcome,
    RandomSource,
    measure_diagonal,
    parity_branch,
    parity_measure,
)
from .oracle import (
    OutcomeLeaf,
    OutcomeTree,
    enumerate_scheme,
    exact_iteration_tree,
)
from .protocol import (
    BranchClass,
    IterationTrace,
    RoundResult,
    iterate_scheme_a,
    run_scheme_a_round,
    run_scheme_b_round,
)
from .sampling import McReport, PoolReport, PoolRound, iterate_scheme_b_pool, mc_estimate
from .states import (
    Dof,
    DofAmplitudes,
    FullState,
    GhzForm,
    apply_single_photon_gate,
    full_to_ghz,
    ghz_to_full,
    tensor,
)

__version__ = "0.1.0"

# The entry points the README documents, the functions the benchmark calls
# and traces, and the types they take or return.  Everything else is
# imported from its own module.
__all__ = [
    "BranchClass",
    "BranchDistribution",
    "BranchProbs",
    "ConsistencyError",
    "DiagonalOutcome",
    "Dof",
    "DofAmplitudes",
    "FullState",
    "GhzForm",
    "IterationTrace",
    "McReport",
    "OutcomeLeaf",
    "OutcomeTree",
    "ParityOutcome",
    "PoolReport",
    "PoolRound",
    "RandomSource",
    "RoundResult",
    "RoundTable",
    "apply_single_photon_gate",
    "branch_rates",
    "enumerate_scheme",
    "exact_iteration_tree",
    "full_to_ghz",
    "ghz_to_full",
    "grid_axis",
    "grid_sweep",
    "iterate_scheme_a",
    "iterate_scheme_b_pool",
    "markov_evolve",
    "mc_estimate",
    "measure_diagonal",
    "parity_branch",
    "parity_measure",
    "pool_expected_yield",
    "round1_probabilities",
    "round_success_unrolled",
    "run_scheme_a_round",
    "run_scheme_b_round",
    "tensor",
    "total_success",
]
