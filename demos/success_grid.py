"""Total success probability over the parameter square, as a text table.

Sweeps |alpha|^2 x |delta|^2 for one round and for five, printing both
tables.  The five-round maximum sits at the balanced center and clears 0.9;
a single round peaks at 0.25 there.
"""

import numpy as np

from hyperconc.analytics import grid_axis, total_success

AXIS = grid_axis(9)
A, C = np.meshgrid(AXIS, AXIS, indexing="ij")


def table(rounds):
    """Print the grid of ``rounds``-round success, evaluated in one call."""
    p = total_success(rounds, A, C)
    print(f"total success within {rounds} round(s)")
    header = "  a\\d " + " ".join(f"{c:6.2f}" for c in AXIS)
    print(header)
    for a, p_row in zip(AXIS, p):
        row = " ".join(f"{v:6.4f}" for v in p_row)
        print(f"{a:5.2f} {row}")
    print()
    return p


table(1)
best = table(5).max()
print(f"five-round maximum on this grid: {best:.6f}")
