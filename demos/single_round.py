"""One concentration round, both schemes, with every measurement shown.

Starts from a 3-photon state with |alpha|^2 = 0.8 and |delta|^2 = 0.6 and
runs a single round per scheme on a fixed seed, printing the parity record,
the diagonal readout of each consumed photon, the applied corrections, and
the surviving state.
"""

from hyperconc import (
    DofAmplitudes,
    GhzForm,
    RandomSource,
    run_scheme_a_round,
    run_scheme_b_round,
)

state = GhzForm(
    3,
    DofAmplitudes.from_first_probability(0.8),
    DofAmplitudes.from_first_probability(0.6),
)


def show(tag, res):
    print(f"--- {tag} ---")
    print(f"parity branch: {res.branch.value}")
    labels = [
        ("+" if o.pol_sign > 0 else "-") + ("+" if o.spa_sign > 0 else "-")
        for o in res.diagonal_outcomes
    ]
    print(f"diagonal readout: {' '.join(labels)}")
    applied = (
        ", ".join(f"z on photon {ph} ({dof.value})" for ph, dof in res.corrections)
        or "none"
    )
    print(f"corrections applied: {applied}")
    print(
        f"survivor: {res.post.n} photons, "
        f"|alpha|^2 = {res.post.pol.first_sq():.6f}, "
        f"|delta|^2 = {res.post.spa.first_sq():.6f}"
    )
    print(f"maximal in both degrees of freedom: {res.succeeded}")
    print()


print("input:", f"n=3, |alpha|^2 = 0.8, |delta|^2 = 0.6")
print()

# ancilla-assisted: one extra photon pays for the attempt
show("scheme a (ancilla photon)", run_scheme_a_round(state, RandomSource(7)))

# two-copy: a full second copy pays for it, survivor keeps all n photons
show("scheme b (second copy)", run_scheme_b_round(state, state, RandomSource(7)))
