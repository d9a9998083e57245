"""Exactness of the batched enumerator.

``enumerate_scheme`` builds all leaves of a parity branch in one pass, with
their states from the bulk ``FullState._from_rows`` constructor.  These tests
pin that the batching changes no number: the CLI output bytes match a file
recorded with the one-leaf-at-a-time loop that preceded it, and on random
inputs every leaf, state bytes included, equals the leaf that loop builds.
The loop is kept below as ``reference_enumerate``.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperconc import BranchClass, FullState, cli
from hyperconc.measurement import (
    DIAGONAL_OUTCOMES,
    MIN_BRANCH_PROBABILITY,
    ParityOutcome,
    parity_branch,
)
from hyperconc.oracle import (
    OutcomeLeaf,
    OutcomeTree,
    _ghz_vector,
    _maximal_vector,
    enumerate_scheme,
)
from hyperconc.states import Dof

GOLDEN_ENUMERATE = Path(__file__).parent / "data" / "enumerate_golden.txt"
HEADER = "$ hyperconc enumerate "

EDGES = (0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0)
INTERIOR = ((0.8, 0.6), (0.3, 0.9))
# Every edge value in both slots, twelve pairs; the full square only where
# the output is small.
EDGE_PAIRS = tuple(zip(EDGES, EDGES)) + tuple(zip(EDGES, reversed(EDGES)))
EDGE_SQUARE = tuple((a, d) for a in EDGES for d in EDGES)
# (scheme, n, points); scheme b at n=4 prints about 270 kB per interior point.
GOLDEN_POINTS = (
    ("a", 2, EDGE_SQUARE + INTERIOR),
    ("a", 3, EDGE_PAIRS + INTERIOR),
    ("a", 4, EDGE_PAIRS + INTERIOR),
    ("a", 5, EDGE_PAIRS + INTERIOR),
    ("a", 6, EDGE_PAIRS + INTERIOR),
    ("b", 2, EDGE_PAIRS + INTERIOR),
    ("b", 3, ((1e-300, 1.0 - 1e-12), (1e-12, 0.5), (0.8, 0.6))),
    ("b", 4, ((0.0, 1.0), (0.3, 0.9))),
)


def golden_cases():
    """Argument lists of every recorded ``hyperconc enumerate`` call."""
    for scheme, n, points in GOLDEN_POINTS:
        for a, d in points:
            yield ["--scheme", scheme, "--n", str(n), "--alpha-sq", repr(a), "--delta-sq", repr(d)]


def render_enumerate(out: Path) -> dict[str, bytes]:
    """Output bytes of every golden case, keyed by its argument line."""
    outputs = {}
    for argv in golden_cases():
        code = cli.main(["enumerate", *argv, "--out", str(out)])
        assert code == 0, argv
        outputs[" ".join(argv)] = out.read_bytes()
    return outputs


def read_golden(path: Path) -> dict[str, bytes]:
    """The golden file: per case, ``HEADER`` and its arguments on one line,
    then the case's output bytes."""
    outputs = {}
    for chunk in path.read_bytes().split(HEADER.encode())[1:]:
        key, data = chunk.split(b"\n", 1)
        outputs[key.decode()] = data
    return outputs


def test_enumerate_bytes_match_golden(tmp_path):
    want = read_golden(GOLDEN_ENUMERATE)
    got = render_enumerate(tmp_path / "case.json")
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


def reference_enumerate(scheme, n, alpha_sq, delta_sq):
    """The enumerator's former per-column loop: one ``FullState`` per leaf.

    Its row masks are spelled here from the basis convention, digit by
    digit, and share no helper with the enumerator."""
    n_resource = 1 if scheme == "a" else n
    # bits[k, s]: the rows whose photon k has bit s set (0 polarization, 1
    # spatial); photon 0 is the most significant base-4 digit.
    shifts = 2 * (n - 1 - np.arange(n))[:, None] + np.arange(2)
    bits = (np.arange(4**n) >> shifts[:, :, None]) & 1 == 1
    a, b = math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)
    c, d = math.sqrt(delta_sq), math.sqrt(1.0 - delta_sq)
    working = _ghz_vector(n, (a, b), (c, d))
    resource = _ghz_vector(n_resource, (b, a), (d, c))
    joint = FullState(n + n_resource, np.kron(working.amplitudes, resource.amplitudes))

    target = _maximal_vector(n)
    leaves = []
    diag = 0.5 * np.array(
        [[1, o.pol_sign, o.spa_sign, o.pol_sign * o.spa_sign] for o in DIAGONAL_OUTCOMES],
        dtype=np.complex128,
    )
    for pol_out in ParityOutcome:
        p_pol, after_pol = parity_branch(joint, 0, n, Dof.POLARIZATION, pol_out)
        if after_pol is None:
            continue
        for spa_out in ParityOutcome:
            p_spa, after_spa = parity_branch(after_pol, 0, n, Dof.SPATIAL, spa_out)
            if after_spa is None:
                continue
            branch = BranchClass.from_parities(pol_out, spa_out)
            prefix = (f"pol_{pol_out.value}", f"spa_{spa_out.value}")
            block = after_spa.amplitudes.reshape((4**n,) + (4,) * n_resource)
            for _ in range(n_resource):
                block = np.tensordot(block, diag.conj(), axes=([1], [1]))
            flat = block.reshape(4**n, 4**n_resource)
            branch_prob = p_pol * p_spa
            mags = flat.real**2 + flat.imag**2
            probs = np.sum(mags, axis=0)
            digits = np.indices((4,) * n_resource).reshape(n_resource, -1)
            pol_odd = np.bitwise_xor.reduce((digits >> 1) & 1, axis=0).astype(bool)
            spa_odd = np.bitwise_xor.reduce(digits & 1, axis=0).astype(bool)
            corrected = flat.copy()
            if pol_odd.any():
                corrected[np.ix_(bits[0, 0], pol_odd)] *= -1.0
            if spa_odd.any():
                corrected[np.ix_(bits[0, 1], spa_odd)] *= -1.0
            overlaps = target.amplitudes.conj() @ corrected
            fid_num = overlaps.real**2 + overlaps.imag**2
            pol_masses = np.sum(mags[~bits[:, 0].any(axis=0)], axis=0)
            spa_masses = np.sum(mags[~bits[:, 1].any(axis=0)], axis=0)

            for col in range(4 ** n_resource):
                p = float(probs[col])
                if branch_prob * p <= MIN_BRANCH_PROBABILITY:
                    continue
                combo = digits[:, col]
                labels = tuple(DIAGONAL_OUTCOMES[int(k)].label() for k in combo)
                final = FullState(n, corrected[:, col] / math.sqrt(p))
                leaves.append(
                    OutcomeLeaf(
                        prefix + labels,
                        branch_prob * p,
                        branch,
                        bool(fid_num[col] / p >= 1.0 - 1e-10),
                        float(pol_masses[col] / p),
                        float(spa_masses[col] / p),
                        final,
                    )
                )
    return leaves


def leaf_record(leaf):
    return (
        leaf.sequence, leaf.probability, leaf.branch, leaf.succeeded,
        leaf.pol_sq, leaf.spa_sq, leaf.state.n_photons, leaf.state.amplitudes.tobytes(),
    )


unit = st.one_of(
    st.sampled_from(EDGES + (0.5 - 1e-12, 0.5 + 1e-12)),
    st.floats(min_value=0.0, max_value=1.0),
)
configs = st.one_of(
    st.tuples(st.just("a"), st.integers(2, 6)),
    st.tuples(st.just("b"), st.integers(2, 3)),
)


@settings(max_examples=80, deadline=None)
@given(configs, unit, unit)
@example(("b", 4), 0.37, 0.81)
@example(("b", 4), 1e-12, 1.0 - 1e-12)
@example(("a", 6), 1e-300, 0.5)
@example(("a", 7), 0.8, 0.6)
@example(("a", 7), 1.0, 0.5)
def test_leaves_equal_reference_loop(config, alpha_sq, delta_sq):
    scheme, n = config
    tree = enumerate_scheme(scheme, n, alpha_sq, delta_sq)
    want = reference_enumerate(scheme, n, alpha_sq, delta_sq)
    assert [leaf_record(leaf) for leaf in tree.leaves] == [leaf_record(leaf) for leaf in want]
    for leaf in tree.leaves:
        assert not leaf.state.amplitudes.flags.writeable


@settings(max_examples=60, deadline=None)
@given(configs, unit, unit)
@example(("b", 4), 1e-12, 1.0 - 1e-12)
@example(("a", 2), 1.0, 1e-300)
def test_dropped_mass_accounts_for_missing_mass(config, alpha_sq, delta_sq):
    scheme, n = config
    n_resource = 1 if scheme == "a" else n
    tree = enumerate_scheme(scheme, n, alpha_sq, delta_sq)
    assert abs((1.0 - tree.total_mass()) - tree.dropped_mass) <= 1e-12
    assert 0.0 <= tree.dropped_mass <= (6 + 4 * 4**n_resource) * MIN_BRANCH_PROBABILITY


def test_dropped_mass_defaults_to_zero():
    tree = OutcomeTree("a", 2, 0.5, 0.5, ())
    assert tree.dropped_mass == 0.0


@pytest.mark.parametrize("scheme", ["a", "b"])
def test_pruned_mass_is_visible(scheme):
    # both checks come out ee with probability about 4e-14, which the
    # readout then splits into records below MIN_BRANCH_PROBABILITY
    tree = enumerate_scheme(scheme, 2, 1e-7, 1e-7)
    assert tree.class_mass(BranchClass.EE) == 0.0
    assert tree.dropped_mass == pytest.approx(4e-14, rel=1e-6)
    assert 1.0 - tree.total_mass() == pytest.approx(tree.dropped_mass, abs=1e-15)


class TestFromRows:
    """``FullState._from_rows`` applies ``FullState``'s rules to every row."""

    @staticmethod
    def unit_rows(count, n, seed=0):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(count, 4**n)) + 1j * rng.normal(size=(count, 4**n))
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    def test_matches_per_row_construction(self):
        rows = self.unit_rows(5, 2)
        states = FullState._from_rows(2, rows.copy())
        assert len(states) == 5
        for state, row in zip(states, rows):
            want = FullState(2, row)
            assert state.n_photons == 2
            assert state.amplitudes.tobytes() == want.amplitudes.tobytes()

    def test_zero_norm_row_raises(self):
        rows = self.unit_rows(3, 2)
        rows[1] = 0.0
        with pytest.raises(ValueError, match="zero norm"):
            FullState._from_rows(2, rows)

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, 1.0 - 5e-14, 1.0 + 5e-13, 3.0])
    def test_off_norm_row_renormalized_as_fullstate_does(self, scale):
        rows = self.unit_rows(3, 2, seed=4)
        rows[2] *= scale
        states = FullState._from_rows(2, rows.copy())
        for state, row in zip(states, rows):
            assert state.amplitudes.tobytes() == FullState(2, row).amplitudes.tobytes()
        assert abs(np.linalg.norm(states[2].amplitudes) - 1.0) <= 1e-13

    def test_rows_are_read_only_views_of_one_array(self):
        states = FullState._from_rows(2, self.unit_rows(4, 2))
        base = states[0].amplitudes.base
        assert base is not None and base.flags.c_contiguous
        for state in states:
            assert state.amplitudes.base is base
            assert not state.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                state.amplitudes[0] = 0.0

    def test_caller_array_not_aliased_unless_owned(self):
        rows = self.unit_rows(2, 1)
        view = rows[:, :]
        states = FullState._from_rows(1, view)
        rows[0, 0] = 5.0
        assert states[0].amplitudes[0] != 5.0

    def test_norm_pass_allocates_no_full_size_temporaries(self):
        # The 1,024 leaves of this call hold 4 MiB of amplitudes.  A norm
        # pass over squared real and imaginary parts adds three 2 MiB
        # temporaries and lifts the peak to about 9 MiB.
        enumerate_scheme("b", 4, 0.8, 0.6)
        tracemalloc.start()
        try:
            tree = enumerate_scheme("b", 4, 0.8, 0.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tree.leaves) == 1024
        assert peak < 6.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_shape_and_photon_count_checked(self):
        with pytest.raises(ValueError):
            FullState._from_rows(2, np.ones((2, 8), dtype=np.complex128))
        with pytest.raises(ValueError):
            FullState._from_rows(0, np.ones((2, 1), dtype=np.complex128))
        with pytest.raises(ValueError):
            FullState._from_rows(1, np.ones(4, dtype=np.complex128))
