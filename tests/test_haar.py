from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from oraclebench import budget, haar, linalg as la
from oraclebench.budget import Budget, SizingError
from oraclebench.seeds import SeedPath

import dense_reference as ref

SEED = SeedPath(2024)


def rand_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


def test_haar_unitary_is_unitary_and_deterministic():
    u1 = haar.sample_haar_unitary(4, SEED.child("u", 0))
    u2 = haar.sample_haar_unitary(4, SEED.child("u", 0))
    u3 = haar.sample_haar_unitary(4, SEED.child("u", 1))
    assert np.array_equal(u1.mat, u2.mat)
    assert not np.allclose(u1.mat, u3.mat)


def test_haar_unitary_trace_statistic():
    # the squared absolute trace of a Haar unitary has mean 1
    vals = [
        abs(np.trace(haar.sample_haar_unitary(4, SEED.child("tr", i)).mat)) ** 2
        for i in range(400)
    ]
    assert abs(np.mean(vals) - 1.0) < 0.25


def test_haar_state_mean_is_maximally_mixed():
    d = 4
    acc = np.zeros((d, d), dtype=complex)
    n = 2000
    for i in range(n):
        psi = haar.sample_haar_state(d, SEED.child("st", i)).amplitudes
        acc += np.outer(psi, psi.conj())
    assert np.max(np.abs(acc / n - np.eye(d) / d)) < 0.05


def test_state_moment_exact_small_cases():
    swap = ref.permutation_operator((1, 0), 2, 2)
    assert np.allclose(haar.state_moment_exact(2, 2).mat, (np.eye(4) + swap) / 6)
    m = haar.state_moment_exact(2, 3)
    w = np.linalg.eigvalsh(m.mat)
    # projector onto a 4-dim subspace, scaled to unit trace
    assert np.isclose(np.trace(m.mat).real, 1.0)
    assert np.allclose(np.sort(np.unique(np.round(w, 10))), [0.0, 0.25])


def test_state_moment_mc_matches_exact():
    got = haar.state_moment_mc(2, 2, 4000, SEED.child("mc"))
    assert la.trace_distance(got, haar.state_moment_exact(2, 2)) < 0.05


def test_state_moments_refuse_past_a_passed_budget(monkeypatch):
    # d^ell = 9 rows needs ceil(log2 9) = 4 qubits of dense matrix
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=3))
    with pytest.raises(SizingError, match="state moment estimate"):
        haar.state_moment_mc(3, 2, 10, SEED.child("mc"))
    with pytest.raises(SizingError, match="symmetric projector"):
        haar.state_moment_exact(3, 2)
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=4))
    assert haar.state_moment_mc(3, 2, 10, SEED.child("mc")).dim == 9
    assert haar.state_moment_exact(3, 2).dim == 9
    # the default budget still builds the 4096-row moment the c04 fixture uses
    monkeypatch.undo()
    assert haar.state_moment_exact(64, 2).dim == 4096


def test_register_qubits_equal_the_exact_power(monkeypatch):
    # ceil(log2(d^ell)) wherever the count is within the budget, and past it where it is not
    limit = budget.DEFAULT_BUDGET.max_dense_matrix_qubits
    for d in range(2, 10):
        for ell in range(1, 13):
            want, got = math.ceil(math.log2(d**ell)), la.register_qubits(d, ell)
            assert got == want or (got > limit and want > limit)
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=64))
    for d in range(2, 10):
        for ell in range(1, 13):
            assert la.register_qubits(d, ell) == math.ceil(math.log2(d**ell))


def test_stacked_haar_draws_equal_single_draws():
    seeds = [SEED.child("stack", i) for i in range(5)]
    stack = haar.sample_haar_unitaries(4, seeds)
    for u, s in zip(stack, seeds):
        assert np.array_equal(u, haar.sample_haar_unitary(4, s).mat)
    bad = stack.copy()
    bad[3] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="not unitary"):
        la.check_unitary(bad)
    states = np.stack([la.random_state_from(s.rng(), 4) for s in seeds])
    la.check_state_norms(states)
    states[2] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="norm deviates"):
        la.check_state_norms(states)


def test_twirl_single_copy_is_depolarizing():
    rng = np.random.default_rng(0)
    rho = rand_density(rng, 3)
    out = haar.twirl_exact(rho, 3, 1)
    assert np.allclose(out.mat, np.eye(3) / 3, atol=1e-10)


def test_twirl_exact_properties():
    rng = np.random.default_rng(1)
    d, ell, r = 2, 2, 2
    rho = rand_density(rng, d**ell * r)
    out = haar.twirl_exact(rho, d, ell)
    # idempotent
    again = haar.twirl_exact(out, d, ell)
    assert la.trace_distance(out, again) < 1e-10
    # invariant under any fixed V^(x ell) on the twirled register
    v = la.random_unitary_from(rng, d)
    vl = np.kron(np.kron(v, v), np.eye(r))
    assert np.allclose(vl @ out.mat @ vl.conj().T, out.mat, atol=1e-9)


def test_twirl_exact_of_product_zero_state_is_state_moment():
    for d, ell in ((2, 2), (3, 2), (2, 3)):
        e0 = np.zeros(d**ell, dtype=complex)
        e0[0] = 1.0
        got = haar.twirl_exact(np.outer(e0, e0), d, ell)
        assert la.trace_distance(got, haar.state_moment_exact(d, ell)) < 1e-10


def test_twirl_exact_matches_monte_carlo():
    # independent route: direct averaging over sampled unitaries
    rng = np.random.default_rng(2)
    d, ell, r = 2, 2, 2
    rho = rand_density(rng, d**ell * r)
    exact = haar.twirl_exact(rho, d, ell)
    mc = ref.twirl_mc(rho, d, ell, samples=10_000, seed=SEED.child("tw"))
    assert la.trace_distance(exact, mc) < 0.05


def test_twirl_mc_deterministic():
    rng = np.random.default_rng(3)
    rho = rand_density(rng, 4)
    a = ref.twirl_mc(rho, 2, 2, 50, SEED.child("det"))
    b = ref.twirl_mc(rho, 2, 2, 50, SEED.child("det"))
    assert np.array_equal(a.mat, b.mat)


def test_twirl_budget_guard(monkeypatch):
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=3))
    rng = np.random.default_rng(6)
    rho = rand_density(rng, 16)
    with pytest.raises(SizingError):
        haar.twirl_exact(rho, 4, 2)


def test_permutation_sums_match_dense_permutation_operators():
    # both twirls against sum W[pi, sigma] R_pi (x) Tr_A[(R_sigma^dag (x) I) rho]
    # built from dense operators; at ell = 3 a pi / pi^-1 mix-up between the
    # data and the scatter would show
    rng = np.random.default_rng(9)
    for d, ell, r in ((2, 2, 2), (2, 3, 2), (3, 2, 1)):
        a = d**ell
        rho = rand_density(rng, a * r)
        perms = la.all_perms(ell)
        ops = [ref.permutation_operator(p, d, ell) for p in perms]
        m4 = rho.reshape(a, r, a, r)
        data = [np.einsum("xrxs->rs", (op.conj().T @ m4.reshape(a, -1)).reshape(a, r, a, r))
                for op in ops]
        weights = haar._gram_pinv(d, ell)
        exact = sum(weights[i, j] * np.kron(ops[i], data[j])
                    for i in range(len(perms)) for j in range(len(perms)))
        assert np.max(np.abs(haar.twirl_exact(rho, d, ell).mat - exact)) <= 1e-12
        if d == 2:
            approx = sum(np.kron(op, c) for op, c in zip(ops, data)) / a
            assert np.max(np.abs(haar.twirl_permutation_approx(rho, 1, ell) - approx)) <= 1e-12


def test_gram_and_its_pinv_equal_the_cycle_count_references(monkeypatch):
    # the Gram matrix is caught on its way into pinv; the cache is bypassed so each is built
    pinv, inverted = np.linalg.pinv, []
    monkeypatch.setattr(np.linalg, "pinv", lambda a, **kw: inverted.append(a) or pinv(a, **kw))
    for d in range(1, 7):
        for ell in range(1, 7):
            gram = ref.perm_gram(d, ell)
            got = haar._gram_pinv.__wrapped__(d, ell)
            assert np.array_equal(inverted.pop(), gram)
            assert np.array_equal(got, pinv(gram, rcond=1e-12))


def test_gram_pinv_is_cached_and_read_only():
    g = haar._gram_pinv(2, 3)
    assert g is haar._gram_pinv(2, 3)
    assert not g.flags.writeable


def test_pair_weights_are_sized_on_a_cache_hit(monkeypatch):
    # the 6 x 6 weights of ell = 3 are cached under the default budget, then
    # every route that reads them is held to a 2-qubit one
    haar._gram_pinv(2, 3)
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=2))
    with pytest.raises(SizingError, match="permutation pair weights"):
        haar.reference_overlap_matrix(np.zeros((4**3, 1), dtype=complex), 2, 2, 3)
    with pytest.raises(SizingError, match="permutation pair weights"):
        haar.twirl_exact(np.eye(8) / 8, 2, 3)


def test_references_past_the_dense_budget_are_refused():
    # 13 and 14 qubits: each would build two 2^13 or 2^14 square complex matrices
    with pytest.raises(SizingError):
        haar.haar_isometry_choi(6, 1, 1)
    with pytest.raises(SizingError):
        haar.haar_choi(7, 1)


def test_haar_choi_smallest_case_and_invariance():
    ref = haar.haar_choi(1, 1)
    assert np.allclose(ref.mat, np.eye(4) / 4, atol=1e-10)

    ref2 = haar.haar_choi(1, 2)
    assert abs(np.trace(ref2.mat) - 1) < 1e-9
    w = la.random_unitary_from(np.random.default_rng(7), 2)
    wl = np.kron(np.kron(w, w), np.eye(4))
    assert np.allclose(wl @ ref2.mat @ wl.conj().T, ref2.mat, atol=1e-9)


def pair_to_block_order(mat, d_copy, d_partner, ell):
    """Reorder ell copies from (copy, partner) pairs to copies-then-partners."""
    dims = [d_copy, d_partner] * ell
    perm = list(range(0, 2 * ell, 2)) + list(range(1, 2 * ell, 2))
    return la.permute_subsystems(mat, dims, perm)


def test_haar_choi_matches_state_moment_at_one_copy():
    for lam in (1, 2):
        ref = haar.haar_choi(lam, 1)
        mom = haar.state_moment_exact(2 ** (2 * lam), 1)
        assert la.trace_distance(ref, mom) < 1e-10


def test_haar_choi_close_to_state_moment():
    lam, ell = 1, 2
    ref = haar.haar_choi(lam, ell)
    mom = haar.state_moment_exact(2 ** (2 * lam), ell).mat
    # partner register of each copy is the matching block of A'
    mom = pair_to_block_order(mom, 2**lam, 2**lam, ell)
    dist = la.trace_distance(ref.mat, mom)
    rate = ell**2 / 2**lam
    assert dist <= 4 * rate
    assert dist > 1e-6  # genuinely different at this size


def test_haar_isometry_choi_single_copy():
    ref = haar.haar_isometry_choi(1, 1, 1)
    assert np.allclose(ref.mat, np.eye(8) / 8, atol=1e-10)


def test_haar_isometry_choi_close_to_padded_moment():
    lam, s, ell = 1, 1, 2
    ref = haar.haar_isometry_choi(lam, s, ell)
    mom = haar.state_moment_exact(2 ** (2 * lam + s), ell).mat
    mom = pair_to_block_order(mom, 2 ** (lam + s), 2**lam, ell)
    dist = la.trace_distance(ref.mat, mom)
    assert dist <= 4 * ell**2 / 2 ** (lam + s)


@pytest.mark.parametrize(
    "lam,s,ell", [(1, 0, 2), (2, 0, 2), (1, 1, 2), (1, 0, 3), (1, 1, 3), (1, 0, 4)]
)
def test_choi_moment_distance_matches_dense_route(lam, s, ell):
    # ell > d at (1, 0, 3) and (1, 0, 4): diagrams with more rows than d drop out
    d_out, d_in = 2 ** (lam + s), 2**lam
    ref = haar.haar_isometry_choi(lam, s, ell) if s else haar.haar_choi(lam, ell)
    mom = pair_to_block_order(haar.state_moment_exact(d_out * d_in, ell).mat, d_out, d_in, ell)
    dense = la.trace_distance(ref.mat, mom)
    assert abs(float(haar.choi_moment_distance(d_out, d_in, ell)) - dense) <= 1e-12


def test_choi_moment_distance_exact_values():
    assert haar.choi_moment_distance(4, 4, 2) == Fraction(15, 136)
    assert haar.choi_moment_distance(4, 2, 2) == Fraction(1, 12)
    assert haar.choi_moment_distance(2, 2, 3) == Fraction(3, 10)
    assert haar.choi_moment_distance(1, 1, 5) == 0
    for bad in ((2, 4, 2), (4, 0, 2), (4, 4, 0)):
        with pytest.raises(ValueError):
            haar.choi_moment_distance(*bad)


def test_permutation_approx_improves_with_register_size():
    rng = np.random.default_rng(8)
    dists = []
    for n in (1, 2):
        dim = 2 ** (2 * n) * 2
        rho = rand_density(rng, dim)
        exact = haar.twirl_exact(rho, 2**n, 2)
        approx = haar.twirl_permutation_approx(rho, n, 2)
        dists.append(la.trace_distance(exact.mat, (approx + approx.conj().T) / 2))
        assert dists[-1] <= 4 * 4 / 2**n
    assert dists[1] < dists[0]


def test_reference_overlap_matrix_matches_dense_sandwich():
    # pair-expansion entries must equal v^dag rho2 v against the materialized
    # reference, across unitary and isometry copy dims
    # at ell = 3 some permutations are not their own inverse, so a gather that
    # swapped pi and pi^-1 would show
    for case, (lam, s, ell) in enumerate([(1, 0, 2), (1, 1, 2), (2, 0, 2), (1, 0, 3), (1, 1, 3)]):
        d_in, d_out = 2**lam, 2 ** (lam + s)
        embed = np.eye(d_out, d_in)
        ops = []
        for i in range(3):
            op = np.ones((1, 1), dtype=complex)
            for j in range(ell):
                u = haar.sample_haar_unitary(d_out, SEED.child("rom", 10 * case + 3 * i + j))
                op = np.kron(op, u.mat @ embed)
            ops.append(op)
        rho2 = (haar.haar_isometry_choi(lam, s, ell) if s else haar.haar_choi(lam, ell)).mat
        vecs = la.choi_vectors(np.stack(ops))
        dense = vecs.conj().T @ rho2 @ vecs
        h = haar.reference_overlap_matrix(vecs, d_in, d_out, ell)
        assert np.max(np.abs(dense - h)) <= 1e-12


def test_permutation_pair_weights_are_sized_before_building(monkeypatch):
    # ell = 7 needs 5040 x 5040 pair weights, past the default 2^12 rows; at
    # ell = 3 the 6 x 6 weights are past a 2-qubit budget
    with pytest.raises(SizingError, match="permutation pair weights"):
        haar.reference_overlap_matrix(np.zeros((4**7, 1), dtype=complex), 2, 2, 7)
    with pytest.raises(SizingError, match="permutation pair weights"):
        haar.twirl_permutation_approx(np.eye(2**7) / 2**7, 1, 7)
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=2))
    with pytest.raises(SizingError, match="permutation pair weights"):
        haar.reference_overlap_matrix(np.zeros((4**3, 1), dtype=complex), 2, 2, 3)


def test_reference_overlap_identity_values():
    # single copy: 1/(d_in d_out); two identity copies at d=2: second moment
    # of |Tr U|^2 over the group, divided by d^4
    h1 = haar.reference_overlap_matrix(la.choi_vectors(np.eye(4, 2)[None]), 2, 4, 1)
    assert abs(h1[0, 0].real - 1 / 8) <= 1e-14
    h2 = haar.reference_overlap_matrix(la.choi_vectors(np.eye(4)[None]), 2, 2, 2)
    assert abs(h2[0, 0].real - 2 / 16) <= 1e-14
