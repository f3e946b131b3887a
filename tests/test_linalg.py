from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclebench.budget import Budget, SizingError
from oraclebench import budget, haar, harness, linalg as la

import dense_reference as ref

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def rng_of(seed):
    return np.random.default_rng(seed)


def rand_herm(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def rand_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


# ---------------------------------------------------------------- wrappers


def test_pure_state_validation():
    la.PureState(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        la.PureState(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        la.PureState(np.array([np.nan, 0.0]))
    # a NaN only in the imaginary part is caught too
    with pytest.raises(ValueError, match="NaN or Inf"):
        la.PureState(np.array([complex(1.0, np.nan), 0.0]))


def test_pure_state_dim_is_any_size():
    assert la.PureState(np.ones(8) / math.sqrt(8)).dim == 8
    assert la.PureState(np.ones(3) / math.sqrt(3)).dim == 3


def test_unitary_validation():
    la.UnitaryMatrix(X)
    with pytest.raises(ValueError):
        la.UnitaryMatrix(np.array([[1, 0], [0, 2]], dtype=complex))
    u = la.UnitaryMatrix(la.random_unitary_from(rng_of(0), 4))
    assert np.allclose(u.mat.conj().T @ u.mat, np.eye(4), atol=1e-9)


def test_density_validation_and_clipping():
    with pytest.raises(ValueError):
        la.DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        la.DensityMatrix(np.eye(2))
    # tiny negative eigenvalue is clipped, a large one is rejected
    m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
    dm = la.DensityMatrix(m)
    assert np.linalg.eigvalsh(dm.mat)[0] >= 0.0
    with pytest.raises(ValueError):
        la.DensityMatrix(np.diag([1.1, -0.1]).astype(complex))


def test_a_density_stack_is_checked_and_clipped_matrix_by_matrix():
    rng = rng_of(5)
    stack = np.stack([rand_density(rng, 3), np.diag([1.0 + 5e-10, -5e-10, 0.0]), rand_density(rng, 3)])
    got = la.check_density(stack)
    for g, m in zip(got, stack):
        assert np.array_equal(g, la.DensityMatrix(m).mat)
    assert np.linalg.eigvalsh(stack[1])[0] < 0.0  # the input is left as it was
    # one faulty matrix faults the stack, whatever its place
    for bad in (np.diag([1.1, -0.1, 0.0]), np.eye(3), np.triu(np.ones((3, 3))) / 3):
        with pytest.raises(ValueError):
            la.check_density(np.stack([stack[0], bad.astype(complex)]))


def test_permute_subsystems_and_matrix_agree():
    rng = rng_of(6)
    dims = [2, 3, 2]
    m = rand_density(rng, 12)
    perm = [2, 0, 1]
    p = ref.subsystem_perm_matrix(dims, perm)
    assert np.allclose(p.conj().T @ p, np.eye(12), atol=1e-12)
    assert np.allclose(
        la.permute_subsystems(m, dims, perm), p @ m @ p.conj().T, atol=1e-12
    )


def test_permute_subsystems_swaps_product_factors():
    rng = rng_of(7)
    a, b = rand_density(rng, 2), rand_density(rng, 3)
    swapped = la.permute_subsystems(np.kron(a, b), [2, 3], [1, 0])
    assert np.allclose(swapped, np.kron(b, a), atol=1e-12)


def test_apply_on_wires_against_dense():
    v = la.apply_on_wires(np.array([1, 0, 0, 0], dtype=complex), X, [0], 2)
    assert np.allclose(v, [0, 0, 1, 0])  # X on the most significant qubit
    rng = rng_of(8)
    vec = la.random_state_from(rng, 8)
    u = la.random_unitary_from(rng, 2)
    out = la.apply_on_wires(vec, u, [1], 3)
    dense = np.kron(np.kron(I2, u), I2)
    assert np.allclose(out, dense @ vec, atol=1e-12)

    g = la.random_unitary_from(rng, 4)
    out2 = la.apply_on_wires(vec, g, [2, 0], 3)
    p = ref.subsystem_perm_matrix([2, 2, 2], [2, 0, 1])
    dense2 = p.conj().T @ np.kron(g, I2) @ p
    assert np.allclose(out2, dense2 @ vec, atol=1e-12)

    # a (2^n, k) batch: the gate acts on each column
    batch = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    out3 = la.apply_on_wires(batch, g, [2, 0], 3)
    assert out3.shape == (8, 5)
    cols = np.column_stack([la.apply_on_wires(batch[:, j], g, [2, 0], 3) for j in range(5)])
    assert np.allclose(out3, cols, atol=1e-12)
    assert np.allclose(out3, dense2 @ batch, atol=1e-12)


# ---------------------------------------------------------------- norms


def test_schatten_trivial_values():
    assert np.isclose(la.schatten_norm(np.eye(4), 1), 4.0)
    assert np.isclose(la.schatten_norm(np.eye(4), 2), 2.0)
    assert np.isclose(la.schatten_norm(np.eye(4), np.inf), 1.0)


@given(seed=st.integers(0, 10_000), d=st.sampled_from([2, 3, 5]))
@settings(deadline=None, max_examples=40)
def test_schatten_ordering(seed, d):
    a = rng_of(seed).standard_normal((d, d)) + 1j * rng_of(seed + 1).standard_normal((d, d))
    n1, n2, ninf = (la.schatten_norm(a, p) for p in (1, 2, np.inf))
    assert n1 + 1e-12 >= n2 >= ninf - 1e-12


def test_trace_product_bound():
    rng = rng_of(9)
    for _ in range(50):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        inner = abs(np.trace(a.conj().T @ b))
        assert inner <= la.schatten_norm(a, 1) * la.schatten_norm(b, np.inf) + 1e-9
        assert inner <= la.schatten_norm(a, 2) * la.schatten_norm(b, 2) + 1e-9


def test_trace_distance_pure_state_formula():
    zero = la.PureState(np.array([1, 0], dtype=complex))
    plus = la.PureState(np.array([1, 1], dtype=complex) / math.sqrt(2))
    got = la.trace_distance(zero, plus)
    assert np.isclose(got, math.sqrt(1 - 0.5), atol=1e-12)
    rng = rng_of(10)
    for d in (2, 5):
        u, v = la.random_state_from(rng, d), la.random_state_from(rng, d)
        ov2 = abs(np.vdot(u, v)) ** 2
        got = la.trace_distance(np.outer(u, u.conj()), np.outer(v, v.conj()))
        assert np.isclose(got, math.sqrt(1 - ov2), atol=1e-10)


def test_trace_distance_refuses_operands_of_other_shapes():
    for a, b in [
        (np.eye(4) / 4, np.full(4, 0.25)),
        (np.full(4, 0.25), np.full(4, 0.25)),
        (np.eye(4) / 4, np.eye(2) / 2),
        (np.ones((2, 4)) / 8, np.ones((2, 4)) / 8),
        (np.eye(2) / 2, np.stack([np.eye(2) / 2] * 3)),
    ]:
        with pytest.raises(ValueError, match="square matrices of one shape"):
            la.trace_distance(a, b)


def test_trace_distance_equals_best_projector_gap():
    rng = rng_of(11)
    pairs = []
    for _ in range(10):
        r, s = rand_density(rng, 4), rand_density(rng, 4)
        td = la.trace_distance(r, s)
        w, v = np.linalg.eigh(r - s)
        pos = v[:, w > 0]
        best = pos @ pos.conj().T
        achieved = np.real(np.trace(best @ (r - s)))
        assert np.isclose(achieved, td, atol=1e-10)
        for _ in range(20):
            u = la.random_unitary_from(rng, 4)[:, :2]
            p = u @ u.conj().T
            assert np.real(np.trace(p @ (r - s))) <= td + 1e-10
        pairs.append((r, s, td))
    # on stacks, one distance per pair of matrices
    rs, ss, tds = zip(*pairs)
    assert np.array_equal(la.trace_distance(np.stack(rs), np.stack(ss)), np.array(tds))


# ---------------------------------------------------------------- block spectra


def permuted_blocks(rng, blocks: list[np.ndarray]) -> np.ndarray:
    """The block-diagonal matrix of `blocks`, its rows and columns shuffled together."""
    n = sum(b.shape[0] for b in blocks)
    m = np.zeros((n, n), dtype=complex)
    lo = 0
    for b in blocks:
        m[lo : lo + len(b), lo : lo + len(b)] = b
        lo += len(b)
    p = rng.permutation(n)
    return m[np.ix_(p, p)]


def random_blocks(rng, n: int, largest: int) -> list[np.ndarray]:
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(1, largest + 1)), n - sum(sizes)))
    return [rand_herm(rng, k) / math.sqrt(k) for k in sizes]


@pytest.mark.parametrize("n,largest", [(64, 4), (300, 8), (1024, 4), (2048, 40)])
def test_block_spectra_equal_the_dense_call_on_permuted_block_diagonal_matrices(n, largest):
    rng = rng_of(n)
    blocks = random_blocks(rng, n, largest)
    m = permuted_blocks(rng, blocks)
    # the search finds the blocks, so the spectrum comes block by block
    assert sum(len(g) for g in la._component_blocks(m)) == len(blocks)
    dense = np.linalg.eigvalsh(m)
    assert np.max(np.abs(la.hermitian_eigvalsh(m) - dense)) <= 1e-12
    dist = 0.5 * np.sum(np.abs(dense))
    assert abs(la.trace_distance(m, np.zeros_like(m)) - dist) <= 1e-12 * dist


def test_block_spectra_of_dense_matrices_take_the_dense_call():
    rng = rng_of(40)
    chain = np.diag(np.ones(199), 1) + np.diag(np.ones(199), -1)  # sparse, one component
    for m in (rand_herm(rng, 64), rand_density(rng, 200), chain.astype(complex)):
        assert la._component_blocks(m) is None
        assert np.array_equal(la.hermitian_eigvalsh(m), np.linalg.eigvalsh(m))
    # a stack keeps the one stacked call
    stack = np.stack([rand_herm(rng, 8) for _ in range(5)])
    assert np.array_equal(la.hermitian_eigvalsh(stack), np.linalg.eigvalsh(stack))


def test_block_spectra_of_the_1024_dim_choi_rate_states():
    ref_state = haar.haar_isometry_choi(2, 1, 2).mat
    mom = harness._pair_to_block(haar.state_moment_exact(32, 2).mat, 8, 4, 2)
    assert la._component_blocks(mom) is not None
    for m in (ref_state, mom, ref_state - mom):
        assert np.max(np.abs(la.hermitian_eigvalsh(m) - np.linalg.eigvalsh(m))) <= 1e-12
    dist = la.trace_distance(ref_state, mom)
    assert abs(dist - ref.trace_distance_dense(ref_state, mom)) <= 1e-12
    assert abs(dist - float(haar.choi_moment_distance(8, 4, 2))) <= 1e-12


def with_spectrum(rng, w: np.ndarray) -> np.ndarray:
    """A dense Hermitian matrix of spectrum w: diag(w) conjugated by one Householder
    reflection whose vector weighs a quarter on row 0, so the diagonal stays non-negative
    when w[0] alone is a small negative number."""
    v = rng.standard_normal(len(w)) + 1j * rng.standard_normal(len(w))
    v *= math.sqrt(0.75) / np.linalg.norm(v[1:])
    v[0] = 0.5
    h = np.eye(len(w)) - 2 * np.outer(v, v.conj())
    m = h @ (w[:, None] * h)
    return (m + m.conj().T) / 2


def test_a_dense_state_above_1024_dims_is_checked_in_full(monkeypatch):
    rng = rng_of(41)
    n = 2048
    rest = rng.random(n - 1)
    for low, refused in ((-1e-6, True), (-5e-10, False)):
        m = with_spectrum(rng, np.concatenate([[low], rest * (1 - low) / rest.sum()]))
        assert la._component_blocks(m) is None
        assert np.min(np.diagonal(m).real) >= 0.0  # the diagonal alone does not show it
        if refused:
            with pytest.raises(ValueError, match="eigenvalue"):
                la.DensityMatrix(m)
        else:
            assert np.array_equal(la.DensityMatrix(m).mat, m)  # nothing is clipped above 1024
    # the Cholesky factorisation copies the matrix, so it is sized like one
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=10))
    with pytest.raises(SizingError, match="positivity check"):
        la.check_density(m)


def test_a_block_sparse_state_above_1024_dims_is_checked_block_by_block(monkeypatch):
    rng = rng_of(42)
    blocks = [rand_density(rng, 4) for _ in range(511)]
    bad = with_spectrum(rng, np.array([-1e-6, 0.3, 0.3, 0.4 + 1e-6]))
    m = permuted_blocks(rng, [b / 512 for b in blocks + [bad]])
    assert m.shape == (2048, 2048) and np.min(np.diagonal(m).real) >= 0.0
    with pytest.raises(ValueError, match="eigenvalue"):
        la.DensityMatrix(m)
    good = permuted_blocks(rng, [b / 512 for b in blocks + [rand_density(rng, 4)]])
    # no block needs the Cholesky factorisation, so a budget below the matrix passes it
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=10))
    assert np.array_equal(la.DensityMatrix(good).mat, good)


def test_block_spectra_clip_a_small_negative_eigenvalue_as_the_dense_check_does():
    rng = rng_of(43)
    bad = with_spectrum(rng, np.array([-5e-10, 0.3, 0.3, 0.4 + 5e-10]))
    m = permuted_blocks(rng, [b / 16 for b in [rand_density(rng, 4) for _ in range(15)] + [bad]])
    assert la._component_blocks(m) is not None and np.linalg.eigvalsh(m)[0] < 0.0
    clipped = la.check_density(m)
    assert np.array_equal(clipped, ref.check_density_dense(m)) and not np.array_equal(clipped, m)
    for dense in (rand_density(rng, 64), rand_density(rng, 5)):
        assert np.array_equal(la.check_density(dense), ref.check_density_dense(dense))


# ---------------------------------------------------------------- entangled pairs


def test_max_entangled_amplitudes_and_marginals():
    assert np.allclose(la.omega_vector(2), np.array([1, 0, 0, 1]) / math.sqrt(2))
    for d in (2, 3):
        psi = la.omega_vector(d).reshape(d, d)  # rows index the first register
        assert np.allclose(psi @ psi.conj().T, np.eye(d) / d, atol=1e-12)
        assert np.allclose(psi.T @ psi.conj(), np.eye(d) / d, atol=1e-12)


def test_choi_vectors_identity():
    rng = rng_of(12)
    for d_out, d_in in ((4, 4), (8, 4), (2, 8)):
        a = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
        direct = np.kron(a, np.eye(d_in)) @ la.omega_vector(d_in)
        (vec,) = la.choi_vectors(a[None]).T
        assert np.allclose(vec, direct, atol=1e-12)
        assert np.isclose(np.linalg.norm(vec) ** 2, np.real(np.trace(a.conj().T @ a)) / d_in)


def test_choi_vectors_match_the_kron_chain():
    rng = rng_of(13)
    for r in (1, 2, 3):
        for d_out, d_in in ((4, 2), (2, 4), (8, 2)):
            shape = (r, d_out, d_in)
            kraus = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for ell in (1, 2, 3):
                want = ref.kron_choi_vectors(list(kraus), ell)
                got = la.choi_vectors(kraus, ell)
                assert got.shape == (d_out**ell * d_in**ell, r**ell)
                assert np.array_equal(got, want)
    # a stack of channels folds each with itself, channel after channel
    stack = rng.standard_normal((3, 2, 4, 2)) + 1j * rng.standard_normal((3, 2, 4, 2))
    want = np.hstack([ref.kron_choi_vectors(list(k), 2) for k in stack])
    assert np.array_equal(la.choi_vectors(stack, 2), want)


# ---------------------------------------------------------------- permutations


def test_permutation_operator_basics():
    assert np.allclose(ref.permutation_operator((0, 1), 2, 2), np.eye(4))
    swap = ref.permutation_operator((1, 0), 2, 2)
    expected = np.zeros((4, 4))
    expected[[0, 2, 1, 3], [0, 1, 2, 3]] = 1  # |ab> -> |ba>
    assert np.allclose(swap, expected)


def test_permutation_operator_is_homomorphism():
    d, ell = 2, 3
    for p in la.all_perms(ell):
        for q in la.all_perms(ell):
            lhs = ref.permutation_operator(p, d, ell) @ ref.permutation_operator(q, d, ell)
            rhs = ref.permutation_operator(ref.perm_compose(p, q), d, ell)
            assert np.allclose(lhs, rhs)


@given(perm=st.permutations(list(range(3))), d=st.sampled_from([2, 3]))
@settings(deadline=None, max_examples=30)
def test_permutation_operator_unitary_and_inverse(perm, d):
    r = ref.permutation_operator(tuple(perm), d, 3)
    assert np.allclose(r @ r.conj().T, np.eye(d**3))
    assert np.allclose(r.conj().T, ref.permutation_operator(ref.perm_inverse(tuple(perm)), d, 3))


def test_perm_cycles():
    assert ref.perm_cycles((0, 1, 2)) == 3
    assert ref.perm_cycles((1, 0, 2)) == 2
    assert ref.perm_cycles((1, 2, 0)) == 1


def test_register_maps_equal_the_digit_maps_and_their_inverses():
    for d, ell in ((1, 3), (2, 1), (2, 4), (3, 3), (5, 2), (2, 6)):
        maps = la.register_maps(d, ell)
        perms = la.all_perms(ell)
        assert maps.dtype == np.int64 and maps.shape == (math.factorial(ell), d**ell)
        assert np.array_equal(maps, [ref.perm_target_indices(p, d, ell) for p in perms])
        inverse = [ref.perm_target_indices(ref.perm_inverse(p), d, ell) for p in perms]
        assert np.array_equal(np.argsort(maps, axis=1), inverse)


def test_register_maps_are_cached_read_only_and_sized_on_a_cache_hit(monkeypatch):
    maps = la.register_maps(2, 3)
    assert maps is la.register_maps(2, 3)
    assert not maps.flags.writeable
    # 3! = 6 rows of 8 entries outgrow a 2-qubit budget's 16 entries
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=2))
    with pytest.raises(SizingError, match="register maps"):
        la.register_maps(2, 3)


def test_sym_projector_size_guard(monkeypatch):
    with pytest.raises(SizingError, match="symmetric projector"):
        la.sym_projector(2**7, 2)
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=3))
    with pytest.raises(SizingError, match="symmetric projector"):
        la.sym_projector(3, 2)
    assert la.sym_projector(2, 3).shape == (8, 8)


def test_sym_projector_values():
    swap = ref.permutation_operator((1, 0), 2, 2)
    assert np.allclose(la.sym_projector(2, 2), (np.eye(4) + swap) / 2)
    # trace counts the symmetric-subspace dimension
    for d, ell, want in ((2, 2, 3), (2, 3, 4), (3, 2, 6), (4, 1, 4)):
        p = la.sym_projector(d, ell)
        assert np.isclose(np.trace(p).real, want)
        assert np.allclose(p @ p, p, atol=1e-10)
        for pi in la.all_perms(ell):
            r = ref.permutation_operator(pi, d, ell)
            assert np.allclose(r @ p, p @ r, atol=1e-10)


def test_sym_projector_equals_the_mean_of_the_dense_operators():
    for d, ell in ((1, 2), (2, 1), (2, 3), (3, 3), (4, 2), (2, 5)):
        dense = sum(ref.permutation_operator(p, d, ell) for p in la.all_perms(ell)) / math.factorial(ell)
        assert np.array_equal(la.sym_projector(d, ell), dense)


# ---------------------------------------------------------------- diamond distance


def test_diamond_distance_unitary_trivial_cases():
    rng = rng_of(13)
    u = la.UnitaryMatrix(la.random_unitary_from(rng, 4))
    v = la.UnitaryMatrix(np.exp(0.7j) * u.mat)
    assert la.diamond_distance_unitary(u, u) == 0.0
    assert la.diamond_distance_unitary(u, v) < 1e-7
    eye = la.UnitaryMatrix(np.eye(2))
    assert np.isclose(la.diamond_distance_unitary(eye, la.UnitaryMatrix(Z)), 2.0)


# ---------------------------------------------------------------- gentle measurement


def test_gentle_residual_identity_and_bound():
    rng = rng_of(16)
    rho = rand_density(rng, 4)
    res, dist = la.gentle_residual(np.eye(4), rho)
    assert dist < 1e-10
    assert np.allclose(res, rho, atol=1e-10)

    # near-certain projective outcome disturbs at most sqrt(eps)
    for seed in range(20):
        r2 = np.random.default_rng(seed)
        psi = la.random_state_from(r2, 8)
        u = la.random_unitary_from(r2, 8)
        p = u[:, :6] @ u[:, :6].conj().T
        prob = float(np.real(psi.conj() @ p @ psi))
        if prob < 0.5:
            continue
        eps = 1 - prob
        _, dist = la.gentle_residual(p, np.outer(psi, psi.conj()))
        assert dist <= math.sqrt(eps) + 1e-9


def test_zero_probability_outcome_faults():
    psi = np.zeros(4)
    psi_state = np.zeros(4, dtype=complex)
    psi_state[0] = 1.0
    p = np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        la.gentle_residual(p, np.outer(psi_state, psi_state.conj()))


# ---------------------------------------------------------------- conjugation stability


def test_conjugation_difference_bounded_by_unitary_distance():
    rng = rng_of(17)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        u = la.random_unitary_from(rng, d)
        psi = la.random_state_from(rng, d)
        # mix of near and far partners
        if rng.random() < 0.5:
            h = rand_herm(rng, d)
            h = h / np.linalg.norm(h, 2)
            from scipy.linalg import expm

            v = expm(1j * 0.05 * h) @ u
        else:
            v = la.random_unitary_from(rng, d)
        rho_u = np.outer(u @ psi, (u @ psi).conj())
        rho_v = np.outer(v @ psi, (v @ psi).conj())
        lhs = la.schatten_norm(rho_u - rho_v, 2)
        assert lhs <= 2 * la.schatten_norm(u - v, 2) + 1e-9


# ---------------------------------------------------------------- ricochet move


def test_transpose_identity_exact_for_random_isometries():
    rng = rng_of(31)
    for _ in range(50):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(n_in, 6))
        u = la.random_unitary_from(rng, 2**n_out)
        iso = u[:, : 2**n_in]
        assert la.transpose_identity_residual(iso) <= 1e-10


def test_transpose_identity_residual_equals_the_kron_route():
    rng = rng_of(32)
    for _ in range(200):
        a = la.ginibre(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        assert la.transpose_identity_residual(a) == ref.transpose_identity_residual_kron(a)


def test_transpose_identity_square_and_rectangular_shapes():
    assert la.transpose_identity_residual(np.eye(4)) <= 1e-12
    assert la.transpose_identity_residual(np.eye(8, 2)) <= 1e-12
