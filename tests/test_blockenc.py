from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclebench import blockenc as be
from oraclebench import linalg as la
from oraclebench import subroutines
from oraclebench.haar import sample_haar_unitary
from oraclebench.seeds import SeedPath

import dense_reference as ref

SEED = SeedPath(7131)


def rand_density(rng, d, rank=None):
    rank = rank or d
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = a @ a.conj().T
    return m / np.trace(m)


def test_from_unitary_extract_is_top_left_block():
    u = sample_haar_unitary(8, SEED.child("fu"))
    enc = be.BlockEncoding.from_unitary(u, ancilla_qubits=1, alpha=2.0)
    assert enc.block_dim == 4
    assert np.allclose(enc.extract(), 2.0 * u.mat[:4, :4])


def test_exactly_one_backing_form():
    with pytest.raises(ValueError):
        be.BlockEncoding(1.0, 0.0, 1, 2)
    with pytest.raises(ValueError):
        be.BlockEncoding(
            1.0, 0.0, 1, 2, unitary_mat=np.eye(4), purification=np.zeros(4)
        )


def test_complete_to_unitary_keeps_column():
    rng = SEED.child("cc").rng()
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    w = be.complete_to_unitary(v)
    assert np.allclose(w[:, 0], v, atol=1e-12)
    assert np.allclose(w.conj().T @ w, np.eye(8), atol=1e-12)
    with pytest.raises(ValueError):
        be.complete_to_unitary(2 * v)


def test_density_encoding_roundtrip_compact_and_full():
    for i, (n_q, rank) in enumerate([(1, 2), (2, 1), (2, 3), (3, 8)]):
        rho = rand_density(SEED.child("rt", i).rng(), 2**n_q, rank)
        for compact in (True, False):
            enc = be.encode_density(rho, compact=compact)
            assert be.verify_block_encoding(enc, rho) < 1e-9


def test_compact_purification_register_is_small():
    rho = rand_density(SEED.child("cp").rng(), 16, rank=2)
    vec, n_q, m_q = be.purification_vector(rho, compact=True)
    assert (n_q, m_q) == (4, 1)
    assert vec.size == 2 ** (n_q + m_q)
    full_vec, _, full_m = be.purification_vector(rho, compact=False)
    assert full_m == 4 and full_vec.size == 256


def test_dense_unitary_matches_purified_extract():
    rho = rand_density(SEED.child("dn").rng(), 4)
    enc = be.encode_density(rho, compact=False)
    v = ref.block_encoding_unitary(enc)
    # the dense route and the purification shortcut present the same block
    assert np.allclose(v.mat[:4, :4], enc.extract(), atol=1e-12)
    assert np.allclose(enc.extract(), rho, atol=1e-12)


def test_block_encode_density_accepts_unitary_purifier():
    rho = rand_density(SEED.child("up").rng(), 4)
    w = be.purify(rho)
    enc = be.block_encode_density(w, n_qubits=2, m_qubits=2)
    assert be.verify_block_encoding(enc, rho) < 1e-9
    with pytest.raises(ValueError):
        be.block_encode_density(w, n_qubits=2, m_qubits=3)


def test_dilation_encoding_is_exact():
    rng = SEED.child("dl").rng()
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m /= np.linalg.norm(m, 2) * 1.25
    enc = be.dilation_encoding(m)
    assert enc.ancilla_qubits == 1
    u = ref.block_encoding_unitary(enc)
    assert np.allclose(u.mat[:8, :8], m, atol=1e-10)
    with pytest.raises(ValueError):
        be.dilation_encoding(3.0 * m)


def test_threshold_poly_contract():
    p = be.threshold_poly(0.3, 0.7, 0.05)
    xs = np.linspace(0.0, 1.0, 3001)
    vals = p(xs)
    assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-12)
    assert np.max(vals[xs <= 0.3]) <= 0.05
    assert np.min(vals[xs >= 0.7]) >= 0.95
    assert p.low_max <= 0.05 and p.high_min >= 0.95


def test_threshold_poly_tight_interval_needs_higher_degree():
    wide = be.threshold_poly(0.3, 0.7, 0.05)
    tight = be.threshold_poly(0.48, 0.52, 0.01)
    assert tight.degree > wide.degree
    cap = int(np.ceil(8.0 / 0.04 * np.log(4.0 / 0.01)))
    assert tight.degree <= cap


def test_threshold_poly_rejects_bad_parameters():
    with pytest.raises(ValueError):
        be.threshold_poly(0.7, 0.3, 0.05)
    with pytest.raises(ValueError):
        be.threshold_poly(0.3, 0.7, 0.5)
    with pytest.raises(ValueError):
        be.threshold_poly(0.3, 0.7, 0.0)


@pytest.mark.parametrize("degree", [64, 1024, 4096])
def test_dct_coefficients_match_chebinterpolate(degree):
    a, b, eta = 2.0**-24, 2.0**-16, 0.0625
    got = be._poly_candidate(a, b, eta, degree)
    want = ref.chebinterpolate_step(a, b, eta, degree)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_stdlib_erf_step_agrees_with_scipy_special():
    from scipy.special import erf, erfinv

    x = np.concatenate([np.linspace(-8.0, 8.0, 100_001), np.geomspace(1e-300, 30.0, 2001)])
    x = np.concatenate([x, -x])
    assert np.max(np.abs(be._erf(x).astype(float) - erf(x))) <= 1e-15
    a, b = 2.0**-24, 2.0**-16
    for eta in np.geomspace(1e-4, 0.49, 1000):
        want = 2.0 * erfinv(1.0 - 2.0 * eta) / (b - a)
        assert abs(be._kappa(a, b, eta) / want - 1.0) <= 1e-13, eta


_LADDER_CASES = [
    (2.0 ** (-3 * n), 2.0 ** (-2 * n), 2.0**-lam / 2.0) for n in (2, 4, 6, 8, 10) for lam in (1, 2, 3)
] + [(0.2, 0.6, 0.025), (0.3, 0.7, 0.05), (0.48, 0.52, 0.01)]


@pytest.mark.parametrize("a,b,eta", _LADDER_CASES)
def test_threshold_poly_matches_full_grid_ladder(a, b, eta):
    p = be.threshold_poly(a, b, eta)
    want = ref.threshold_poly_ladder(a, b, eta)
    assert p.degree == want.degree
    assert abs(p.low_max - want.low_max) <= 1e-9
    assert abs(p.high_min - want.high_min) <= 1e-9


def _eval_points(a, b):
    return np.concatenate(
        [[0.0, a, b, (a + b) / 2.0, 1.0], np.geomspace(1e-15, 1.0, 200), np.linspace(0.0, 1.0, 201)]
    )


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps, reason="needs an extended np.longdouble"
)
@pytest.mark.parametrize("a,b,eta", _LADDER_CASES)
def test_threshold_poly_evaluation_matches_clenshaw(a, b, eta):
    # Clenshaw runs on the same float64 t = 2x - 1 but in extended precision:
    # in float64 it is itself off by up to ~4e-12 on the degree-2048-8192 ones
    p = be.threshold_poly(a, b, eta)
    xs = _eval_points(a, b)
    t = (2.0 * xs - 1.0).astype(np.longdouble)
    want = np.polynomial.chebyshev.chebval(t, p.coeffs.astype(np.longdouble))
    assert np.max(np.abs(p(xs) - want)) <= 1e-12


def test_threshold_poly_evaluation_does_not_depend_on_its_chunks(monkeypatch):
    p = be.threshold_poly(2.0**-24, 2.0**-16, 2.0**-3 / 2.0)
    xs = _eval_points(2.0**-24, 2.0**-16)
    whole = p(xs)
    monkeypatch.setattr(be.budget, "DEFAULT_BUDGET", be.budget.Budget(max_dense_matrix_qubits=7))
    assert len(be.budget.DEFAULT_BUDGET.chunks(xs.size, p.degree + 1)) > 50
    # BLAS may sum a chunk's dot products in another order: rounding-level only
    assert np.max(np.abs(p(xs) - whole)) <= 1e-14
    assert p(xs.reshape(-1, 2)).shape == (xs.size // 2, 2)
    assert np.ndim(p(0.5)) == 0 and p(np.empty(0)).shape == (0,)


def test_threshold_poly_is_cached_and_read_only():
    p = be.threshold_poly(0.25, 0.65, 0.04)
    assert be.threshold_poly(0.25, 0.65, 0.04) is p
    with pytest.raises(ValueError):
        p.coeffs[0] = 0.0


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 1.0))
def test_threshold_poly_bounded_everywhere(x):
    p = be.threshold_poly(0.2, 0.6, 0.1)
    assert -1e-9 <= float(p(x)) <= 1 + 1e-9


def test_sv_projector_rank_and_action():
    diag = np.diag([0.9, 0.8, 0.2, 0.1])
    proj, rank = be.sv_projector(diag, 0.5)
    assert rank == 2
    assert np.allclose(proj, np.diag([1, 1, 0, 0]))


def _promise_instance(seed, d, a, b, k_high):
    """Matrix with k_high singular values above b, the rest below a."""
    rng = seed.rng()
    u = sample_haar_unitary(d, seed.child("l")).mat
    w = sample_haar_unitary(d, seed.child("r")).mat
    s = np.concatenate(
        [
            b + (1 - b) * rng.random(k_high),
            a * rng.random(d - k_high),
        ]
    )
    m = u @ np.diag(s) @ w.conj().T
    # right singular vectors of m are the columns of w
    return m, w


def test_svd_discriminate_on_promise_instances():
    d, a, b = 8, 0.2, 0.6
    m, w = _promise_instance(SEED.child("pi"), d, a, b, k_high=3)
    enc = be.dilation_encoding(m)
    hi = la.PureState(w[:, 0])
    lo = la.PureState(w[:, 5])
    for backend in ("ideal", "poly"):
        r_hi = be.svd_discriminate(enc, hi, a, b, 0.05, backend=backend)
        r_lo = be.svd_discriminate(enc, lo, a, b, 0.05, backend=backend)
        assert r_hi.accept_prob >= 0.95, backend
        assert r_lo.accept_prob <= 0.05, backend
    ideal = be.svd_discriminate(enc, hi, a, b, 0.05, backend="ideal")
    assert ideal.accept_prob > 1 - 1e-9
    assert ideal.rank_above == 3


def test_svd_discriminate_backends_agree_off_promise():
    # mixed test state, no promise: backends still land close together
    d, a, b = 8, 0.2, 0.6
    m, w = _promise_instance(SEED.child("ag"), d, a, b, k_high=4)
    enc = be.dilation_encoding(m)
    rho = rand_density(SEED.child("ag-rho").rng(), d)
    r_i = be.svd_discriminate(enc, rho, a, b, 0.02, backend="ideal")
    r_p = be.svd_discriminate(enc, rho, a, b, 0.02, backend="poly")
    assert abs(r_i.accept_prob - r_p.accept_prob) < 0.02
    assert r_p.poly_degree is not None and r_i.poly_degree is None


def test_svd_discriminate_bit_is_seeded():
    m, w = _promise_instance(SEED.child("bit"), 4, 0.2, 0.6, k_high=2)
    enc = be.dilation_encoding(m)
    xi = la.DensityMatrix(np.eye(4) / 4)
    r1 = be.svd_discriminate(enc, xi, 0.2, 0.6, 0.05, seed=SEED.child("b", 1))
    r2 = be.svd_discriminate(enc, xi, 0.2, 0.6, 0.05, seed=SEED.child("b", 1))
    assert r1.accept == r2.accept and r1.accept_prob == r2.accept_prob
    with pytest.raises(ValueError):
        be.svd_discriminate(enc, np.eye(8) / 8, 0.2, 0.6, 0.05)
    with pytest.raises(ValueError):
        be.svd_discriminate(enc, xi, 0.2, 0.6, 0.05, backend="magic")


def test_spectral_work_crosses_the_subroutine_boundary():
    rho = rand_density(SEED.child("sb").rng(), 4)
    with subroutines.capture() as log:
        enc = be.encode_density(rho)
        be.svd_discriminate(enc, la.DensityMatrix(rho), 0.2, 0.6, 0.05, backend="poly")
    ops = [(e["op"], e["label"]) for e in log]
    assert ("eigh", "purify") in ops
    assert ("svd", "sv-transform") in ops


# ---------------------------------------------------------------- tail and kernel caps


def _perturbed_unitary(seed, n, p_exp):
    # unitary nudged by 2^-(p+1) in spectral norm, then shrunk by the same
    # amount; the result stays within 2^-p of the original and keeps every
    # singular value far above the cuts used below
    from scipy.linalg import expm

    rng = seed.rng()
    d = 2**n
    u = sample_haar_unitary(d, seed.child("u")).mat
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (h + h.conj().T) / 2
    h /= np.linalg.norm(h, 2)
    delta = 2.0 ** (-p_exp - 1)
    return u, u @ expm(1j * delta * h) * (1.0 - delta)


def test_tail_mass_holds_on_perturbed_unitaries():
    for i, n in enumerate((1, 2, 3, 4)):
        p_exp = 4 * n
        u, a = _perturbed_unitary(SEED.child("tm", i), n, p_exp)
        assert np.linalg.norm(a - u, 2) <= 2.0**-p_exp
        enc = be.dilation_encoding(a)
        rho = rand_density(SEED.child("tm-rho", i).rng(), 2**n)
        for eps in (2.0 ** (-2 * n), 2.0 ** (-3 * n)):
            mass, lower = be.tail_mass_bounds(enc, rho, eps, p_exp)
            assert lower <= mass <= 1.0 + 1e-12
        assert be.tail_mass_bounds(enc, rho, 2.0 ** (-2 * n), p_exp)[1] < 1.0


def test_kernel_leakage_caps_on_rank_deficient_blocks():
    for i, n in enumerate((1, 2, 3)):
        p_exp = 4 * n
        d = 2**n
        seed = SEED.child("kl", i)
        rng = seed.rng()
        u = sample_haar_unitary(d, seed.child("u")).mat
        w = sample_haar_unitary(d, seed.child("w")).mat
        sv = np.sort(rng.uniform(0.3, 0.9, size=d))[::-1]
        sv[-1] = 0.0
        m = u @ np.diag(sv) @ w.conj().T
        psi = w[:, -1]
        assert np.linalg.norm(m @ psi) <= 1e-12
        e = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        e /= np.linalg.norm(e, 2)
        a = m + 2.0 ** (-p_exp - 1) * e
        enc = be.dilation_encoding(a)
        for eps in (2.0 ** (-2 * n), 2.0 ** (-3 * n)):
            leak, cap = be.kernel_leakage_bounds(enc, psi, eps, p_exp)
            assert leak <= cap
        with pytest.raises(ValueError):
            be.kernel_leakage_bounds(enc, np.ones(2 * d), 0.1, p_exp)


def test_threshold_poly_certifies_far_below_one():
    # windows this deep under 1 are what the geometric grid points are for
    a, b = 2.0**-24, 2.0**-16
    p = be.threshold_poly(a, b, 0.05)
    assert p.low_max <= 0.05 and p.high_min >= 0.95
    assert p.degree <= int(np.ceil(8.0 / (b - a) * np.log(4.0 / 0.05)))
    xs = np.geomspace(1e-9, 1.0, 64)
    assert np.all(p(xs[xs >= b]) >= 0.95)
    assert float(p(0.0)) <= 0.05
