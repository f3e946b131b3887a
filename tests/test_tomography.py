from __future__ import annotations

import numpy as np
import pytest

from oraclebench import subroutines, tomography as tg
from oraclebench.budget import SizingError
from oraclebench.haar import sample_haar_unitary
from oraclebench.linalg import UnitaryMatrix
from oraclebench.seeds import SeedPath

import dense_reference as ref

SEED = SeedPath(41255)


def test_exact_tomography_recovers_up_to_phase():
    for i in range(10):
        u = sample_haar_unitary(8, SEED.child("ex", i))
        res = tg.process_tomography_exact(lambda v: u.mat @ v, 8)
        assert tg.phase_aligned_distance(res.estimate, u.mat) < 1e-9
        assert res.mode == "exact" and res.queries == 8
        assert res.gram_defect < 1e-10


def test_exact_tomography_canonical_phase_kills_global_phase():
    u = sample_haar_unitary(4, SEED.child("ph"))
    r1 = tg.process_tomography_exact(lambda v: u.mat @ v, 4)
    r2 = tg.process_tomography_exact(lambda v: 1j * (u.mat @ v), 4)
    assert np.allclose(r1.estimate, r2.estimate, atol=1e-9)


def test_exact_tomography_faults_on_nonisometry():
    m = np.diag([1.0, 0.5])
    with pytest.raises(ValueError, match="gram defect"):
        tg.process_tomography_exact(lambda v: m @ v, 2)


def test_exact_tomography_handles_isometry():
    u = sample_haar_unitary(8, SEED.child("iso"))
    v_iso = u.mat[:, :4]  # 8x4 isometry
    res = tg.process_tomography_exact(lambda v: v_iso @ v, 4)
    assert res.estimate.shape == (8, 4)
    assert tg.phase_aligned_distance(res.estimate, v_iso) < 1e-9


def test_nearest_unitary_projects():
    rng = SEED.child("nu").rng()
    u = sample_haar_unitary(4, SEED.child("nu-u")).mat
    noisy = u + 0.01 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    proj = tg.nearest_unitary(noisy)
    UnitaryMatrix(proj)  # construction checks unitarity
    assert np.linalg.norm(proj - u, 2) < 0.1


def test_canonical_phase_is_idempotent_and_deterministic():
    rng = SEED.child("cph").rng()
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c1 = tg.canonical_phase(m)
    c2 = tg.canonical_phase(np.exp(0.7j) * m)
    assert np.allclose(c1, c2, atol=1e-12)
    assert np.allclose(tg.canonical_phase(c1), c1, atol=1e-12)
    idx = np.argmax(np.abs(c1).ravel())
    top = c1.ravel()[idx]
    assert abs(top.imag) < 1e-12 and top.real > 0


def test_shot_count_scales():
    assert tg.shot_count(2, 0.1, 0.1) < tg.shot_count(2, 0.05, 0.1)
    assert tg.shot_count(2, 0.1, 0.1) < tg.shot_count(4, 0.1, 0.1)
    with pytest.raises(ValueError):
        tg.shot_count(2, 0.0, 0.1)
    # no shots, infinitely many, or a negative count: each refused by name
    for args, name in [((2, np.inf, 0.1), "eps=inf"), ((2, 0.1, 0.1, 0), "c_tom=0"),
                       ((2, 0.1, 0.1, -2), "c_tom=-2"), ((2, 0.1, 0.1, np.inf), "c_tom=inf"),
                       ((2, np.nan, 0.1), "eps=nan"), ((0, 0.1, 0.1), "dim=0"), ((2, 0.1, 1.0), "eta=1.0")]:
        with pytest.raises(ValueError, match=name):
            tg.shot_count(*args)


def test_sampled_tomography_hits_target_error():
    hits = 0
    for i in range(20):
        u = sample_haar_unitary(2, SEED.child("sm", i))
        res = tg.process_tomography_sampled(
            lambda v: u.mat @ v, 2, 0.1, 0.1, SEED.child("sm-sh", i)
        )
        err = tg.phase_aligned_distance(res.estimate, u.mat)
        hits += err <= 0.1
        assert res.mode == "sampled"
        assert res.queries == 4 * 3 * res.shots_per_setting
    assert hits >= 18


def test_sampled_tomography_is_seeded():
    u = sample_haar_unitary(2, SEED.child("det"))
    r1 = tg.process_tomography_sampled(lambda v: u.mat @ v, 2, 0.2, 0.2, SEED.child("d", 3))
    r2 = tg.process_tomography_sampled(lambda v: u.mat @ v, 2, 0.2, 0.2, SEED.child("d", 3))
    assert np.array_equal(r1.estimate, r2.estimate)


def test_sampled_tomography_dim4():
    u = sample_haar_unitary(4, SEED.child("d4"))
    res = tg.process_tomography_sampled(
        lambda v: u.mat @ v, 4, 0.15, 0.2, SEED.child("d4-s")
    )
    assert tg.phase_aligned_distance(res.estimate, u.mat) <= 0.15


def test_tomography_routes_spectral_work_through_subroutines(monkeypatch):
    labels = []
    top_eigh = subroutines.top_eigh

    def spy(mat, label=""):
        labels.append(label)
        return top_eigh(mat, label)

    monkeypatch.setattr(subroutines, "top_eigh", spy)
    u = sample_haar_unitary(2, SEED.child("log"))
    with subroutines.capture() as log:
        tg.process_tomography_sampled(lambda v: u.mat @ v, 2, 0.3, 0.3, SEED.child("lg"))
    ops = {(e["op"], e["label"]) for e in log}
    assert labels == ["tomo-correlation"]
    assert ("eigh", "tomo-correlation") in ops
    assert ("svd", "polar") in ops


class _RecordingRng:
    """Passes multinomial calls through and keeps every call's shape and probability row."""

    def __init__(self, rng):
        self.rng, self.rows, self.calls = rng, [], []

    def multinomial(self, n, pvals):
        self.calls.append(pvals.shape)
        self.rows += list(pvals.reshape(-1, pvals.shape[-1]))
        return self.rng.multinomial(n, pvals)

    def trimmed_rows(self):
        """Each row bit for bit, its leading zero columns (the padding) removed."""
        return [np.trim_zeros(row, "f").tobytes() for row in self.rows]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16])
def test_batched_sampler_matches_scalar_reference(dim):
    for i in range(4):
        # one chunk of states: the columns of a Haar unitary, sampled in one call
        psi = sample_haar_unitary(dim, SEED.child(f"bat-{dim}", i)).mat.T
        rng_ref = _RecordingRng(SEED.child(f"bat-sh-{dim}", i).rng())
        rng_new = _RecordingRng(SEED.child(f"bat-sh-{dim}", i).rng())
        want = np.stack([ref.scalar_sampled_density(row, 50 + i, rng_ref) for row in psi])
        got = tg._sampled_densities(psi, 50 + i, rng_new)
        assert np.array_equal(got, want)
        assert rng_new.trimmed_rows() == rng_ref.trimmed_rows()
        # same state after both: the same draws, in the same order
        assert rng_new.rng.bit_generator.state == rng_ref.rng.bit_generator.state


def _rows_with_zero_categories(rng, n_rows, width):
    """Random probability rows, about a third of their entries zero; the first row starts with a zero."""
    p = rng.random((n_rows, width)) * (rng.random((n_rows, width)) > 1 / 3)
    p[0, 0] = 0.0
    p[np.sum(p, axis=1) == 0, -1] = 1.0
    return p / np.sum(p, axis=1, keepdims=True)


@pytest.mark.parametrize("shots", [1, 7, 10**7])
def test_one_padded_multinomial_call_equals_the_per_row_calls(shots):
    # the premise of the padded draw: a zero category costs no random numbers
    # and leaves the remaining mass at exactly 1, so right-aligned padding
    # reproduces the per-row counts and the generator's end state
    rng = SEED.child("pad-rows", shots).rng()
    for width in (1, 2, 3, 5, 8):
        rows = _rows_with_zero_categories(rng, 40, width)
        padded = np.zeros((40, 8))
        padded[:, 8 - width:] = rows
        ref_rng = SEED.child("pad-draw", width).rng()
        new_rng = SEED.child("pad-draw", width).rng()
        want = np.stack([ref_rng.multinomial(shots, row) for row in rows])
        got = new_rng.multinomial(shots, padded)
        assert not got[:, :8 - width].any()
        assert np.array_equal(got[:, 8 - width:], want)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


def _states_with_zero_amplitudes(dim):
    """dim unit rows, about half their amplitudes zero, the first column all zero;
    the first dim // 4 rows are basis states."""
    rng = SEED.child("zero-amp", dim).rng()
    psi = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    psi *= rng.random((dim, dim)) > 1 / 2
    psi[:, 0] = 0.0
    psi[: dim // 4] = np.eye(dim)[1 : dim // 4 + 1]
    psi[np.linalg.norm(psi, axis=1) == 0, -1] = 1.0
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


@pytest.mark.parametrize("dim,calls", [(8, 1), (16, 2 * 16)])
@pytest.mark.parametrize("shots", [1, 7, 10**7])
def test_sampler_with_zero_amplitudes_matches_scalar_reference(dim, calls, shots):
    # basis states and states with zero amplitudes give zero categories,
    # among them a zero first one; dim 8 draws padded, dim 16 in per-state calls
    psi = _states_with_zero_amplitudes(dim)
    rng_ref = SEED.child("zero-amp-shots", dim).rng()
    rng_new = _RecordingRng(SEED.child("zero-amp-shots", dim).rng())
    want = np.stack([ref.scalar_sampled_density(row, shots, rng_ref) for row in psi])
    got = tg._sampled_densities(psi, shots, rng_new)
    assert len(rng_new.calls) == calls
    assert np.array_equal(got, want)
    assert rng_new.rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("shots", [50, 10**6, 4_162_687])
def test_squared_parts_draw_as_the_libm_route(dim, shots):
    # the sampler takes a pair setting's |z|^2 as re^2 + im^2 where it once took
    # libm's hypot and pow; the two round it at most 2 ulp apart, and no draw
    # moves. 4,162,687 is the shot count of a dim-16 reconstruction at eps = eta = 0.1.
    haar = sample_haar_unitary(dim, SEED.child("libm", dim)).mat.T
    for psi in (haar, _states_with_zero_amplitudes(dim)):
        rng_ref = _RecordingRng(SEED.child("libm-shots", dim).rng())
        rng_new = _RecordingRng(SEED.child("libm-shots", dim).rng())
        want = np.stack([ref.scalar_sampled_density(row, shots, rng_ref, ref.libm_square) for row in psi])
        got = tg._sampled_densities(psi, shots, rng_new)
        assert np.array_equal(got, want)
        assert rng_new.rng.bit_generator.state == rng_ref.rng.bit_generator.state
        # every probability handed to numpy, its padding cut off, within 4.5e-16
        # of the libm route's, relative to the row's total mass of 1
        assert len(rng_new.rows) == len(rng_ref.rows)
        for new, old in zip(rng_new.rows, rng_ref.rows):
            assert not new[: new.size - old.size].any()
            assert np.max(np.abs(new[new.size - old.size:] - old)) <= 4.5e-16
        # every pair setting's |z|^2, within 4.5e-16 relative
        a, b = tg._pair_indices(dim)
        for z in np.concatenate([psi[:, a] + psi[:, b], psi[:, a] - psi[:, b],
                                 psi[:, a] - 1j * psi[:, b], psi[:, a] + 1j * psi[:, b]], axis=1).ravel():
            assert abs(ref.squared_parts(z) - ref.libm_square(z)) <= 4.5e-16 * ref.libm_square(z)


def test_a_diagonal_probability_at_one_half_draws_as_the_libm_route():
    # an output state of `attack pru --c 1 --backend poly --tomo sampled --seed 2`:
    # re^2 + im^2 rounds its last amplitude's |z|^2 1 ulp off hypot's, which would
    # move its normalized second probability from 0.5 + 1 ulp to 0.5, across
    # numpy's binomial branch, and with it the draws; the diagonal keeps hypot
    parts = [("0x1.6a09e667f3bccp-1", "0x0p+0"), ("-0x1.9d5414c313087p-3", "0x1.33895cffaea7bp-1"),
             ("0x1.1d39e9115f194p-3", "0x1.64157664f51f2p-58"), ("-0x1.38fbff9d82d58p-3", "-0x1.e3770e81fa723p-3")]
    psi = np.zeros((1, 8), dtype=np.complex128)
    psi[0, [1, 4, 6, 7]] = [complex(float.fromhex(re), float.fromhex(im)) for re, im in parts]
    rng_ref, rng_new = SEED.child("half").rng(), SEED.child("half").rng()
    want = ref.scalar_sampled_density(psi[0], 9_455_930, rng_ref, ref.libm_square)
    assert np.array_equal(tg._sampled_densities(psi, 9_455_930, rng_new)[0], want)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_batched_reconstruction_matches_scalar_reference():
    for dim in (1, 2, 3, 4, 8, 16):
        u = sample_haar_unitary(dim, SEED.child("bat-rec", dim)).mat
        for eps in (0.1, 0.3, 0.6):
            seed = SEED.child("bat-rec-s", dim).child("eps", int(eps * 10))
            new = tg.process_tomography_sampled(lambda v: u @ v, dim, eps, 0.2, seed)
            old = ref.sampled_tomography(lambda v: u @ v, dim, eps, 0.2, seed)
            assert new.queries == old.queries
            assert new.shots_per_setting == old.shots_per_setting
            # at dim 2 |U_00| = |U_11|, so canonical_phase may pick either under rounding
            assert tg.phase_aligned_distance(new.estimate, old.estimate) <= 1e-12
            assert abs(new.gram_defect - old.gram_defect) <= 1e-12


def test_sampled_tomography_refuses_oversized_correlation():
    calls = []
    with pytest.raises(SizingError, match="sampled tomography correlation"):
        tg.process_tomography_sampled(calls.append, 128, 0.1, 0.1, SEED.child("big"))
    assert calls == []


def test_small_correlation_eigh_runs_on_one_blas_thread(monkeypatch, blas_counts):
    seen = []
    note = subroutines._note

    def spy(op, label, dim):
        if op == "eigh":
            seen.append((dim, blas_counts()))
        note(op, label, dim)

    # top_eigh records its crossing inside its serial block
    monkeypatch.setattr(subroutines, "_note", spy)
    u = sample_haar_unitary(4, SEED.child("serial"))
    tg.process_tomography_sampled(lambda v: u.mat @ v, 4, 0.1, 0.1, SEED.child("serial-shots"))
    assert seen == [(16, dict.fromkeys(blas_counts(), 1))]
    assert blas_counts() == dict.fromkeys(blas_counts(), 2)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 16])
def test_reconstruction_chunks(monkeypatch, dim):
    # up to PADDED_MAX_DIM all dim^2 states are one chunk drawn in one multinomial call;
    # past it the basis is one chunk and the pairs follow in chunks of 2 dim states
    recorder, chunks = [], []
    sampled = tg._sampled_densities

    def spy(psi, shots, rng):
        chunks.append(psi.shape[0])
        return sampled(psi, shots, rng)

    def recording(seed):
        recorder.append(_RecordingRng(seed.rng()))
        return recorder[-1]

    monkeypatch.setattr(tg, "_sampled_densities", spy)
    monkeypatch.setattr(tg, "as_generator", recording)
    u = sample_haar_unitary(dim, SEED.child("chunks", dim)).mat
    tg.process_tomography_sampled(lambda v: u @ v, dim, 0.3, 0.2, SEED.child("chunks-shots", dim))
    if dim <= tg.PADDED_MAX_DIM:
        assert chunks == [dim * dim]
        assert len(recorder[0].calls) == 1
    else:
        pairs = dim * (dim - 1) // 2
        assert chunks == [dim] + [2 * dim] * (pairs // dim) + [2 * (pairs % dim)] * (pairs % dim > 0)
        assert len(recorder[0].calls) == 2 * dim * dim


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 16])
def test_reconstruction_matches_the_chunked_route(dim):
    # one chunk at dim <= 8 draws what the basis-then-pairs chunks draw, to the bit
    for seed in range(10):
        u = sample_haar_unitary(dim, SeedPath(seed).child("one-chunk", dim)).mat
        rng_new = SeedPath(seed).child("one-chunk-shots", dim).rng()
        rng_ref = SeedPath(seed).child("one-chunk-shots", dim).rng()
        new = tg.process_tomography_sampled(lambda v: u @ v, dim, 0.3, 0.2, rng_new)
        old = ref.chunked_sampled_tomography(lambda v: u @ v, dim, 0.3, 0.2, rng_ref)
        assert np.array_equal(new.estimate, old.estimate), seed
        assert new.gram_defect == old.gram_defect
        assert new.queries == old.queries
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
