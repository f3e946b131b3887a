"""The crossing recorder and the serial-BLAS guard: both nest and unwind independently."""
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from dense_reference import expi_unguarded
from oraclebench import subroutines


def _labels(entries) -> list:
    return [e["label"] for e in entries]


def test_nested_captures_unwind_by_identity():
    depth = len(subroutines._captures.get())
    with subroutines.capture() as outer:
        with subroutines.capture() as inner:
            subroutines.eigh(np.eye(3), label="inside")
        # outer and inner are equal lists here; only the inner one may go
        subroutines.eigh(np.eye(2), label="between")
    assert _labels(outer) == ["inside", "between"]
    assert _labels(inner) == ["inside"]
    assert len(subroutines._captures.get()) == depth
    subroutines.svd(np.eye(2), label="after")
    assert _labels(inner) == ["inside"] and len(outer) == 2


def test_concurrent_captures_keep_their_own_crossings():
    # both captures are open when either thread crosses
    barrier = threading.Barrier(2, timeout=30)
    got = {}

    def run(label):
        with subroutines.capture() as entries:
            barrier.wait()
            subroutines.eigh(np.eye(2), label=label)
            barrier.wait()
        got[label] = _labels(entries)

    threads = [threading.Thread(target=run, args=(label,)) for label in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert got == {"a": ["a"], "b": ["b"]}


def test_one_blas_thread_nests_and_restores(blas_counts):
    ones, twos = dict.fromkeys(blas_counts(), 1), dict.fromkeys(blas_counts(), 2)
    with subroutines.one_blas_thread():
        assert blas_counts() == ones
        with subroutines.one_blas_thread():
            assert blas_counts() == ones
        # the inner exit must not restore while the outer block still runs
        assert blas_counts() == ones
        subroutines.eigh(np.eye(3), label="serial")
    assert blas_counts() == twos


def test_one_blas_thread_holds_under_overlapping_threads(blas_counts):
    ones, twos = dict.fromkeys(blas_counts(), 1), dict.fromkeys(blas_counts(), 2)
    interval = sys.getswitchinterval()
    outside = []

    def churn():
        for _ in range(200):
            with subroutines.one_blas_thread():
                counts = blas_counts()
                if counts != ones:
                    outside.append(counts)

    workers = [threading.Thread(target=churn) for _ in range(6)]
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
        # a lost update in the user count would restore too early or never
        assert outside == []
        assert blas_counts() == twos
    finally:
        sys.setswitchinterval(interval)


def test_numpys_bundled_openblas_is_found(blas_counts):
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    assert any(libs.glob("*openblas*"))
    get, put = subroutines._openblas_threads()
    put(1)
    assert get() == 1 and blas_counts() == {"numpy": 1}


def _hermitian(rows: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(rows, rows)) + 1j * rng.normal(size=(rows, rows))
    h = (h + h.conj().T) / 2
    return h / np.linalg.norm(h, 2)


@pytest.mark.parametrize("rows,threads", [(8, 1), (512, 2)])
def test_expi_runs_small_matrices_on_one_blas_thread(monkeypatch, blas_counts, rows, threads):
    seen = []
    eigh = np.linalg.eigh

    def spy(mat):
        seen.append(blas_counts()["numpy"])
        return eigh(mat)

    h = _hermitian(rows, 3)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    subroutines.expi(h)
    assert seen == [threads]
    assert blas_counts() == {"numpy": 2}


def test_expi_takes_each_matrix_of_a_stack_on_one_blas_thread(monkeypatch, blas_counts):
    # 300 matrices of 8 rows: the thread decision reads the rows, not the count
    hs = np.stack([_hermitian(8, i) for i in range(300)])
    each = [subroutines.expi(h) for h in hs]
    seen = []
    eigh = np.linalg.eigh

    def spy(mat):
        seen.append(blas_counts()["numpy"])
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    got = subroutines.expi(hs)
    assert seen == [1]
    assert all(np.array_equal(g, e) for g, e in zip(got, each))
    assert np.array_equal(expi_unguarded(hs), got)


# the checks exponentiate at d <= 8 by default; a 256-row eigh on two threads rounds
# differently from one, which is why the pooled reference runs unguarded
@pytest.mark.parametrize("rows", [2, 8, 64, 512])
def test_expi_equals_the_unguarded_eigh_route(blas_counts, rows):
    h = _hermitian(rows, rows)
    assert np.array_equal(subroutines.expi(h), expi_unguarded(h))


@pytest.mark.parametrize("rows", [2, 3, 8, 64, 512])
def test_expi_agrees_with_scipy_expm(rows):
    # scipy's Pade exponential stays here as the dense reference
    h = 3.0 * _hermitian(rows, 10 + rows)
    assert np.max(np.abs(subroutines.expi(h) - scipy.linalg.expm(1j * h))) <= 1e-12


def _random_basis(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _count_eigh(monkeypatch) -> list:
    calls = []
    eigh = np.linalg.eigh

    def spy(mat):
        calls.append(mat.shape[0])
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def test_top_eigh_certifies_rank_one_plus_noise(monkeypatch):
    n = 16
    rng = np.random.default_rng(7)
    u = _random_basis(n, 8)[:, 0]
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    # Hermitian noise on the complement of u, so u stays an exact eigenvector
    proj = np.eye(n) - np.outer(u, u.conj())
    noise = proj @ (g + g.conj().T) @ proj * 0.05
    mat = 4.0 * np.outer(u, u.conj()) + noise
    calls = _count_eigh(monkeypatch)
    with subroutines.capture() as log:
        value, vec = subroutines.top_eigh(mat, label="rank-one")
    assert calls == []
    assert log == [{"op": "eigh", "label": "rank-one", "dim": n}]
    assert abs(value - 4.0) < 1e-12
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-14
    sin_theta = np.linalg.norm(vec - np.vdot(u, vec) * u)
    assert sin_theta <= subroutines.TOP_EIGH_SIN_THETA


def test_top_eigh_falls_back_on_a_degenerate_top_pair(monkeypatch):
    q = _random_basis(3, 9)
    mat = q @ np.diag([1.0, 1.0, 0.5]) @ q.conj().T
    mat = (mat + mat.conj().T) / 2
    w, v = np.linalg.eigh(mat)
    calls = _count_eigh(monkeypatch)
    with subroutines.capture() as log:
        value, vec = subroutines.top_eigh(mat, label="degenerate")
    assert calls == [3]
    assert log == [{"op": "eigh", "label": "degenerate", "dim": 3}]
    assert value == w[-1]
    assert np.array_equal(vec, v[:, -1])
