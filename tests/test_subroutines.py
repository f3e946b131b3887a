"""The crossing recorder and the serial-BLAS guard: both nest and unwind independently."""
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

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


def test_every_bundled_openblas_build_is_found(blas_counts):
    bundled = {
        pkg.__name__
        for pkg in (np, scipy)
        if any((Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs").glob("*openblas*"))
    }
    assert set(blas_counts()) == bundled
    if bundled == {"numpy", "scipy"}:
        # separate builds: numpy's count does not reach scipy.linalg's calls
        _, put = subroutines._openblas_threads()["numpy"]
        put(1)
        assert blas_counts() == {"numpy": 1, "scipy": 2}


@pytest.mark.parametrize("rows,threads", [(8, 1), (512, 2)])
def test_expm_runs_small_matrices_on_one_blas_thread(monkeypatch, blas_counts, rows, threads):
    if "scipy" not in blas_counts():
        pytest.skip("scipy does not bundle OpenBLAS here")
    seen = []
    expm = scipy.linalg.expm

    def spy(mat):
        seen.append(blas_counts()["scipy"])
        return expm(mat)

    rng = np.random.default_rng(3)
    h = rng.normal(size=(rows, rows)) + 1j * rng.normal(size=(rows, rows))
    h = 1j * (h + h.conj().T) / (4 * rows)
    want = expm(h)
    monkeypatch.setattr(scipy.linalg, "expm", spy)
    got = subroutines.expm(h)
    assert seen == [threads]
    assert blas_counts() == dict.fromkeys(blas_counts(), 2)
    assert np.array_equal(got, want)


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
