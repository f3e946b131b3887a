"""Boundary for the heavy classical subroutines the adversary treats as free.

The modeled attacker hands its spectral work (eigen and singular value
decompositions of explicitly known matrices) to an unboundedly powerful
helper. Numerically these are plain numpy calls, but routing them through
this module makes every crossing recordable, so attack reports can list
exactly which classical helpers were invoked and on what sizes.

The module also holds the guard that runs small BLAS and LAPACK calls on
numpy's OpenBLAS with one thread, and `expi`, the exponential exp(iH) of a
Hermitian matrix that applies it.
"""
from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import threading
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

# the entry lists of the captures open in this context, innermost last
_captures: contextvars.ContextVar[tuple] = contextvars.ContextVar("captures", default=())

# up to this many rows a second OpenBLAS thread makes a LAPACK factorisation
# no faster, and the woken worker would spin beside the Python code that
# follows. On a 2-vCPU x86 VM (OpenBLAS 0.3.31) a 256-row eigh takes 0.031 s
# on one thread and 0.034-0.042 s on two, a 1024-row one 2.2 s against
# 1.2 s; a complex 16384 x 64 QR 0.25 s against 0.21 s, and a 256 x 64
# one 1.3 ms against 2.1 ms.
SERIAL_MAX_ROWS = 256

# top_eigh certifies its eigenvector to this sin(theta), else falls back to
# eigh after this many power steps
TOP_EIGH_SIN_THETA = 1e-13
TOP_EIGH_MAX_STEPS = 200

# one_blas_thread nests and overlaps across threads; the last to leave restores
_serial_lock = threading.Lock()
_serial_users = 0
_serial_saved = 0


@contextmanager
def capture():
    """Collect every boundary crossing made inside the with-block.

    Captures are context-local: a crossing made on another thread (or in
    another asyncio task) reaches only the captures open there.
    """
    entries: list[dict] = []
    token = _captures.set(_captures.get() + (entries,))
    try:
        yield entries
    finally:
        _captures.reset(token)


def _note(op: str, label: str, dim: int) -> None:
    for entries in _captures.get():
        entries.append({"op": op, "label": label, "dim": int(dim)})


def svd(mat: np.ndarray, label: str = ""):
    _note("svd", label, mat.shape[0])
    return np.linalg.svd(mat)


def eigh(mat: np.ndarray, label: str = ""):
    _note("eigh", label, mat.shape[0])
    return np.linalg.eigh(mat)


def top_eigh(mat: np.ndarray, label: str = "") -> tuple[float, np.ndarray]:
    """Top eigenvalue and a unit eigenvector of a Hermitian matrix; one `eigh` crossing.

    Power iteration from the column with the largest real diagonal entry (no
    random start, so callers may share their generator). For the unit
    iterate x let mu = x^H C x, r = |Cx - mu x|, F = |C|_F and lo = mu - r.
    Some eigenvalue lies within r of mu (Weyl), so the top one is at least
    lo and every other is at most sqrt(F^2 - lo^2) in magnitude. Once
    lo > F / sqrt(2) the eigenvalue near mu is the top one, and Davis-Kahan
    bounds the angle between x and its eigenvector by
    sin(theta) <= r / (lo - sqrt(F^2 - lo^2)). The iteration stops when that
    bound is at most TOP_EIGH_SIN_THETA and returns mu with Cx / |Cx|, one
    step closer still (a step multiplies tan(theta) by at most
    sqrt(F^2 - lo^2) / lo < 1). After TOP_EIGH_MAX_STEPS steps it falls back
    to `np.linalg.eigh`.
    """
    with serial_if_small(mat.shape[0]):
        _note("eigh", label, mat.shape[0])
        fro = float(np.linalg.norm(mat))
        x = mat[:, int(np.argmax(mat.diagonal().real))]
        for _ in range(TOP_EIGH_MAX_STEPS):
            size = np.linalg.norm(x)
            if size == 0:
                break
            x = x / size
            y = mat @ x
            mu = float(np.vdot(x, y).real)
            r = float(np.linalg.norm(y - mu * x))
            lo = mu - r
            gap = lo - math.sqrt(max(0.0, fro * fro - lo * lo))
            if lo > fro / math.sqrt(2) and r <= TOP_EIGH_SIN_THETA * gap:
                return mu, y / np.linalg.norm(y)
            x = y
        w, v = np.linalg.eigh(mat)
        return float(w[-1]), v[:, -1]


@functools.cache
def _openblas_threads():
    """(get, set) for the thread count of the OpenBLAS numpy's wheel bundles, else None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextmanager
def one_blas_thread():
    """Run the with-block's LAPACK and BLAS calls on a single OpenBLAS thread.

    Governs the OpenBLAS bundled with numpy, the only one the library calls.
    A woken OpenBLAS worker keeps spinning on another core long after its
    call returns, so a small threaded call taxes the Python code after it.
    The count is process-wide: calls made meanwhile by other threads also
    run serially. A no-op when numpy bundles no OpenBLAS.
    """
    global _serial_users, _serial_saved
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, put = api
    with _serial_lock:
        if _serial_users == 0:
            _serial_saved = get()
            put(1)
        _serial_users += 1
    try:
        yield
    finally:
        with _serial_lock:
            _serial_users -= 1
            if _serial_users == 0:
                put(_serial_saved)


def serial_if_small(rows: int):
    """`one_blas_thread()` for a call on at most SERIAL_MAX_ROWS rows, else a no-op."""
    return one_blas_thread() if rows <= SERIAL_MAX_ROWS else nullcontext()


def expi(h: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian H, or each H of a (..., d, d) stack, by `np.linalg.eigh`;
    one OpenBLAS thread up to SERIAL_MAX_ROWS rows."""
    with serial_if_small(h.shape[-1]):
        w, v = np.linalg.eigh(h)
        return (v * np.exp(1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
