"""Boundary for the heavy classical subroutines the adversary treats as free.

The modeled attacker hands its spectral work (eigen and singular value
decompositions of explicitly known matrices) to an unboundedly powerful
helper. Numerically these are plain numpy calls, but routing them through
this module makes every crossing recordable, so attack reports can list
exactly which classical helpers were invoked and on what sizes.
"""
from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

_stack: list[list] = []

# up to this many rows a second OpenBLAS thread makes a LAPACK factorisation
# no faster, and the woken worker would spin beside the Python code that
# follows. On a 2-vCPU x86 VM (OpenBLAS 0.3.31) a 256-row eigh takes 0.031 s
# on one thread and 0.034-0.042 s on two, a 1024-row one 2.2 s against
# 1.2 s; a complex 16384 x 64 QR 0.25 s against 0.21 s, and a 256 x 64
# one 1.3 ms against 2.1 ms.
SERIAL_MAX_ROWS = 256

# one_blas_thread nests and overlaps across threads; the last to leave restores
_serial_lock = threading.Lock()
_serial_users = 0
_serial_saved = 0


@contextmanager
def capture():
    """Collect every boundary crossing made inside the with-block."""
    entries: list[dict] = []
    _stack.append(entries)
    try:
        yield entries
    finally:
        # by identity: list equality would match another capture's entries
        del _stack[next(i for i, e in enumerate(_stack) if e is entries)]


def _note(op: str, label: str, dim: int) -> None:
    for entries in _stack:
        entries.append({"op": op, "label": label, "dim": int(dim)})


def svd(mat: np.ndarray, label: str = ""):
    _note("svd", label, mat.shape[0])
    return np.linalg.svd(mat)


def eigh(mat: np.ndarray, label: str = ""):
    _note("eigh", label, mat.shape[0])
    return np.linalg.eigh(mat)


@functools.cache
def _openblas_threads():
    """(get, set) for the thread count of the OpenBLAS a numpy wheel bundles, else None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype = ctypes.c_int
                    return get, put
    return None


@contextmanager
def one_blas_thread():
    """Run the with-block's numpy LAPACK calls on a single OpenBLAS thread.

    A woken OpenBLAS worker keeps spinning on another core long after its
    call returns, so a small threaded call taxes the Python code after it.
    The count is process-wide: calls made meanwhile by other threads also
    run serially. A no-op where no bundled OpenBLAS is found.
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
