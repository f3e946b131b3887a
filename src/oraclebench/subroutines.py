"""Boundary for the heavy classical subroutines the adversary treats as free.

The modeled attacker hands its spectral work (eigen and singular value
decompositions of explicitly known matrices) to an unboundedly powerful
helper. Numerically these are plain numpy calls, but routing them through
this module makes every crossing recordable, so attack reports can list
exactly which classical helpers were invoked and on what sizes.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_stack: list[list] = []


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
