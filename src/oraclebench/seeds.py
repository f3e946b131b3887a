"""Deterministic seed derivation.

A SeedPath is a master integer plus a path of (label, index) hops. Every
random draw in the package pulls its generator from a SeedPath, so any run is
reproducible from the master seed alone and independent draws stay independent
no matter what order they are evaluated in.

`path.rng()` defines a path's generator. A batch derives the same generators
as `path.rng()` in one pass (`generators`), or draws their Gaussians as one
block (`normals`).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence


@dataclass(frozen=True)
class SeedPath:
    master: int
    path: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def child(self, label: str, index: int = 0) -> "SeedPath":
        if not label:
            raise ValueError("seed path label must be nonempty")
        return SeedPath(self.master, self.path + ((label, int(index)),))

    def describe(self) -> str:
        hops = "/".join(f"{lab}:{idx}" for lab, idx in self.path)
        return f"{self.master}/{hops}" if hops else str(self.master)

    def mixed(self) -> int:
        # 64-bit digest of the canonical path encoding
        h = hashlib.blake2b(digest_size=8)
        h.update(int(self.master).to_bytes(16, "little", signed=True))
        for lab, idx in self.path:
            h.update(lab.encode("utf-8"))
            h.update(b"\x00")
            h.update(int(idx).to_bytes(16, "little", signed=True))
            h.update(b"\x01")
        return int.from_bytes(h.digest(), "little")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.mixed())


def as_generator(seed: "SeedPath | np.random.Generator | int") -> np.random.Generator:
    """Accept a SeedPath, a ready generator, or a bare int."""
    if isinstance(seed, SeedPath):
        return seed.rng()
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))


# ------------------------------------------------------------- batch derivation

# numpy's SeedSequence hash constants: hashmix k xors in A_k and multiplies by A_(k+1), and
# output word k xors in B_k and multiplies by B_(k+1)
_A = np.array([0x43B0D7E5 * pow(0x931E8875, k, 2**32) % 2**32 for k in range(17)], dtype=np.uint32)
_B = np.array([0x8B51F9DD * pow(0x58F38DED, k, 2**32) % 2**32 for k in range(9)], dtype=np.uint32)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of the rows of v, row k with consts k and k + 1."""
    v = (v ^ consts[:-1, None]) * consts[1:, None]
    return v ^ (v >> 16)


def _seed_words(digests: np.ndarray) -> np.ndarray:
    """Row i is np.random.SeedSequence(digests[i]).generate_state(4, np.uint64), for 64-bit
    digests. The digest's two 32-bit words fill the 4-word pool (a zero high word hashes as
    the absent one does), which is mixed word by word as SeedSequence mixes it."""
    pool = np.zeros((4, len(digests)), dtype=np.uint32)
    pool[0], pool[1] = digests & 0xFFFFFFFF, digests >> 32
    pool = _hashmix(pool, _A[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        r = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[[src] * 3], _A[4 + 3 * src : 8 + 3 * src])
        pool[dst] = r ^ (r >> 16)
    out = _hashmix(pool[[0, 1, 2, 3] * 2], _B).astype(np.uint64)
    return np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)


class _SeedWords(ISeedSequence):
    """A seed sequence whose state is four ready uint64 words, all PCG64 asks for; it cannot spawn."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generators(paths) -> list[np.random.Generator]:
    """[p.rng() for p in paths], derived in one pass: numpy's seed mixing runs over all the
    paths' digests at once, and each PCG64 takes its four words directly."""
    words = _seed_words(np.array([p.mixed() for p in paths], dtype=np.uint64))
    return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]


def normals(paths, n: int) -> np.ndarray:
    """A (len(paths), n) block whose row i is paths[i].rng().standard_normal(n). One generator's
    successive standard_normal calls read on along its stream: consecutive pieces of its row."""
    out = np.empty((len(paths), n))
    for g, row in zip(generators(paths), out):
        g.standard_normal(out=row)
    return out
