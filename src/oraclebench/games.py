"""Security games and concentration checks for the keyed-state family.

The indistinguishability game draws a fresh swap-oracle family, lets the
adversary hold the genuine states for two known keys at one input, and
measures the projector onto their span against a uniformly random key. Its
exact advantage over the rank-scaled baseline is compared, draw by draw,
against the query-counting mean bound and the measure-concentration tail
bound. The Lipschitz checks certify the smoothness constants those bounds
rely on, on explicit pairs at mixed distances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import budget, subroutines
from .linalg import schatten_norm
from .haar import sample_haar_unitary
from .oracles import SwapOracleFamily
from .seeds import SeedPath


@dataclass(frozen=True)
class PrfsgGameResult:
    lam: int
    n_draws: int
    t_queries: int
    advantages: np.ndarray
    mean_advantage: float
    mean_bound: float
    tail_threshold: float
    tail_fraction: float
    tail_bound: float


def prfsg_game(lam: int, n_draws: int, seed: SeedPath) -> PrfsgGameResult:
    """Play the span-projector distinguisher against every key, per draw.

    The adversary queries the family at input 0 for the first two keys
    (t_queries = 2) and accepts when the challenge state lies in their span.
    The advantage subtracts the rank/dim baseline a Haar state would give.
    """
    budget.DEFAULT_BUDGET.check_factor(2 * lam, 2**lam, "game key states")
    n = 2 * lam
    dim = 2**n
    n_keys = 2**lam
    t_queries = 2
    advs = np.empty(n_draws)
    for i in range(n_draws):
        fam = SwapOracleFamily(seed.child("draw", i))
        states = [fam.state(n, k << lam).amplitudes for k in range(n_keys)]
        basis, _ = np.linalg.qr(np.stack(states[:t_queries], axis=1))
        overlaps = basis.conj().T @ np.stack(states, axis=1)
        accept = np.sum(np.abs(overlaps) ** 2, axis=0)
        advs[i] = float(np.mean(accept)) - t_queries / dim
    mean_bound = t_queries**2 / 2**lam
    tail_threshold = mean_bound + 2 ** (-lam / 2)
    tail_fraction = float(np.mean(advs >= tail_threshold))
    gap = tail_threshold - mean_bound
    tail_bound = 10 * 2 * math.exp(
        -(2 ** (2 * lam) - 2) * gap**2 / (6144 * t_queries**2)
    )
    return PrfsgGameResult(
        lam,
        n_draws,
        t_queries,
        advs,
        float(np.mean(advs)),
        mean_bound,
        tail_threshold,
        tail_fraction,
        tail_bound,
    )


# ----------------------------------------------------------- smoothness checks


@dataclass(frozen=True)
class LipschitzCheckResult:
    n_pairs: int
    t_queries: int
    constant: float
    max_ratio: float
    violations: int


def _two_query_prob(u: np.ndarray, a: np.ndarray) -> float:
    d = u.shape[0]
    e0 = np.zeros(d, dtype=np.complex128)
    e0[0] = 1.0
    return float(abs(e0.conj() @ (u @ (a @ (u @ e0)))) ** 2)


def _perturbed_pair(d: int, scale: float, seed: SeedPath):
    u = sample_haar_unitary(d, seed.child("u")).mat
    rng = seed.child("h").rng()
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (h + h.conj().T) / 2
    h *= scale / np.linalg.norm(h, 2)
    return u, u @ subroutines.expi(h)


def two_query_lipschitz_check(
    d: int, n_pairs: int, seed: SeedPath
) -> LipschitzCheckResult:
    """|p(U) - p(V)| <= 2T ||U - V||_F for the two-call acceptance probability."""
    t_queries = 2
    const = 2.0 * t_queries
    a = sample_haar_unitary(d, seed.child("fixed")).mat
    max_ratio, violations = 0.0, 0
    for i in range(n_pairs):
        scale = 10 ** (-3 + 3.5 * (i / max(1, n_pairs - 1)))
        u, v = _perturbed_pair(d, scale, seed.child("pair", i))
        dist = float(np.linalg.norm(u - v))
        if dist < 1e-14:
            continue
        gap = abs(_two_query_prob(u, a) - _two_query_prob(v, a))
        ratio = gap / (const * dist)
        max_ratio = max(max_ratio, ratio)
        violations += ratio > 1 + 1e-9
    return LipschitzCheckResult(n_pairs, t_queries, const, max_ratio, violations)


def family_lipschitz_check(
    d: int, n_members: int, n_pairs: int, seed: SeedPath
) -> LipschitzCheckResult:
    """Family version against the combined distance 8T sqrt(sum ||U_m - V_m||^2).

    The acceptance circuit calls the members round-robin for T = 2 n_members
    calls, so every member enters twice.
    """
    t_queries = 2 * n_members
    const = 8.0 * t_queries
    a = sample_haar_unitary(d, seed.child("fixed")).mat

    def prob(members) -> float:
        vec = np.zeros(d, dtype=np.complex128)
        vec[0] = 1.0
        for t in range(t_queries):
            vec = members[t % n_members] @ (a @ vec)
        return float(abs(vec[0]) ** 2)

    max_ratio, violations = 0.0, 0
    for i in range(n_pairs):
        scale = 10 ** (-3 + 3.5 * (i / max(1, n_pairs - 1)))
        us, vs = [], []
        for m in range(n_members):
            u, v = _perturbed_pair(d, scale, seed.child("pair", i).child("m", m))
            us.append(u)
            vs.append(v)
        dist = math.sqrt(
            sum(schatten_norm(u - v, np.inf) ** 2 for u, v in zip(us, vs))
        )
        if dist < 1e-14:
            continue
        gap = abs(prob(us) - prob(vs))
        ratio = gap / (const * dist)
        max_ratio = max(max_ratio, ratio)
        violations += ratio > 1 + 1e-9
    return LipschitzCheckResult(n_pairs, t_queries, const, max_ratio, violations)


@dataclass(frozen=True)
class ConcentrationResult:
    d: int
    n_draws: int
    delta: float
    lipschitz: float
    mean_value: float
    exceed_fraction: float
    bound: float


def haar_concentration_check(
    d: int, n_draws: int, delta: float, seed: SeedPath
) -> ConcentrationResult:
    """Tail of the two-call probability under Haar draws vs the stated bound.

    The bound carries a factor-10 slack and is loose at small d; the check
    certifies it is never violated, not that it is tight.
    """
    lipschitz = 4.0  # frobenius constant of the two-call probability
    a = sample_haar_unitary(d, seed.child("fixed")).mat
    vals = np.array(
        [
            _two_query_prob(sample_haar_unitary(d, seed.child("dr", i)).mat, a)
            for i in range(n_draws)
        ]
    )
    mean = float(np.mean(vals))
    exceed = float(np.mean(np.abs(vals - mean) >= delta))
    bound = 10 * math.exp(-(d - 2) * delta**2 / (24 * lipschitz**2))
    return ConcentrationResult(d, n_draws, delta, lipschitz, mean, exceed, bound)
