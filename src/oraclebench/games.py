"""Security games and concentration checks for the keyed-state family.

The indistinguishability game draws a fresh swap-oracle family, lets the
adversary hold the genuine states for two known keys at one input, and
measures the projector onto their span against a uniformly random key. Its
exact advantage over the rank-scaled baseline is compared, draw by draw,
against the query-counting mean bound and the measure-concentration tail
bound. The Lipschitz checks certify the smoothness constants those bounds
rely on, on explicit pairs at mixed distances.

Each check runs its trials as stacks. Trial i draws its Gaussians from its
own SeedPath child, in the order a lone trial would, so every number
follows from the one seed whatever the grouping; a chunk draws them as one
block (`linalg.complex_normals`), and the QR, validation,
spectral norms, exp(iH) and acceptance products then run once per
(trials, d, d) stack. `_stacked` cuts the trials into chunks of at least one
trial whose stacks hold no more entries than `budget.DEFAULT_BUDGET` lets
one factor hold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import budget, subroutines
from .haar import sample_haar_unitaries, sample_haar_unitary
from .linalg import check_state_norms, complex_normals, row_norms
from .oracles import SwapOracleFamily
from .seeds import SeedPath


def _stacked(n_trials: int, entries: int, fn) -> np.ndarray:
    """fn(trial indices) over budget-sized chunks of range(n_trials), `entries` per trial, joined."""
    return np.concatenate([fn(idx) for idx in budget.DEFAULT_BUDGET.chunks(n_trials, entries)])


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
    budget.DEFAULT_BUDGET.check_factor(2 * lam, 1, "game key states", lam)
    n = 2 * lam
    dim = 2**n
    n_keys = 2**lam
    t_queries = 2

    def advantages(draws) -> np.ndarray:
        fams = [SwapOracleFamily(seed.child("draw", i)) for i in draws]
        (z,) = complex_normals([f.state_seed(n, k << lam) for f in fams for k in range(n_keys)], (dim,))
        states = (z / row_norms(z)[:, None]).reshape(len(draws), n_keys, dim)
        check_state_norms(states)
        cols = np.swapaxes(states, -1, -2)
        basis, _ = np.linalg.qr(cols[..., :t_queries])
        accept = np.sum(np.abs(np.swapaxes(basis.conj(), -1, -2) @ cols) ** 2, axis=-2)
        return np.mean(accept, axis=-1) - t_queries / dim

    advs = _stacked(n_draws, n_keys * dim, advantages)
    mean_bound = t_queries**2 / 2**lam
    tail_threshold = mean_bound + 2 ** (-lam / 2)
    tail_fraction = float(np.mean(advs >= tail_threshold))
    gap = tail_threshold - mean_bound
    tail_bound = 10 * 2 * math.exp(-(2 ** (2 * lam) - 2) * gap**2 / (6144 * t_queries**2))
    return PrfsgGameResult(
        lam, n_draws, t_queries, advs, float(np.mean(advs)),
        mean_bound, tail_threshold, tail_fraction, tail_bound,
    )


# ----------------------------------------------------------- smoothness checks


@dataclass(frozen=True)
class LipschitzCheckResult:
    n_pairs: int
    t_queries: int
    constant: float
    max_ratio: float
    violations: int


def _two_query_probs(us: np.ndarray, a: np.ndarray) -> np.ndarray:
    """|<0| U A U |0>|^2 for each U of a (n, d, d) stack."""
    return np.abs((us[:, :1, :] @ (a @ us[:, :, :1]))[:, 0, 0]) ** 2


def _perturbed_pairs(d: int, n_pairs: int, trials: list):
    """Stacks U and V = U exp(iH), one per (i, seed) trial: a Haar U and a Hermitian H of
    spectral norm 10^(-3 + 3.5 i / (n_pairs - 1)), so pair distances sweep 1e-3 to 10^0.5."""
    scales = np.array([10 ** (-3 + 3.5 * (i / max(1, n_pairs - 1))) for i, _ in trials])
    u = sample_haar_unitaries(d, [s.child("u") for _, s in trials])
    (h,) = complex_normals([s.child("h") for _, s in trials], (d, d))
    h = (h + np.swapaxes(h.conj(), -1, -2)) / 2
    h *= (scales / np.linalg.norm(h, 2, axis=(-2, -1)))[:, None, None]
    return u, u @ subroutines.expi(h)


def lipschitz_pairs(
    n_pairs: int, t_queries: int, const: float, entries: int, gap_dist
) -> LipschitzCheckResult:
    """Largest gap / (const dist), and the count above 1 + 1e-9, over the pairs at distance
    at least 1e-14; gap_dist maps a chunk of pair indices to their (gaps, distances)."""

    def ratios(pairs) -> np.ndarray:
        gap, dist = gap_dist(pairs)
        keep = dist >= 1e-14
        return gap[keep] / (const * dist[keep])

    r = _stacked(n_pairs, entries, ratios)
    worst, violations = float(np.max(r, initial=0.0)), int(np.sum(r > 1 + 1e-9))
    return LipschitzCheckResult(n_pairs, t_queries, const, worst, violations)


def two_query_lipschitz_check(d: int, n_pairs: int, seed: SeedPath) -> LipschitzCheckResult:
    """|p(U) - p(V)| <= 2T ||U - V||_F for the two-call acceptance probability."""
    t_queries = 2
    a = sample_haar_unitary(d, seed.child("fixed")).mat

    def gap_dist(pairs):
        u, v = _perturbed_pairs(d, n_pairs, [(i, seed.child("pair", i)) for i in pairs])
        return np.abs(_two_query_probs(u, a) - _two_query_probs(v, a)), np.linalg.norm(u - v, axis=(-2, -1))

    return lipschitz_pairs(n_pairs, t_queries, 2.0 * t_queries, d * d, gap_dist)


def family_lipschitz_check(d: int, n_members: int, n_pairs: int, seed: SeedPath) -> LipschitzCheckResult:
    """Family version against the combined distance 8T sqrt(sum ||U_m - V_m||^2).

    The acceptance circuit calls the members round-robin for T = 2 n_members
    calls, so every member enters twice.
    """
    t_queries = 2 * n_members
    a = sample_haar_unitary(d, seed.child("fixed")).mat

    def probs(members: np.ndarray) -> np.ndarray:
        vec = np.zeros((members.shape[0], d, 1), dtype=np.complex128)
        vec[:, 0] = 1.0
        for t in range(t_queries):
            vec = members[:, t % n_members] @ (a @ vec)
        return np.abs(vec[:, 0, 0]) ** 2

    def gap_dist(pairs):
        trials = [(i, seed.child("pair", i).child("m", m)) for i in pairs for m in range(n_members)]
        u, v = (x.reshape(len(pairs), n_members, d, d) for x in _perturbed_pairs(d, n_pairs, trials))
        dist = np.sqrt(np.sum(np.linalg.norm(u - v, 2, axis=(-2, -1)) ** 2, axis=-1))
        return np.abs(probs(u) - probs(v)), dist

    return lipschitz_pairs(n_pairs, t_queries, 8.0 * t_queries, n_members * d * d, gap_dist)


@dataclass(frozen=True)
class ConcentrationResult:
    mean_value: float
    exceed_fraction: float
    bound: float


def haar_concentration_check(d: int, n_draws: int, delta: float, seed: SeedPath) -> ConcentrationResult:
    """Tail of the two-call probability under Haar draws vs the stated bound.

    The bound carries a factor-10 slack and is loose at small d; the check
    certifies it is never violated, not that it is tight.
    """
    lipschitz = 4.0  # frobenius constant of the two-call probability
    a = sample_haar_unitary(d, seed.child("fixed")).mat
    def values(draws) -> np.ndarray:
        return _two_query_probs(sample_haar_unitaries(d, [seed.child("dr", i) for i in draws]), a)

    vals = _stacked(n_draws, d * d, values)
    mean = float(np.mean(vals))
    exceed = float(np.mean(np.abs(vals - mean) >= delta))
    bound = 10 * math.exp(-(d - 2) * delta**2 / (24 * lipschitz**2))
    return ConcentrationResult(mean, exceed, bound)
