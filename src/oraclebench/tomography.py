"""Process tomography for unitary channels, exact and shot-sampled.

The exact route queries the channel on the computational basis and reads the
matrix off column by column. The sampled route prepares basis vectors and
the two-level superpositions (e_j + e_k)/sqrt(2) and (e_j + i e_k)/sqrt(2),
estimates every output density matrix from simulated projective shot counts,
assembles the rank-one column-correlation matrix whose top eigenvector is
the vectorized unitary, and projects the reshaped eigenvector back onto the
unitary group. Both routes fix the global phase canonically.

The sampled route draws, per output state, the diagonal setting and then all
pair settings in one multinomial (pairs a < b row-major, real before
imaginary); that order is part of the one-seed reproducibility contract.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .budget import DEFAULT_BUDGET, Budget
from .linalg import _freeze, as_complex_array
from .seeds import as_generator
from . import subroutines

# calibrated so (dim=2, eps=0.1, eta=0.1) reconstructs within eps in well
# over 9 of 10 runs; see scripts/tomography_calibration.py
C_TOM = 2.0
# largest Frobenius defect of M^dag M - I that exact tomography accepts
ATOL_ISOMETRY = 1e-8


def shot_count(dim: int, eps: float, eta: float, c_tom: float = C_TOM) -> int:
    if not (eps > 0 and 0 < eta < 1):
        raise ValueError("need eps > 0 and eta in (0, 1)")
    return math.ceil(c_tom * dim**3 / eps**2 * math.log(dim / eta + 1.0))


def nearest_unitary(mat: np.ndarray) -> np.ndarray:
    """Closest isometry in Frobenius norm, via the polar decomposition."""
    w, _, xh = subroutines.svd(as_complex_array(mat), label="polar")
    k = min(mat.shape)
    return w[:, :k] @ xh[:k, :]


def canonical_phase(mat: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is real positive."""
    m = as_complex_array(mat)
    flat = np.abs(m).ravel()
    top = m.ravel()[int(np.argmax(flat))]
    if abs(top) < 1e-15:
        return m
    return m * (abs(top) / top)


def phase_aligned_distance(a: np.ndarray, b: np.ndarray, ord=2) -> float:
    """Distance between matrices after minimizing over a global phase."""
    a = as_complex_array(a)
    b = as_complex_array(b)
    tr = np.trace(b.conj().T @ a)
    ph = tr / abs(tr) if abs(tr) > 1e-15 else 1.0
    return float(np.linalg.norm(a - ph * b, ord))


@dataclass(frozen=True)
class TomographyResult:
    estimate: np.ndarray
    mode: str
    queries: int
    gram_defect: float
    shots_per_setting: int = 0


def process_tomography_exact(apply_fn, dim: int) -> TomographyResult:
    """Read the matrix off basis columns; faults unless it is an isometry."""
    cols = []
    for j in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[j] = 1.0
        cols.append(as_complex_array(apply_fn(e)))
    m = np.stack(cols, axis=1)
    defect = float(np.linalg.norm(m.conj().T @ m - np.eye(dim)))
    if defect > ATOL_ISOMETRY:
        raise ValueError(f"channel output is not isometric, gram defect {defect:.3g}")
    est = canonical_phase(nearest_unitary(m))
    return TomographyResult(est, "exact", dim, defect)


def _pair_inputs(dim: int, j: int, k: int):
    ep = np.zeros(dim, dtype=np.complex128)
    ep[j] = ep[k] = 1 / math.sqrt(2)
    ei = np.zeros(dim, dtype=np.complex128)
    ei[j] = 1 / math.sqrt(2)
    ei[k] = 1j / math.sqrt(2)
    return ep, ei


@lru_cache(maxsize=None)
def _pair_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every pair a < b, row-major; built once per dim."""
    a, b = np.triu_indices(d, 1)
    return _freeze(a), _freeze(b)


def _sampled_density(psi: np.ndarray, shots: int, rng) -> np.ndarray:
    """Shot-simulated state tomography of the pure output psi.

    One computational-basis setting covers the diagonal; each off-diagonal
    entry takes two pair settings (real and imaginary observables), sampled
    from the exact three-outcome distribution of the +1/-1/0 eigenspaces.

    Draw order (one-seed contract): the diagonal setting, then one batched
    multinomial over the pairs a < b row-major, real setting before imaginary.
    """
    d = psi.size
    est = np.zeros((d, d), dtype=np.complex128)
    diag = rng.multinomial(shots, _clean_probs(np.abs(psi) ** 2)) / shots
    np.fill_diagonal(est, diag)
    a, b = _pair_indices(d)
    pa, pb = psi[a], psi[b]
    z = np.stack([pa + pb, pa - pb, pa - 1j * pb, pa + 1j * pb], axis=-1).reshape(-1, 2, 2)
    # |z|^2 / 2 as the scalar abs(z) ** 2 rounds it: hypot, then libm pow
    # (numpy's vectorized abs and square differ from those in the last bit)
    p = (np.hypot(z.real, z.imag).astype(object) ** 2).astype(np.float64) / 2
    probs = np.concatenate([p, np.maximum(0.0, 1 - p[..., :1] - p[..., 1:])], axis=-1)
    n = rng.multinomial(shots, _clean_probs(probs))
    # x estimates 2 Re rho_ab, y estimates -2 Im rho_ab
    x, y = ((n[..., 0] - n[..., 1]) / shots).T
    est[a, b] = (x - 1j * y) / 2
    est[b, a] = np.conj(est[a, b])
    return est


def _clean_probs(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 0.0, None)
    return p / np.sum(p, axis=-1, keepdims=True)


def process_tomography_sampled(
    apply_fn,
    dim: int,
    eps: float,
    eta: float,
    seed,
    c_tom: float = C_TOM,
    budget: Budget = DEFAULT_BUDGET,
) -> TomographyResult:
    """Estimate a unitary to spectral error eps (up to phase) from shot counts."""
    budget.check_dense_matrix(math.ceil(math.log2(dim * dim)), "sampled tomography correlation")
    rng = as_generator(seed)
    shots = shot_count(dim, eps, eta, c_tom)
    outs = []
    for j in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[j] = 1.0
        outs.append(as_complex_array(apply_fn(e)))
    singles = [_sampled_density(psi, shots, rng) for psi in outs]

    # column-correlation blocks: C[j, k] = u_j u_k^dag, from the identities
    #   u_j u_k^dag + u_k u_j^dag = 2 rho_plus - rho_j - rho_k
    #   u_j u_k^dag - u_k u_j^dag = i (2 rho_imag - rho_j - rho_k)
    corr = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    n_inputs = dim
    for j in range(dim):
        corr[j * dim:(j + 1) * dim, j * dim:(j + 1) * dim] = singles[j]
    for j in range(dim):
        for k in range(j + 1, dim):
            ep, ei = _pair_inputs(dim, j, k)
            rho_p = _sampled_density(as_complex_array(apply_fn(ep)), shots, rng)
            rho_i = _sampled_density(as_complex_array(apply_fn(ei)), shots, rng)
            n_inputs += 2
            s = 2 * rho_p - singles[j] - singles[k]
            t = 1j * (2 * rho_i - singles[j] - singles[k])
            block = (s + t) / 2
            corr[j * dim:(j + 1) * dim, k * dim:(k + 1) * dim] = block
            corr[k * dim:(k + 1) * dim, j * dim:(j + 1) * dim] = block.conj().T

    corr = (corr + corr.conj().T) / 2
    with subroutines.serial_if_small(dim * dim):
        w, v = subroutines.eigh(corr, label="tomo-correlation")
    top = v[:, -1] * math.sqrt(dim)
    m = top.reshape(dim, dim).T
    est = canonical_phase(nearest_unitary(m))
    gram = float(np.linalg.norm(m.conj().T @ m - np.eye(dim)))
    # every shot of every measurement setting consumes one channel query
    settings_per_state = 1 + dim * (dim - 1)
    queries = n_inputs * settings_per_state * shots
    return TomographyResult(est, "sampled", queries, gram, shots)
