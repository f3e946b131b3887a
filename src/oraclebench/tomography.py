"""Process tomography for unitary channels, exact and shot-sampled.

The exact route queries the channel on the computational basis, one query
per basis vector, and reads the matrix off the outputs as its columns. The
sampled route prepares basis vectors and the two-level superpositions
(e_j + e_k)/sqrt(2) and (e_j + i e_k)/sqrt(2), estimates every output
density matrix from simulated projective shot counts, assembles the
rank-one column-correlation matrix whose top eigenvector is the vectorized
unitary, and projects the reshaped eigenvector back onto the unitary group.
It queries and samples in chunks of states, with one vectorized probability
pass per chunk (a pair setting's |z|^2 taken as re^2 + im^2), and takes the
top eigenvector by a certified power iteration (`subroutines.top_eigh`), not
a full eigendecomposition. Both routes fix the global phase canonically.

The sampled route draws, per output state, the diagonal setting and then all
pair settings (pairs a < b row-major, real before imaginary); that order is
part of the one-seed reproducibility contract. Up to PADDED_MAX_DIM all dim^2
states are one chunk, whose draws reach numpy as one multinomial call over
zero-padded rows; past it the chunks hold the basis, then dim pairs at a
time, and each state takes two calls. Both give the same counts from the
same generator state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import budget
from .linalg import _freeze, as_complex_array
from .seeds import as_generator
from . import subroutines

# calibrated so (dim=2, eps=0.1, eta=0.1) reconstructs within eps in well
# over 9 of 10 runs; see scripts/tomography_calibration.py
C_TOM = 2.0
# largest Frobenius defect of M^dag M - I that exact tomography accepts
ATOL_ISOMETRY = 1e-8
# up to this dim a chunk's draws go to numpy as one zero-padded multinomial
# call, past it as two calls per state, each with ~4.7 us of fixed cost. On a
# 2-vCPU x86 VM (numpy 2.4.6; medians of 200 alternating calls, two runs) a
# 16-state chunk at dim 8 samples in 0.61-0.65 ms padded against 0.89-0.92 ms
# in calls; a 32-state chunk at dim 16 in 4.7-6.0 ms padded against 3.6-4.7
# ms, its zero columns costing more than the calls they save. Up to this dim a
# reconstruction's dim^2 states are also one chunk: at dim 8 and eps = 0.025 a
# reconstruction took 3.36 ms against 4.11 ms in basis-then-pairs chunks (medians
# of 40 alternating pairs, 40 won); at dim 16 one chunk would hold 256 states.
PADDED_MAX_DIM = 8


def shot_count(dim: int, eps: float, eta: float, c_tom: float = C_TOM) -> int:
    for name, value, ok in [("dim", dim, dim >= 1), ("eps", eps, 0 < eps < math.inf),
                            ("eta", eta, 0 < eta < 1), ("c_tom", c_tom, 0 < c_tom < math.inf)]:
        if not ok:
            raise ValueError(f"{name}={value!r}: need dim >= 1, 0 < eps < inf, 0 < eta < 1, 0 < c_tom < inf")
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
    """Read the matrix off basis columns, one query each; faults unless it is an isometry."""
    m = _query(apply_fn, np.eye(dim, dtype=np.complex128)).T
    defect = float(np.linalg.norm(m.conj().T @ m - np.eye(dim)))
    if defect > ATOL_ISOMETRY:
        raise ValueError(f"channel output is not isometric, gram defect {defect:.3g}")
    est = canonical_phase(nearest_unitary(m))
    return TomographyResult(est, "exact", dim, defect)


@lru_cache(maxsize=None)
def _pair_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every pair a < b, row-major; built once per dim."""
    a, b = np.triu_indices(d, 1)
    return _freeze(a), _freeze(b)


def _query(apply_fn, inputs: np.ndarray) -> np.ndarray:
    """The channel's output on each input row, one query per row, in row order."""
    return as_complex_array(np.stack([apply_fn(v) for v in inputs]), "channel output")


def _sampled_densities(psi: np.ndarray, shots: int, rng) -> np.ndarray:
    """Shot-simulated state tomography of each pure output row of psi.

    One computational-basis setting covers the diagonal; each off-diagonal
    entry takes two pair settings (real and imaginary observables), sampled
    from the exact three-outcome distribution of the +1/-1/0 eigenspaces.
    The probabilities of every row are computed in one pass.

    Draw order (one-seed contract): row by row, the diagonal setting, then
    the pairs a < b row-major, real setting before imaginary. Up to
    PADDED_MAX_DIM the whole chunk is one multinomial call over rows padded
    to a common width; past it each row takes one call for its diagonal and
    one for its pairs.
    """
    # numpy sums a row pairwise only along the contiguous axis, as for one state
    psi = np.ascontiguousarray(psi)
    n, d = psi.shape
    a, b = _pair_indices(d)
    ar, ai, br, bi = psi.real[:, a], psi.imag[:, a], psi.real[:, b], psi.imag[:, b]
    # probs[i, q, s, o] is |z|^2 / 2 for outcome o (+1, -1) of setting s of pair q:
    # z = pa + pb, pa - pb in the real setting and pa - i pb, pa + i pb in the
    # imaginary one. Multiplying by i only swaps and negates parts, so these
    # real sums equal the complex ones bit for bit. |z|^2 is x*x + y*y of the
    # parts: squares, because they need no libm call (hypot, pow) as |z| ** 2 does.
    probs = np.empty((n, a.size, 2, 3))
    parts = [(ar + br, ai + bi), (ar - br, ai - bi), (ar + bi, ai - br), (ar - bi, ai + br)]
    for (s, o), (x, y) in zip(np.ndindex(2, 2), parts):
        probs[..., s, o] = (x * x + y * y) / 2
    # the third outcome, 0, takes the rest; each row is renormalized by its sum
    # taken as numpy sums three terms, (p0 + p1) + p2
    np.maximum(0.0, 1 - probs[..., 0] - probs[..., 1], out=probs[..., 2])
    probs /= ((probs[..., 0] + probs[..., 1]) + probs[..., 2])[..., None]
    # np.abs (hypot) fixes these draws: a probability at 1/2 moved 1 ulp can flip numpy's binomial branch
    diags = np.abs(psi) ** 2
    diags /= np.sum(diags, axis=-1, keepdims=True)
    if d <= PADDED_MAX_DIM:
        # one call: each state's diagonal row, then its pair rows, each
        # right-aligned after zero columns. numpy draws a zero-probability
        # category as 0 without touching the generator and the remaining mass
        # stays exactly 1, so the counts and the generator's end state are
        # those of the per-state calls below.
        w = max(d, 3)
        pvals = np.zeros((n, 1 + 2 * a.size, w))
        pvals[:, 0, w - d:] = diags
        pvals[:, 1:, w - 3:] = probs.reshape(n, -1, 3)
        counts = rng.multinomial(shots, pvals)
        diag_counts = counts[:, 0, w - d:]
        pair_counts = counts[:, 1:, w - 3:].reshape(probs.shape)
    else:
        diag_counts = np.empty(diags.shape, dtype=np.int64)
        pair_counts = np.empty(probs.shape, dtype=np.int64)
        for i in range(n):
            diag_counts[i] = rng.multinomial(shots, diags[i])
            pair_counts[i] = rng.multinomial(shots, probs[i])
    est = np.zeros((n, d, d), dtype=np.complex128)
    idx = np.arange(d)
    est[:, idx, idx] = diag_counts / shots
    # x estimates 2 Re rho_ab, y estimates -2 Im rho_ab
    x, y = np.moveaxis((pair_counts[..., 0] - pair_counts[..., 1]) / shots, -1, 0)
    upper = (x - 1j * y) / 2
    est[:, a, b] = upper
    est[:, b, a] = np.conj(upper)
    return est


def _pair_inputs(dim: int, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(e_j + e_k)/sqrt(2) then (e_j + i e_k)/sqrt(2) for each pair, as rows."""
    h = 1 / math.sqrt(2)
    rows = np.arange(j.size)
    inputs = np.zeros((j.size, 2, dim), dtype=np.complex128)
    inputs[rows, :, j] = h
    inputs[rows, 0, k] = h
    inputs[rows, 1, k] = 1j * h
    return inputs.reshape(-1, dim)


def process_tomography_sampled(
    apply_fn, dim: int, eps: float, eta: float, seed, c_tom: float = C_TOM
) -> TomographyResult:
    """Estimate a unitary to spectral error eps (up to phase) from shot counts.

    The inputs are queried in order, the dim basis vectors, then two states per
    pair, and sampled in chunks. Up to PADDED_MAX_DIM all dim^2 of them are one
    chunk: one probability pass, one multinomial call and one block assembly.
    Past it the basis is one chunk and the pairs follow dim (2 dim states) at a
    time, so a chunk holds O(dim^3) numbers against the dim^4 of the
    correlation matrix. Both give the same draws from the same generator.
    """
    qubits = math.ceil(math.log2(dim * dim))
    budget.DEFAULT_BUDGET.check_dense_matrix(qubits, "sampled tomography correlation")
    rng = as_generator(seed)
    shots = shot_count(dim, eps, eta, c_tom)

    def sampled(inputs):
        return _sampled_densities(_query(apply_fn, inputs), shots, rng)

    basis = np.eye(dim, dtype=np.complex128)
    a, b = _pair_indices(dim)
    if dim <= PADDED_MAX_DIM:
        rho = sampled(np.concatenate([basis, _pair_inputs(dim, a, b)]))
        singles, pairs = rho[:dim], [(a, b, rho[dim:])]
    else:
        singles = sampled(basis)
        # a generator: each chunk is queried and sampled once the one before is assembled
        pairs = (
            (a[q:q + dim], b[q:q + dim], sampled(_pair_inputs(dim, a[q:q + dim], b[q:q + dim])))
            for q in range(0, a.size, dim)
        )
    # column-correlation blocks C[j, k] = u_j u_k^dag, as blocks[j, :, k, :], from
    #   u_j u_k^dag + u_k u_j^dag = 2 rho_plus - rho_j - rho_k
    #   u_j u_k^dag - u_k u_j^dag = i (2 rho_imag - rho_j - rho_k)
    # every block is written with its exact Hermitian mirror
    corr = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    blocks = corr.reshape(dim, dim, dim, dim)
    blocks[np.arange(dim), :, np.arange(dim), :] = singles
    for j, k, rho in pairs:
        rho = rho.reshape(j.size, 2, dim, dim)
        s = 2 * rho[:, 0] - singles[j] - singles[k]
        t = 1j * (2 * rho[:, 1] - singles[j] - singles[k])
        block = (s + t) / 2
        blocks[j, :, k, :] = block
        blocks[k, :, j, :] = block.conj().transpose(0, 2, 1)

    _, top = subroutines.top_eigh(corr, label="tomo-correlation")
    m = (top * math.sqrt(dim)).reshape(dim, dim).T
    est = canonical_phase(nearest_unitary(m))
    gram = float(np.linalg.norm(m.conj().T @ m - np.eye(dim)))
    # dim^2 input states (the basis, two per pair); every shot of every
    # measurement setting consumes one channel query
    settings_per_state = 1 + dim * (dim - 1)
    queries = dim * dim * settings_per_state * shots
    return TomographyResult(est, "sampled", queries, gram, shots)
