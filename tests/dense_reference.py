"""Dense reference routes that only the tests use.

Each function here is an independent, slower way to compute something the
library computes another way: a Monte Carlo twirl, the dense block-encoding
unitary, a keyed Choi state built densely from its factor and the
block-encoded singular-value threshold test run on it, explicit subsystem
permutation matrices, register permutations as tuples composed, inverted and
cycle-counted one pair at a time, with their index maps by digit arithmetic,
their dense operators and the Gram matrix from their cycle counts, a circuit's unitary
evaluated one basis column at a time with each swap call a matrix-free rank-2
update of the index blocks it touches (`apply_swap_call`), a candidate's Kraus operators sliced
off its Stinespring unitary and their Choi vectors built by a chain of
`np.kron` products, the threshold polynomial built by `chebinterpolate` and
certified on the full grid at every degree, the checks run on a thread pool
instead of one after another (with exp(iH) taken outside the one-thread
BLAS guard), sampled process tomography one
measurement setting at a time with a full `eigh` (its pair probabilities rounded as
the library rounds them, or through libm as it once did), and in chunks of at most
2 dim states at every dim, the Monte Carlo
checks the library runs as stacks run one trial at a time, the one-call
closeness built from both full circuit unitaries and a dense `np.kron` of the call,
the trace distance and density check by one dense `eigvalsh` of the whole matrix
rather than block by block, the ricochet residual from two `np.kron` builds, and
report dicts by `dataclasses.asdict`'s recursive copy.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
from numpy.polynomial import chebyshev as cheb
from scipy.special import erf, erfinv

from oraclebench.adversary import ChoiFactor
from oraclebench.blockenc import (
    GRID_POINTS,
    BlockEncoding,
    ThresholdPoly,
    complete_to_unitary,
    encode_density,
    svd_discriminate,
)
from oraclebench import budget, subroutines
from oraclebench.games import ConcentrationResult, LipschitzCheckResult
from oraclebench.haar import sample_haar_unitary
from oraclebench.harness import LemmaCheckResult, Report, _listed, _rand_density, lemma_check
from oraclebench.linalg import (
    EIG_FLOOR,
    DensityMatrix,
    PureState,
    UnitaryMatrix,
    _as_mat,
    all_perms,
    apply_on_wires,
    ginibre,
    omega_vector,
    random_state_from,
    random_unitary_from,
    schatten_norm,
    trace_distance,
    transpose_identity_residual,
)
from oraclebench.oracles import (
    FixedGate,
    HriOracleFamily,
    OracleCall,
    OracleCircuit,
    SwapOracleFamily,
)
from oraclebench.seeds import SeedPath, as_generator
from oraclebench import tomography
from oraclebench.tomography import C_TOM, TomographyResult, canonical_phase, nearest_unitary, shot_count


def twirl_mc(rho, d: int, ell: int, samples: int, seed) -> DensityMatrix:
    """Finite-sample estimate of the Haar twirl, one unitary per sample."""
    mat = _as_mat(rho)
    a = d**ell
    r = mat.shape[0] // a
    rng = as_generator(seed)
    m4 = mat.reshape(a, r, a, r)
    acc = np.zeros_like(m4)
    for _ in range(samples):
        u = random_unitary_from(rng, d)
        ul = u
        for _ in range(ell - 1):
            ul = np.kron(ul, u)
        t = np.tensordot(ul, m4, axes=([1], [0]))
        t = np.tensordot(t, ul.conj(), axes=([2], [1]))
        acc += np.moveaxis(t, 3, 2)
    return DensityMatrix((acc / samples).reshape(mat.shape))


def subsystem_perm_matrix(dims: list[int], perm: list[int]) -> np.ndarray:
    """Permutation matrix P with P |x_0 x_1 ...> = |x_perm[0] x_perm[1] ...>."""
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ValueError("perm must be a permutation of the subsystem indices")
    total = math.prod(dims)
    idx = np.arange(total)
    digits = []
    rem = idx
    for d in reversed(dims):
        digits.append(rem % d)
        rem = rem // d
    digits = digits[::-1]
    new_dims = [dims[p] for p in perm]
    new_idx = np.zeros(total, dtype=np.int64)
    for j, p in enumerate(perm):
        new_idx = new_idx * new_dims[j] + digits[p]
    mat = np.zeros((total, total), dtype=np.complex128)
    mat[new_idx, idx] = 1.0
    return mat


def perm_compose(p, q) -> tuple[int, ...]:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def perm_cycles(p) -> int:
    seen = [False] * len(p)
    count = 0
    for i in range(len(p)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return count


def perm_target_indices(pi, d: int, ell: int) -> np.ndarray:
    """Index map y(x) of the register permutation: digit j of y is digit pi^-1(j) of x."""
    n = d**ell
    digits = np.empty((ell, n), dtype=np.int64)
    rem = np.arange(n)
    for j in range(ell - 1, -1, -1):
        digits[j] = rem % d
        rem = rem // d
    pinv = perm_inverse(tuple(pi))
    out = np.zeros(n, dtype=np.int64)
    for j in range(ell):
        out = out * d + digits[pinv[j]]
    return out


def permutation_operator(pi, d: int, ell: int) -> np.ndarray:
    """Operator permuting ell registers of dim d: |x_1 .. x_ell> -> |x_{pi^-1(1)} ..>."""
    n = d**ell
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[perm_target_indices(pi, d, ell), np.arange(n)] = 1.0
    return mat


@functools.lru_cache(maxsize=None)
def perm_pair_cycles(ell: int) -> np.ndarray:
    """cycles of sigma^-1 pi for every pair, composed and counted one pair at a time."""
    perms = all_perms(ell)
    inverses = [perm_inverse(p) for p in perms]
    return np.array([[perm_cycles(perm_compose(inv, q)) for q in perms] for inv in inverses])


def perm_gram(d: int, ell: int) -> np.ndarray:
    """Gram matrix of the permutation operators, entries d^(cycles of sigma^-1 pi)."""
    return np.array([float(d) ** k for k in range(ell + 1)])[perm_pair_cycles(ell)]


def block_encoding_unitary(be: BlockEncoding) -> UnitaryMatrix:
    """The full unitary of a block encoding; a purification builds W^dag (swap A A') W."""
    if be.unitary_mat is not None:
        return UnitaryMatrix(be.unitary_mat)
    n_q = be.block_dim.bit_length() - 1
    m_q = be.ancilla_qubits - n_q
    total = be.ancilla_qubits + n_q
    budget.DEFAULT_BUDGET.check_dense_matrix(total, "block-encoding unitary")
    w = complete_to_unitary(be.purification)
    eye_a = np.eye(be.block_dim)
    swap = subsystem_perm_matrix([2**m_q, be.block_dim, be.block_dim], [0, 2, 1])
    return UnitaryMatrix(np.kron(w.conj().T, eye_a) @ swap @ np.kron(w, eye_a))


def choi_density(factor: ChoiFactor) -> DensityMatrix:
    """The dense state vecs vecs^dag / n_keys of a Choi factor."""
    qubits = factor.vecs.shape[0].bit_length() - 1
    budget.DEFAULT_BUDGET.check_dense_matrix(qubits, "dense Choi state")
    return DensityMatrix((factor.vecs @ factor.vecs.conj().T) / factor.n_keys)


def distinguisher(
    rho_surrogate,
    input_state,
    n_qubits: int,
    lam: int,
    backend: str = "ideal",
    seed=SeedPath(0),
    eta: float | None = None,
) -> tuple[bool, float]:
    """Threshold test of a challenge against the surrogate's singular support, densely.

    Block-encodes the surrogate state and accepts when the challenge sits in
    singular directions of value above the window (2^-3n, 2^-2n). eta
    defaults to 2^-lam; the returned probability is the exact trace, the bit
    a single seeded Bernoulli draw from it.
    """
    rho = _as_mat(rho_surrogate)
    state = _as_mat(input_state)
    if rho.shape[0] != 2**n_qubits:
        raise ValueError("surrogate state does not match the stated qubit count")
    if state.shape[0] != rho.shape[0]:
        raise ValueError("challenge state does not match the surrogate state")
    a = 2.0 ** (-3 * n_qubits)
    b = 2.0 ** (-2 * n_qubits)
    if eta is None:
        eta = 2.0 ** (-lam)
    res = svd_discriminate(encode_density(rho), state, a, b, eta, backend=backend, seed=seed)
    return res.accept, res.accept_prob


def apply_swap_call(
    family: SwapOracleFamily,
    vec: np.ndarray,
    n: int,
    wires,
    n_qubits: int,
) -> np.ndarray:
    """Apply one family member to a state vector, or to each column of a
    (2^n_qubits, ...) batch, without materializing it.

    Each index block is a rank-2 correction of the identity, so the update
    touches two slices per block; blocks the input has no weight on are
    skipped exactly, which also keeps lazy sampling lazy.
    """
    wires = list(wires)
    if len(wires) != 2 * n + 1:
        raise ValueError(f"swap call on n={n} needs {2 * n + 1} wires, got {len(wires)}")
    t = vec.reshape((2,) * n_qubits + vec.shape[1:])
    t = np.moveaxis(t, wires, range(len(wires)))
    shape = t.shape
    # a copy even when t is already contiguous: the update below is in place
    b = np.array(t).reshape(2**n, 2 ** (n + 1), -1)
    for m in range(2**n):
        if not np.any(b[m]):
            continue
        psi = family.state(n, m).amplitudes
        c0 = b[m, 0, :].copy()
        c1 = psi.conj() @ b[m, 2**n :, :]
        b[m, 0, :] += c1 - c0
        b[m, 2**n :, :] += np.outer(psi, c0 - c1)
    t = b.reshape(shape)
    t = np.moveaxis(t, range(len(wires)), wires)
    return np.ascontiguousarray(t).reshape(vec.shape)


def per_column_circuit_unitary(circ: OracleCircuit, swap=None, hri=None) -> UnitaryMatrix:
    """A circuit's unitary built column by column: every step on one basis state at a time."""
    budget.DEFAULT_BUDGET.check_dense_matrix(circ.total_qubits, "circuit unitary")
    dim = 2**circ.total_qubits
    cols = np.empty((dim, dim), dtype=np.complex128)
    for j in range(dim):
        vec = np.zeros(dim, dtype=np.complex128)
        vec[j] = 1.0
        for step in circ.steps:
            if isinstance(step, FixedGate):
                vec = apply_on_wires(vec, step.matrix, step.wires, circ.total_qubits)
            elif isinstance(step, OracleCall):
                vec = apply_swap_call(swap, vec, step.n, step.wires, circ.total_qubits)
            else:
                gate = hri.oracle(step.n, step.m).mat
                vec = apply_on_wires(vec, gate, step.wires, circ.total_qubits)
        cols[:, j] = PureState(vec).amplitudes
    return UnitaryMatrix(cols)


def stinespring_kraus(u: np.ndarray, lam: int, s: int, c: int) -> list[np.ndarray]:
    """Kraus operators of a keyed circuit unitary on [input (lam), pad (s), work (c)].

    Operator j maps inputs with pad and work in zeros to outputs with the
    work register in |j>. Each is sliced off u on its own, then its rows are
    reordered from [payload, pad] to [pad, payload].
    """
    d_in, d_pad, d_work = 2**lam, 2**s, 2**c
    w4 = u.reshape(d_in * d_pad, d_work, d_in, d_pad * d_work)
    ks = [np.ascontiguousarray(w4[:, j, :, 0]) for j in range(d_work)]
    return [k.reshape(d_in, d_pad, -1).transpose(1, 0, 2).reshape(d_pad * d_in, -1) for k in ks]


def kron_choi_vectors(kraus: list[np.ndarray], ell: int) -> np.ndarray:
    """Choi vectors of every ell-fold product of the listed operators, as columns.

    The products are an explicit `np.kron` list, each flattened and scaled
    on its own, then stacked.
    """
    ops = [np.ones((1, 1), dtype=np.complex128)]
    for _ in range(ell):
        ops = [np.kron(op, k) for op in ops for k in kraus]
    return np.column_stack([op.reshape(-1) / math.sqrt(op.shape[1]) for op in ops])


def chebinterpolate_step(a: float, b: float, eta_target: float, degree: int) -> np.ndarray:
    """The erf step's Chebyshev interpolant through `chebinterpolate`'s Vandermonde product."""
    mu = (a + b) / 2.0
    kappa = 2.0 * erfinv(1.0 - 2.0 * eta_target) / (b - a)

    def step(t):
        x = (t + 1.0) / 2.0
        return 0.5 * (1.0 + erf(kappa * (x - mu)))

    return cheb.chebinterpolate(step, degree)


def threshold_poly_ladder(a: float, b: float, eta: float) -> ThresholdPoly:
    """The degree ladder of `blockenc.threshold_poly`, every rung checked on the full grid.

    Each rung rebuilds the grid, evaluates the candidate, renormalizes its
    coefficients and evaluates the renormalized series again.
    """
    cap = math.ceil(8.0 / (b - a) * math.log(4.0 / eta))
    degree = min(64, cap)
    while True:
        coeffs = chebinterpolate_step(a, b, 0.7 * eta, degree)
        xs = np.unique(
            np.concatenate(
                [np.linspace(0.0, 1.0, GRID_POINTS), np.geomspace(1e-12, 1.0, GRID_POINTS), [a, b]]
            )
        )
        vals = cheb.chebval(2.0 * xs - 1.0, coeffs)
        pad = 1.05 * max(0.0, -float(np.min(vals)), float(np.max(vals)) - 1.0) + 1e-15
        coeffs = coeffs / (1.0 + 2.0 * pad)
        coeffs[0] += pad / (1.0 + 2.0 * pad)
        vals = cheb.chebval(2.0 * xs - 1.0, coeffs)
        low_max = float(np.max(vals[xs <= a]))
        high_min = float(np.min(vals[xs >= b]))
        if low_max <= eta and high_min >= 1.0 - eta:
            return ThresholdPoly(a, b, eta, coeffs, degree, low_max, high_min)
        if degree >= cap:
            raise ValueError(f"threshold polynomial failed to certify by the degree cap {cap}")
        degree = min(2 * degree, cap)


def expi_unguarded(h: np.ndarray) -> np.ndarray:
    """`subroutines.expi`'s eigh route, stacks included, on however many OpenBLAS threads are set."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def pooled_checks(ids, params: dict, root: SeedPath) -> list:
    """Named checks on a 4-worker thread pool, results in the order of `ids`.

    `params` maps a check id to its parameters; an id it lacks runs on its
    defaults. Each check draws from its own `root.child(id)`, so the rows
    must equal those of the serial harness run.
    """
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(lemma_check, cid, params.get(cid, {}), root.child(cid)) for cid in ids]
        return [f.result() for f in futures]


def squared_parts(z: complex) -> float:
    """|z|^2 as z.real * z.real + z.imag * z.imag, rounded as the library's sampler rounds it."""
    return z.real * z.real + z.imag * z.imag


def libm_square(z: complex) -> float:
    """|z|^2 as abs(z) ** 2, libm hypot then libm pow: the sampler's former rounding."""
    return abs(z) ** 2


def scalar_sampled_density(psi: np.ndarray, shots: int, rng, square=squared_parts) -> np.ndarray:
    """Shot-simulated state tomography of one pure output, one multinomial call per setting.

    Draws in the library's order: the diagonal setting, then the pairs a < b
    row-major, real setting before imaginary. `square` takes |z|^2 of each
    pair setting's amplitudes; the diagonal is np.abs(psi) ** 2 on both routes.
    """
    def clean(p):
        p = np.clip(p, 0.0, None)
        return p / np.sum(p)

    def mean(p_plus, p_minus):
        n = rng.multinomial(shots, clean(np.array([p_plus, p_minus, max(0.0, 1 - p_plus - p_minus)])))
        return (n[0] - n[1]) / shots

    d = psi.size
    est = np.zeros((d, d), dtype=np.complex128)
    np.fill_diagonal(est, rng.multinomial(shots, clean(np.abs(psi) ** 2)) / shots)
    for a in range(d):
        for b in range(a + 1, d):
            x = mean(square(psi[a] + psi[b]) / 2, square(psi[a] - psi[b]) / 2)
            y = mean(square(psi[a] - 1j * psi[b]) / 2, square(psi[a] + 1j * psi[b]) / 2)
            est[a, b] = (x - 1j * y) / 2
            est[b, a] = np.conj(est[a, b])
    return est


def sampled_tomography(apply_fn, dim: int, eps: float, eta: float, seed, c_tom: float = C_TOM):
    """Sampled process tomography one setting and one block at a time, top vector by `eigh`."""
    rng = as_generator(seed)
    shots = shot_count(dim, eps, eta, c_tom)
    h = 1 / math.sqrt(2)
    singles = [scalar_sampled_density(apply_fn(e), shots, rng) for e in np.eye(dim, dtype=np.complex128)]
    corr = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    n_inputs = dim
    for j in range(dim):
        corr[j * dim:(j + 1) * dim, j * dim:(j + 1) * dim] = singles[j]
    for j in range(dim):
        for k in range(j + 1, dim):
            ep = np.zeros(dim, dtype=np.complex128)
            ep[j] = ep[k] = h
            ei = ep.copy()
            ei[k] = 1j * h
            rho_p = scalar_sampled_density(apply_fn(ep), shots, rng)
            rho_i = scalar_sampled_density(apply_fn(ei), shots, rng)
            n_inputs += 2
            block = (2 * rho_p - singles[j] - singles[k] + 1j * (2 * rho_i - singles[j] - singles[k])) / 2
            corr[j * dim:(j + 1) * dim, k * dim:(k + 1) * dim] = block
            corr[k * dim:(k + 1) * dim, j * dim:(j + 1) * dim] = block.conj().T
    corr = (corr + corr.conj().T) / 2
    _, v = np.linalg.eigh(corr)
    m = (v[:, -1] * math.sqrt(dim)).reshape(dim, dim).T
    gram = float(np.linalg.norm(m.conj().T @ m - np.eye(dim)))
    queries = n_inputs * (1 + dim * (dim - 1)) * shots
    return TomographyResult(canonical_phase(nearest_unitary(m)), "sampled", queries, gram, shots)


def chunked_sampled_tomography(apply_fn, dim: int, eps: float, eta: float, seed, c_tom: float = C_TOM):
    """`tomography.process_tomography_sampled` with the basis as one chunk and the pairs
    dim (2 dim states) at a time at every dim, each chunk sampled by the library's sampler."""
    rng = as_generator(seed)
    shots = shot_count(dim, eps, eta, c_tom)
    corr = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    blocks = corr.reshape(dim, dim, dim, dim)
    basis = np.arange(dim)
    eye = np.eye(dim, dtype=np.complex128)
    singles = tomography._sampled_densities(tomography._query(apply_fn, eye), shots, rng)
    blocks[basis, :, basis, :] = singles
    a, b = tomography._pair_indices(dim)
    h = 1 / math.sqrt(2)
    for first in range(0, a.size, dim):
        j, k = a[first:first + dim], b[first:first + dim]
        rows = np.arange(j.size)
        inputs = np.zeros((j.size, 2, dim), dtype=np.complex128)
        inputs[rows, :, j] = h
        inputs[rows, 0, k] = h
        inputs[rows, 1, k] = 1j * h
        rho = tomography._sampled_densities(tomography._query(apply_fn, inputs.reshape(-1, dim)), shots, rng)
        rho = rho.reshape(j.size, 2, dim, dim)
        s = 2 * rho[:, 0] - singles[j] - singles[k]
        t = 1j * (2 * rho[:, 1] - singles[j] - singles[k])
        block = (s + t) / 2
        blocks[j, :, k, :] = block
        blocks[k, :, j, :] = block.conj().transpose(0, 2, 1)
    _, top = subroutines.top_eigh(corr, label="tomo-correlation")
    m = (top * math.sqrt(dim)).reshape(dim, dim).T
    gram = float(np.linalg.norm(m.conj().T @ m - np.eye(dim)))
    queries = dim * dim * (1 + dim * (dim - 1)) * shots
    return TomographyResult(canonical_phase(nearest_unitary(m)), "sampled", queries, gram, shots)


def asdict_report_dict(report: Report) -> dict:
    """`harness.report_to_dict` with every row and the config copied by `dataclasses.asdict`."""
    rows = []
    for r in report.results:
        d = asdict(r)
        if isinstance(r, LemmaCheckResult):
            d["pass"] = d.pop("passed")
        else:
            d["crossings"] = [dict(entry) for entry in r.crossings]
        rows.append(d)
    return {
        "config": {k: _listed(v) for k, v in asdict(report.config).items()},
        "results": rows,
        "versions": dict(report.versions),
        "total_runtime_ms": report.total_runtime_ms,
    }


# --------------------------------------------- Monte Carlo checks, one trial at a time


def prfsg_advantages_per_draw(lam: int, n_draws: int, seed: SeedPath) -> np.ndarray:
    """`games.prfsg_game`'s advantages, one draw and one validated key state at a time."""
    n = 2 * lam
    n_keys = 2**lam
    t_queries = 2
    advs = np.empty(n_draws)
    for i in range(n_draws):
        fam = SwapOracleFamily(seed.child("draw", i))
        states = [fam.state(n, k << lam).amplitudes for k in range(n_keys)]
        basis, _ = np.linalg.qr(np.stack(states[:t_queries], axis=1))
        overlaps = basis.conj().T @ np.stack(states, axis=1)
        accept = np.sum(np.abs(overlaps) ** 2, axis=0)
        advs[i] = float(np.mean(accept)) - t_queries / 2**n
    return advs


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


def two_query_lipschitz_per_pair(d: int, n_pairs: int, seed: SeedPath) -> LipschitzCheckResult:
    """`games.two_query_lipschitz_check`, one pair at a time."""
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


def family_lipschitz_per_pair(d: int, n_members: int, n_pairs: int, seed: SeedPath) -> LipschitzCheckResult:
    """`games.family_lipschitz_check`, one pair and one member at a time."""
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
        dist = math.sqrt(sum(schatten_norm(u - v, np.inf) ** 2 for u, v in zip(us, vs)))
        if dist < 1e-14:
            continue
        gap = abs(prob(us) - prob(vs))
        ratio = gap / (const * dist)
        max_ratio = max(max_ratio, ratio)
        violations += ratio > 1 + 1e-9
    return LipschitzCheckResult(n_pairs, t_queries, const, max_ratio, violations)


def haar_concentration_per_draw(d: int, n_draws: int, delta: float, seed: SeedPath) -> ConcentrationResult:
    """`games.haar_concentration_check`, one validated unitary at a time."""
    lipschitz = 4.0
    a = sample_haar_unitary(d, seed.child("fixed")).mat
    vals = np.array(
        [_two_query_prob(sample_haar_unitary(d, seed.child("dr", i)).mat, a) for i in range(n_draws)]
    )
    mean = float(np.mean(vals))
    exceed = float(np.mean(np.abs(vals - mean) >= delta))
    bound = 10 * math.exp(-(d - 2) * delta**2 / (24 * lipschitz**2))
    return ConcentrationResult(mean, exceed, bound)


def conjugation_lipschitz_per_pair(seed: SeedPath, d: int, trials: int) -> float:
    """`harness._conjugation_lipschitz`'s worst ratio, one pair at a time."""
    worst = 0.0
    for i in range(trials):
        rng = seed.child("pair", i).rng()
        u = random_unitary_from(rng, d)
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (h + h.conj().T) / 2
        scale = 10.0 ** (-3 + 3.5 * i / max(1, trials - 1))
        v = u @ subroutines.expi((scale / np.linalg.norm(h, 2)) * h)
        psi = random_state_from(rng, d)
        ru = np.outer(u @ psi, np.conj(u @ psi))
        rv = np.outer(v @ psi, np.conj(v @ psi))
        gap = np.linalg.norm(ru - rv)
        dist = np.linalg.norm(u - v)
        if dist > 1e-14:
            worst = max(worst, float(gap / (2.0 * dist)))
    return worst


def gentle_residual_single(measure_op, rho) -> tuple[DensityMatrix, float]:
    """`linalg.gentle_residual` on one pair, the residual validated as a `DensityMatrix`."""
    m = _as_mat(measure_op)
    r = _as_mat(rho)
    p = float(np.real(np.trace(m @ r)))
    if p <= 1e-12:
        raise ValueError("measurement outcome has zero probability on this state")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    if w[0] < -1e-8 or w[-1] > 1 + 1e-8:
        raise ValueError("measurement operator must satisfy 0 <= M <= I")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    residual = DensityMatrix(root @ r @ root / p)
    return residual, trace_distance(residual, r)


def gentle_measurement_per_trial(seed: SeedPath, d: int, trials: int) -> float:
    """`harness._gentle_measurement`'s worst ratio, one trial at a time."""
    worst = 0.0
    for i in range(trials):
        rng = seed.child("inst", i).rng()
        if i % 2 == 0:
            basis = random_unitary_from(rng, d)
            m = basis[:, : d - 2] @ basis[:, : d - 2].conj().T
            psi = random_state_from(rng, d)
            rho = np.outer(psi, psi.conj())
        else:
            basis = random_unitary_from(rng, d)
            m = (basis * rng.uniform(0.2, 1.0, size=d)) @ basis.conj().T
            rho = _rand_density(rng, d)
        eps = 1.0 - float(np.real(np.trace(m @ rho)))
        if eps < 1e-12 or eps > 0.95:
            continue
        _, dist = gentle_residual_single(m, rho)
        worst = max(worst, dist / math.sqrt(eps))
    return worst


def holder_product_per_trial(seed: SeedPath, d: int, trials: int) -> float:
    """`harness._holder_product`'s worst ratio, one trial and one norm at a time."""
    worst = 0.0
    for i in range(trials):
        rng = seed.child("inst", i).rng()
        a, b = ginibre(rng, d), ginibre(rng, d)
        sp = (1.0, 2.0, np.inf)[i % 3]
        num = schatten_norm(a @ b, sp)
        den = schatten_norm(a, sp) * schatten_norm(b, np.inf)
        worst = max(worst, num / den)
    return worst


def omega_transpose_per_trial(seed: SeedPath, trials: int) -> float:
    """`harness._omega_transpose`'s worst residual, one isometry at a time."""
    worst = 0.0
    for i in range(trials):
        rng = seed.child("iso", i).rng()
        d_in = int(rng.integers(2, 7))
        d_out = int(rng.integers(d_in, 9))
        q, _ = np.linalg.qr(ginibre(rng, d_out, d_in))
        worst = max(worst, transpose_identity_residual(q))
    return worst


def one_call_distance_dense(width: int, span: int, gate: np.ndarray, lam: int, seed: SeedPath) -> float:
    """`harness._one_call_distance` for one trial, from both full unitaries U and V and the call
    embedded by a dense `np.kron`."""
    rng = seed.rng()
    u = random_unitary_from(rng, 2**width)
    v = random_unitary_from(seed.child("v").rng(), 2**width)
    embedded = np.kron(gate, np.eye(2 ** (width - span)))
    base = np.kron(np.eye(2 ** (width - lam), 1)[:, 0], omega_vector(2**lam))

    def act(mat):
        return (mat @ base.reshape(2**width, 2**lam)).reshape(-1)

    psi = act(u @ embedded @ v)
    phi = act(u @ v)
    ov = abs(np.vdot(phi, psi)) ** 2
    return math.sqrt(max(0.0, 1.0 - ov))


def swap_call_closeness_per_trial(seed: SeedPath, lam: int, c: int, n: int, trials: int) -> float:
    """`harness._swap_call_closeness`'s worst distance, one dense trial at a time."""
    gate = SwapOracleFamily(seed.child("family")).dense_oracle(n).mat
    return max(
        one_call_distance_dense(lam + c, 2 * n + 1, gate, lam, seed.child("draw", i)) for i in range(trials)
    )


def hri_call_closeness_per_trial(seed: SeedPath, lam: int, c: int, n: int, stretch: str, trials: int) -> float:
    """`harness._hri_call_closeness`'s worst distance, one dense trial at a time."""
    fam = HriOracleFamily(seed.child("family"), stretch=stretch)
    span = 1 + fam.t_of(n) + n
    return max(
        one_call_distance_dense(lam + c, span, fam.oracle(n, i % 2**n).mat, lam, seed.child("draw", i))
        for i in range(trials)
    )


def trace_distance_dense(a, b) -> float:
    """Half the trace norm of a - b from one dense `eigvalsh` of the whole difference."""
    diff = _as_mat(a) - _as_mat(b)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2))))


def check_density_dense(m: np.ndarray) -> None:
    """`linalg.check_density`'s eigenvalue test on one matrix of at most 1024 dims, from one
    dense `eigvalsh` of the whole matrix: raise below EIG_FLOOR, otherwise only read m."""
    w = np.linalg.eigvalsh(m)
    if w[0] < EIG_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {w[0]} below {EIG_FLOOR}")


def transpose_identity_residual_kron(a: np.ndarray) -> float:
    """`linalg.transpose_identity_residual` with both sides built by `np.kron`."""
    mat = np.asarray(a, dtype=complex)
    d_out, d_in = mat.shape
    lhs = np.kron(mat, np.eye(d_in)) @ omega_vector(d_in)
    rhs = np.kron(np.eye(d_out), mat.T) @ omega_vector(d_out)
    return float(np.linalg.norm(lhs - math.sqrt(d_out / d_in) * rhs))
