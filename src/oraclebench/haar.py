"""Averages over the unitary group.

Exact twirls are computed by projecting onto the span of register
permutation operators: the Gram matrix of that span has entries
d^(cycles of sigma^-1 pi), and the data vector holds the partial traces
Tr_A[(R_sigma^dag (x) I) rho]. A pseudo-inverse solve recovers the unique
operator in the span with matching data, which is exactly the twirl. The
same plumbing with fixed coefficients 2^(-n ell) gives the permutation-sum
approximation used as a comparison point, and a Monte Carlo estimate of
the state moment is an independent route to it. The distance between
a twirled Choi reference and the matching state moment needs no matrix at
all: both are scalar on the Schur-Weyl blocks, so it is a finite sum over
the partitions of ell (choi_moment_distance).

Registers: the twirled system is the leading factor (dim d^ell), any
bystander trails. Choi-style states pair the twirled copies with one
maximally entangled partner register.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .budget import DEFAULT_BUDGET, Budget, SizingError
from .linalg import (
    DensityMatrix,
    PureState,
    UnitaryMatrix,
    _as_mat,
    all_perms,
    omega_vector,
    perm_compose,
    perm_cycles,
    perm_inverse,
    perm_target_indices,
    permutation_operator,
    random_state_from,
    random_unitary_from,
    sym_projector,
)
from .seeds import as_generator

# choi_moment_distance costs one exact term per partition of ell;
# p(40) = 37,338 partitions take about 2.2 s on a 2-vCPU x86 VM
MAX_MOMENT_ELL = 40


def sample_haar_unitary(d: int, seed) -> UnitaryMatrix:
    """Haar-distributed d x d unitary (Ginibre, QR, diagonal phase fix)."""
    return UnitaryMatrix(random_unitary_from(as_generator(seed), d))


def sample_haar_state(d: int, seed) -> PureState:
    """Haar-distributed pure state: normalized complex Gaussian vector."""
    return PureState(random_state_from(as_generator(seed), d))


def state_moment_exact(d: int, ell: int, budget: Budget = DEFAULT_BUDGET) -> DensityMatrix:
    """ell-th moment of a Haar state: symmetric projector over its dimension."""
    dim_sym = math.comb(d + ell - 1, ell)
    return DensityMatrix(sym_projector(d, ell, budget) / dim_sym)


def state_moment_mc(
    d: int, ell: int, samples: int, seed, budget: Budget = DEFAULT_BUDGET
) -> DensityMatrix:
    n = d**ell
    budget.check_dense_matrix(math.ceil(math.log2(n)), "state moment estimate")
    rng = as_generator(seed)
    acc = np.zeros((n, n), dtype=np.complex128)
    done = 0
    while done < samples:
        batch = min(4000, samples - done)
        z = rng.standard_normal((batch, d)) + 1j * rng.standard_normal((batch, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        v = z
        for _ in range(ell - 1):
            v = np.einsum("bi,bj->bij", v, z).reshape(batch, -1)
        acc += v.T @ v.conj()
        done += batch
    return DensityMatrix(acc / samples)


# ------------------------------------------------------------------ exact twirl


def _gram(d: int, ell: int) -> np.ndarray:
    perms = all_perms(ell)
    k = len(perms)
    g = np.empty((k, k), dtype=np.float64)
    for i, p in enumerate(perms):
        pinv = perm_inverse(p)
        for j, q in enumerate(perms):
            g[i, j] = float(d) ** perm_cycles(perm_compose(pinv, q))
    return g


def _perm_data(m4: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # Tr_A[(R_sigma^dag (x) I) rho]; R^dag reindexes rows of the A register
    return np.einsum("aras->rs", m4[targets])


def _twirl_raw(mat: np.ndarray, d: int, ell: int, budget: Budget) -> np.ndarray:
    dim = mat.shape[0]
    a = d**ell
    budget.check_twirl_dim(a, "exact twirl")
    r, rem = divmod(dim, a)
    if rem:
        raise ValueError(f"state dim {dim} is not a multiple of the twirled dim {a}")
    perms = all_perms(ell)
    m4 = mat.reshape(a, r, a, r)
    data = np.array([_perm_data(m4, perm_target_indices(p, d, ell)) for p in perms])
    gpinv = np.linalg.pinv(_gram(d, ell), rcond=1e-12)
    coeffs = np.tensordot(gpinv, data, axes=([1], [0]))
    out = np.zeros((a, r, a, r), dtype=np.complex128)
    cols = np.arange(a)
    for p, c in zip(perms, coeffs):
        out[perm_target_indices(p, d, ell), :, cols, :] += c[None, :, :]
    return out.reshape(dim, dim)


def twirl_exact(rho, d: int, ell: int, budget: Budget = DEFAULT_BUDGET) -> DensityMatrix:
    """Average of (U^(x ell) (x) I) rho (.)^dag over the Haar measure on U(d).

    Parameters
    ----------
    rho : DensityMatrix or array
        State on the twirled register (dim d^ell) times an optional bystander.
    d, ell : int
        Local dimension and number of twirled copies.
    """
    return DensityMatrix(_twirl_raw(_as_mat(rho), d, ell, budget))


# ------------------------------------------------------------------ Choi references


def haar_choi(lam: int, ell: int, budget: Budget = DEFAULT_BUDGET) -> DensityMatrix:
    """Exact twirl of ell copies of one half of a maximally entangled register.

    The state lives on [A_1 .. A_ell | A'] with each A_i of lam qubits and the
    partner register A' of lam*ell qubits.
    """
    budget.check_qubits(2 * lam * ell, "averaged reference state")
    a = 2 ** (lam * ell)
    omega = omega_vector(a)
    rho = np.outer(omega, omega.conj())
    return DensityMatrix(_twirl_raw(rho, 2**lam, ell, budget))


def haar_isometry_choi(
    lam: int, s: int, ell: int, budget: Budget = DEFAULT_BUDGET
) -> DensityMatrix:
    """Same reference with each copy padded by s fresh zero qubits before twirling.

    Registers: [B_1 A_1 .. B_ell A_ell | A'], the twirl acting on the ell
    blocks of (s + lam) qubits.
    """
    budget.check_qubits((2 * lam + s) * ell, "averaged isometry reference state")
    a_in = 2**lam
    omega = omega_vector(a_in**ell)
    padded = np.zeros((2**s, a_in) * ell + (a_in**ell,), dtype=np.complex128)
    idx = (0, slice(None)) * ell + (slice(None),)
    padded[idx] = omega.reshape((a_in,) * ell + (a_in**ell,))
    vec = padded.reshape(-1)
    rho = np.outer(vec, vec.conj())
    return DensityMatrix(_twirl_raw(rho, 2 ** (lam + s), ell, budget))


def _partitions(n: int, largest: int):
    """Partitions of n into parts of at most `largest`, as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _young_dims(mu: tuple, d_out: int, d_in: int) -> tuple[int, int, int]:
    """f_mu (S_ell irrep) and s_mu(d_out), s_mu(d_in) (U(d) irreps) for one diagram.

    Hook-length and hook-content formulas; s_mu(d) is 0 once mu has more
    than d rows, since the cell in row d carries content -d.
    """
    cols = [sum(1 for r in mu if r > j) for j in range(mu[0])]
    cells = [(i, j) for i, row in enumerate(mu) for j in range(row)]
    hooks = math.prod(mu[i] - j + cols[j] - i - 1 for i, j in cells)
    f = math.factorial(len(cells)) // hooks
    s_out, s_in = (math.prod(d + j - i for i, j in cells) // hooks for d in (d_out, d_in))
    return f, s_out, s_in


def choi_moment_distance(d_out: int, d_in: int, ell: int) -> Fraction:
    """Exact trace distance between the twirled Choi reference and the moment.

    The reference is ``haar_choi`` (d_out = d_in = 2^lam) or
    ``haar_isometry_choi`` (d_out = 2^(lam+s), d_in = 2^lam); the moment is
    the symmetric state moment at local dim d_out*d_in, reordered into the
    same copy | partner blocks. Both states are scalar on each block of the
    Schur-Weyl decomposition and share the same state inside it, so the
    distance is the total variation between two measures on partitions of
    ell, the Schur-Weyl weights f_mu s_mu(d_in) / d_in^ell and the Cauchy
    weights s_mu(d_out) s_mu(d_in) / C(d_out d_in + ell - 1, ell):

        TD = 1/2 sum_{mu |- ell} |f_mu s_mu(d_in) / d_in^ell
                                  - s_mu(d_out) s_mu(d_in) / C(d_out d_in + ell - 1, ell)|

    Nothing of dimension d^ell is built; the cost is one term per partition,
    so ell above MAX_MOMENT_ELL raises SizingError.
    """
    if d_in < 1 or d_out < d_in or ell < 1:
        raise ValueError(f"need 1 <= d_in <= d_out and ell >= 1, got {d_out=}, {d_in=}, {ell=}")
    if ell > MAX_MOMENT_ELL:
        raise SizingError(f"ell={ell} exceeds the partition-sum limit {MAX_MOMENT_ELL}")
    n_sym = math.comb(d_out * d_in + ell - 1, ell)
    total = Fraction(0)
    for mu in _partitions(ell, ell):
        f, s_out, s_in = _young_dims(mu, d_out, d_in)
        total += abs(Fraction(f * s_in, d_in**ell) - Fraction(s_out * s_in, n_sym))
    return total / 2


def reference_overlap_matrix(ops, d_in: int, d_out: int, ell: int) -> np.ndarray:
    """Overlaps v_i^dag rho2 v_j against the fully averaged Choi reference.

    ops are ell-fold operators of shape (d_out^ell, d_in^ell); v_i is the
    Choi vector of ops[i] on the same registers as the averaged reference
    at copy dims d_in -> d_out. Expanding the exact twirl over pairs of
    register permutations turns every entry into at most ell!^2 traces of
    d_in^ell-sized products, so nothing on the doubled register is ever
    materialized. Exact, including the low-dimension Gram corrections.
    """
    perms = all_perms(ell)
    gpinv = np.linalg.pinv(_gram(d_out, ell), rcond=1e-12)
    r_out = [permutation_operator(p, d_out, ell) for p in perms]
    r_in = [permutation_operator(p, d_in, ell).real for p in perms]
    mats = [np.asarray(op, dtype=complex) for op in ops]
    d_big = d_in**ell
    k = len(mats)
    h = np.zeros((k, k), dtype=np.complex128)
    for i in range(k):
        for pi_idx, rp in enumerate(r_out):
            left = mats[i].conj().T @ rp
            for j in range(k):
                mid = left @ mats[j]
                # Tr[mid R_sigma^T] is an elementwise overlap with R_sigma
                h[i, j] += sum(
                    gpinv[pi_idx, si] * np.sum(mid * r_in[si])
                    for si in range(len(perms))
                )
    return h / d_big**2


def twirl_permutation_approx(rho, n: int, ell: int) -> np.ndarray:
    """Permutation-sum stand-in for the exact twirl on n-qubit registers.

    Sum over pi of 2^(-n ell) R_pi (x) Tr_A[(R_pi^dag (x) I) rho]. Accurate
    once 2^n is large against ell^2; returned raw since it need not be PSD.
    """
    mat = _as_mat(rho)
    d = 2**n
    a = d**ell
    r, rem = divmod(mat.shape[0], a)
    if rem:
        raise ValueError("state dim does not factor into the permuted register")
    m4 = mat.reshape(a, r, a, r)
    out = np.zeros((a, r, a, r), dtype=np.complex128)
    cols = np.arange(a)
    for p in all_perms(ell):
        targets = perm_target_indices(p, d, ell)
        c = _perm_data(m4, targets) / a
        out[targets, :, cols, :] += c[None, :, :]
    return out.reshape(mat.shape)
