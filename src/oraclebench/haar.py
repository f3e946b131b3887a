"""Averages over the unitary group.

Every twirl here is one permutation sum over the leading register,

    sum_{pi,sigma} W[pi,sigma] R_pi (x) Tr_A[(R_sigma^dag (x) I) rho],

computed by one kernel (_perm_sum) from index maps, with no permutation
operator built. The exact twirl takes W = G+, the pseudo-inverse of the
Gram matrix of the permutation operators, whose entries are
d^(cycles of sigma^-1 pi): that recovers the unique operator in their span
with the same partial-trace data, which is exactly the twirl. The
permutation-sum approximation takes W = I / d^ell. The overlaps of Choi
vectors with the fully averaged Choi reference expand over the same pairs,
which fold into 2 ell! row and column gathers of the vectors
(reference_overlap_matrix). Every route sizes its ell! x ell! pair weights
against the budget before building them.
A Monte Carlo estimate of the state moment is an independent route to the
moments. The distance between a twirled Choi reference and the matching
state moment needs no matrix at all: both are scalar on the Schur-Weyl
blocks, so it is a finite sum over the partitions of ell
(choi_moment_distance).

Registers: the twirled system is the leading factor (dim d^ell), any
bystander trails. Choi-style states pair the twirled copies with one
maximally entangled partner register.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import budget
from .linalg import (
    DensityMatrix,
    PureState,
    UnitaryMatrix,
    _as_mat,
    _freeze,
    check_unitary,
    complex_normals,
    haar_from_ginibre,
    omega_vector,
    random_state_from,
    random_unitary_from,
    register_maps,
    register_qubits,
    sym_projector,
)
from .seeds import as_generator

# choi_moment_distance costs one exact term per partition of ell;
# p(40) = 37,338 partitions take about 2.2 s on a 2-vCPU x86 VM
MAX_MOMENT_ELL = 40


def sample_haar_unitary(d: int, seed) -> UnitaryMatrix:
    """Haar-distributed d x d unitary (Ginibre, QR, diagonal phase fix)."""
    return UnitaryMatrix(random_unitary_from(as_generator(seed), d))


def sample_haar_unitaries(d: int, seeds) -> np.ndarray:
    """A validated (len(seeds), d, d) stack: per SeedPath the unitary `sample_haar_unitary` draws."""
    u = haar_from_ginibre(complex_normals(seeds, (d, d))[0])
    check_unitary(u)
    return u


def sample_haar_state(d: int, seed) -> PureState:
    """Haar-distributed pure state: normalized complex Gaussian vector."""
    return PureState(random_state_from(as_generator(seed), d))


def state_moment_exact(d: int, ell: int) -> DensityMatrix:
    """ell-th moment of a Haar state: symmetric projector over its dimension."""
    dim_sym = math.comb(d + ell - 1, ell)
    return DensityMatrix(sym_projector(d, ell) / dim_sym)


def state_moment_mc(d: int, ell: int, samples: int, seed) -> DensityMatrix:
    budget.DEFAULT_BUDGET.check_dense_matrix(register_qubits(d, ell), "state moment estimate")
    n = d**ell
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


def _check_perm_pairs(ell: int) -> None:
    """Weights over pairs of permutations form an ell! x ell! matrix: size it as a dense one."""
    qubits = math.ceil(math.log2(math.factorial(ell)))
    budget.DEFAULT_BUDGET.check_dense_matrix(qubits, "permutation pair weights")


@functools.lru_cache(maxsize=None)
def _gram_pinv(d: int, ell: int) -> np.ndarray:
    """Pseudo-inverse of the permutation Gram matrix, entries d^(cycles of sigma^-1 pi): the
    qubit maps of pi and sigma agree on the 2^cycles basis states sigma^-1 pi fixes, compared
    a row at a time, as one ell! x ell! x 2^ell comparison would outgrow the weights. Read-only
    and cached; callers size it with _check_perm_pairs first: the cache holds the weights, not the limit."""
    maps = register_maps(2, ell)
    agree = np.array([np.count_nonzero(maps == row, axis=1) for row in maps])
    gram = np.array([float(d) ** k for k in range(ell + 1)])[np.frexp(agree)[1] - 1]
    return _freeze(np.linalg.pinv(gram, rcond=1e-12))


def _perm_sum(mat: np.ndarray, d: int, ell: int, weights: np.ndarray) -> np.ndarray:
    """sum over pi, sigma of weights[pi, sigma] R_pi (x) Tr_A[(R_sigma^dag (x) I) mat].

    A is the leading register of dim d^ell, permuted as ell registers of dim
    d; whatever trails it is a bystander.
    """
    dim = mat.shape[0]
    budget.DEFAULT_BUDGET.check_dense_matrix(math.ceil(math.log2(dim)), "permutation sum")
    a = d**ell
    r, rem = divmod(dim, a)
    if rem:
        raise ValueError(f"state dim {dim} is not a multiple of the twirled dim {a}")
    targets = register_maps(d, ell)
    m4 = mat.reshape(a, r, a, r)
    # R^dag reindexes the rows of the A register
    data = np.array([np.einsum("aras->rs", m4[t]) for t in targets])
    coeffs = np.tensordot(weights, data, axes=([1], [0]))
    out = np.zeros((a, r, a, r), dtype=np.complex128)
    cols = np.arange(a)
    for t, c in zip(targets, coeffs):
        out[t, :, cols, :] += c[None, :, :]
    return out.reshape(dim, dim)


def twirl_exact(rho, d: int, ell: int) -> DensityMatrix:
    """Average of (U^(x ell) (x) I) rho (.)^dag over the Haar measure on U(d).

    Parameters
    ----------
    rho : DensityMatrix or array
        State on the twirled register (dim d^ell) times an optional bystander.
    d, ell : int
        Local dimension and number of twirled copies.
    """
    _check_perm_pairs(ell)
    return DensityMatrix(_perm_sum(_as_mat(rho), d, ell, _gram_pinv(d, ell)))


# ------------------------------------------------------------------ Choi references


def haar_choi(lam: int, ell: int) -> DensityMatrix:
    """Exact twirl of ell copies of one half of a maximally entangled register.

    The state lives on [A_1 .. A_ell | A'] with each A_i of lam qubits and the
    partner register A' of lam*ell qubits: the isometry reference with no pad.
    """
    return haar_isometry_choi(lam, 0, ell)


def haar_isometry_choi(lam: int, s: int, ell: int) -> DensityMatrix:
    """Same reference with each copy padded by s fresh zero qubits before twirling.

    Registers: [B_1 A_1 .. B_ell A_ell | A'], the twirl acting on the ell
    blocks of (s + lam) qubits.
    """
    budget.DEFAULT_BUDGET.check_dense_matrix((2 * lam + s) * ell, "averaged isometry reference state")
    a_in = 2**lam
    omega = omega_vector(a_in**ell)
    padded = np.zeros((2**s, a_in) * ell + (a_in**ell,), dtype=np.complex128)
    idx = (0, slice(None)) * ell + (slice(None),)
    padded[idx] = omega.reshape((a_in,) * ell + (a_in**ell,))
    vec = padded.reshape(-1)
    rho = np.outer(vec, vec.conj())
    d = 2 ** (lam + s)
    return DensityMatrix(_perm_sum(rho, d, ell, _gram_pinv(d, ell)))


def _check_moment_ell(ell: int) -> None:
    if ell > MAX_MOMENT_ELL:
        raise budget.SizingError(f"ell={ell} exceeds the partition-sum limit {MAX_MOMENT_ELL}")


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
    _check_moment_ell(ell)
    n_sym = math.comb(d_out * d_in + ell - 1, ell)
    total = Fraction(0)
    for mu in _partitions(ell, ell):
        f, s_out, s_in = _young_dims(mu, d_out, d_in)
        total += abs(Fraction(f * s_in, d_in**ell) - Fraction(s_out * s_in, n_sym))
    return total / 2


def reference_overlap_matrix(vecs: np.ndarray, d_in: int, d_out: int, ell: int) -> np.ndarray:
    """Overlaps v_i^dag rho2 v_j against the fully averaged Choi reference.

    The columns v_i of vecs are Choi vectors of ell-fold operators of shape
    (d_out^ell, d_in^ell), on the same registers as the averaged reference
    at copy dims d_in -> d_out. Expanding the exact twirl over pairs of
    register permutations, rho2 v_j is sum_{pi,sigma} G+[pi,sigma]
    R_pi A_j R_sigma^T / d_in^ell with A_j the reshaped v_j, and each
    R_pi A R_sigma^T is a row and column gather of A. G+ is the
    pseudo-inverse of a central element of the group algebra, so
    G+[pi,sigma] = w(pi^-1 sigma) for a class function w, its identity row,
    and the pair sum folds into sum_pi R_pi (sum_tau w(tau) A R_tau^T) R_pi^T:
    2 ell! gathers rather than ell!^2. Nothing on the doubled register is
    materialized beyond two arrays the size of vecs. Exact, including the
    low-dimension Gram corrections.
    """
    _check_perm_pairs(ell)
    w = _gram_pinv(d_out, ell)[0]
    # the map of pi^-1 is the inverse of the map of pi
    rows = np.argsort(register_maps(d_out, ell), axis=1)
    cols = np.argsort(register_maps(d_in, ell), axis=1)
    v3 = vecs.reshape(d_out**ell, d_in**ell, -1)
    inner = np.zeros_like(v3)
    for wt, c in zip(w, cols):
        inner += wt * v3[:, c]
    acc = np.zeros_like(v3)
    for r, c in zip(rows, cols):
        acc += inner[np.ix_(r, c)]
    return vecs.conj().T @ acc.reshape(vecs.shape) / d_in**ell


def twirl_permutation_approx(rho, n: int, ell: int) -> np.ndarray:
    """Permutation-sum stand-in for the exact twirl on n-qubit registers.

    Sum over pi of 2^(-n ell) R_pi (x) Tr_A[(R_pi^dag (x) I) rho]. Accurate
    once 2^n is large against ell^2; returned raw since it need not be PSD.
    """
    _check_perm_pairs(ell)
    weights = np.eye(math.factorial(ell)) / 2 ** (n * ell)
    return _perm_sum(_as_mat(rho), 2**n, ell, weights)
