"""Dense linear algebra on small multi-qubit (and qudit) registers.

All state is explicit numpy arrays in the computational basis, row-major,
subsystem 0 most significant. Wrapper types validate their defining property
once at construction and are treated as immutable afterwards.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import budget, seeds

ATOL_UNITARY = 1e-9
ATOL_HERMITIAN = 1e-9
ATOL_TRACE = 1e-8
ATOL_STATE_NORM = 1e-9
EIG_FLOOR = -1e-9

# the largest block whose eigenvalues a positivity check computes: a larger component
# of a density matrix's nonzero pattern is checked by one Cholesky factorisation instead
_EIG_VALIDATE_MAX_DIM = 1024

ComplexMatrix = np.ndarray


def _finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    # a complex entry is finite only when both of its parts are
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def as_complex_array(a, name: str = "array") -> np.ndarray:
    return _finite(np.array(a, dtype=np.complex128, copy=True), name)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def check_state_norms(vecs: np.ndarray) -> None:
    """Raise unless every vector of a (..., n) stack has norm 1 within ATOL_STATE_NORM."""
    if not np.all(np.abs(np.linalg.norm(vecs, axis=-1) - 1.0) <= ATOL_STATE_NORM):
        raise ValueError(f"state vector norm deviates from 1 beyond {ATOL_STATE_NORM}")


def check_unitary(m: np.ndarray) -> None:
    """Raise unless ||U^dag U - I||_2 <= ATOL_UNITARY for every matrix of a (..., d, d) stack."""
    defect = m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])
    # the Frobenius norm of the whole stack bounds each spectral norm, so it is a cheap accept
    if np.linalg.norm(defect) > ATOL_UNITARY:
        if np.max(np.linalg.norm(defect, 2, axis=(-2, -1))) > ATOL_UNITARY:
            raise ValueError("matrix is not unitary within 1e-9")


def _component_blocks(m: np.ndarray) -> list[np.ndarray] | None:
    """The connected components of a square matrix's nonzero pattern, made symmetric: one
    (blocks, size) array of ascending row indices per component size, sizes ascending.
    None when the pattern is dense: at least a quarter of the entries are nonzero (the
    search's index arrays grow with them), or one component holds more than half the rows.

    Each sweep gives every row the smallest label among its neighbours and then that
    label's own label, in O(nnz); once no label moves, each component carries the
    index of one of its rows. Orbit blocks of a few rows settle in a few sweeps.
    """
    n = m.shape[0]
    mask = m != 0
    if np.count_nonzero(mask) >= n * n // 4:
        return None
    rows, cols = np.divmod(np.flatnonzero(mask), n)
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        np.minimum.at(low, cols, label[rows])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    size = np.bincount(label, minlength=n)[label]
    if size.max() > n // 2:
        return None
    order = np.lexsort((label, size))
    rows_per_size = np.bincount(size)
    groups, lo = [], 0
    for s in np.flatnonzero(rows_per_size):
        groups.append(order[lo : lo + rows_per_size[s]].reshape(-1, s))
        lo += rows_per_size[s]
    return groups


def hermitian_eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix of a (..., d, d) stack.

    A stack takes one stacked `np.linalg.eigvalsh`. A matrix is solved block by block,
    one stacked call per component size of its nonzero pattern, and densely when that
    pattern is dense. Each block keeps its rows in order, so the blocks read the lower
    triangle the dense call reads, and the spectra agree to rounding.
    """
    groups = _component_blocks(m) if m.ndim == 2 else None
    if groups is None:
        return np.linalg.eigvalsh(m)
    blocks = (m[idx[:, :, None], idx[:, None, :]] for idx in groups)
    return np.sort(np.concatenate([np.linalg.eigvalsh(b).reshape(-1) for b in blocks]))


def _check_positive(m: np.ndarray) -> None:
    """Raise unless a d x d matrix, d above _EIG_VALIDATE_MAX_DIM, has eigenvalues at least
    EIG_FLOOR: by the eigenvalues of each component of up to that many rows, and by a
    Cholesky factorisation of m + |EIG_FLOOR| I on each larger one."""
    d = m.shape[0]
    for idx in _component_blocks(m) or [np.arange(d)[None]]:
        size = idx.shape[1]
        if size <= _EIG_VALIDATE_MAX_DIM:
            low = np.min(hermitian_eigvalsh(m[idx[:, :, None], idx[:, None, :]])[:, 0])
            if low < EIG_FLOOR:
                raise ValueError(f"density matrix has eigenvalue {low} below {EIG_FLOOR}")
            continue
        budget.DEFAULT_BUDGET.check_dense_matrix(math.ceil(math.log2(size)), "positivity check")
        for rows in idx:
            shifted = m[np.ix_(rows, rows)]
            shifted[np.diag_indices(size)] -= EIG_FLOOR
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                raise ValueError(f"density matrix has an eigenvalue below {EIG_FLOOR}") from None


def check_density(m: np.ndarray) -> None:
    """Raise unless every matrix of a (..., d, d) stack is a density matrix within tolerance.

    Each must be Hermitian within ATOL_HERMITIAN, of trace 1 within ATOL_TRACE
    and of eigenvalues at least EIG_FLOOR: up to _EIG_VALIDATE_MAX_DIM dims by
    `hermitian_eigvalsh`, above by `_check_positive`. The stack is only read,
    never modified or copied.
    """
    if np.max(np.abs(m - m.conj().swapaxes(-1, -2)), initial=0.0) > ATOL_HERMITIAN:
        raise ValueError("density matrix is not Hermitian within 1e-9")
    tr = np.trace(m, axis1=-2, axis2=-1).reshape(-1)
    off = tr[np.abs(tr - 1.0) > ATOL_TRACE]
    if off.size:
        raise ValueError(f"density matrix trace {complex(off[0])} deviates from 1 beyond {ATOL_TRACE}")
    d = m.shape[-1]
    if d > _EIG_VALIDATE_MAX_DIM:
        for mat in m.reshape(-1, d, d):
            _check_positive(mat)
    elif (low := np.min(hermitian_eigvalsh(m)[..., 0], initial=0.0)) < EIG_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {low} below {EIG_FLOOR}")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector of any nonzero dimension."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = as_complex_array(self.amplitudes, "state vector")
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("state vector must be a nonempty 1-d array")
        check_state_norms(vec)
        object.__setattr__(self, "amplitudes", _freeze(vec))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class UnitaryMatrix:
    """Square matrix with ||U^dag U - I||_inf <= 1e-9, checked at construction."""

    mat: np.ndarray

    def __post_init__(self):
        m = as_complex_array(self.mat, "unitary")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"unitary must be square, got shape {m.shape}")
        check_unitary(m)
        object.__setattr__(self, "mat", _freeze(m))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian within 1e-9, unit trace within 1e-8, PSD with eigenvalues >= -1e-9, checked
    at construction by `check_density`. `mat` is a read-only copy of the input, unmodified:
    an eigenvalue in [-1e-9, 0) is kept."""

    mat: np.ndarray

    def __post_init__(self):
        m = as_complex_array(self.mat, "density matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        check_density(m)
        object.__setattr__(self, "mat", _freeze(m))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _as_mat(x) -> np.ndarray:
    """The matrix of an operand that its caller only reads: a raw array is converted to
    complex and checked finite, but not copied."""
    if isinstance(x, DensityMatrix) or isinstance(x, UnitaryMatrix):
        return x.mat
    if isinstance(x, PureState):
        return np.outer(x.amplitudes, x.amplitudes.conj())
    return _finite(np.asarray(x, dtype=np.complex128))


def permute_subsystems(mat, dims: list[int], perm: list[int]) -> np.ndarray:
    """Conjugate by the register reordering where new slot j holds old subsystem perm[j]."""
    m = _as_mat(mat)
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ValueError("perm must be a permutation of the subsystem indices")
    t = m.reshape(list(dims) + list(dims))
    axes = list(perm) + [k + p for p in perm]
    new_dims = math.prod(dims)
    return np.ascontiguousarray(t.transpose(axes).reshape(new_dims, new_dims))


def apply_on_wires(vec: np.ndarray, gate: np.ndarray, wires, n_qubits: int) -> np.ndarray:
    """Apply a 2^k x 2^k gate to the listed qubit wires of an n-qubit state vector.

    A (2^n, b) input is a batch: the gate acts on each column. A (K, 2^k, 2^k)
    gate stack acts on a (K, 2^n, b) stack, gate i on batch i, in one matmul.
    """
    wires = list(wires)
    k = len(wires)
    lead = gate.shape[:-2]
    if gate.shape[-2:] != (2**k, 2**k):
        raise ValueError(f"gate shape {gate.shape} does not match {k} wires")
    if len(set(wires)) != k or any(w < 0 or w >= n_qubits for w in wires):
        raise ValueError(f"bad wire list {wires} for {n_qubits} qubits")
    # the gate stack's axes lead, then the qubits, then the batch
    axes = [len(lead) + w for w in wires]
    split = lead + (2,) * n_qubits + vec.shape[len(lead) + 1 :]
    t = np.moveaxis(vec.reshape(split), axes, range(len(lead), len(lead) + k))
    t = gate @ t.reshape(lead + (2**k, -1))
    t = np.moveaxis(t.reshape(split), range(len(lead), len(lead) + k), axes)
    return np.ascontiguousarray(t).reshape(vec.shape)


def schatten_norm(mat, p):
    """Schatten p-norm, p in (1, 2, inf), of a matrix, a float, or of each matrix of a
    (..., m, n) stack, an array."""
    if p not in (1, 2, np.inf):
        raise ValueError(f"schatten norm takes p in (1, 2, inf), got {p!r}")
    m = _as_mat(mat)
    if p == 2:
        out = np.linalg.norm(m, axis=(-2, -1))
    else:
        s = np.linalg.svd(m, compute_uv=False)
        out = np.sum(s, axis=-1) if p == 1 else np.max(s, axis=-1, initial=0.0)
    return float(out) if out.ndim == 0 else out


def trace_distance(a, b):
    """Half the trace norm of a - b for Hermitian a and b of one square shape, a float;
    for (..., d, d) stacks, an array of one distance per pair of matrices."""
    x, y = _as_mat(a), _as_mat(b)
    if x.shape != y.shape or x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"trace_distance expects square matrices of one shape, got {x.shape} and {y.shape}")
    diff = x - y
    del x, y
    diff_h = diff.conj().swapaxes(-1, -2)
    if np.max(np.abs(diff - diff_h), initial=0.0) > 1e-7:
        raise ValueError("trace_distance expects Hermitian operands")
    # symmetrised in place: no third matrix is held while the eigensolver runs
    diff += diff_h
    diff /= 2
    w = hermitian_eigvalsh(diff)
    out = 0.5 * np.sum(np.abs(w), axis=-1)
    return float(out) if out.ndim == 0 else out


def omega_vector(d: int) -> np.ndarray:
    """Maximally entangled vector on a d x d bipartite register, as a flat array."""
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[(d + 1) * np.arange(d)] = 1.0 / math.sqrt(d)
    return vec


def choi_vectors(kraus: np.ndarray, ell: int = 1) -> np.ndarray:
    """Choi vectors of the ell-fold tensor products of stacked Kraus operators, as columns.

    `kraus` has shape (r, d_out, d_in), or (keys, r, d_out, d_in) for several
    channels, each folded with itself only. Column (key, j_1 .. j_ell), j_1
    most significant, is (K_j1 (x) .. (x) K_jell (x) I) applied to the
    maximally entangled pair on d_in^ell: the row-major flattening of the
    product, scaled by 1/sqrt(d_in^ell). Each copy is one broadcast multiply
    with the operands in np.kron's order, so the entries equal a kron chain's.
    """
    stack = kraus.reshape((-1,) + kraus.shape[-3:])
    keys, r, d_out, d_in = stack.shape
    k = stack.transpose(2, 3, 0, 1)
    ops = np.ones((1, 1, keys, 1), dtype=np.complex128)
    for _ in range(ell):
        a, b, _, n = ops.shape
        ops = ops[:, None, :, None, :, :, None] * k[None, :, None, :, :, None, :]
        ops = ops.reshape(a * d_out, b * d_in, keys, n * r)
    vecs = ops.reshape(-1, keys * r**ell)
    vecs /= math.sqrt(d_in**ell)
    return vecs


def transpose_identity_residual(a: np.ndarray):
    """Residual of the ricochet move for a d_out x d_in operator.

    Applying A to one half of the input-side entangled pair equals, up to
    the sqrt(d_out/d_in) weight change, applying A^T to the partner half of
    the output-side pair. Both sides are built explicitly, A (x) I and
    I (x) A^T each as one broadcast multiply with the operands in np.kron's
    order, so their entries equal the kron products'; the return value is
    the norm of their difference and should be zero to rounding; a stack
    (..., d_out, d_in) gives an array of the residuals its matrices give alone.
    """
    mat = np.asarray(a, dtype=complex)
    *batch, d_out, d_in = mat.shape
    left = (mat[..., :, None, :, None] * np.eye(d_in)[:, None, :]).reshape(*batch, d_out * d_in, d_in * d_in)
    mat_t = np.swapaxes(mat, -1, -2)[..., None, :, None, :]
    right = (np.eye(d_out)[:, None, :, None] * mat_t).reshape(*batch, d_out * d_in, d_out * d_out)
    lhs = left @ omega_vector(d_in)
    rhs = right @ omega_vector(d_out)
    res = row_norms(lhs - math.sqrt(d_out / d_in) * rhs)
    return res if batch else float(res)


def all_perms(ell: int) -> list[tuple[int, ...]]:
    return [tuple(p) for p in permutations(range(ell))]


def register_qubits(d: int, ell: int) -> int:
    """ceil(log2(d^ell)), the qubits of ell registers of dim d. Past the budget the lower
    bound ell floor(log2 d) stands in, so an absurd ell is refused without the power."""
    low = ell * (d.bit_length() - 1)
    return low if low > budget.DEFAULT_BUDGET.max_dense_matrix_qubits else math.ceil(math.log2(d**ell))


def check_register_maps(d: int, ell: int) -> None:
    """Raise unless the ell! x d^ell table of `register_maps` fits the budget as a factor."""
    budget.DEFAULT_BUDGET.check_factor(register_qubits(d, ell), math.factorial(ell), "register maps")


def register_maps(d: int, ell: int) -> np.ndarray:
    """Index maps of the ell! permutations of ell registers of dim d, in all_perms order: row
    pi, the index grid transposed by pi, sends x to the index of |x_{pi^-1(1)} .. x_{pi^-1(ell)}>.
    Sized on every call and cached read-only, so the cache holds the maps, not the limit."""
    check_register_maps(d, ell)
    return _register_maps(d, ell)


@functools.lru_cache(maxsize=None)
def _register_maps(d: int, ell: int) -> np.ndarray:
    grid = np.arange(d**ell).reshape((d,) * ell)
    return _freeze(np.stack([grid.transpose(p).reshape(-1) for p in all_perms(ell)]))


def sym_projector(d: int, ell: int) -> np.ndarray:
    """Projector onto the symmetric subspace of (C^d)^(x ell)."""
    budget.DEFAULT_BUDGET.check_dense_matrix(register_qubits(d, ell), "symmetric projector")
    n = d**ell
    out = np.zeros((n, n), dtype=np.complex128)
    np.add.at(out, (register_maps(d, ell), np.arange(n)), 1.0)
    return out / math.factorial(ell)


def diamond_distance_unitary(u: UnitaryMatrix, v: UnitaryMatrix) -> float:
    """Exact diamond distance between two unitary conjugation channels.

    Reduces to the distance from the origin to the convex hull of the
    eigenvalues of U^dag V on the unit circle: with largest angular gap G,
    that distance is 0 when G <= pi and |cos(G/2)| otherwise.
    """
    if u.dim != v.dim:
        raise ValueError("unitaries must share a dimension")
    eig = np.linalg.eigvals(u.mat.conj().T @ v.mat)
    ang = np.sort(np.angle(eig))
    gaps = np.diff(ang)
    wrap = 2 * np.pi - (ang[-1] - ang[0])
    gap = max(float(np.max(gaps)) if gaps.size else 0.0, float(wrap))
    nu = 0.0 if gap <= np.pi else -math.cos(gap / 2)
    return 2.0 * math.sqrt(max(0.0, 1.0 - nu * nu))


def gentle_residual(measure_op, rho):
    """Post-measurement state sqrt(M) rho sqrt(M) / Tr[M rho] and its trace distance to rho.

    Takes one pair of d x d matrices or two (..., d, d) stacks, pair by pair.
    Every residual is checked as a DensityMatrix is and returned as computed.
    """
    m = _as_mat(measure_op)
    r = _as_mat(rho)
    p = np.real(np.trace(m @ r, axis1=-2, axis2=-1))
    if np.any(p <= 1e-12):
        raise ValueError("measurement outcome has zero probability on this state")
    w, v = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2)
    if np.any(w[..., 0] < -1e-8) or np.any(w[..., -1] > 1 + 1e-8):
        raise ValueError("measurement operator must satisfy 0 <= M <= I")
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    res = _finite(root @ r @ root / p[..., None, None], "density matrix")
    check_density(res)
    return res, trace_distance(res, r)


def ginibre(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    """Complex Gaussian matrix, real and imaginary parts standard normal, real drawn first."""
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from `ginibre` draws of shape (..., d, d): QR of z / sqrt(2), R's diagonal
    made positive. LAPACK factors each matrix alone, so a stack equals its draws one at a time.
    The first k columns of the draws, (..., d, k), give those unitaries' first k columns to rounding."""
    q, r = np.linalg.qr(z / math.sqrt(2))
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (ph / np.abs(ph))[..., None, :]


def random_unitary_from(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar unitary via Ginibre + QR with the phase convention fixed."""
    return haar_from_ginibre(ginibre(rng, d))


def random_state_from(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def row_norms(z: np.ndarray) -> np.ndarray:
    """The norm of each vector of a (..., n) stack, bit for bit the one np.linalg.norm gives
    that vector alone: the dot products of its real and of its imaginary parts, summed."""
    re, im = z.real[..., None, :], z.imag[..., None, :]
    return np.sqrt((re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0])


def complex_normals(paths, *shapes) -> list[np.ndarray]:
    """Per seed path, complex Gaussian arrays of `shapes` drawn one after another from its
    generator, each as `ginibre` draws it (real parts, then imaginary parts): one
    (len(paths), *shape) stack per shape, cut from one `seeds.normals` block."""
    sizes = [math.prod(shape) for shape in shapes]
    cuts = np.cumsum([m for m in sizes for _ in range(2)])[:-1]
    parts = np.split(seeds.normals(paths, 2 * sum(sizes)), cuts, axis=1)
    return [(re + 1j * im).reshape(len(re), *shape) for re, im, shape in zip(parts[::2], parts[1::2], shapes)]
